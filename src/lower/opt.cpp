// LIR optimizer pass pipeline. Every pass preserves three invariants the
// rest of the compiler depends on:
//
//  * the SPMD ranks' lockstep communication schedule changes only by whole
//    run-time calls disappearing (never by a call moving past a point where
//    its operands could differ);
//  * the shared replicated random sequence is untouched — instructions whose
//    trees draw rand are never moved, merged, or deleted;
//  * the verifier's rules still hold on the output (hoisted ML_tmp targets
//    are pre-defined before the guard so E6002's all-paths check passes).
//
// Loop hoists are guarded by the loop's own trip condition, so a zero-trip
// loop performs no hoisted communication and leaves its target untouched —
// identical to the unoptimized program.
#include "lower/opt.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lower/query.hpp"

namespace otter::lower {

namespace {

using Set = NameSet;

// -- structural queries the passes share --------------------------------------

bool is_control(LOp op) {
  switch (op) {
    case LOp::IfOp:
    case LOp::WhileOp:
    case LOp::ForOp:
    case LOp::BreakOp:
    case LOp::ContinueOp:
    case LOp::ReturnOp:
      return true;
    default:
      return false;
  }
}

/// Whether control can leave `body` other than by falling off the end.
/// `top` is true while break/continue would bind to the loop being analyzed;
/// inside a nested loop only `return` still escapes.
bool body_has_jump(const std::vector<LInstrPtr>& body, bool top) {
  for (const LInstrPtr& ip : body) {
    switch (ip->op) {
      case LOp::ReturnOp:
        return true;
      case LOp::BreakOp:
      case LOp::ContinueOp:
        if (top) return true;
        break;
      default:
        break;
    }
    for (const LIfArm& arm : ip->arms) {
      if (body_has_jump(arm.body, top)) return true;
    }
    bool inner_loop = ip->op == LOp::WhileOp || ip->op == LOp::ForOp;
    if (body_has_jump(ip->body, top && !inner_loop)) return true;
  }
  return false;
}

/// Full read set of an instruction including control headers and every
/// nested body (the "does anything in here read `t`" query).
bool reads_name(const LInstr& in, const std::string& t) {
  Set r;
  header_reads(in, r);
  if (r.contains(t)) return true;
  for (const LIfArm& arm : in.arms) {
    for (const LInstrPtr& ip : arm.body) {
      if (reads_name(*ip, t)) return true;
    }
  }
  for (const LInstrPtr& ip : in.body) {
    if (reads_name(*ip, t)) return true;
  }
  return false;
}
// -- copy propagation ---------------------------------------------------------

/// Forward, per-straight-line-block propagation of CopyMat aliases: a read
/// of the copy becomes a read of the source while both still hold the same
/// value. Control flow clears the alias map (each loop iteration re-executes
/// its copies from the top, so a linear scan of the body is per-iteration
/// sound). A CopyMat that turns into `x = x` after propagation is dropped.
class CopyProp {
 public:
  explicit CopyProp(OptReport& rep) : rep_(rep) {}

  void run(std::vector<LInstrPtr>& body) { walk(body); }

 private:
  std::string resolve(const std::string& n) const {
    auto it = map_.find(n);
    return it == map_.end() ? n : it->second;
  }

  void rewrite_tree(LExpr* e) {
    if (e == nullptr) return;
    switch (e->kind) {
      case LExpr::Kind::MatVar:
      case LExpr::Kind::RowsOf:
      case LExpr::Kind::ColsOf:
      case LExpr::Kind::NumelOf: {
        std::string r = resolve(e->var);
        if (r != e->var) {
          e->var = r;
          ++rep_.copies_propagated;
        }
        break;
      }
      default:
        break;
    }
    rewrite_tree(e->a.get());
    rewrite_tree(e->b.get());
  }

  void rewrite_reads(LInstr& in) {
    for (LOperand& o : in.args) {
      if (o.is_matrix) {
        std::string r = resolve(o.mat);
        if (r != o.mat) {
          o.mat = r;
          ++rep_.copies_propagated;
        }
      }
      rewrite_tree(o.scalar.get());
    }
    rewrite_tree(in.tree.get());
    for (auto& row : in.literal_rows) {
      for (LExprPtr& e : row) rewrite_tree(e.get());
    }
  }

  /// A definition of `n` ends both aliases *of* n and aliases *to* n.
  void invalidate(const std::string& n) {
    map_.erase(n);
    for (auto it = map_.begin(); it != map_.end();) {
      it = (it->second == n) ? map_.erase(it) : std::next(it);
    }
  }

  void walk(std::vector<LInstrPtr>& body) {
    map_.clear();
    for (size_t i = 0; i < body.size(); ++i) {
      LInstr& in = *body[i];
      if (is_control(in.op)) {
        map_.clear();
        for (LIfArm& arm : in.arms) walk(arm.body);
        if (!in.body.empty()) walk(in.body);
        map_.clear();
        continue;
      }
      rewrite_reads(in);
      if (in.op == LOp::CopyMat && in.args.size() == 1 &&
          in.args[0].is_matrix && in.args[0].mat == in.dst) {
        body.erase(body.begin() + static_cast<ptrdiff_t>(i));
        --i;
        ++rep_.copies_propagated;
        continue;
      }
      Set defs;
      instr_defs(in, defs);
      for (const std::string& d : defs) invalidate(d);
      if (in.op == LOp::CopyMat && !in.dst.empty() && in.args.size() == 1 &&
          in.args[0].is_matrix && in.args[0].mat != in.dst) {
        map_[in.dst] = in.args[0].mat;
      }
    }
    map_.clear();
  }

  std::unordered_map<std::string, std::string> map_;
  OptReport& rep_;
};

// -- communication CSE --------------------------------------------------------

/// Within a straight-line block, a second communication call with the same
/// opcode and operands (none redefined in between, no rand draws) recomputes
/// a value a variable already holds: replace it with an alias. Control flow
/// clears the table.
class CommCse {
 public:
  explicit CommCse(OptReport& rep) : rep_(rep) {}

  void run(std::vector<LInstrPtr>& body) { walk(body); }

 private:
  struct Entry {
    std::string target;
    bool matrix = false;
    Set reads;
  };

  static std::string key_of(const LInstr& in) {
    std::string k = lop_name(in.op);
    k += '|';
    k += std::to_string(static_cast<int>(in.red));
    k += in.linear ? 'L' : '-';
    for (const LOperand& o : in.args) {
      k += '|';
      if (o.is_matrix) {
        k += 'm';
        k += o.mat;
      } else if (o.is_string) {
        k += 's';
        k += o.str;
      } else if (o.scalar) {
        k += 'e';
        k += dump_lexpr(*o.scalar);
      }
    }
    return k;
  }

  void invalidate(const std::string& n) {
    for (auto it = table_.begin(); it != table_.end();) {
      if (it->second.target == n || it->second.reads.contains(n)) {
        it = table_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void walk(std::vector<LInstrPtr>& body) {
    table_.clear();
    for (size_t i = 0; i < body.size(); ++i) {
      LInstr& in = *body[i];
      if (is_control(in.op)) {
        table_.clear();
        for (LIfArm& arm : in.arms) walk(arm.body);
        if (!in.body.empty()) walk(in.body);
        table_.clear();
        continue;
      }
      Set defs;
      instr_defs(in, defs);
      bool cseable = is_comm_read(in.op) && !any_tree_has_rand(in) &&
                     (in.dst.empty() != in.sdst.empty());
      if (cseable) {
        std::string key = key_of(in);
        auto it = table_.find(key);
        if (it != table_.end()) {
          const std::string target = it->second.target;
          const bool matrix = it->second.matrix;
          std::string newdef = matrix ? in.dst : in.sdst;
          if (newdef == target) {
            // Recomputing into the same variable: a pure no-op.
            body.erase(body.begin() + static_cast<ptrdiff_t>(i));
            --i;
            ++rep_.cse_removed;
            continue;
          }
          auto repl = std::make_unique<LInstr>(
              matrix ? LOp::CopyMat : LOp::ScalarAssign, in.loc);
          if (matrix) {
            repl->dst = newdef;
            LOperand o;
            o.is_matrix = true;
            o.mat = target;
            repl->args.push_back(std::move(o));
          } else {
            repl->sdst = newdef;
            repl->tree = lsvar(target);
          }
          body[i] = std::move(repl);
          ++rep_.cse_removed;
          invalidate(newdef);
          continue;
        }
        Set reads;
        instr_reads(in, reads);
        for (const std::string& d : defs) invalidate(d);
        bool self = false;
        for (const std::string& d : defs) {
          if (reads.contains(d)) self = true;
        }
        if (!self) {
          Entry e;
          e.target = in.dst.empty() ? in.sdst : in.dst;
          e.matrix = !in.dst.empty();
          e.reads = std::move(reads);
          table_.emplace(std::move(key), std::move(e));
        }
        continue;
      }
      if (is_rmw(in.op) && !in.dst.empty()) defs.insert(in.dst);
      for (const std::string& d : defs) invalidate(d);
    }
    table_.clear();
  }

  std::unordered_map<std::string, Entry> table_;
  OptReport& rep_;
};

// -- element-wise fusion ------------------------------------------------------

/// Fuses `t = <tree1>; …; w = f(t)` into `w = f(<tree1>)` when the consumer
/// is the only instruction in the whole scope that reads t, both are Elemwise
/// in the same straight-line block, and nothing in between redefines t or any
/// producer input. All element-wise operands are aligned by construction, so
/// substituting the producer tree for the MatVar leaves is exact — per local
/// element, reads of index l happen before the write of index l, which is the
/// same in-place rule the single-statement fused loop already relies on.
class Fuser {
 public:
  Fuser(OptReport& rep, std::vector<LInstrPtr>& root, const Set& protect)
      : rep_(rep), root_(root), protect_(protect) {}

  void run() { walk(root_); }

 private:
  static size_t tree_nodes(const LExpr& e) {
    return 1 + (e.a ? tree_nodes(*e.a) : 0) + (e.b ? tree_nodes(*e.b) : 0);
  }

  static size_t count_mat_leaf(const LExpr& e, const std::string& name) {
    size_t n = (e.kind == LExpr::Kind::MatVar && e.var == name) ? 1 : 0;
    if (e.a) n += count_mat_leaf(*e.a, name);
    if (e.b) n += count_mat_leaf(*e.b, name);
    return n;
  }

  /// RowsOf/ColsOf/NumelOf of `name`: a shape query a tree can't replace.
  static bool has_query_of(const LExpr& e, const std::string& name) {
    switch (e.kind) {
      case LExpr::Kind::RowsOf:
      case LExpr::Kind::ColsOf:
      case LExpr::Kind::NumelOf:
        if (e.var == name) return true;
        break;
      default:
        break;
    }
    if (e.a && has_query_of(*e.a, name)) return true;
    if (e.b && has_query_of(*e.b, name)) return true;
    return false;
  }

  static void substitute(LExprPtr& e, const std::string& name,
                         const LExpr& repl) {
    if (!e) return;
    if (e->kind == LExpr::Kind::MatVar && e->var == name) {
      e = clone_lexpr(repl);
      return;
    }
    substitute(e->a, name, repl);
    substitute(e->b, name, repl);
  }

  /// name → instructions (anywhere in the scope) whose read set contains it.
  std::unordered_map<std::string, std::vector<const LInstr*>> build_readers() {
    std::unordered_map<std::string, std::vector<const LInstr*>> readers;
    add_readers(root_, readers);
    return readers;
  }

  static void add_readers(
      const std::vector<LInstrPtr>& body,
      std::unordered_map<std::string, std::vector<const LInstr*>>& readers) {
    for (const LInstrPtr& ip : body) {
      const LInstr& in = *ip;
      Set r;
      header_reads(in, r);
      for (const std::string& n : r) readers[n].push_back(&in);
      for (const LIfArm& arm : in.arms) add_readers(arm.body, readers);
      add_readers(in.body, readers);
    }
  }

  void walk(std::vector<LInstrPtr>& body) {
    for (LInstrPtr& ip : body) {
      for (LIfArm& arm : ip->arms) walk(arm.body);
      if (!ip->body.empty()) walk(ip->body);
    }
    fuse_block(body);
  }

  void fuse_block(std::vector<LInstrPtr>& body) {
    bool changed = true;
    while (changed) {
      changed = false;
      auto readers = build_readers();
      for (size_t i = 0; i < body.size() && !changed; ++i) {
        LInstr& prod = *body[i];
        if (prod.op != LOp::Elemwise || prod.dst.empty() || !prod.tree) {
          continue;
        }
        if (any_tree_has_rand(prod) || !prod.tree->has_matrix_leaf()) continue;
        const std::string& t = prod.dst;
        if (protect_.contains(t)) continue;
        auto rit = readers.find(t);
        if (rit == readers.end() || rit->second.size() != 1) continue;
        const LInstr* sole = rit->second.front();
        Set prod_reads;
        tree_vars(prod.tree.get(), prod_reads);
        for (size_t j = i + 1; j < body.size(); ++j) {
          LInstr& cons = *body[j];
          if (is_control(cons.op)) break;
          if (&cons == sole) {
            if (cons.op != LOp::Elemwise || !cons.tree) break;
            if (has_query_of(*cons.tree, t)) break;
            size_t uses = count_mat_leaf(*cons.tree, t);
            if (uses == 0) break;
            size_t pn = tree_nodes(*prod.tree);
            if (uses > 1 && pn > 8) break;  // avoid duplicating big trees
            if (tree_nodes(*cons.tree) + uses * pn > 256) break;
            substitute(cons.tree, t, *prod.tree);
            body.erase(body.begin() + static_cast<ptrdiff_t>(i));
            ++rep_.fused;
            changed = true;
            break;
          }
          Set cdefs;
          instr_defs(cons, cdefs);
          if (cdefs.contains(t)) break;
          bool clobbers = false;
          for (const std::string& d : cdefs) {
            if (prod_reads.contains(d)) {
              clobbers = true;
              break;
            }
          }
          if (clobbers) break;
        }
      }
    }
  }

  OptReport& rep_;
  std::vector<LInstrPtr>& root_;
  const Set& protect_;
};

// -- loop-invariant communication motion --------------------------------------

/// Hoists top-level communication calls whose operands the loop never
/// redefines out of For/While bodies, into an if-guard in front of the loop
/// that re-evaluates the loop's own entry condition. The guard makes the
/// transformation exact for zero-trip loops (no speculative communication,
/// the target variable keeps its pre-loop value); for one or more trips the
/// hoisted call sees exactly the operand values iteration 1 would have seen.
class Licm {
 public:
  explicit Licm(OptReport& rep) : rep_(rep) {}

  void run(std::vector<LInstrPtr>& body) { walk(body); }

 private:
  void walk(std::vector<LInstrPtr>& body) {
    for (size_t i = 0; i < body.size(); ++i) {
      LInstr& in = *body[i];
      for (LIfArm& arm : in.arms) walk(arm.body);
      if (!in.body.empty()) walk(in.body);
      if (in.op == LOp::ForOp || in.op == LOp::WhileOp) {
        i += hoist_from(body, i);
      }
    }
  }

  static void count_defs(const std::vector<LInstrPtr>& body,
                         std::unordered_map<std::string, size_t>& count,
                         Set& rmw_targets) {
    for (const LInstrPtr& ip : body) {
      const LInstr& in = *ip;
      if (is_rmw(in.op) && !in.dst.empty()) rmw_targets.insert(in.dst);
      Set defs;
      instr_defs(in, defs);
      for (const std::string& d : defs) ++count[d];
      for (const LIfArm& arm : in.arms) count_defs(arm.body, count, rmw_targets);
      count_defs(in.body, count, rmw_targets);
    }
  }

  /// Is `t` read by the loop header or by anything at top-level positions
  /// before `p`? Such a read observes iteration N-1's value (or the
  /// pre-loop value in iteration 1), which a hoist would change.
  static bool read_before(const LInstr& loop, size_t p, const std::string& t) {
    Set hdr;
    tree_vars(loop.cond.get(), hdr);
    tree_vars(loop.lo.get(), hdr);
    tree_vars(loop.step.get(), hdr);
    tree_vars(loop.hi.get(), hdr);
    if (hdr.contains(t)) return true;
    for (size_t k = 0; k < p; ++k) {
      if (reads_name(*loop.body[k], t)) return true;
    }
    return false;
  }

  /// Entry condition for the guard: while re-evaluates its own condition;
  /// for uses the sign-exact trip test (step > 0 && lo <= hi) ||
  /// (step < 0 && lo >= hi), which also runs zero trips for step == 0 or
  /// NaN bounds, matching the executor.
  static LExprPtr guard_cond(const LInstr& loop) {
    if (loop.op == LOp::WhileOp) return clone_lexpr(*loop.cond);
    LExprPtr step = loop.step ? clone_lexpr(*loop.step) : limm(1.0);
    LExprPtr step2 = loop.step ? clone_lexpr(*loop.step) : limm(1.0);
    LExprPtr up = lbin(EwBin::And, lbin(EwBin::Gt, std::move(step), limm(0.0)),
                       lbin(EwBin::Le, clone_lexpr(*loop.lo),
                            clone_lexpr(*loop.hi)));
    LExprPtr down =
        lbin(EwBin::And, lbin(EwBin::Lt, std::move(step2), limm(0.0)),
             lbin(EwBin::Ge, clone_lexpr(*loop.lo), clone_lexpr(*loop.hi)));
    return lbin(EwBin::Or, std::move(up), std::move(down));
  }

  static bool is_tmp(const std::string& n) {
    return n.rfind("ML_tmp", 0) == 0;
  }

  /// Returns the number of instructions inserted in front of body[li].
  size_t hoist_from(std::vector<LInstrPtr>& body, size_t li) {
    LInstr& loop = *body[li];
    if (body_has_jump(loop.body, true)) return 0;
    // The guard clones the loop's entry condition: bail if evaluating it a
    // second time would advance the random sequence.
    if (loop.op == LOp::WhileOp) {
      if (!loop.cond || tree_has_rand(*loop.cond)) return 0;
    } else {
      if (!loop.lo || !loop.hi) return 0;
      if (tree_has_rand(*loop.lo) || tree_has_rand(*loop.hi)) return 0;
      if (loop.step && tree_has_rand(*loop.step)) return 0;
    }

    Set defs;
    collect_defs(loop.body, defs);
    if (loop.op == LOp::ForOp && !loop.loop_var.empty()) {
      defs.insert(loop.loop_var);
    }
    std::unordered_map<std::string, size_t> def_count;
    Set rmw_targets;
    count_defs(loop.body, def_count, rmw_targets);

    std::vector<LInstrPtr> hoisted;
    bool grew = true;
    int rounds = 0;
    while (grew && rounds++ < 4) {
      grew = false;
      for (size_t p = 0; p < loop.body.size(); ++p) {
        LInstr& c = *loop.body[p];
        if (!is_comm_read(c.op) || any_tree_has_rand(c)) continue;
        std::string t = c.dst.empty() ? c.sdst : c.dst;
        if (t.empty()) continue;
        Set reads;
        instr_reads(c, reads);
        bool invariant = true;
        for (const std::string& r : reads) {
          if (defs.contains(r)) {
            invariant = false;
            break;
          }
        }
        if (!invariant) continue;
        auto dc = def_count.find(t);
        if (dc == def_count.end() || dc->second != 1) continue;
        if (rmw_targets.contains(t)) continue;
        if (read_before(loop, p, t)) continue;
        rep_.hoists.push_back({c.loc, t, lop_name(c.op)});
        hoisted.push_back(std::move(loop.body[p]));
        loop.body.erase(loop.body.begin() + static_cast<ptrdiff_t>(p));
        defs.erase(t);       // now loop-invariant for later candidates
        def_count.erase(t);
        grew = true;
        --p;
      }
    }
    if (hoisted.empty()) return 0;

    // Pre-define hoisted ML_tmp targets so the verifier's all-paths rule
    // holds; the values are never read when the guard does not fire (the
    // temps' only readers are inside the loop body).
    std::vector<LInstrPtr> inserted;
    for (const LInstrPtr& h : hoisted) {
      if (!h->sdst.empty() && is_tmp(h->sdst)) {
        auto pre = std::make_unique<LInstr>(LOp::ScalarAssign, h->loc);
        pre->sdst = h->sdst;
        pre->tree = limm(0.0);
        inserted.push_back(std::move(pre));
      } else if (!h->dst.empty() && is_tmp(h->dst)) {
        auto pre = std::make_unique<LInstr>(LOp::FillZeros, h->loc);
        pre->dst = h->dst;
        LOperand r;
        r.scalar = limm(1.0);
        LOperand cdim;
        cdim.scalar = limm(1.0);
        pre->args.push_back(std::move(r));
        pre->args.push_back(std::move(cdim));
        inserted.push_back(std::move(pre));
      }
    }
    auto guard = std::make_unique<LInstr>(LOp::IfOp, loop.loc);
    LIfArm arm;
    arm.cond = guard_cond(loop);
    arm.body = std::move(hoisted);
    guard->arms.push_back(std::move(arm));
    inserted.push_back(std::move(guard));

    size_t n = inserted.size();
    body.insert(body.begin() + static_cast<ptrdiff_t>(li),
                std::make_move_iterator(inserted.begin()),
                std::make_move_iterator(inserted.end()));
    return n;
  }

  OptReport& rep_;
};

// -- proof-backed shape-guard elimination -------------------------------------

/// Deletes ShapeGuard instructions the abstract interpreter proved can never
/// fire. The pass is deliberately dumb: it only matches each guard against
/// the proof list by (line, col, builtin) and records what it deleted, so
/// the verifier can later check every deletion against a proof (E6009). The
/// reasoning all lives in analysis/absint.cpp.
class GuardElim {
 public:
  GuardElim(OptReport& rep, const std::vector<GuardProof>& proofs, bool del)
      : rep_(rep), proofs_(proofs), delete_(del) {}

  void run(std::vector<LInstrPtr>& body) { walk(body); }

 private:
  static std::string builtin_of(const LInstr& in) {
    return in.args.size() > 1 && in.args[1].is_string ? in.args[1].str : "";
  }

  bool proven(const LInstr& in) const {
    for (const GuardProof& p : proofs_) {
      if (p.loc.line == in.loc.line && p.loc.col == in.loc.col &&
          p.builtin == builtin_of(in)) {
        return true;
      }
    }
    return false;
  }

  void walk(std::vector<LInstrPtr>& body) {
    for (size_t i = 0; i < body.size(); ++i) {
      LInstr& in = *body[i];
      for (LIfArm& arm : in.arms) walk(arm.body);
      if (!in.body.empty()) walk(in.body);
      if (in.op != LOp::ShapeGuard) continue;
      ++rep_.guards_seen;
      if (delete_ && proven(in)) {
        rep_.guards_eliminated.push_back({in.loc, builtin_of(in)});
        body.erase(body.begin() + static_cast<ptrdiff_t>(i));
        --i;
      }
    }
  }

  OptReport& rep_;
  const std::vector<GuardProof>& proofs_;
  bool delete_;
};
// -- dead-store elimination ---------------------------------------------------

/// Liveness-driven dead-statement elimination over one scope. A removable
/// instruction (query.hpp) whose results no later statement or observable
/// output can read is deleted, so the SPMD ranks' communication schedule
/// and the random stream change only by whole dead run-time calls.
///
/// Liveness runs backward over the structured LIR directly (no CFG needed):
/// loops iterate a read-only transfer to a fixpoint before the mutating
/// pass, and a break/continue/return conservatively revives every name the
/// scope ever reads.
class Dse {
 public:
  /// `outs` are the names observable when the scope ends: a function's
  /// outputs, nothing for the script (whose results are what it prints).
  size_t run(std::vector<LInstrPtr>& body, const Set& outs) {
    collect_ever_read(body, ever_read_);
    ever_read_.insert(outs.begin(), outs.end());
    Set live = outs;
    process(body, live);
    return removed_;
  }

 private:
  /// Backward transfer of one non-control instruction over `live`.
  static void transfer(const LInstr& in, Set& live) {
    if (!is_rmw(in.op)) {
      if (!in.dst.empty()) live.erase(in.dst);
      if (!in.sdst.empty()) live.erase(in.sdst);
      for (const LVarDecl& d : in.call_dsts) live.erase(d.name);
    } else if (!in.dst.empty()) {
      live.insert(in.dst);
    }
    instr_reads(in, live);
  }

  /// Non-mutating backward liveness over a body (used to reach the loop
  /// fixpoint before any removal decision inside the loop is made).
  void scan(const std::vector<LInstrPtr>& body, Set& live) {
    for (size_t i = body.size(); i-- > 0;) {
      const LInstr& in = *body[i];
      switch (in.op) {
        case LOp::IfOp: {
          Set merged = has_else(in) ? Set{} : live;
          for (const LIfArm& arm : in.arms) {
            Set l = live;
            scan(arm.body, l);
            merged.insert(l.begin(), l.end());
            tree_vars(arm.cond.get(), merged);
          }
          live = std::move(merged);
          break;
        }
        case LOp::WhileOp:
        case LOp::ForOp: {
          Set entry = loop_entry_live(in, live);
          live.insert(entry.begin(), entry.end());
          add_loop_header_reads(in, live);
          break;
        }
        case LOp::BreakOp:
        case LOp::ContinueOp:
        case LOp::ReturnOp:
          live = ever_read_;
          break;
        default:
          transfer(in, live);
      }
    }
  }

  static bool has_else(const LInstr& in) {
    return !in.arms.empty() && !in.arms.back().cond;
  }

  static void add_loop_header_reads(const LInstr& in, Set& live) {
    if (in.op == LOp::WhileOp) {
      tree_vars(in.cond.get(), live);
    } else {
      live.erase(in.loop_var);
      tree_vars(in.lo.get(), live);
      tree_vars(in.step.get(), live);
      tree_vars(in.hi.get(), live);
    }
  }

  /// Live-at-body-entry fixpoint for a loop: E = transfer_body(E U after),
  /// accounting for the back edge re-reading what an iteration needs.
  Set loop_entry_live(const LInstr& in, const Set& after) {
    Set entry;
    for (;;) {
      Set l = after;
      l.insert(entry.begin(), entry.end());
      if (in.op == LOp::ForOp) l.insert(in.loop_var);  // next-iteration def
      scan(in.body, l);
      if (in.op == LOp::WhileOp) tree_vars(in.cond.get(), l);
      if (in.op == LOp::ForOp) l.erase(in.loop_var);
      bool grew = false;
      for (const std::string& n : l) {
        if (entry.insert(n).second) grew = true;
      }
      if (!grew) return entry;
    }
  }

  /// Mutating backward pass: removes dead pure instructions.
  void process(std::vector<LInstrPtr>& body, Set& live) {
    for (size_t i = body.size(); i-- > 0;) {
      LInstr& in = *body[i];
      switch (in.op) {
        case LOp::IfOp: {
          Set merged = has_else(in) ? Set{} : live;
          for (LIfArm& arm : in.arms) {
            Set l = live;
            process(arm.body, l);
            merged.insert(l.begin(), l.end());
            tree_vars(arm.cond.get(), merged);
          }
          live = std::move(merged);
          break;
        }
        case LOp::WhileOp:
        case LOp::ForOp: {
          Set entry = loop_entry_live(in, live);
          Set body_live = live;
          body_live.insert(entry.begin(), entry.end());
          if (in.op == LOp::WhileOp) tree_vars(in.cond.get(), body_live);
          process(in.body, body_live);
          live.insert(entry.begin(), entry.end());
          add_loop_header_reads(in, live);
          break;
        }
        case LOp::BreakOp:
        case LOp::ContinueOp:
        case LOp::ReturnOp:
          live = ever_read_;
          break;
        default: {
          bool defines = !in.dst.empty() || !in.sdst.empty();
          bool dead = defines && removable(in) &&
                      (in.dst.empty() || !live.contains(in.dst)) &&
                      (in.sdst.empty() || !live.contains(in.sdst));
          if (dead) {
            body.erase(body.begin() + static_cast<ptrdiff_t>(i));
            ++removed_;
          } else {
            transfer(in, live);
          }
        }
      }
    }
  }

  Set ever_read_;
  size_t removed_ = 0;
};

}  // namespace

OptReport run_opt(LProgram& prog, const OptOptions& opts) {
  OptReport rep;
  if (opts.level <= 0) return rep;
  bool full = opts.level >= 2;
  auto optimize_scope = [&](std::vector<LInstrPtr>& body, const Set& protect) {
    if (opts.copyprop) CopyProp(rep).run(body);
    if (full && opts.cse) CommCse(rep).run(body);
    if (full && opts.fuse) Fuser(rep, body, protect).run();
    if (full && opts.licm) Licm(rep).run(body);
    // Guard elimination runs before the final copy-prop/DSE so a guard
    // whose matrix becomes otherwise-unread frees that definition too.
    GuardElim(rep, opts.guard_proofs, full && opts.guard_elim).run(body);
    if (opts.copyprop) CopyProp(rep).run(body);
    // Repeated to a fixpoint: a removal inside a loop can free definitions
    // that the loop's liveness, computed before it, still counted as read,
    // and alias chains freed by copy propagation unravel one link a round.
    for (size_t got = 1; got != 0; rep.swept += got) {
      got = Dse().run(body, protect);
    }
  };
  Set script_protect;
  optimize_scope(prog.script, script_protect);
  for (LFunction& fn : prog.functions) {
    Set outs;
    for (const LVarDecl& d : fn.outs) outs.insert(d.name);
    optimize_scope(fn.body, outs);
  }
  return rep;
}

}  // namespace otter::lower
