#include "sema/infer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "frontend/builtins.hpp"
#include "support/matio.hpp"
#include "support/range.hpp"

namespace otter::sema {

const char* base_type_name(BaseType t) {
  switch (t) {
    case BaseType::Bottom: return "undefined";
    case BaseType::Literal: return "literal";
    case BaseType::Integer: return "integer";
    case BaseType::Real: return "real";
    case BaseType::Complex: return "complex";
  }
  return "?";
}

const char* rank_name(RankKind r) {
  switch (r) {
    case RankKind::Bottom: return "undefined";
    case RankKind::Scalar: return "scalar";
    case RankKind::Matrix: return "matrix";
  }
  return "?";
}

Ty join(const Ty& a, const Ty& b, bool* conflict) {
  if (!a.defined()) return b;
  if (!b.defined()) return a;
  Ty out;
  // Type lattice: Integer ⊑ Real ⊑ Complex; Literal joins only with itself.
  if (a.type == BaseType::Literal || b.type == BaseType::Literal) {
    if (a.type != b.type && conflict) *conflict = true;
    out.type = BaseType::Literal;
  } else {
    out.type = std::max(a.type, b.type);
  }
  // Rank: Scalar ⊔ Matrix = Matrix (a scalar is a 1x1 matrix).
  out.rank = std::max(a.rank, b.rank);
  out.rows = (a.rows == b.rows) ? a.rows : -1;
  out.cols = (a.cols == b.cols) ? a.cols : -1;
  if (out.rank == RankKind::Scalar) {
    out.rows = 1;
    out.cols = 1;
  }
  if (a.has_cval && b.has_cval && a.cval == b.cval) {
    out.cval = a.cval;
    out.has_cval = true;
  }
  return out;
}

namespace {

/// Merge two element-wise operand shapes (scalar broadcast handled earlier).
void merge_dims(long ar, long ac, long br, long bc, long* rr, long* rc,
                bool* mismatch) {
  *rr = ar != -1 ? ar : br;
  *rc = ac != -1 ? ac : bc;
  if (ar != -1 && br != -1 && ar != br) *mismatch = true;
  if (ac != -1 && bc != -1 && ac != bc) *mismatch = true;
}

/// Makes a matrix-or-scalar Ty from dims: 1x1 collapses to Scalar.
Ty shaped(BaseType t, long rows, long cols) {
  if (rows == 1 && cols == 1) return Ty::scalar(t);
  return Ty::matrix(t, rows, cols);
}

class Inferencer {
 public:
  Inferencer(Program& prog, DiagEngine& diags, InferResult& out,
             const InferOptions& opts)
      : prog_(prog), diags_(diags), out_(out), opts_(opts) {}

  void run() {
    out_.script_ssa = build_ssa(prog_.script);
    analyze_scope(out_.script_ssa, out_.script, {}, {});
  }

 private:
  // -- function instances -----------------------------------------------------

  static std::string mangle(const std::string& name,
                            const std::vector<Ty>& args) {
    std::ostringstream ss;
    ss << name;
    for (const Ty& a : args) {
      ss << '$' << (a.is_scalar() ? 's' : 'm');
      switch (a.type) {
        case BaseType::Literal: ss << 'l'; break;
        case BaseType::Integer: ss << 'i'; break;
        case BaseType::Real: ss << 'r'; break;
        case BaseType::Complex: ss << 'c'; break;
        case BaseType::Bottom: ss << 'b'; break;
      }
    }
    return ss.str();
  }

  std::vector<Ty> instantiate(const std::string& name,
                              const std::vector<Ty>& args, SourceLoc loc,
                              const Expr* call_site) {
    auto fit = prog_.functions.find(name);
    if (fit == prog_.functions.end()) return {};
    const Function& fn = *fit->second;
    std::string key = mangle(name, args);
    if (call_site) out_.call_instance[call_site] = key;

    auto iit = out_.instances.find(key);
    if (iit != out_.instances.end()) return iit->second.out_types;
    if (in_progress_.contains(key)) {
      report("E3101", loc, "recursive function '" + name +
                               "' is not supported by the Otter compiler");
      return std::vector<Ty>(fn.outs.size(), Ty::scalar(BaseType::Real));
    }
    if (opts_.budget != nullptr &&
        opts_.budget->limits().max_instances > 0 &&
        out_.instances.size() >= opts_.budget->limits().max_instances) {
      report_budget("E0006", loc,
                    "function instantiation budget exceeded (" +
                        std::to_string(opts_.budget->limits().max_instances) +
                        " instances); simplify the call graph");
      return std::vector<Ty>(fn.outs.size(), Ty::scalar(BaseType::Real));
    }
    in_progress_.insert(key);

    if (!out_.fn_ssa.contains(&fn)) {
      // const_cast: SSA writes version annotations into the AST.
      auto& body = const_cast<Function&>(fn).body;
      out_.fn_ssa.emplace(&fn, build_ssa(body, fn.params));
    }

    FnInstance inst;
    inst.fn = &fn;
    inst.mangled = key;
    inst.arg_types = args;
    // Parameters enter with version 0.
    std::vector<std::pair<std::string, Ty>> entry;
    for (size_t i = 0; i < fn.params.size(); ++i) {
      Ty t = i < args.size() ? args[i] : Ty{};
      entry.emplace_back(fn.params[i], t);
    }
    analyze_scope(out_.fn_ssa.at(&fn), inst.types, entry, fn.name);
    for (const std::string& o : fn.outs) {
      Ty t;
      auto vit = inst.types.var_class.find(o);
      if (vit != inst.types.var_class.end()) t = vit->second;
      if (!t.defined()) {
        diags_.warning("E3102", fn.loc,
                       "output '" + o + "' of '" + fn.name +
                           "' may be undefined on some path");
        t = Ty::scalar(BaseType::Real);
      }
      inst.out_types.push_back(t);
    }
    std::vector<Ty> outs = inst.out_types;
    out_.instances.emplace(key, std::move(inst));
    in_progress_.erase(key);
    return outs;
  }

  // -- scope fixpoint -----------------------------------------------------------

  void analyze_scope(ScopeSsa& ssa, ScopeTypes& st,
                     const std::vector<std::pair<std::string, Ty>>& entry,
                     const std::string& scope_name) {
    // Re-entrant: analysing a function instance nests inside the caller's
    // scope analysis (calls are discovered mid-inference).
    ScopeTypes* saved_cur = cur_;
    ScopeSsa* saved_ssa = cur_ssa_;
    bool saved_quiet = quiet_;
    cur_ = &st;
    cur_ssa_ = &ssa;
    (void)scope_name;
    size_t total_versions = 0;
    for (const auto& [name, count] : ssa.version_counts) {
      total_versions += static_cast<size_t>(count);
      st.versions[name].assign(static_cast<size_t>(count), Ty{});
    }
    if (opts_.budget != nullptr &&
        opts_.budget->limits().max_ssa_versions > 0 &&
        total_versions > opts_.budget->limits().max_ssa_versions) {
      report_budget(
          "E0005", {},
          "SSA version budget exceeded (" + std::to_string(total_versions) +
              " > " +
              std::to_string(opts_.budget->limits().max_ssa_versions) +
              "); the program has too many assignments");
      cur_ = saved_cur;
      cur_ssa_ = saved_ssa;
      return;
    }
    for (const auto& [name, ty] : entry) {
      if (!st.versions[name].empty()) st.versions[name][0] = ty;
    }

    // Fixpoint: lattice values only climb; a few sweeps suffice.
    bool changed = true;
    int iters = 0;
    while (changed && iters++ < 64) {
      if (opts_.budget != nullptr && opts_.budget->expired()) {
        report_budget("E0004", {},
                      "compilation wall-clock budget exceeded during "
                      "inference");
        break;
      }
      changed = false;
      quiet_ = iters > 1;  // only report diagnostics once
      for (const BasicBlock& b : ssa.cfg.blocks) {
        // Phis first.
        auto pit = ssa.phis.find(b.id);
        if (pit != ssa.phis.end()) {
          for (const Phi& phi : pit->second) {
            Ty t;
            bool conflict = false;
            for (int v : phi.ins) {
              if (v >= 0) t = join(t, st.versions[phi.var][static_cast<size_t>(v)], &conflict);
            }
            if (phi.out >= 0 &&
                st.versions[phi.var][static_cast<size_t>(phi.out)] != t) {
              st.versions[phi.var][static_cast<size_t>(phi.out)] = t;
              changed = true;
            }
          }
        }
        for (const Action& a : b.actions) {
          changed |= process_action(a);
        }
      }
    }

    // Collapse versions into per-name storage classes.
    for (const auto& [name, vers] : st.versions) {
      Ty t;
      bool conflict = false;
      for (const Ty& v : vers) t = join(t, v, &conflict);
      if (conflict) {
        diags_.error("E3103", {},
                     "variable '" + name +
                         "' mixes literal and numeric values");
      }
      st.var_class[name] = t;
    }
    cur_ = saved_cur;
    cur_ssa_ = saved_ssa;
    quiet_ = saved_quiet;
  }

  bool set_version(const std::string& name, int ver, const Ty& t) {
    if (ver < 0) return false;
    Ty& slot = cur_->versions[name][static_cast<size_t>(ver)];
    Ty joined = join(slot, t);
    if (slot != joined) {
      slot = joined;
      return true;
    }
    return false;
  }

  bool process_action(const Action& a) {
    switch (a.kind) {
      case Action::Kind::Condition: {
        Ty t = infer_expr(*a.cond);
        (void)t;
        return false;
      }
      case Action::Kind::LoopDef: {
        const Stmt& s = *a.stmt;
        Ty range = cur_->expr_types.count(s.expr.get())
                       ? cur_->expr_types[s.expr.get()]
                       : Ty{};
        Ty iter;
        if (s.expr->kind == ExprKind::Range || range.is_scalar() ||
            range.rows == 1) {
          iter = Ty::scalar(range.defined() ? range.type : BaseType::Real);
        } else {
          // Iterating the columns of a matrix.
          iter = Ty::matrix(range.type, range.rows, 1);
        }
        return set_version(s.loop_var, s.loop_var_version, iter);
      }
      case Action::Kind::Statement:
        break;
    }
    const Stmt& s = *a.stmt;
    if (s.kind == StmtKind::ExprStmt) {
      Ty t = infer_expr(*s.expr);
      // 'ans' receives the value; find its version via… ExprStmt has no
      // LValue, so versions were allocated in renaming order. We conservat-
      // ively fold into the name-level class only.
      (void)t;
      return false;
    }
    if (s.kind != StmtKind::Assign) return false;

    // Right-hand side (multi-assign handled specially for calls).
    std::vector<Ty> rhs;
    if (s.targets.size() > 1 && s.expr->kind == ExprKind::Call &&
        s.expr->callee != CalleeKind::Variable) {
      rhs = infer_call_multi(*s.expr, s.targets.size());
    } else {
      rhs.push_back(infer_expr(*s.expr));
    }

    bool changed = false;
    for (size_t i = 0; i < s.targets.size(); ++i) {
      const LValue& t = s.targets[i];
      Ty val = i < rhs.size() ? rhs[i] : Ty{};
      if (t.indices.empty()) {
        changed |= set_version(t.name, t.ssa_version, val);
      } else {
        // Indexed write: the new version extends the incoming one; writing
        // through an index forces matrix rank.
        for (const ExprPtr& ix : t.indices) infer_expr(*ix);
        Ty base;
        if (t.ssa_use_version >= 0) {
          base = cur_->versions[t.name][static_cast<size_t>(t.ssa_use_version)];
        }
        Ty merged = join(base, Ty::matrix(val.defined() ? val.type
                                                        : BaseType::Real,
                                          base.rows, base.cols));
        merged.rank = RankKind::Matrix;
        changed |= set_version(t.name, t.ssa_version, merged);
      }
    }
    return changed;
  }

  // -- expressions ----------------------------------------------------------------

  Ty remember(const Expr& e, Ty t) {
    cur_->expr_types[&e] = t;
    return t;
  }

  std::optional<double> const_value(const Expr& e) {
    if (e.kind == ExprKind::Number && !e.is_imaginary) return e.number;
    if (e.kind == ExprKind::Unary && e.un_op == UnOp::Neg) {
      if (auto v = const_value(*e.lhs)) return -*v;
    }
    auto it = cur_->expr_types.find(&e);
    if (it != cur_->expr_types.end() && it->second.has_cval) {
      return it->second.cval;
    }
    return std::nullopt;
  }

  std::optional<long> const_dim(const Expr& e) {
    if (auto v = const_value(e)) {
      if (*v >= 0 && *v == std::floor(*v)) return static_cast<long>(*v);
    }
    return std::nullopt;
  }

  Ty infer_expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::Number:
        if (e.is_imaginary) return remember(e, Ty::scalar(BaseType::Complex));
        return remember(e, Ty::constant(e.is_int_literal ? BaseType::Integer
                                                         : BaseType::Real,
                                        e.number));
      case ExprKind::String:
        return remember(e, Ty::scalar(BaseType::Literal));
      case ExprKind::Ident:
        return remember(e, infer_ident(e));
      case ExprKind::Unary:
        return remember(e, infer_unary(e));
      case ExprKind::Binary:
        return remember(e, infer_binary(e));
      case ExprKind::Range: {
        Ty lo = infer_expr(*e.lhs);
        Ty hi = infer_expr(*e.rhs);
        Ty st = e.step ? infer_expr(*e.step) : Ty::scalar(BaseType::Integer);
        BaseType t = std::max({lo.type, hi.type, st.type});
        if (t == BaseType::Complex) {
          report("E3105", e.loc, "range endpoints must be real");
          t = BaseType::Real;
        }
        long n = -1;
        auto clo = const_value(*e.lhs);
        auto chi = const_value(*e.rhs);
        std::optional<double> cst =
            e.step ? const_value(*e.step) : std::optional<double>(1.0);
        // A non-finite range fails at run time (E5008); its extent stays
        // unknown here rather than a cast of Inf or NaN.
        if (clo && chi && cst && *cst != 0.0 &&
            range_is_finite(*clo, *cst, *chi)) {
          size_t count = range_count(*clo, *cst, *chi);
          if (count <= static_cast<size_t>(std::numeric_limits<long>::max())) {
            n = static_cast<long>(count);
          }
        }
        return remember(e, shaped(t, 1, n));
      }
      case ExprKind::Call:
        if (e.callee == CalleeKind::Variable) {
          return remember(e, infer_index(e));
        }
        return remember(e, infer_call_multi(e, 1).at(0));
      case ExprKind::Matrix:
        return remember(e, infer_matrix_literal(e));
      case ExprKind::Colon:
      case ExprKind::End:
        return remember(e, Ty::scalar(BaseType::Integer));
    }
    return Ty{};
  }

  Ty infer_ident(const Expr& e) {
    if (e.callee == CalleeKind::Variable) {
      if (e.ssa_version < 0) {
        report("E3104", e.loc, "variable '" + e.name +
                                   "' may be used before it is defined");
        return Ty{};
      }
      return cur_->versions[e.name][static_cast<size_t>(e.ssa_version)];
    }
    if (e.callee == CalleeKind::UserFunction) {
      auto outs = instantiate(e.name, {}, e.loc, &e);
      return outs.empty() ? Ty{} : outs[0];
    }
    // Builtin constant / zero-arg builtin.
    if (e.name == "i" || e.name == "j") return Ty::scalar(BaseType::Complex);
    if (e.name == "pi" || e.name == "eps" || e.name == "Inf" ||
        e.name == "NaN") {
      return Ty::scalar(BaseType::Real);
    }
    if (e.name == "rand") return Ty::scalar(BaseType::Real);
    if (e.name == "rank" || e.name == "nprocs") {
      return Ty::scalar(BaseType::Integer);
    }
    return Ty::scalar(BaseType::Real);
  }

  Ty infer_unary(const Expr& e) {
    Ty a = infer_expr(*e.lhs);
    switch (e.un_op) {
      case UnOp::Neg:
        if (a.has_cval) {
          Ty out = a;
          out.cval = -out.cval;
          return out;
        }
        return a;
      case UnOp::Plus:
        return a;
      case UnOp::Not:
        return shaped(BaseType::Integer, a.rows, a.cols);
      case UnOp::Transpose:
      case UnOp::CTranspose:
        if (a.is_scalar()) return a;
        return shaped(a.type, a.cols, a.rows);
    }
    return a;
  }

  Ty infer_binary(const Expr& e) {
    Ty a = infer_expr(*e.lhs);
    Ty b = infer_expr(*e.rhs);
    BaseType num = std::max(a.type, b.type);
    if (a.type == BaseType::Literal || b.type == BaseType::Literal) {
      report("E3106", e.loc, "arithmetic on string values is not supported");
      num = BaseType::Real;
    }
    if (num == BaseType::Bottom) num = BaseType::Real;

    auto fold = [&](BaseType result_type) -> Ty {
      if (!a.has_cval || !b.has_cval) return Ty::scalar(result_type);
      double v = 0;
      switch (e.bin_op) {
        case BinOp::Add: v = a.cval + b.cval; break;
        case BinOp::Sub: v = a.cval - b.cval; break;
        case BinOp::MatMul:
        case BinOp::ElemMul: v = a.cval * b.cval; break;
        case BinOp::MatDiv:
        case BinOp::ElemDiv: v = a.cval / b.cval; break;
        case BinOp::MatPow:
        case BinOp::ElemPow: v = std::pow(a.cval, b.cval); break;
        default: return Ty::scalar(result_type);
      }
      return Ty::constant(result_type, v);
    };
    auto elementwise = [&](BaseType result_type) {
      if (a.is_scalar() && b.is_scalar()) return fold(result_type);
      if (a.is_scalar()) return shaped(result_type, b.rows, b.cols);
      if (b.is_scalar()) return shaped(result_type, a.rows, a.cols);
      long rr;
      long rc;
      bool mismatch = false;
      merge_dims(a.rows, a.cols, b.rows, b.cols, &rr, &rc, &mismatch);
      if (mismatch) {
        report("E3107", e.loc, std::string("operand shapes disagree for '") +
                                   bin_op_name(e.bin_op) + "'");
      }
      return shaped(result_type, rr, rc);
    };

    switch (e.bin_op) {
      case BinOp::Add:
      case BinOp::Sub:
      case BinOp::ElemMul:
      case BinOp::ElemDiv:
        return elementwise(num == BaseType::Integer &&
                                   (e.bin_op == BinOp::ElemDiv)
                               ? BaseType::Real
                               : num);
      case BinOp::ElemPow:
        return elementwise(num == BaseType::Integer ? BaseType::Real : num);
      case BinOp::MatMul: {
        if (a.is_scalar() || b.is_scalar()) return elementwise(num);
        if (a.cols != -1 && b.rows != -1 && a.cols != b.rows) {
          report("E3108", e.loc, "inner matrix dimensions disagree for '*'");
        }
        return shaped(num, a.rows, b.cols);
      }
      case BinOp::MatDiv:
        if (!b.is_scalar()) {
          report("E3109", e.loc,
                 "matrix '/' requires a scalar divisor in the Otter subset");
        }
        return elementwise(BaseType::Real >= num ? BaseType::Real : num);
      case BinOp::MatLDiv:
        if (!a.is_scalar()) {
          report("E3110", e.loc,
                 "matrix '\\' requires a scalar divisor in the Otter subset");
        }
        return elementwise(num == BaseType::Integer ? BaseType::Real : num);
      case BinOp::MatPow:
        if (!a.is_scalar() || !b.is_scalar()) {
          report("E3111", e.loc, "matrix '^' is not supported; use '.^'");
        }
        return Ty::scalar(num == BaseType::Integer ? BaseType::Real : num);
      case BinOp::Lt:
      case BinOp::Le:
      case BinOp::Gt:
      case BinOp::Ge:
      case BinOp::Eq:
      case BinOp::Ne:
      case BinOp::And:
      case BinOp::Or:
        return elementwise(BaseType::Integer);
      case BinOp::AndAnd:
      case BinOp::OrOr:
        return Ty::scalar(BaseType::Integer);
    }
    return elementwise(num);
  }

  Ty infer_index(const Expr& e) {
    Ty base;
    if (e.ssa_version >= 0) {
      base = cur_->versions[e.name][static_cast<size_t>(e.ssa_version)];
    } else {
      report("E3104", e.loc, "variable '" + e.name +
                                 "' may be used before it is defined");
    }
    // Index argument classification.
    std::vector<Ty> idx;
    bool any_nonscalar = false;
    for (const ExprPtr& a : e.args) {
      if (a->kind == ExprKind::Colon) {
        idx.push_back(Ty{});
        any_nonscalar = true;
        continue;
      }
      Ty t = infer_expr(*a);
      idx.push_back(t);
      if (!t.is_scalar()) any_nonscalar = true;
    }
    BaseType t = base.defined() ? base.type : BaseType::Real;
    if (e.args.size() == 1) {
      if (!any_nonscalar) return Ty::scalar(t);
      const Expr& a0 = *e.args[0];
      if (a0.kind == ExprKind::Colon) {
        // a(:) flattens to a column.
        long n = (base.rows != -1 && base.cols != -1) ? base.rows * base.cols
                                                      : -1;
        return shaped(t, n, 1);
      }
      const Ty& it = idx[0];
      long n = -1;  // length of the index vector
      if (it.defined()) n = it.rows == 1 ? it.cols : it.rows;
      // Orientation follows the base for vectors.
      if (base.cols == 1) return shaped(t, n, 1);
      return shaped(t, 1, n);
    }
    if (e.args.size() == 2) {
      if (!any_nonscalar) return Ty::scalar(t);
      auto dim_of = [&](size_t k, long base_extent) -> long {
        const Expr& a = *e.args[k];
        if (a.kind == ExprKind::Colon) return base_extent;
        const Ty& it = idx[k];
        if (it.is_scalar()) return 1;
        if (it.defined()) return it.rows == 1 ? it.cols : it.rows;
        return -1;
      };
      return shaped(t, dim_of(0, base.rows), dim_of(1, base.cols));
    }
    return Ty::matrix(t);
  }

  Ty infer_matrix_literal(const Expr& e) {
    BaseType t = BaseType::Bottom;
    long total_rows = 0;
    long width = -2;  // -2 = not yet seen
    bool rows_known = true;
    for (const auto& row : e.rows) {
      long h = -1;
      long w = 0;
      bool w_known = true;
      for (const ExprPtr& el : row) {
        Ty et = infer_expr(*el);
        t = std::max(t, et.type);
        long er = et.is_scalar() ? 1 : et.rows;
        long ec = et.is_scalar() ? 1 : et.cols;
        if (h == -1) h = er;
        else if (er != -1 && h != -1 && er != h) {
          report("E3113", el->loc,
                 "inconsistent block heights in matrix literal");
        }
        if (ec == -1) w_known = false;
        else w += ec;
      }
      if (!w_known) width = -1;
      else if (width == -2) width = w;
      else if (width != -1 && width != w) {
        report("E3113", e.loc, "inconsistent row widths in matrix literal");
      }
      if (h == -1) rows_known = false;
      else total_rows += h;
    }
    if (t == BaseType::Bottom) t = BaseType::Real;
    if (t == BaseType::Literal) {
      report("E3114", e.loc,
             "strings inside matrix literals are not supported");
      t = BaseType::Real;
    }
    return shaped(t, rows_known ? total_rows : -1, width == -2 ? 0 : width);
  }

  std::vector<Ty> infer_call_multi(const Expr& e, size_t nargout) {
    std::vector<Ty> args;
    args.reserve(e.args.size());
    for (const ExprPtr& a : e.args) args.push_back(infer_expr(*a));

    if (e.callee == CalleeKind::UserFunction) {
      std::vector<Ty> outs = instantiate(e.name, args, e.loc, &e);
      if (outs.size() < nargout) {
        report("E3115", e.loc, "function '" + e.name +
                                   "' returns fewer values than requested");
        outs.resize(nargout, Ty::scalar(BaseType::Real));
      }
      if (!outs.empty()) cur_->expr_types[&e] = outs[0];
      return outs;
    }

    // Builtin.
    std::vector<Ty> outs = infer_builtin(e, args, nargout);
    if (!outs.empty()) cur_->expr_types[&e] = outs[0];
    return outs;
  }

  std::vector<Ty> infer_builtin(const Expr& e, const std::vector<Ty>& args,
                                size_t nargout) {
    const BuiltinInfo* b = find_builtin(e.name);
    if (!b) return {Ty::scalar(BaseType::Real)};
    auto dim_arg = [&](size_t i) -> long {
      if (i < e.args.size()) {
        if (auto d = const_dim(*e.args[i])) return *d;
      }
      return -1;
    };
    switch (b->id) {
      case Builtin::Zeros:
      case Builtin::Ones:
      case Builtin::Eye:
      case Builtin::Rand: {
        if (b->id == Builtin::Rand && e.args.empty()) {
          return {Ty::scalar(BaseType::Real)};
        }
        long r = dim_arg(0);
        long c = e.args.size() == 2 ? dim_arg(1) : r;
        BaseType t =
            (b->id == Builtin::Rand) ? BaseType::Real : BaseType::Integer;
        // zeros/ones/eye yield integral values but are used as real storage.
        t = BaseType::Real;
        return {shaped(t, r, c)};
      }
      case Builtin::Linspace: {
        long n = e.args.size() == 3 ? dim_arg(2) : 100;
        return {shaped(BaseType::Real, 1, n)};
      }
      case Builtin::Repmat: {
        long rr = dim_arg(1);
        long rc = dim_arg(2);
        const Ty& src = args[0];
        long orows = (src.rows != -1 && rr != -1) ? src.rows * rr : -1;
        long ocols = (src.cols != -1 && rc != -1) ? src.cols * rc : -1;
        return {shaped(src.type, orows, ocols)};
      }
      case Builtin::Size: {
        if (e.args.size() == 2) return {Ty::scalar(BaseType::Integer)};
        if (nargout >= 2) {
          return std::vector<Ty>(nargout, Ty::scalar(BaseType::Integer));
        }
        return {Ty::matrix(BaseType::Integer, 1, 2)};
      }
      case Builtin::Length:
      case Builtin::Numel:
        return {Ty::scalar(BaseType::Integer)};
      case Builtin::Sum:
      case Builtin::Mean:
      case Builtin::Prod: {
        const Ty& a = args[0];
        if (a.is_scalar()) return {a};
        if (a.rows == 1 || a.cols == 1) {
          return {Ty::scalar(b->id == Builtin::Mean ? BaseType::Real : a.type)};
        }
        // Any unknown dimension means the operand could still be a vector
        // at run time (1 x n or n x 1), so the column-wise assumption below
        // is unproven and needs either a hard error (strict) or a guard.
        if (a.rows == -1 || a.cols == -1) {
          if (opts_.strict) {
            report("E3112", e.loc,
                   "cannot statically determine whether the argument of '" +
                       std::string(b->name) + "' is a vector; assuming "
                       "a matrix (column-wise reduction)");
          } else {
            // Graceful degradation: assume the column-wise (matrix) form,
            // warn once, and have the lowerer emit a runtime guard that
            // aborts with E5003 if the argument turns out to be a vector.
            if (!quiet_) {
              diags_.warning(
                  "E3112", e.loc,
                  "cannot statically determine whether the argument of '" +
                      std::string(b->name) + "' is a vector; assuming a "
                      "matrix (column-wise reduction) and inserting a "
                      "runtime shape guard (compile with --strict-infer to "
                      "make this an error)");
            }
            out_.guards[&e] = {ShapeGuardReq::Kind::NonVectorReduction,
                               std::string(b->name)};
          }
        }
        return {shaped(b->id == Builtin::Mean ? BaseType::Real : a.type, 1,
                       a.cols)};
      }
      case Builtin::MinFn:
      case Builtin::MaxFn:
      case Builtin::Mod:
      case Builtin::Rem: {
        if (args.size() == 2) {
          // Element-wise two-argument form (mod and rem always have it).
          const Ty& a = args[0];
          const Ty& c = args[1];
          BaseType t = std::max(a.type, c.type);
          if (a.is_scalar() && c.is_scalar()) return {Ty::scalar(t)};
          if (a.is_scalar()) return {shaped(t, c.rows, c.cols)};
          if (c.is_scalar()) return {shaped(t, a.rows, a.cols)};
          return {shaped(t, a.rows != -1 ? a.rows : c.rows,
                         a.cols != -1 ? a.cols : c.cols)};
        }
        const Ty& a = args[0];
        if (a.is_scalar()) return {a};
        if (a.rows == 1 || a.cols == 1) return {Ty::scalar(a.type)};
        return {shaped(a.type, 1, a.cols)};
      }
      case Builtin::Dot:
      case Builtin::Norm:
      case Builtin::Trapz:
        return {Ty::scalar(BaseType::Real)};
      case Builtin::Abs:
      case Builtin::Sqrt:
      case Builtin::Exp:
      case Builtin::Log:
      case Builtin::Sin:
      case Builtin::Cos:
      case Builtin::Tan: {
        const Ty& a = args[0];
        BaseType t = a.type == BaseType::Complex ? BaseType::Complex
                                                 : BaseType::Real;
        if (b->id == Builtin::Abs && a.type == BaseType::Complex) {
          t = BaseType::Real;
        }
        return {shaped(t, a.rows, a.cols)};
      }
      case Builtin::Floor:
      case Builtin::Ceil:
      case Builtin::Round:
      case Builtin::Sign:
        return {shaped(BaseType::Integer, args[0].rows, args[0].cols)};
      case Builtin::Real:
      case Builtin::Imag:
        return {shaped(BaseType::Real, args[0].rows, args[0].cols)};
      case Builtin::Conj:
        return {args[0]};
      case Builtin::Disp:
      case Builtin::Fprintf:
      case Builtin::ErrorFn:
        return {Ty{}};
      case Builtin::Load: {
        // Paper pass 3: the sample data file must be present so the
        // compiler can determine the variable's type and rank.
        if (e.args.empty() || e.args[0]->kind != ExprKind::String) {
          report("E3116", e.loc,
                 "load requires a literal file name so the compiler can "
                 "inspect the sample data file");
          return {Ty::matrix(BaseType::Real)};
        }
        std::string err;
        std::optional<MatFile> mf = read_mat_file(e.args[0]->name, &err);
        if (!mf) {
          report("E3117", e.loc,
                 "load: a sample data file is required at compile time (" +
                     err + ")");
          return {Ty::matrix(BaseType::Real)};
        }
        BaseType t = mf->all_integer ? BaseType::Integer : BaseType::Real;
        return {shaped(t, static_cast<long>(mf->rows),
                       static_cast<long>(mf->cols))};
      }
      case Builtin::Num2str:
        return {Ty::scalar(BaseType::Literal)};
      case Builtin::RankId:
      case Builtin::NProcs:
        return {Ty::scalar(BaseType::Integer)};
      case Builtin::Pi:
      case Builtin::Eps:
      case Builtin::InfConst:
      case Builtin::NanConst:
        return {Ty::scalar(BaseType::Real)};
      default:
        return {Ty::scalar(BaseType::Real)};
    }
  }

  void report(const char* code, SourceLoc loc, const std::string& msg) {
    if (!quiet_) diags_.error(code, loc, msg);
  }

  /// Budget exhaustion is reported exactly once, and never suppressed by
  /// the fixpoint's quiet mode — it must always surface as an error.
  void report_budget(const char* code, SourceLoc loc, const std::string& msg) {
    if (budget_reported_) return;
    budget_reported_ = true;
    diags_.error(code, loc, msg);
  }

  Program& prog_;
  DiagEngine& diags_;
  InferResult& out_;
  InferOptions opts_;
  ScopeTypes* cur_ = nullptr;
  ScopeSsa* cur_ssa_ = nullptr;
  std::unordered_set<std::string> in_progress_;
  bool quiet_ = false;
  bool budget_reported_ = false;
};

}  // namespace

InferResult infer_program(Program& prog, DiagEngine& diags,
                          const InferOptions& opts) {
  InferResult out;
  Inferencer inf(prog, diags, out, opts);
  inf.run();
  return out;
}

}  // namespace otter::sema
