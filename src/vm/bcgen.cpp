#include "vm/bcgen.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace otter::vm {

using lower::LExpr;
using lower::LFunction;
using lower::LInstr;
using lower::LOp;
using lower::LOperand;
using lower::LProgram;

namespace {

/// Compiles one scope (script or function body) into a BcChunk. All pool
/// state (constants, strings, aux, kernels, trees, statement table, cache
/// slots) is shared module-wide; register files are per chunk.
class ChunkGen {
 public:
  ChunkGen(BcModule& mod, const LProgram& prog) : mod_(mod), prog_(prog) {
    for (const LFunction& fn : prog.functions) {
      fn_index_.emplace(fn.mangled, static_cast<uint32_t>(fn_index_.size()));
    }
  }

  void declare(const std::vector<lower::LVarDecl>& decls) {
    for (const lower::LVarDecl& d : decls) {
      if (d.is_matrix) {
        if (mregs_.count(d.name) == 0) {
          mregs_.emplace(d.name, static_cast<uint32_t>(chunk_.mreg_names.size()));
          chunk_.mreg_names.push_back(d.name);
        }
      } else if (sregs_.count(d.name) == 0) {
        sregs_.emplace(d.name, static_cast<uint32_t>(chunk_.sreg_names.size()));
        chunk_.sreg_names.push_back(d.name);
      }
    }
  }

  /// Compiles a body. `top_level` emits Boundary markers + the stmt_pc
  /// resume table (script chunk only).
  void compile(const std::vector<lower::LInstrPtr>& body, bool top_level) {
    named_sregs_ = static_cast<uint32_t>(chunk_.sreg_names.size());
    if (top_level) {
      for (size_t i = 0; i < body.size(); ++i) {
        set_stmt(*body[i]);
        if (i > 0) {
          emit(Op::Boundary, static_cast<uint32_t>(i));
        }
        chunk_.stmt_pc.push_back(pc());
        stmt(*body[i]);
      }
    } else {
      for (const lower::LInstrPtr& in : body) stmt(*in);
    }
    set_stmt_none();
    emit(Op::Ret);
  }

  BcChunk take(std::string name) {
    chunk_.name = std::move(name);
    chunk_.nscalar = named_sregs_ + max_scratch_;
    chunk_.nmat = static_cast<uint32_t>(chunk_.mreg_names.size());
    chunk_.sreg_names.resize(chunk_.nscalar);
    for (uint32_t r = 0; r < named_sregs_; ++r) {
      if (!chunk_.sreg_names[r].empty()) {
        chunk_.named_sregs.emplace_back(chunk_.sreg_names[r], r);
      }
    }
    for (uint32_t r = 0; r < chunk_.nmat; ++r) {
      chunk_.named_mregs.emplace_back(chunk_.mreg_names[r], r);
    }
    std::sort(chunk_.named_sregs.begin(), chunk_.named_sregs.end());
    std::sort(chunk_.named_mregs.begin(), chunk_.named_mregs.end());
    return std::move(chunk_);
  }

  [[nodiscard]] uint32_t sreg_of(const std::string& name) const {
    auto it = sregs_.find(name);
    return it == sregs_.end() ? kNoReg : it->second;
  }
  [[nodiscard]] uint32_t mreg_of(const std::string& name) const {
    auto it = mregs_.find(name);
    return it == mregs_.end() ? kNoReg : it->second;
  }

 private:
  static constexpr uint32_t kNoReg = ~0u;

  // -- pools -------------------------------------------------------------------

  uint32_t konst(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    auto it = const_ids_.find(bits);
    if (it != const_ids_.end()) return it->second;
    auto id = static_cast<uint32_t>(mod_.consts.size());
    mod_.consts.push_back(v);
    const_ids_.emplace(bits, id);
    return id;
  }

  uint32_t str(const std::string& s) {
    auto it = str_ids_.find(s);
    if (it != str_ids_.end()) return it->second;
    auto id = static_cast<uint32_t>(mod_.strings.size());
    mod_.strings.push_back(s);
    str_ids_.emplace(s, id);
    return id;
  }

  uint32_t cache_slot() { return mod_.cache_slots++; }

  // -- emission ----------------------------------------------------------------

  [[nodiscard]] uint32_t pc() const {
    return static_cast<uint32_t>(chunk_.code.size());
  }

  uint32_t emit(Op op, uint32_t a = 0, uint32_t b = 0, uint32_t c = 0,
                uint32_t d = 0, uint8_t flag = 0, uint16_t e = 0) {
    BcInstr in;
    in.op = op;
    in.flag = flag;
    in.e = e;
    in.a = a;
    in.b = b;
    in.c = c;
    in.d = d;
    chunk_.code.push_back(in);
    chunk_.stmt.push_back(cur_stmt_);
    return pc() - 1;
  }

  void set_stmt(const LInstr& in) {
    mod_.stmts.push_back({in.loc, in.op});
    cur_stmt_ = static_cast<uint32_t>(mod_.stmts.size() - 1);
  }
  void set_stmt_none() { cur_stmt_ = 0; }

  void trap(const std::string& msg) { emit(Op::Trap, str(msg)); }

  // -- scratch scalar registers -----------------------------------------------
  // Scoped stack discipline: each statement saves/restores the watermark, so
  // expression temps are reused across statements while for-loop control
  // temps (allocated in the loop statement's own scope) stay live across the
  // whole body.

  uint32_t temp() {
    uint32_t r = named_sregs_ + scratch_top_;
    ++scratch_top_;
    max_scratch_ = std::max(max_scratch_, scratch_top_);
    return r;
  }

  struct TempScope {
    explicit TempScope(ChunkGen& g) : g_(g), saved_(g.scratch_top_) {}
    ~TempScope() { g_.scratch_top_ = saved_; }
    ChunkGen& g_;
    uint32_t saved_;
  };

  // -- scalar expression trees -------------------------------------------------
  // Post-order compilation: operand a, operand b, then the operation — the
  // exact evaluation order of both the tree walker's recursion and the
  // postfix kernels, so rand-draw sequencing and floating-point results are
  // bit-identical across tiers.

  /// Compiles `e` and returns the register holding its value. Reads of
  /// scalar variables return the variable's register directly (no copy).
  uint32_t scalar_rvalue(const LExpr& e) {
    if (e.kind == LExpr::Kind::ScalarVar) {
      uint32_t r = sreg_of(e.var);
      if (r == kNoReg) {
        trap("undefined scalar '" + e.var + "'");
        return temp();
      }
      return r;
    }
    uint32_t dst = temp();
    scalar_into(e, dst);
    return dst;
  }

  void scalar_into(const LExpr& e, uint32_t dst) {
    switch (e.kind) {
      case LExpr::Kind::Imm:
        emit(Op::LdImm, dst, konst(e.imm));
        return;
      case LExpr::Kind::ScalarVar: {
        uint32_t r = sreg_of(e.var);
        if (r == kNoReg) {
          trap("undefined scalar '" + e.var + "'");
          return;
        }
        if (r != dst) emit(Op::MovS, dst, r);
        return;
      }
      case LExpr::Kind::MatVar:
        trap("matrix operand in scalar tree");
        return;
      case LExpr::Kind::Bin: {
        TempScope ts(*this);
        uint32_t a = scalar_rvalue(*e.a);
        uint32_t b = scalar_rvalue(*e.b);
        emit(Op::BinS, dst, a, b, 0, static_cast<uint8_t>(e.bop));
        return;
      }
      case LExpr::Kind::Un: {
        TempScope ts(*this);
        uint32_t a = scalar_rvalue(*e.a);
        emit(Op::UnS, dst, a, 0, 0, static_cast<uint8_t>(e.uop));
        return;
      }
      case LExpr::Kind::RowsOf:
      case LExpr::Kind::ColsOf:
      case LExpr::Kind::NumelOf: {
        uint32_t m = mreg_of(e.var);
        if (m == kNoReg) {
          trap("undefined matrix '" + e.var + "'");
          return;
        }
        Op op = e.kind == LExpr::Kind::RowsOf   ? Op::RowsS
                : e.kind == LExpr::Kind::ColsOf ? Op::ColsS
                                                : Op::NumelS;
        emit(op, dst, m);
        return;
      }
      case LExpr::Kind::RandScalar:
        emit(Op::RandS, dst);
        return;
      case LExpr::Kind::RankId:
        emit(Op::RankS, dst);
        return;
      case LExpr::Kind::NProcs:
        emit(Op::NprocsS, dst);
        return;
    }
    trap("malformed scalar tree");
  }

  // -- operands ----------------------------------------------------------------
  // Failure messages and failure *order* mirror the tree executor's
  // operand_mat/operand_scalar helpers; a statically detectable failure
  // compiles to a Trap at the same evaluation position.

  /// Matrix operand -> mreg; emits a Trap and returns kNoReg on mismatch.
  uint32_t operand_mreg(const LOperand& o) {
    if (!o.is_matrix) {
      trap("expected matrix operand");
      return kNoReg;
    }
    uint32_t m = mreg_of(o.mat);
    if (m == kNoReg) trap("undefined matrix '" + o.mat + "'");
    return m;
  }

  /// Scalar operand -> sreg holding its value (evaluated in place).
  uint32_t operand_sreg(const LOperand& o) {
    if (!o.scalar) {
      trap("expected scalar operand");
      return kNoReg;
    }
    return scalar_rvalue(*o.scalar);
  }

  uint32_t dst_mreg(const LInstr& in) {
    uint32_t m = mreg_of(in.dst);
    if (m == kNoReg) trap("undefined matrix '" + in.dst + "'");
    return m;
  }
  uint32_t dst_sreg(const LInstr& in) {
    uint32_t s = sreg_of(in.sdst);
    if (s == kNoReg) trap("undefined scalar '" + in.sdst + "'");
    return s;
  }

  // -- control-flow patching ---------------------------------------------------

  struct LoopCtx {
    uint32_t continue_target = 0;
    std::vector<uint32_t> break_patches;
  };

  void patch_jump(uint32_t at, uint32_t target) {
    chunk_.code[at].a = target;
  }

  // -- element-wise statements -------------------------------------------------

  /// Flattens an element-wise tree into register-resolved RNodes. Returns
  /// the node index, or -1 when a leaf is unresolvable (Trap emitted).
  int32_t flatten_tree(const LExpr& e, TreeEntry& t, bool& bad) {
    RNode n;
    n.kind = e.kind;
    switch (e.kind) {
      case LExpr::Kind::Imm:
        n.imm = e.imm;
        break;
      case LExpr::Kind::ScalarVar: {
        uint32_t r = sreg_of(e.var);
        if (r == kNoReg) {
          trap("undefined scalar '" + e.var + "'");
          bad = true;
          return -1;
        }
        n.reg = r;
        break;
      }
      case LExpr::Kind::MatVar:
      case LExpr::Kind::RowsOf:
      case LExpr::Kind::ColsOf:
      case LExpr::Kind::NumelOf: {
        uint32_t m = mreg_of(e.var);
        if (m == kNoReg) {
          trap("undefined matrix '" + e.var + "'");
          bad = true;
          return -1;
        }
        n.reg = m;
        n.name = str(e.var);
        if (e.kind == LExpr::Kind::MatVar && t.shape_mreg < 0) {
          t.shape_mreg = static_cast<int32_t>(m);
        }
        break;
      }
      case LExpr::Kind::Bin: {
        n.bop = e.bop;
        n.a = flatten_tree(*e.a, t, bad);
        if (bad) return -1;
        n.b = flatten_tree(*e.b, t, bad);
        if (bad) return -1;
        break;
      }
      case LExpr::Kind::Un: {
        n.uop = e.uop;
        n.a = flatten_tree(*e.a, t, bad);
        if (bad) return -1;
        break;
      }
      case LExpr::Kind::RandScalar:
      case LExpr::Kind::RankId:
      case LExpr::Kind::NProcs:
        break;
    }
    t.nodes.push_back(n);
    return static_cast<int32_t>(t.nodes.size() - 1);
  }

  void elemwise(const LInstr& in) {
    uint32_t dst = dst_mreg(in);
    if (dst == kNoReg) return;
    driver::Kernel k = driver::compile_kernel(*in.tree);
    if (k.ok && !k.mats.empty()) {
      KernelEntry ke;
      ke.mat_regs.reserve(k.mats.size());
      for (const std::string& name : k.mats) {
        uint32_t m = mreg_of(name);
        if (m == kNoReg) {
          trap("undefined matrix '" + name + "'");
          return;
        }
        ke.mat_regs.push_back(m);
      }
      // Scalar slots become registers computed by the instructions emitted
      // here, in slot order (side-effect free: kernels refuse rand).
      TempScope ts(*this);
      ke.slot_regs.reserve(k.scalars.size());
      for (const LExpr* slot : k.scalars) {
        ke.slot_regs.push_back(scalar_rvalue(*slot));
      }
      ke.k = std::move(k);
      mod_.kernels.push_back(std::move(ke));
      emit(Op::EwKern, dst, static_cast<uint32_t>(mod_.kernels.size() - 1));
      return;
    }
    // Tree fallback: per-element evaluation (rand draws per element).
    TreeEntry t;
    bool bad = false;
    t.root = flatten_tree(*in.tree, t, bad);
    if (bad) return;
    if (t.shape_mreg < 0) {
      trap("element-wise loop without matrix operand");
      return;
    }
    mod_.trees.push_back(std::move(t));
    emit(Op::EwTree, dst, static_cast<uint32_t>(mod_.trees.size() - 1));
  }

  // -- statements --------------------------------------------------------------

  void stmt(const LInstr& in) {
    set_stmt(in);
    TempScope ts(*this);
    switch (in.op) {
      case LOp::MatMul: rt_mm(in, Op::MatMul); return;
      case LOp::MatVec: rt_mm(in, Op::MatVec); return;
      case LOp::VecMat: rt_mm(in, Op::VecMat); return;
      case LOp::OuterProd: rt_mm(in, Op::Outer); return;
      case LOp::TransposeOp: {
        uint32_t dst = dst_mreg(in);
        if (dst == kNoReg) return;
        uint32_t a = operand_mreg(in.args[0]);
        if (a == kNoReg) return;
        emit(Op::Transp, dst, a);
        return;
      }
      case LOp::DotProd: {
        uint32_t dst = dst_sreg(in);
        if (dst == kNoReg) return;
        uint32_t a = operand_mreg(in.args[0]);
        if (a == kNoReg) return;
        uint32_t b = operand_mreg(in.args[1]);
        if (b == kNoReg) return;
        emit(Op::Dot, dst, a, b);
        return;
      }
      case LOp::Reduce: {
        uint32_t dst = dst_sreg(in);
        if (dst == kNoReg) return;
        uint32_t a = operand_mreg(in.args[0]);
        if (a == kNoReg) return;
        emit(Op::ReduceS, dst, a, 0, 0, static_cast<uint8_t>(in.red));
        return;
      }
      case LOp::Colwise: {
        uint32_t dst = dst_mreg(in);
        if (dst == kNoReg) return;
        uint32_t a = operand_mreg(in.args[0]);
        if (a == kNoReg) return;
        if (in.red == lower::RedKind::Prod) {
          trap("column-wise prod is not supported");
          return;
        }
        emit(Op::ColwiseM, dst, a, 0, 0, static_cast<uint8_t>(in.red));
        return;
      }
      case LOp::Norm: {
        uint32_t dst = dst_sreg(in);
        if (dst == kNoReg) return;
        uint32_t a = operand_mreg(in.args[0]);
        if (a == kNoReg) return;
        emit(Op::NormS, dst, a);
        return;
      }
      case LOp::Trapz: {
        uint32_t dst = dst_sreg(in);
        if (dst == kNoReg) return;
        uint32_t a = operand_mreg(in.args[0]);
        if (a == kNoReg) return;
        if (in.args.size() == 2) {
          uint32_t b = operand_mreg(in.args[1]);
          if (b == kNoReg) return;
          emit(Op::TrapzS, dst, a, b, 0, 1);
        } else {
          emit(Op::TrapzS, dst, a);
        }
        return;
      }
      case LOp::GetElem: {
        uint32_t dst = dst_sreg(in);
        if (dst == kNoReg) return;
        uint32_t m = operand_mreg(in.args[0]);
        if (m == kNoReg) return;
        if (in.linear) {
          uint32_t k = operand_sreg(in.args[1]);
          if (k == kNoReg) return;
          emit(Op::GetEl, dst, m, k, 0, 1, cache_slot16());
        } else {
          uint32_t r = operand_sreg(in.args[1]);
          if (r == kNoReg) return;
          uint32_t c = operand_sreg(in.args[2]);
          if (c == kNoReg) return;
          emit(Op::GetEl, dst, m, r, c, 0);
        }
        return;
      }
      case LOp::SetElem: {
        uint32_t m = dst_mreg(in);
        if (m == kNoReg) return;
        if (in.linear) {
          uint32_t k = operand_sreg(in.args[0]);
          if (k == kNoReg) return;
          uint32_t v = operand_sreg(in.args[1]);
          if (v == kNoReg) return;
          emit(Op::SetEl, m, k, v, 0, 1, cache_slot16());
        } else {
          uint32_t r = operand_sreg(in.args[0]);
          if (r == kNoReg) return;
          uint32_t c = operand_sreg(in.args[1]);
          if (c == kNoReg) return;
          uint32_t v = operand_sreg(in.args[2]);
          if (v == kNoReg) return;
          emit(Op::SetEl, m, r, c, v, 0);
        }
        return;
      }
      case LOp::ExtractRowOp:
      case LOp::ExtractColOp: {
        uint32_t dst = dst_mreg(in);
        if (dst == kNoReg) return;
        uint32_t a = operand_mreg(in.args[0]);
        if (a == kNoReg) return;
        uint32_t i = operand_sreg(in.args[1]);
        if (i == kNoReg) return;
        emit(in.op == LOp::ExtractRowOp ? Op::ExtrRow : Op::ExtrCol, dst, a, i);
        return;
      }
      case LOp::AssignRowOp:
      case LOp::AssignColOp: {
        uint32_t dst = dst_mreg(in);
        if (dst == kNoReg) return;
        uint32_t i = operand_sreg(in.args[0]);
        if (i == kNoReg) return;
        uint32_t v = operand_mreg(in.args[1]);
        if (v == kNoReg) return;
        emit(in.op == LOp::AssignRowOp ? Op::AsgnRow : Op::AsgnCol, dst, i, v);
        return;
      }
      case LOp::SliceVec: {
        uint32_t dst = dst_mreg(in);
        if (dst == kNoReg) return;
        uint32_t a = operand_mreg(in.args[0]);
        if (a == kNoReg) return;
        uint32_t lo = operand_sreg(in.args[1]);
        if (lo == kNoReg) return;
        uint32_t hi = operand_sreg(in.args[2]);
        if (hi == kNoReg) return;
        emit(Op::SliceV, dst, a, lo, hi);
        return;
      }
      case LOp::AssignSliceOp: {
        uint32_t dst = dst_mreg(in);
        if (dst == kNoReg) return;
        uint32_t lo = operand_sreg(in.args[0]);
        if (lo == kNoReg) return;
        uint32_t hi = operand_sreg(in.args[1]);
        if (hi == kNoReg) return;
        uint32_t v = operand_mreg(in.args[2]);
        if (v == kNoReg) return;
        emit(Op::AsgnSlice, dst, lo, hi, v);
        return;
      }
      case LOp::FillZeros:
      case LOp::FillOnes:
      case LOp::FillEye:
      case LOp::FillRand: {
        uint32_t dst = dst_mreg(in);
        if (dst == kNoReg) return;
        uint32_t r = operand_sreg(in.args[0]);
        if (r == kNoReg) return;
        uint32_t c = operand_sreg(in.args[1]);
        if (c == kNoReg) return;
        Op op = in.op == LOp::FillZeros  ? Op::FillZ
                : in.op == LOp::FillOnes ? Op::FillO
                : in.op == LOp::FillEye  ? Op::FillE
                                         : Op::FillRnd;
        emit(op, dst, r, c);
        return;
      }
      case LOp::FillRange:
      case LOp::FillLinspace: {
        uint32_t dst = dst_mreg(in);
        if (dst == kNoReg) return;
        uint32_t a = operand_sreg(in.args[0]);
        if (a == kNoReg) return;
        uint32_t b = operand_sreg(in.args[1]);
        if (b == kNoReg) return;
        uint32_t c = operand_sreg(in.args[2]);
        if (c == kNoReg) return;
        emit(in.op == LOp::FillRange ? Op::FillRange : Op::FillLin, dst, a, b,
             c);
        return;
      }
      case LOp::LoadFile: {
        uint32_t dst = dst_mreg(in);
        if (dst == kNoReg) return;
        emit(Op::LoadF, dst, str(in.args[0].str));
        return;
      }
      case LOp::FromLiteral: {
        uint32_t dst = dst_mreg(in);
        if (dst == kNoReg) return;
        size_t rows = in.literal_rows.size();
        size_t cols = rows != 0 ? in.literal_rows[0].size() : 0;
        std::vector<uint32_t> elems;
        elems.reserve(rows * cols);
        // Row-by-row like the tree walker: a ragged row fails after the
        // preceding rows' elements (and their rand draws) were evaluated.
        for (const auto& row : in.literal_rows) {
          if (row.size() != cols) {
            trap("ragged matrix literal");
            return;
          }
          for (const lower::LExprPtr& e : row) {
            elems.push_back(scalar_rvalue(*e));
          }
        }
        uint32_t aux = static_cast<uint32_t>(mod_.aux.size());
        mod_.aux.insert(mod_.aux.end(), elems.begin(), elems.end());
        emit(Op::FromLit, dst, aux, static_cast<uint32_t>(rows),
             static_cast<uint32_t>(cols));
        return;
      }
      case LOp::CopyMat: {
        uint32_t dst = dst_mreg(in);
        if (dst == kNoReg) return;
        uint32_t a = operand_mreg(in.args[0]);
        if (a == kNoReg) return;
        emit(Op::CopyM, dst, a);
        return;
      }
      case LOp::Elemwise:
        elemwise(in);
        return;
      case LOp::ScalarAssign: {
        uint32_t dst = dst_sreg(in);
        if (dst == kNoReg) return;
        scalar_into(*in.tree, dst);
        return;
      }
      case LOp::CallFn: call(in); return;
      case LOp::Display: {
        const LOperand& o = in.args[1];
        uint32_t name = str(in.args[0].str);
        if (o.is_matrix) {
          uint32_t m = operand_mreg(o);
          if (m == kNoReg) return;
          emit(Op::DisplayV, name, m, 0, 0, 1);
        } else {
          uint32_t s = operand_sreg(o);
          if (s == kNoReg) return;
          emit(Op::DisplayV, name, s, 0, 0, 0);
        }
        return;
      }
      case LOp::DispOp: {
        const LOperand& o = in.args[0];
        if (o.is_string) {
          emit(Op::DispV, str(o.str), 0, 0, 0, 0);
        } else if (o.is_matrix) {
          uint32_t m = operand_mreg(o);
          if (m == kNoReg) return;
          emit(Op::DispV, m, 0, 0, 0, 1);
        } else {
          uint32_t s = operand_sreg(o);
          if (s == kNoReg) return;
          emit(Op::DispV, s, 0, 0, 0, 2);
        }
        return;
      }
      case LOp::FprintfOp: fprintf_stmt(in); return;
      case LOp::ErrorOp:
        trap(in.args.empty() || !in.args[0].is_string ? "error"
                                                      : in.args[0].str);
        return;
      case LOp::ShapeGuard: {
        uint32_t m = operand_mreg(in.args[0]);
        if (m == kNoReg) return;
        std::string what = in.args.size() > 1 && in.args[1].is_string
                               ? in.args[1].str
                               : "reduction";
        emit(Op::Guard, m, str(what), cache_slot());
        return;
      }
      case LOp::IfOp: if_stmt(in); return;
      case LOp::WhileOp: while_stmt(in); return;
      case LOp::ForOp: for_stmt(in); return;
      case LOp::BreakOp:
        if (loops_.empty()) {
          emit(Op::Ret);  // top-level break stops the chunk (tree: non-Normal)
        } else {
          loops_.back().break_patches.push_back(emit(Op::Jmp));
        }
        return;
      case LOp::ContinueOp:
        if (loops_.empty()) {
          emit(Op::Ret);
        } else {
          emit(Op::Jmp, loops_.back().continue_target);
        }
        return;
      case LOp::ReturnOp:
        emit(Op::Ret);
        return;
    }
    trap("unhandled LIR opcode");
  }

  /// dst = rtcall(m, m) shape shared by MatMul/MatVec/VecMat/Outer.
  void rt_mm(const LInstr& in, Op op) {
    uint32_t dst = dst_mreg(in);
    if (dst == kNoReg) return;
    uint32_t a = operand_mreg(in.args[0]);
    if (a == kNoReg) return;
    uint32_t b = operand_mreg(in.args[1]);
    if (b == kNoReg) return;
    emit(op, dst, a, b);
  }

  /// 16-bit cache-slot id for GetEl/SetEl (stored in the `e` field). A
  /// program with more than 64k cache sites falls back to slot-less checks.
  uint16_t cache_slot16() {
    if (mod_.cache_slots >= 0xFFFF) return 0xFFFF;
    return static_cast<uint16_t>(cache_slot());
  }

  void call(const LInstr& in) {
    auto fit = fn_index_.find(in.callee);
    if (fit == fn_index_.end()) {
      trap("unknown function instance '" + in.callee + "'");
      return;
    }
    const LFunction& fn = prog_.functions[fit->second];
    size_t nargs = std::min(in.args.size(), fn.params.size());
    std::vector<uint32_t> entries;
    for (size_t i = 0; i < nargs; ++i) {
      if (fn.params[i].is_matrix) {
        if (!in.args[i].is_matrix) {
          trap("expected matrix operand");
          return;
        }
        uint32_t m = mreg_of(in.args[i].mat);
        if (m == kNoReg) {
          trap("undefined matrix '" + in.args[i].mat + "'");
          return;
        }
        entries.push_back(kAuxMatrix | m);
      } else {
        if (!in.args[i].scalar) {
          trap("expected scalar operand");
          return;
        }
        entries.push_back(kAuxScalar | scalar_rvalue(*in.args[i].scalar));
      }
    }
    size_t ndsts = std::min(in.call_dsts.size(), fn.outs.size());
    for (size_t i = 0; i < ndsts; ++i) {
      const lower::LVarDecl& d = in.call_dsts[i];
      // A bad destination fails *after* the body ran (the tree walker
      // copies outs post-execution), so the failure travels as a tagged
      // trap entry instead of an inline Trap. The caller-side lookup fails
      // first (with the caller's name); a caller/callee kind mismatch then
      // fails looking up the out in the callee frame's other-kind map, so
      // the message carries the *callee's* out name.
      const char* kindname = d.is_matrix ? "matrix" : "scalar";
      uint32_t reg = d.is_matrix ? mreg_of(d.name) : sreg_of(d.name);
      if (reg == kNoReg) {
        entries.push_back(kAuxTrap | str("undefined " + std::string(kindname) +
                                         " '" + d.name + "'"));
      } else if (d.is_matrix != fn.outs[i].is_matrix) {
        entries.push_back(kAuxTrap | str("undefined " + std::string(kindname) +
                                         " '" + fn.outs[i].name + "'"));
      } else {
        entries.push_back((d.is_matrix ? kAuxMatrix : kAuxScalar) | reg);
      }
    }
    uint32_t aux = static_cast<uint32_t>(mod_.aux.size());
    mod_.aux.insert(mod_.aux.end(), entries.begin(), entries.end());
    emit(Op::Call, fit->second, aux, static_cast<uint32_t>(nargs),
         static_cast<uint32_t>(ndsts));
  }

  void fprintf_stmt(const LInstr& in) {
    if (in.args.empty() || !in.args[0].is_string) {
      trap("fprintf needs a format");
      return;
    }
    // Scalar arguments evaluate into registers here, in argument order
    // (preserving the rand-draw sequence); matrix arguments gather at
    // execution time, keeping the comm-op order of the tree walker.
    std::vector<uint32_t> entries;
    for (size_t i = 1; i < in.args.size(); ++i) {
      if (in.args[i].is_matrix) {
        uint32_t m = mreg_of(in.args[i].mat);
        if (m == kNoReg) {
          trap("undefined matrix '" + in.args[i].mat + "'");
          return;
        }
        entries.push_back(kAuxMatrix | m);
      } else {
        uint32_t s = operand_sreg(in.args[i]);
        if (s == kNoReg) return;
        entries.push_back(kAuxScalar | s);
      }
    }
    uint32_t aux = static_cast<uint32_t>(mod_.aux.size());
    mod_.aux.insert(mod_.aux.end(), entries.begin(), entries.end());
    emit(Op::Fprintf, str(in.args[0].str), aux,
         static_cast<uint32_t>(entries.size()));
  }

  void if_stmt(const LInstr& in) {
    std::vector<uint32_t> end_patches;
    for (const lower::LIfArm& arm : in.arms) {
      uint32_t skip = 0;
      bool have_cond = arm.cond != nullptr;
      if (have_cond) {
        TempScope ts(*this);
        uint32_t c = scalar_rvalue(*arm.cond);
        skip = emit(Op::JmpIfZ, 0, c);
      }
      for (const lower::LInstrPtr& s : arm.body) stmt(*s);
      if (have_cond) {
        end_patches.push_back(emit(Op::Jmp));
        patch_jump(skip, pc());
      } else {
        break;  // else arm: nothing after it runs
      }
    }
    for (uint32_t at : end_patches) patch_jump(at, pc());
  }

  void while_stmt(const LInstr& in) {
    uint32_t head = pc();
    uint32_t exit_patch;
    {
      TempScope ts(*this);
      uint32_t c = scalar_rvalue(*in.cond);
      exit_patch = emit(Op::JmpIfZ, 0, c);
    }
    loops_.push_back({head, {}});
    for (const lower::LInstrPtr& s : in.body) stmt(*s);
    emit(Op::Jmp, head);
    uint32_t exit = pc();
    patch_jump(exit_patch, exit);
    for (uint32_t at : loops_.back().break_patches) patch_jump(at, exit);
    loops_.pop_back();
  }

  void for_stmt(const LInstr& in) {
    uint32_t var = sreg_of(in.loop_var);
    if (var == kNoReg) {
      trap("undefined scalar '" + in.loop_var + "'");
      return;
    }
    // Control registers live in the loop statement's scope: body statements
    // push their own scopes above them.
    uint32_t k = temp();
    uint32_t n = temp();
    uint32_t lo = temp();
    uint32_t step = temp();
    uint32_t hi = temp();
    scalar_into(*in.lo, lo);
    scalar_into(*in.step, step);
    scalar_into(*in.hi, hi);
    uint32_t aux = static_cast<uint32_t>(mod_.aux.size());
    for (uint32_t r : {k, n, var, lo, step, hi}) mod_.aux.push_back(r);
    emit(Op::ForPrep, aux);
    uint32_t head = pc();
    uint32_t next = emit(Op::ForNext, 0, aux);
    loops_.push_back({head, {}});
    for (const lower::LInstrPtr& s : in.body) stmt(*s);
    emit(Op::Jmp, head);
    uint32_t exit = pc();
    patch_jump(next, exit);
    for (uint32_t at : loops_.back().break_patches) patch_jump(at, exit);
    loops_.pop_back();
  }

  BcModule& mod_;
  const LProgram& prog_;
  BcChunk chunk_;
  std::unordered_map<std::string, uint32_t> sregs_;
  std::unordered_map<std::string, uint32_t> mregs_;
  std::unordered_map<std::string, uint32_t> fn_index_;
  std::unordered_map<uint64_t, uint32_t> const_ids_;
  std::unordered_map<std::string, uint32_t> str_ids_;
  uint32_t named_sregs_ = 0;
  uint32_t scratch_top_ = 0;
  uint32_t max_scratch_ = 0;
  uint32_t cur_stmt_ = 0;
  std::vector<LoopCtx> loops_;
};

}  // namespace

BcModule compile_bytecode(const LProgram& prog) {
  BcModule mod;
  mod.origin = &prog;
  // stmts[0] is the "no statement" sentinel so chunk.stmt can always index.
  mod.stmts.push_back({});
  {
    ChunkGen g(mod, prog);
    g.declare(prog.script_vars);
    g.compile(prog.script, /*top_level=*/true);
    mod.script = g.take("script");
  }
  for (const LFunction& fn : prog.functions) {
    ChunkGen g(mod, prog);
    g.declare(fn.params);
    g.declare(fn.outs);
    g.declare(fn.locals);
    g.compile(fn.body, /*top_level=*/false);
    BcFunction bf;
    bf.chunk = g.take(fn.mangled);
    for (const lower::LVarDecl& p : fn.params) {
      uint32_t r = p.is_matrix ? g.mreg_of(p.name) : g.sreg_of(p.name);
      bf.params.push_back({p.is_matrix, r});
    }
    for (const lower::LVarDecl& o : fn.outs) {
      uint32_t r = o.is_matrix ? g.mreg_of(o.name) : g.sreg_of(o.name);
      bf.outs.push_back({o.is_matrix, r});
    }
    mod.functions.push_back(std::move(bf));
  }
  return mod;
}

// -- disassembler ---------------------------------------------------------------

namespace {

const char* op_name(Op op) {
  switch (op) {
    case Op::LdImm: return "ldimm";
    case Op::MovS: return "mov";
    case Op::BinS: return "bin";
    case Op::UnS: return "un";
    case Op::RowsS: return "rows";
    case Op::ColsS: return "cols";
    case Op::NumelS: return "numel";
    case Op::RandS: return "rand";
    case Op::RankS: return "rank";
    case Op::NprocsS: return "nprocs";
    case Op::Jmp: return "jmp";
    case Op::JmpIfZ: return "jz";
    case Op::ForPrep: return "forprep";
    case Op::ForNext: return "fornext";
    case Op::Ret: return "ret";
    case Op::Boundary: return "boundary";
    case Op::Call: return "call";
    case Op::Trap: return "trap";
    case Op::MatMul: return "matmul";
    case Op::MatVec: return "matvec";
    case Op::VecMat: return "vecmat";
    case Op::Outer: return "outer";
    case Op::Transp: return "transp";
    case Op::Dot: return "dot";
    case Op::ReduceS: return "reduce";
    case Op::ColwiseM: return "colwise";
    case Op::NormS: return "norm";
    case Op::TrapzS: return "trapz";
    case Op::GetEl: return "getel";
    case Op::SetEl: return "setel";
    case Op::ExtrRow: return "extrrow";
    case Op::ExtrCol: return "extrcol";
    case Op::AsgnRow: return "asgnrow";
    case Op::AsgnCol: return "asgncol";
    case Op::SliceV: return "slice";
    case Op::AsgnSlice: return "asgnslice";
    case Op::FillZ: return "zeros";
    case Op::FillO: return "ones";
    case Op::FillE: return "eye";
    case Op::FillRnd: return "fillrand";
    case Op::FillRange: return "range";
    case Op::FillLin: return "linspace";
    case Op::LoadF: return "loadfile";
    case Op::FromLit: return "fromlit";
    case Op::CopyM: return "copym";
    case Op::EwKern: return "ewkern";
    case Op::EwTree: return "ewtree";
    case Op::Guard: return "guard";
    case Op::DisplayV: return "display";
    case Op::DispV: return "disp";
    case Op::Fprintf: return "fprintf";
  }
  return "?";
}

void dump_reg(std::string& out, const BcChunk& ch, char kind, uint32_t r) {
  out += kind;
  out += std::to_string(r);
  const std::vector<std::string>& names =
      kind == 'm' ? ch.mreg_names : ch.sreg_names;
  if (r < names.size() && !names[r].empty()) {
    out += '(';
    out += names[r];
    out += ')';
  }
}

void dump_chunk(std::string& out, const BcModule& m, const BcChunk& ch) {
  out += "== " + ch.name + " (sregs=" + std::to_string(ch.nscalar) +
         " mregs=" + std::to_string(ch.nmat) + ")\n";
  char buf[32];
  for (uint32_t pc = 0; pc < ch.code.size(); ++pc) {
    const BcInstr& in = ch.code[pc];
    std::snprintf(buf, sizeof buf, "  %04u  %-9s ", pc, op_name(in.op));
    out += buf;
    auto s = [&](uint32_t r) { dump_reg(out, ch, 's', r); };
    auto mm = [&](uint32_t r) { dump_reg(out, ch, 'm', r); };
    auto sp = [&] { out += ' '; };
    switch (in.op) {
      case Op::LdImm: {
        s(in.a);
        std::snprintf(buf, sizeof buf, " %g", m.consts[in.b]);
        out += buf;
        break;
      }
      case Op::MovS: s(in.a); sp(); s(in.b); break;
      case Op::BinS:
        s(in.a);
        out += " <- ";
        s(in.b);
        out += " op" + std::to_string(in.flag) + " ";
        s(in.c);
        break;
      case Op::UnS:
        s(in.a);
        out += " <- op" + std::to_string(in.flag) + " ";
        s(in.b);
        break;
      case Op::RowsS:
      case Op::ColsS:
      case Op::NumelS: s(in.a); sp(); mm(in.b); break;
      case Op::RandS:
      case Op::RankS:
      case Op::NprocsS: s(in.a); break;
      case Op::Jmp: out += "-> " + std::to_string(in.a); break;
      case Op::JmpIfZ:
        s(in.b);
        out += " -> " + std::to_string(in.a);
        break;
      case Op::ForPrep:
      case Op::ForNext: {
        uint32_t aux = in.op == Op::ForPrep ? in.a : in.b;
        out += "k=";
        s(m.aux[aux]);
        out += " n=";
        s(m.aux[aux + 1]);
        out += " var=";
        s(m.aux[aux + 2]);
        if (in.op == Op::ForNext) out += " exit=" + std::to_string(in.a);
        break;
      }
      case Op::Ret: break;
      case Op::Boundary: out += "stmt " + std::to_string(in.a); break;
      case Op::Call:
        out += m.functions[in.a].chunk.name + " args=" +
               std::to_string(in.c) + " dsts=" + std::to_string(in.d);
        break;
      case Op::Trap: out += '"' + m.strings[in.a] + '"'; break;
      case Op::MatMul:
      case Op::MatVec:
      case Op::VecMat:
      case Op::Outer: mm(in.a); sp(); mm(in.b); sp(); mm(in.c); break;
      case Op::Transp:
      case Op::CopyM: mm(in.a); sp(); mm(in.b); break;
      case Op::Dot: s(in.a); sp(); mm(in.b); sp(); mm(in.c); break;
      case Op::ReduceS:
      case Op::NormS:
        s(in.a);
        sp();
        mm(in.b);
        if (in.op == Op::ReduceS) out += " red" + std::to_string(in.flag);
        break;
      case Op::ColwiseM:
        mm(in.a);
        sp();
        mm(in.b);
        out += " red" + std::to_string(in.flag);
        break;
      case Op::TrapzS:
        s(in.a);
        sp();
        mm(in.b);
        if (in.flag != 0) { sp(); mm(in.c); }
        break;
      case Op::GetEl:
        s(in.a);
        sp();
        mm(in.b);
        sp();
        s(in.c);
        if (in.flag == 0) { sp(); s(in.d); } else { out += " linear"; }
        break;
      case Op::SetEl:
        mm(in.a);
        sp();
        s(in.b);
        sp();
        s(in.c);
        if (in.flag == 0) { sp(); s(in.d); } else { out += " linear"; }
        break;
      case Op::ExtrRow:
      case Op::ExtrCol: mm(in.a); sp(); mm(in.b); sp(); s(in.c); break;
      case Op::AsgnRow:
      case Op::AsgnCol: mm(in.a); sp(); s(in.b); sp(); mm(in.c); break;
      case Op::SliceV: mm(in.a); sp(); mm(in.b); sp(); s(in.c); sp(); s(in.d); break;
      case Op::AsgnSlice: mm(in.a); sp(); s(in.b); sp(); s(in.c); sp(); mm(in.d); break;
      case Op::FillZ:
      case Op::FillO:
      case Op::FillE:
      case Op::FillRnd: mm(in.a); sp(); s(in.b); sp(); s(in.c); break;
      case Op::FillRange:
      case Op::FillLin: mm(in.a); sp(); s(in.b); sp(); s(in.c); sp(); s(in.d); break;
      case Op::LoadF: mm(in.a); out += " \"" + m.strings[in.b] + '"'; break;
      case Op::FromLit:
        mm(in.a);
        out += " " + std::to_string(in.c) + "x" + std::to_string(in.d);
        break;
      case Op::EwKern: {
        mm(in.a);
        const KernelEntry& ke = m.kernels[in.b];
        out += " ops=" + std::to_string(ke.k.ops.size()) + " mats=[";
        for (size_t i = 0; i < ke.mat_regs.size(); ++i) {
          if (i != 0) out += ' ';
          dump_reg(out, ch, 'm', ke.mat_regs[i]);
        }
        out += ']';
        break;
      }
      case Op::EwTree:
        mm(in.a);
        out += " nodes=" + std::to_string(m.trees[in.b].nodes.size());
        break;
      case Op::Guard:
        mm(in.a);
        out += " \"" + m.strings[in.b] + "\" cache=" + std::to_string(in.c);
        break;
      case Op::DisplayV:
        out += '"' + m.strings[in.a] + "\" ";
        if (in.flag != 0) mm(in.b); else s(in.b);
        break;
      case Op::DispV:
        if (in.flag == 0) out += '"' + m.strings[in.a] + '"';
        else if (in.flag == 1) mm(in.a);
        else s(in.a);
        break;
      case Op::Fprintf:
        out += '"' + m.strings[in.a] + "\" args=" + std::to_string(in.c);
        break;
    }
    out += '\n';
  }
}

}  // namespace

std::string dump_bytecode(const BcModule& m) {
  std::string out;
  dump_chunk(out, m, m.script);
  for (const BcFunction& fn : m.functions) dump_chunk(out, m, fn.chunk);
  return out;
}

}  // namespace otter::vm
