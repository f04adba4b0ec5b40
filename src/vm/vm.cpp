#include "vm/vm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <vector>

#include "support/matio.hpp"
#include "support/rng.hpp"

// Dispatch strategy: direct-threaded computed goto where the compiler
// supports GNU label addresses, portable switch loop otherwise. Define
// OTTER_VM_NO_COMPUTED_GOTO to force the fallback (exercised in CI so the
// portable path cannot rot).
#if !defined(OTTER_VM_NO_COMPUTED_GOTO) && \
    (defined(__GNUC__) || defined(__clang__))
#define OTTER_VM_CGOTO 1
#else
#define OTTER_VM_CGOTO 0
#endif

namespace otter::vm {

namespace {

using driver::CheckpointCoordinator;
using rt::DMat;

[[noreturn]] void fail(const std::string& msg) { throw rt::RtError(msg); }

/// One inline-cache site. `key` is the largest version of any matrix
/// register involved when the payload was validated; versions are issued
/// from a per-VM monotonic counter, so any shape-carrying reassignment of
/// any involved register makes the stored key stale (max of monotonically
/// fresh values strictly grows). In-place element writes keep shape and
/// layout, so they intentionally do not bump versions. key == 0 is the
/// cold state (versions start at 1).
struct ICache {
  uint64_t key = 0;
  uint64_t cols = 0;  ///< GetEl/SetEl: divisor of the cached linear mapping
  uint32_t hits = 0;
  uint8_t disabled = 0;  ///< stats frozen after kStableHits; check stays live
  uint8_t kind = 0;      ///< GetEl/SetEl: 0 row vec, 1 col vec, 2 row-major
};

/// Per-activation register file. Matrix registers carry versions for the
/// inline caches; scalar registers are plain doubles.
struct RFrame {
  std::vector<double> s;
  std::vector<DMat> m;
  std::vector<uint64_t> ver;
};

uint32_t find_reg(const std::vector<std::pair<std::string, uint32_t>>& regs,
                  const std::string& name) {
  auto it = std::lower_bound(
      regs.begin(), regs.end(), name,
      [](const std::pair<std::string, uint32_t>& p, const std::string& n) {
        return p.first < n;
      });
  if (it != regs.end() && it->first == name) return it->second;
  return ~0u;
}

class Vm {
 public:
  Vm(const BcModule& mod, mpi::Comm& comm, std::ostream& out,
     const driver::ExecOptions& opts)
      : mod_(mod),
        comm_(comm),
        out_(out),
        opts_(opts),
        caches_(mod.cache_slots),
        poll_deadline_(opts.spmd.has_deadline() || opts.spmd.cancel != nullptr),
        ckpt_interval_(opts.checkpoint != nullptr ? opts.checkpoint->interval()
                                                  : 0) {}

  void run() {
    try {
      RFrame f;
      init_frame(f, mod_.script);
      uint32_t start_pc = 0;
      CheckpointCoordinator* co = opts_.checkpoint;
      if (co != nullptr && co->resumed()) {
        size_t stmt = restore_state(f, *co);
        if (stmt >= mod_.script.stmt_pc.size()) {
          flush_stats();
          return;
        }
        start_pc = mod_.script.stmt_pc[stmt];
      }
      run_chunk(mod_.script, f, start_pc);
      flush_stats();
    } catch (const rt::RtError& e) {
      flush_stats();
      SourceLoc loc = e.loc.valid() ? e.loc : stmt_loc();
      throw rt::RtError(statement_context() + e.what(), loc, e.code);
    } catch (const std::bad_alloc& e) {
      flush_stats();
      throw rt::RtError(statement_context() + e.what(), stmt_loc(), "E5006");
    }
  }

 private:
  // -- helpers -----------------------------------------------------------------

  static size_t as_index(double v, const char* what) {
    // Same bounds as the tree walker: rejects negatives, non-integers, NaN,
    // Inf, and anything at or beyond 2^53 before the size_t cast.
    if (!(v >= 0) || !(v < 9007199254740992.0) || std::floor(v) != v) {
      fail(std::string("invalid ") + what + " index");
    }
    return static_cast<size_t>(v);
  }
  static size_t as_dim(double v, const char* what) {
    return rt::checked_dim(v, what);
  }

  double rand_draw() {
    Lcg g(opts_.rand_seed);
    g.discard(rand_seq_);
    ++rand_seq_;
    return g.next();
  }

  uint64_t next_ver() { return ++ver_counter_; }

  void init_frame(RFrame& f, const BcChunk& ch) {
    f.s.assign(ch.nscalar, 0.0);
    f.m.reserve(ch.nmat);
    f.ver.reserve(ch.nmat);
    for (uint32_t i = 0; i < ch.nmat; ++i) {
      f.m.push_back(rt::fill_zeros(comm_, 0, 0, opts_.dist));
      f.ver.push_back(next_ver());
    }
  }

  void setm(RFrame& f, uint32_t reg, DMat&& v) {
    f.m[reg] = std::move(v);
    f.ver[reg] = next_ver();
  }

  [[nodiscard]] SourceLoc stmt_loc() const {
    return mod_.stmts[cur_stmt_].loc;
  }

  [[nodiscard]] std::string statement_context() const {
    if (cur_stmt_ == 0) return "";
    const StmtInfo& si = mod_.stmts[cur_stmt_];
    std::string ctx;
    if (si.loc.valid()) ctx += "line " + std::to_string(si.loc.line) + " ";
    ctx += "(" + std::string(lower::lop_name(si.lop)) + "): ";
    return ctx;
  }

  void check_deadline() {
    // Back-edges, boundaries, and calls poll the session deadline with the
    // same 1-in-64 stride the tree walker uses per statement: compute-only
    // loops stay cancellable (E5004) without a clock read per iteration.
    if (poll_deadline_ && ++deadline_stride_ % 64 == 0 &&
        opts_.spmd.expired()) {
      throw rt::RtError(opts_.spmd.expiry_reason(), stmt_loc(), "E5004");
    }
  }

  bool ic_hit(ICache& c, uint64_t key) {
    if (c.key == key) {
      if (c.disabled == 0) {
        ++hits_;
        if (++c.hits >= kStableHits) {
          c.disabled = 1;
          ++disabled_;
        }
      }
      return true;
    }
    c.key = key;
    c.hits = 0;
    c.disabled = 0;  // shape changed: re-arm the site
    ++misses_;
    return false;
  }

  void flush_stats() {
    if (opts_.vm_stats == nullptr) return;
    opts_.vm_stats->cache_hits.fetch_add(hits_, std::memory_order_relaxed);
    opts_.vm_stats->cache_misses.fetch_add(misses_, std::memory_order_relaxed);
    opts_.vm_stats->cache_disabled.fetch_add(disabled_,
                                             std::memory_order_relaxed);
    opts_.vm_stats->instrs.fetch_add(instrs_, std::memory_order_relaxed);
    hits_ = misses_ = disabled_ = instrs_ = 0;
  }

  // -- checkpoint capture/restore ----------------------------------------------
  // Byte-identical to the tree executor's blobs: named registers only, in
  // sorted name order (the declared-variable set is exactly the tree
  // walker's frame contents — LIR declares every name it touches).

  std::vector<std::byte> capture_state(const BcChunk& ch, RFrame& f) {
    snap::Writer w;
    w.u32(static_cast<uint32_t>(comm_.rank()));
    w.u64(rand_seq_);
    w.u64(comm_.ops());
    w.f64(comm_.vtime());
    w.u64(ch.named_sregs.size());
    for (const auto& [name, reg] : ch.named_sregs) {
      w.str(name);
      w.f64(f.s[reg]);
    }
    w.u64(ch.named_mregs.size());
    for (const auto& [name, reg] : ch.named_mregs) {
      w.str(name);
      f.m[reg].save_snapshot(w);
    }
    return w.take();
  }

  size_t restore_state(RFrame& f, const CheckpointCoordinator& co) {
    try {
      const std::vector<std::byte>* blob = co.rank_state(comm_.rank());
      if (blob == nullptr)
        throw snap::SnapshotError("checkpoint has no state for this rank");
      snap::Reader r(*blob);
      uint32_t rank = r.u32();
      if (rank != static_cast<uint32_t>(comm_.rank()))
        throw snap::SnapshotError("checkpoint blob belongs to another rank");
      rand_seq_ = r.u64();
      uint64_t ops = r.u64();
      double vtime = r.f64();
      comm_.restore_stats(vtime, ops);
      const BcChunk& ch = mod_.script;
      uint64_t nscalars = r.u64();
      for (uint64_t i = 0; i < nscalars; ++i) {
        std::string name = r.str();
        double v = r.f64();
        uint32_t reg = find_reg(ch.named_sregs, name);
        if (reg != ~0u) f.s[reg] = v;
      }
      uint64_t nmats = r.u64();
      for (uint64_t i = 0; i < nmats; ++i) {
        std::string name = r.str();
        DMat m = DMat::load_snapshot(r, comm_.rank());
        uint32_t reg = find_reg(ch.named_mregs, name);
        if (reg != ~0u) {
          f.m[reg] = std::move(m);
          f.ver[reg] = next_ver();
        }
      }
      return co.resume_statement();
    } catch (const snap::SnapshotError& e) {
      throw rt::RtError(std::string("checkpoint restore failed: ") + e.what(),
                        {}, "E5005");
    }
  }

  // -- compound instruction bodies ---------------------------------------------

  // Shapes are validated on every execution: a handful of integer
  // compares per operand, which measured cheaper than an inline cache's
  // version-key bookkeeping on a loop of 4-element kernels.
  void ew_kernel(RFrame& f, const BcInstr& in) {
    const KernelEntry& ke = mod_.kernels[in.b];
    const driver::Kernel& k = ke.k;
    kmat_ptrs_.resize(ke.mat_regs.size());
    const DMat& proto = f.m[ke.mat_regs[0]];
    size_t n = proto.local_elements();
    size_t bad_slot = ke.mat_regs.size();
    size_t bad_n = n;
    for (size_t i = 0; i < ke.mat_regs.size(); ++i) {
      const DMat& m = f.m[ke.mat_regs[i]];
      if (m.local_elements() < bad_n) {  // strict <: earliest slot wins
        bad_n = m.local_elements();
        bad_slot = i;
      }
      kmat_ptrs_[i] = m.local().data();
    }
    if (n > 0 && bad_slot < ke.mat_regs.size()) {
      fail("element-wise operand '" + k.mats[bad_slot] + "' misaligned");
    }
    kscalar_vals_.resize(ke.slot_regs.size());
    for (size_t i = 0; i < ke.slot_regs.size(); ++i) {
      kscalar_vals_[i] = f.s[ke.slot_regs[i]];
    }
    if (f.m[in.a].aligned_with(proto)) {
      k.run(f.m[in.a].local().data(), kmat_ptrs_.data(),
            kscalar_vals_.data(), kstack_, n);
      return;
    }
    DMat out(comm_, proto.rows(), proto.cols(), proto.layout().dist());
    k.run(out.local().data(), kmat_ptrs_.data(), kscalar_vals_.data(),
          kstack_, n);
    setm(f, in.a, std::move(out));
  }

  double eval_rnode(const TreeEntry& t, int32_t idx, RFrame& f, size_t l) {
    const RNode& n = t.nodes[idx];
    switch (n.kind) {
      case lower::LExpr::Kind::Imm:
        return n.imm;
      case lower::LExpr::Kind::ScalarVar:
        return f.s[n.reg];
      case lower::LExpr::Kind::MatVar: {
        const DMat& m = f.m[n.reg];
        if (l >= m.local_elements()) {
          fail("element-wise operand '" + mod_.strings[n.name] +
               "' misaligned");
        }
        return m.local()[l];
      }
      case lower::LExpr::Kind::Bin:
        return rt::ew_apply_bin(n.bop, eval_rnode(t, n.a, f, l),
                                eval_rnode(t, n.b, f, l));
      case lower::LExpr::Kind::Un:
        return rt::ew_apply_un(n.uop, eval_rnode(t, n.a, f, l));
      case lower::LExpr::Kind::RowsOf:
        return static_cast<double>(f.m[n.reg].rows());
      case lower::LExpr::Kind::ColsOf:
        return static_cast<double>(f.m[n.reg].cols());
      case lower::LExpr::Kind::NumelOf:
        return static_cast<double>(f.m[n.reg].numel());
      case lower::LExpr::Kind::RandScalar:
        return rand_draw();
      case lower::LExpr::Kind::RankId:
        return static_cast<double>(comm_.rank());
      case lower::LExpr::Kind::NProcs:
        return static_cast<double>(comm_.size());
    }
    return 0.0;
  }

  void ew_tree(RFrame& f, const BcInstr& in) {
    const TreeEntry& t = mod_.trees[in.b];
    const DMat& proto = f.m[static_cast<uint32_t>(t.shape_mreg)];
    DMat out(comm_, proto.rows(), proto.cols(), proto.layout().dist());
    auto ov = out.local();
    for (size_t l = 0; l < ov.size(); ++l) {
      ov[l] = eval_rnode(t, t.root, f, l);
    }
    setm(f, in.a, std::move(out));
  }

  /// Linear-index mapping for GetEl, replicating the tree walker's branch
  /// structure exactly (including its row-major documented deviation).
  void getel_mapping(const DMat& m, uint8_t& kind, uint64_t& cols) {
    cols = m.cols();
    if (m.rows() == 1 || !m.is_vector()) {
      kind = m.rows() != 1 ? 2 : 0;
    } else {
      kind = 1;
    }
  }

  /// Linear-index mapping for SetEl (the tree walker derives it with a
  /// different branch ladder than GetEl; both preserved verbatim).
  void setel_mapping(const DMat& m, uint8_t& kind, uint64_t& cols) {
    cols = m.cols();
    if (m.rows() == 1) {
      kind = 0;
    } else if (m.cols() == 1) {
      kind = 1;
    } else {
      kind = 2;
    }
  }

  static void map_linear(uint8_t kind, uint64_t cols, size_t k, size_t& r,
                         size_t& c) {
    switch (kind) {
      case 0: r = 0; c = k; break;
      case 1: r = k; c = 0; break;
      default: r = k / cols; c = k % cols; break;
    }
  }

  void do_call(RFrame& f, const BcInstr& in) {
    const BcFunction& fn = mod_.functions[in.a];
    RFrame g;
    init_frame(g, fn.chunk);
    const uint32_t* ent = mod_.aux.data() + in.b;
    for (uint32_t i = 0; i < in.c; ++i) {
      uint32_t reg = ent[i] & kAuxValMask;
      const BcFunction::Var& p = fn.params[i];
      if ((ent[i] & kAuxTagMask) == kAuxMatrix) {
        g.m[p.reg] = f.m[reg];
        g.ver[p.reg] = next_ver();
      } else {
        g.s[p.reg] = f.s[reg];
      }
    }
    run_chunk(fn.chunk, g, 0);
    for (uint32_t i = 0; i < in.d; ++i) {
      uint32_t e = ent[in.c + i];
      uint32_t val = e & kAuxValMask;
      const BcFunction::Var& o = fn.outs[i];
      switch (e & kAuxTagMask) {
        case kAuxTrap: fail(mod_.strings[val]);
        case kAuxMatrix:
          f.m[val] = g.m[o.reg];
          f.ver[val] = next_ver();
          break;
        default:
          f.s[val] = g.s[o.reg];
          break;
      }
    }
  }

  void do_fprintf(RFrame& f, const BcInstr& in) {
    // Matrix arguments gather here (collective: all ranks participate, in
    // argument order, matching the tree walker's comm-op sequence); scalar
    // arguments were evaluated into registers by the preceding code.
    std::vector<double> data;
    const uint32_t* ent = mod_.aux.data() + in.b;
    for (uint32_t i = 0; i < in.c; ++i) {
      uint32_t reg = ent[i] & kAuxValMask;
      if ((ent[i] & kAuxTagMask) == kAuxMatrix) {
        std::vector<double> full = rt::to_full(comm_, f.m[reg]);
        data.insert(data.end(), full.begin(), full.end());
      } else {
        data.push_back(f.s[reg]);
      }
    }
    if (comm_.rank() != 0) return;
    driver::fprintf_stream(out_, mod_.strings[in.a], data);
  }

  // -- the dispatch loop -------------------------------------------------------

  void run_chunk(const BcChunk& ch, RFrame& f, uint32_t pc) {
    const BcInstr* code = ch.code.data();
    const uint32_t* smap = ch.stmt.data();
    const BcInstr* in = nullptr;

#if OTTER_VM_CGOTO
    static const void* kTable[] = {
        &&L_LdImm,   &&L_MovS,    &&L_BinS,      &&L_UnS,     &&L_RowsS,
        &&L_ColsS,   &&L_NumelS,  &&L_RandS,     &&L_RankS,   &&L_NprocsS,
        &&L_Jmp,     &&L_JmpIfZ,  &&L_ForPrep,   &&L_ForNext, &&L_Ret,
        &&L_Boundary,&&L_Call,    &&L_Trap,      &&L_MatMul,  &&L_MatVec,
        &&L_VecMat,  &&L_Outer,   &&L_Transp,    &&L_Dot,     &&L_ReduceS,
        &&L_ColwiseM,&&L_NormS,   &&L_TrapzS,    &&L_GetEl,   &&L_SetEl,
        &&L_ExtrRow, &&L_ExtrCol, &&L_AsgnRow,   &&L_AsgnCol, &&L_SliceV,
        &&L_AsgnSlice,&&L_FillZ,  &&L_FillO,     &&L_FillE,   &&L_FillRnd,
        &&L_FillRange,&&L_FillLin,&&L_LoadF,     &&L_FromLit, &&L_CopyM,
        &&L_EwKern,  &&L_EwTree,  &&L_Guard,     &&L_DisplayV,&&L_DispV,
        &&L_Fprintf,
    };
#define OVM_CASE(name) L_##name:
#define OVM_NEXT()                                     \
  do {                                                 \
    in = code + pc;                                    \
    cur_stmt_ = smap[pc];                              \
    ++pc;                                              \
    ++instrs_;                                         \
    goto* kTable[static_cast<size_t>(in->op)];         \
  } while (0)
    OVM_NEXT();
#else
#define OVM_CASE(name) case Op::name:
#define OVM_NEXT() continue
    for (;;) {
      in = code + pc;
      cur_stmt_ = smap[pc];
      ++pc;
      ++instrs_;
      switch (in->op) {
#endif

    OVM_CASE(LdImm) { f.s[in->a] = mod_.consts[in->b]; }
    OVM_NEXT();
    OVM_CASE(MovS) { f.s[in->a] = f.s[in->b]; }
    OVM_NEXT();
    OVM_CASE(BinS) {
      f.s[in->a] = rt::ew_apply_bin(static_cast<rt::EwBin>(in->flag),
                                    f.s[in->b], f.s[in->c]);
    }
    OVM_NEXT();
    OVM_CASE(UnS) {
      f.s[in->a] =
          rt::ew_apply_un(static_cast<rt::EwUn>(in->flag), f.s[in->b]);
    }
    OVM_NEXT();
    OVM_CASE(RowsS) { f.s[in->a] = static_cast<double>(f.m[in->b].rows()); }
    OVM_NEXT();
    OVM_CASE(ColsS) { f.s[in->a] = static_cast<double>(f.m[in->b].cols()); }
    OVM_NEXT();
    OVM_CASE(NumelS) { f.s[in->a] = static_cast<double>(f.m[in->b].numel()); }
    OVM_NEXT();
    OVM_CASE(RandS) { f.s[in->a] = rand_draw(); }
    OVM_NEXT();
    OVM_CASE(RankS) { f.s[in->a] = static_cast<double>(comm_.rank()); }
    OVM_NEXT();
    OVM_CASE(NprocsS) { f.s[in->a] = static_cast<double>(comm_.size()); }
    OVM_NEXT();

    OVM_CASE(Jmp) {
      check_deadline();
      pc = in->a;
    }
    OVM_NEXT();
    OVM_CASE(JmpIfZ) {
      if (f.s[in->b] == 0.0) pc = in->a;
    }
    OVM_NEXT();
    OVM_CASE(ForPrep) {
      const uint32_t* t = mod_.aux.data() + in->a;
      double lo = f.s[t[3]];
      double step = f.s[t[4]];
      double hi = f.s[t[5]];
      f.s[t[1]] = static_cast<double>(rt::checked_range_count(lo, step, hi));
      f.s[t[0]] = 0.0;
    }
    OVM_NEXT();
    OVM_CASE(ForNext) {
      check_deadline();
      const uint32_t* t = mod_.aux.data() + in->b;
      double k = f.s[t[0]];
      if (k >= f.s[t[1]]) {
        pc = in->a;
      } else {
        f.s[t[2]] = f.s[t[3]] + k * f.s[t[4]];
        f.s[t[0]] = k + 1.0;
      }
    }
    OVM_NEXT();
    OVM_CASE(Ret) { return; }
    OVM_CASE(Boundary) {
      check_deadline();
      if (ckpt_interval_ > 0 && in->a % ckpt_interval_ == 0) {
        opts_.checkpoint->commit(comm_, in->a, capture_state(ch, f));
      }
    }
    OVM_NEXT();
    OVM_CASE(Call) {
      check_deadline();
      do_call(f, *in);
    }
    OVM_NEXT();
    OVM_CASE(Trap) { fail(mod_.strings[in->a]); }

    OVM_CASE(MatMul) {
      setm(f, in->a, rt::matmul(comm_, f.m[in->b], f.m[in->c]));
    }
    OVM_NEXT();
    OVM_CASE(MatVec) {
      setm(f, in->a, rt::matvec(comm_, f.m[in->b], f.m[in->c]));
    }
    OVM_NEXT();
    OVM_CASE(VecMat) {
      setm(f, in->a, rt::vecmat(comm_, f.m[in->b], f.m[in->c]));
    }
    OVM_NEXT();
    OVM_CASE(Outer) {
      setm(f, in->a, rt::outer(comm_, f.m[in->b], f.m[in->c]));
    }
    OVM_NEXT();
    OVM_CASE(Transp) { setm(f, in->a, rt::transpose(comm_, f.m[in->b])); }
    OVM_NEXT();
    OVM_CASE(Dot) { f.s[in->a] = rt::dot(comm_, f.m[in->b], f.m[in->c]); }
    OVM_NEXT();
    OVM_CASE(ReduceS) {
      const DMat& m = f.m[in->b];
      double v = 0;
      switch (static_cast<lower::RedKind>(in->flag)) {
        case lower::RedKind::Sum: v = rt::reduce_sum(comm_, m); break;
        case lower::RedKind::Mean: v = rt::reduce_mean(comm_, m); break;
        case lower::RedKind::Min: v = rt::reduce_min(comm_, m); break;
        case lower::RedKind::Max: v = rt::reduce_max(comm_, m); break;
        case lower::RedKind::Prod: v = rt::reduce_prod(comm_, m); break;
      }
      f.s[in->a] = v;
    }
    OVM_NEXT();
    OVM_CASE(ColwiseM) {
      const DMat& m = f.m[in->b];
      switch (static_cast<lower::RedKind>(in->flag)) {
        case lower::RedKind::Sum:
          setm(f, in->a, rt::colwise_sum(comm_, m, false));
          break;
        case lower::RedKind::Mean:
          setm(f, in->a, rt::colwise_sum(comm_, m, true));
          break;
        case lower::RedKind::Min:
          setm(f, in->a, rt::colwise_minmax(comm_, m, true));
          break;
        case lower::RedKind::Max:
          setm(f, in->a, rt::colwise_minmax(comm_, m, false));
          break;
        case lower::RedKind::Prod:
          fail("column-wise prod is not supported");
      }
    }
    OVM_NEXT();
    OVM_CASE(NormS) { f.s[in->a] = rt::norm2(comm_, f.m[in->b]); }
    OVM_NEXT();
    OVM_CASE(TrapzS) {
      f.s[in->a] = in->flag != 0
                       ? rt::trapz_xy(comm_, f.m[in->b], f.m[in->c])
                       : rt::trapz(comm_, f.m[in->b]);
    }
    OVM_NEXT();
    OVM_CASE(GetEl) {
      const DMat& m = f.m[in->b];
      size_t r;
      size_t c;
      if ((in->flag & 1) != 0) {
        size_t k = as_index(f.s[in->c], "linear");
        uint8_t kind;
        uint64_t cols;
        if (in->e != 0xFFFF) {
          ICache& ic = caches_[in->e];
          if (ic_hit(ic, f.ver[in->b])) {
            kind = ic.kind;
            cols = ic.cols;
          } else {
            getel_mapping(m, kind, cols);
            ic.kind = kind;
            ic.cols = cols;
          }
        } else {
          getel_mapping(m, kind, cols);
        }
        map_linear(kind, cols, k, r, c);
      } else {
        r = as_index(f.s[in->c], "row");
        c = as_index(f.s[in->d], "column");
      }
      f.s[in->a] = rt::get_element(comm_, m, r, c);
    }
    OVM_NEXT();
    OVM_CASE(SetEl) {
      DMat& m = f.m[in->a];
      size_t r;
      size_t c;
      double v;
      if ((in->flag & 1) != 0) {
        size_t k = as_index(f.s[in->b], "linear");
        uint8_t kind;
        uint64_t cols;
        if (in->e != 0xFFFF) {
          ICache& ic = caches_[in->e];
          if (ic_hit(ic, f.ver[in->a])) {
            kind = ic.kind;
            cols = ic.cols;
          } else {
            setel_mapping(m, kind, cols);
            ic.kind = kind;
            ic.cols = cols;
          }
        } else {
          setel_mapping(m, kind, cols);
        }
        map_linear(kind, cols, k, r, c);
        v = f.s[in->c];
      } else {
        r = as_index(f.s[in->b], "row");
        c = as_index(f.s[in->c], "column");
        v = f.s[in->d];
      }
      rt::set_element(comm_, m, r, c, v);  // in place: no version bump
    }
    OVM_NEXT();
    OVM_CASE(ExtrRow) {
      setm(f, in->a,
           rt::extract_row(comm_, f.m[in->b], as_index(f.s[in->c], "row")));
    }
    OVM_NEXT();
    OVM_CASE(ExtrCol) {
      setm(f, in->a,
           rt::extract_col(comm_, f.m[in->b],
                           as_index(f.s[in->c], "column")));
    }
    OVM_NEXT();
    OVM_CASE(AsgnRow) {
      rt::assign_row(comm_, f.m[in->a], as_index(f.s[in->b], "row"),
                     f.m[in->c]);
    }
    OVM_NEXT();
    OVM_CASE(AsgnCol) {
      rt::assign_col(comm_, f.m[in->a], as_index(f.s[in->b], "column"),
                     f.m[in->c]);
    }
    OVM_NEXT();
    OVM_CASE(SliceV) {
      size_t lo = as_index(f.s[in->c], "slice lo");
      size_t hi = as_index(f.s[in->d], "slice hi");
      setm(f, in->a, rt::slice_vector(comm_, f.m[in->b], lo, hi));
    }
    OVM_NEXT();
    OVM_CASE(AsgnSlice) {
      size_t lo = as_index(f.s[in->b], "slice lo");
      size_t hi = as_index(f.s[in->c], "slice hi");
      rt::assign_slice(comm_, f.m[in->a], lo, hi, f.m[in->d]);
    }
    OVM_NEXT();
    OVM_CASE(FillZ) {
      size_t r = as_dim(f.s[in->b], "row");
      size_t c = as_dim(f.s[in->c], "column");
      setm(f, in->a, rt::fill_zeros(comm_, r, c, opts_.dist));
    }
    OVM_NEXT();
    OVM_CASE(FillO) {
      size_t r = as_dim(f.s[in->b], "row");
      size_t c = as_dim(f.s[in->c], "column");
      setm(f, in->a, rt::fill_ones(comm_, r, c, opts_.dist));
    }
    OVM_NEXT();
    OVM_CASE(FillE) {
      size_t r = as_dim(f.s[in->b], "row");
      size_t c = as_dim(f.s[in->c], "column");
      setm(f, in->a, rt::fill_eye(comm_, r, c, opts_.dist));
    }
    OVM_NEXT();
    OVM_CASE(FillRnd) {
      size_t r = as_dim(f.s[in->b], "row");
      size_t c = as_dim(f.s[in->c], "column");
      setm(f, in->a, rt::fill_rand(comm_, r, c, opts_.rand_seed, rand_seq_,
                                   opts_.dist));
      rand_seq_ += static_cast<uint64_t>(r) * c;
    }
    OVM_NEXT();
    OVM_CASE(FillRange) {
      setm(f, in->a, rt::fill_range(comm_, f.s[in->b], f.s[in->c], f.s[in->d],
                                    opts_.dist));
    }
    OVM_NEXT();
    OVM_CASE(FillLin) {
      double lo = f.s[in->b];
      double hi = f.s[in->c];
      size_t n = as_dim(f.s[in->d], "count");
      setm(f, in->a, rt::fill_linspace(comm_, lo, hi, n, opts_.dist));
    }
    OVM_NEXT();
    OVM_CASE(LoadF) {
      setm(f, in->a, rt::load_matrix(comm_, mod_.strings[in->b], opts_.dist));
    }
    OVM_NEXT();
    OVM_CASE(FromLit) {
      size_t count = static_cast<size_t>(in->c) * in->d;
      std::vector<double> data;
      data.reserve(count);
      const uint32_t* ent = mod_.aux.data() + in->b;
      for (size_t i = 0; i < count; ++i) data.push_back(f.s[ent[i]]);
      setm(f, in->a, rt::from_full(comm_, in->c, in->d, data, opts_.dist));
    }
    OVM_NEXT();
    OVM_CASE(CopyM) {
      if (in->a != in->b) f.m[in->a] = f.m[in->b];
      f.ver[in->a] = next_ver();
    }
    OVM_NEXT();
    OVM_CASE(EwKern) { ew_kernel(f, *in); }
    OVM_NEXT();
    OVM_CASE(EwTree) { ew_tree(f, *in); }
    OVM_NEXT();
    OVM_CASE(Guard) {
      const DMat& m = f.m[in->a];
      ICache& ic = caches_[in->c];
      if (!ic_hit(ic, f.ver[in->a])) {
        if ((m.rows() == 1 || m.cols() == 1) && m.numel() > 1) {
          throw rt::RtError(
              "shape guard failed: the argument of '" + mod_.strings[in->b] +
                  "' was assumed to be a matrix at compile time but is a " +
                  std::to_string(m.rows()) + "x" + std::to_string(m.cols()) +
                  " vector at run time (recompile with --strict-infer to "
                  "reject this program statically)",
              stmt_loc(), "E5003");
        }
      }
    }
    OVM_NEXT();

    OVM_CASE(DisplayV) {
      if (in->flag != 0) {
        std::string body = rt::format_dmat(comm_, f.m[in->b]);
        if (comm_.rank() == 0) {
          out_ << mod_.strings[in->a] << " =\n" << body;
        }
      } else if (comm_.rank() == 0) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", print_form(f.s[in->b]));
        out_ << mod_.strings[in->a] << " =\n" << buf << '\n';
      }
    }
    OVM_NEXT();
    OVM_CASE(DispV) {
      if (in->flag == 0) {
        if (comm_.rank() == 0) out_ << mod_.strings[in->a] << '\n';
      } else if (in->flag == 1) {
        std::string body = rt::format_dmat(comm_, f.m[in->a]);
        if (comm_.rank() == 0) out_ << body;
      } else if (comm_.rank() == 0) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", print_form(f.s[in->a]));
        out_ << buf << '\n';
      }
    }
    OVM_NEXT();
    OVM_CASE(Fprintf) { do_fprintf(f, *in); }
    OVM_NEXT();

#if OTTER_VM_CGOTO
#else
        default:
          fail("corrupt bytecode");
      }
    }
#endif
#undef OVM_CASE
#undef OVM_NEXT
  }

  const BcModule& mod_;
  mpi::Comm& comm_;
  std::ostream& out_;
  const driver::ExecOptions& opts_;
  std::vector<ICache> caches_;  // per-rank: sites index this by slot id
  bool poll_deadline_ = false;
  uint32_t ckpt_interval_ = 0;
  uint64_t rand_seq_ = 0;
  uint64_t deadline_stride_ = 0;
  uint64_t ver_counter_ = 0;   // matrix-register version source (see ICache)
  uint32_t cur_stmt_ = 0;      // innermost statement, for error context
  // Local stat tallies, flushed to opts_.vm_stats once at run end.
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t disabled_ = 0;
  uint64_t instrs_ = 0;
  // Reusable per-statement scratch, mirroring the tree executor's arena.
  std::vector<const double*> kmat_ptrs_;
  std::vector<double> kscalar_vals_;
  driver::KScratch kstack_;
};

}  // namespace

void execute_bytecode(const BcModule& mod, mpi::Comm& comm, std::ostream& out,
                      const driver::ExecOptions& opts) {
  Vm vm(mod, comm, out, opts);
  vm.run();
}

}  // namespace otter::vm
