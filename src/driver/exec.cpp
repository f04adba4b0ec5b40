#include "driver/exec.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "driver/kernel.hpp"
#include "support/matio.hpp"
#include "support/rng.hpp"
#include "vm/bcgen.hpp"
#include "vm/vm.hpp"

namespace otter::driver {

using lower::LExpr;
using lower::LFunction;
using lower::LInstr;
using lower::LOp;
using lower::LOperand;
using lower::LProgram;
using lower::RedKind;
using rt::DMat;

namespace {

[[noreturn]] void fail(const std::string& msg) { throw rt::RtError(msg); }

struct Frame {
  std::unordered_map<std::string, double> scalars;
  std::unordered_map<std::string, DMat> mats;
};

enum class Flow { Normal, Break, Continue, Return };

class Executor {
 public:
  Executor(const LProgram& prog, mpi::Comm& comm, std::ostream& out,
           const ExecOptions& opts)
      : prog_(prog), comm_(comm), out_(out), opts_(opts) {
    for (const LFunction& fn : prog.functions) fns_[fn.mangled] = &fn;
  }

  void run() {
    try {
      Frame frame;
      declare(frame, prog_.script_vars);
      size_t start = 0;
      CheckpointCoordinator* co = opts_.checkpoint;
      if (co != nullptr && co->resumed()) start = restore_state(frame, *co);
      exec_script(prog_.script, frame, start);
    } catch (const rt::RtError& e) {
      // Attach the failing statement + source location; the rank is
      // attributed by run_spmd's per-rank aggregation, so repeating it here
      // would double up.
      SourceLoc loc = e.loc.valid() ? e.loc
                      : cur_ != nullptr ? cur_->loc
                                        : SourceLoc{};
      throw rt::RtError(statement_context() + e.what(), loc, e.code);
    } catch (const std::bad_alloc& e) {
      // Allocation failure — a governor budget denial (gov::BudgetExceeded
      // carries the accounting) or true host exhaustion. Either way it
      // becomes the coded, statement-located E5006 instead of escaping a
      // rank thread into std::terminate.
      SourceLoc loc = cur_ != nullptr ? cur_->loc : SourceLoc{};
      throw rt::RtError(statement_context() + e.what(), loc, "E5006");
    }
  }

 private:
  void declare(Frame& frame, const std::vector<lower::LVarDecl>& decls) {
    for (const lower::LVarDecl& d : decls) {
      if (d.is_matrix) {
        frame.mats.emplace(d.name, rt::fill_zeros(comm_, 0, 0, opts_.dist));
      } else {
        frame.scalars.emplace(d.name, 0.0);
      }
    }
  }

  double& scalar(Frame& f, const std::string& name) {
    auto it = f.scalars.find(name);
    if (it == f.scalars.end()) fail("undefined scalar '" + name + "'");
    return it->second;
  }
  DMat& mat(Frame& f, const std::string& name) {
    auto it = f.mats.find(name);
    if (it == f.mats.end()) fail("undefined matrix '" + name + "'");
    return it->second;
  }

  // -- expression trees -------------------------------------------------------

  double eval_scalar(const LExpr& e, Frame& f) {
    switch (e.kind) {
      case LExpr::Kind::Imm: return e.imm;
      case LExpr::Kind::ScalarVar: return scalar(f, e.var);
      case LExpr::Kind::MatVar:
        fail("matrix operand in scalar tree");
      case LExpr::Kind::Bin:
        return rt::ew_apply_bin(e.bop, eval_scalar(*e.a, f),
                                eval_scalar(*e.b, f));
      case LExpr::Kind::Un:
        return rt::ew_apply_un(e.uop, eval_scalar(*e.a, f));
      case LExpr::Kind::RowsOf:
        return static_cast<double>(mat(f, e.var).rows());
      case LExpr::Kind::ColsOf:
        return static_cast<double>(mat(f, e.var).cols());
      case LExpr::Kind::NumelOf:
        return static_cast<double>(mat(f, e.var).numel());
      case LExpr::Kind::RandScalar: {
        Lcg g(opts_.rand_seed);
        g.discard(rand_seq_);
        ++rand_seq_;
        return g.next();
      }
      case LExpr::Kind::RankId:
        return static_cast<double>(comm_.rank());
      case LExpr::Kind::NProcs:
        return static_cast<double>(comm_.size());
    }
    return 0.0;
  }

  /// Evaluates an element-wise tree at local element index `l`.
  double eval_elem(const LExpr& e, Frame& f, size_t l) {
    switch (e.kind) {
      case LExpr::Kind::MatVar: {
        const DMat& m = mat(f, e.var);
        if (l >= m.local_elements()) {
          fail("element-wise operand '" + e.var + "' misaligned");
        }
        return m.local()[l];
      }
      case LExpr::Kind::Bin:
        return rt::ew_apply_bin(e.bop, eval_elem(*e.a, f, l),
                                eval_elem(*e.b, f, l));
      case LExpr::Kind::Un:
        return rt::ew_apply_un(e.uop, eval_elem(*e.a, f, l));
      default:
        return eval_scalar(e, f);
    }
  }

  /// Shape of the element-wise result: taken from any matrix leaf.
  const DMat* tree_shape(const LExpr& e, Frame& f) {
    if (e.kind == LExpr::Kind::MatVar) return &mat(f, e.var);
    if (e.a) {
      if (const DMat* m = tree_shape(*e.a, f)) return m;
    }
    if (e.b) {
      if (const DMat* m = tree_shape(*e.b, f)) return m;
    }
    return nullptr;
  }

  // -- compiled kernels -----------------------------------------------------------

  /// Compiles (once) and caches the kernel for an Elemwise/ScalarAssign
  /// statement. LInstr nodes are pointer-stable (owned via unique_ptr), so
  /// the instruction address keys the cache.
  const Kernel& kernel_for(const LInstr& in) {
    auto it = kernels_.find(&in);
    if (it != kernels_.end()) return it->second;
    return kernels_.emplace(&in, compile_kernel(*in.tree)).first->second;
  }

  /// Evaluates a kernel's scalar slots once per statement into kscalar_vals_.
  void bind_scalar_slots(const Kernel& k, Frame& f) {
    kscalar_vals_.resize(k.scalars.size());
    for (size_t i = 0; i < k.scalars.size(); ++i) {
      kscalar_vals_[i] = eval_scalar(*k.scalars[i], f);
    }
  }

  Flow exec_elemwise_kernel(const LInstr& in, Frame& f, const Kernel& k) {
    // mats.front() is the pre-order first matrix leaf, i.e. the same shape
    // source tree_shape() would pick.
    const DMat& proto = mat(f, k.mats.front());
    size_t n = proto.local_elements();
    kmat_ptrs_.resize(k.mats.size());
    size_t bad_slot = k.mats.size();
    size_t bad_n = n;
    for (size_t i = 0; i < k.mats.size(); ++i) {
      const DMat& m = mat(f, k.mats[i]);
      if (m.local_elements() < bad_n) {  // strict <: earliest slot wins ties,
        bad_n = m.local_elements();      // matching the tree walker's order
        bad_slot = i;
      }
      kmat_ptrs_[i] = m.local().data();
    }
    if (n > 0 && bad_slot < k.mats.size()) {
      fail("element-wise operand '" + k.mats[bad_slot] + "' misaligned");
    }
    bind_scalar_slots(k, f);
    DMat& dst = mat(f, in.dst);
    if (dst.aligned_with(proto)) {
      // In place: Kernel::run allows dst to alias an operand buffer.
      k.run(dst.local().data(), kmat_ptrs_.data(), kscalar_vals_.data(),
            kstack_, n);
      return Flow::Normal;
    }
    DMat out(comm_, proto.rows(), proto.cols(), proto.layout().dist());
    k.run(out.local().data(), kmat_ptrs_.data(), kscalar_vals_.data(),
          kstack_, n);
    mat(f, in.dst) = std::move(out);
    return Flow::Normal;
  }

  double operand_scalar(const LOperand& o, Frame& f) {
    if (!o.scalar) fail("expected scalar operand");
    return eval_scalar(*o.scalar, f);
  }
  DMat& operand_mat(const LOperand& o, Frame& f) {
    if (!o.is_matrix) fail("expected matrix operand");
    return mat(f, o.mat);
  }

  static size_t as_index(double v, const char* what) {
    // The upper bound also rejects Inf: a non-finite index cast to size_t
    // is undefined behaviour before it is ever range-checked.
    if (!(v >= 0) || !(v < 9007199254740992.0) || std::floor(v) != v) {
      fail(std::string("invalid ") + what + " index");
    }
    return static_cast<size_t>(v);
  }
  static size_t as_dim(double v, const char* what) {
    // Negative, NaN, Inf, and 2^53-exceeding extents get the stable E5007
    // before any allocation is attempted (rt::checked_dim throws RtError).
    return rt::checked_dim(v, what);
  }

  // -- instructions ---------------------------------------------------------------

  Flow exec_body(const std::vector<lower::LInstrPtr>& body, Frame& f) {
    for (const lower::LInstrPtr& in : body) {
      Flow flow = exec_instr(*in, f);
      if (flow != Flow::Normal) return flow;
    }
    return Flow::Normal;
  }

  /// Top-level script walk with checkpoint boundaries. Statement index i is
  /// the program counter a checkpoint records: every rank runs the same
  /// top-level sequence, so "about to execute statement k" names one global
  /// quiescent cut. Boundaries inside loops/functions are never candidates
  /// (a nested frame would be live), which keeps captured state exactly one
  /// Frame + the RNG cursor + comm counters.
  void exec_script(const std::vector<lower::LInstrPtr>& body, Frame& f,
                   size_t start) {
    CheckpointCoordinator* co = opts_.checkpoint;
    uint32_t interval = co != nullptr ? co->interval() : 0;
    for (size_t i = start; i < body.size(); ++i) {
      if (exec_instr(*body[i], f) != Flow::Normal) return;
      size_t next = i + 1;
      if (interval > 0 && next < body.size() && next % interval == 0) {
        co->commit(comm_, next, capture_state(f));
      }
    }
  }

  // -- checkpoint capture/restore ---------------------------------------------

  /// Serializes this rank's complete resume state. Map entries are emitted
  /// in sorted name order so the byte stream is canonical (the hash-map
  /// iteration order is not part of the program state).
  std::vector<std::byte> capture_state(Frame& f) {
    snap::Writer w;
    w.u32(static_cast<uint32_t>(comm_.rank()));
    w.u64(rand_seq_);
    w.u64(comm_.ops());
    w.f64(comm_.vtime());
    std::vector<std::string> names;
    names.reserve(f.scalars.size());
    for (const auto& [name, v] : f.scalars) names.push_back(name);
    std::sort(names.begin(), names.end());
    w.u64(names.size());
    for (const std::string& name : names) {
      w.str(name);
      w.f64(f.scalars[name]);
    }
    names.clear();
    for (const auto& [name, m] : f.mats) names.push_back(name);
    std::sort(names.begin(), names.end());
    w.u64(names.size());
    for (const std::string& name : names) {
      w.str(name);
      f.mats[name].save_snapshot(w);
    }
    return w.take();
  }

  /// Rebuilds the frame, RNG cursor, and comm counters from this rank's
  /// checkpoint blob; returns the statement index to resume at. The file
  /// passed CRC validation before the ranks spawned, so failures here mean
  /// a blob/rank mismatch — surfaced as a coded E5005 runtime error.
  size_t restore_state(Frame& frame, const CheckpointCoordinator& co) {
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
      // Continue the original run's op numbering and clock: op-indexed
      // fault schedules and vtime accounting stay aligned across resume.
      comm_.restore_stats(vtime, ops);
      uint64_t nscalars = r.u64();
      for (uint64_t i = 0; i < nscalars; ++i) {
        std::string name = r.str();
        frame.scalars[name] = r.f64();
      }
      uint64_t nmats = r.u64();
      for (uint64_t i = 0; i < nmats; ++i) {
        std::string name = r.str();
        frame.mats.insert_or_assign(name,
                                    DMat::load_snapshot(r, comm_.rank()));
      }
      return co.resume_statement();
    } catch (const snap::SnapshotError& e) {
      throw rt::RtError(std::string("checkpoint restore failed: ") + e.what(),
                        {}, "E5005");
    }
  }

  [[nodiscard]] std::string statement_context() const {
    if (cur_ == nullptr) return "";
    std::string ctx;
    if (cur_->loc.valid()) ctx += "line " + std::to_string(cur_->loc.line) + " ";
    ctx += "(" + std::string(lower::lop_name(cur_->op)) + "): ";
    return ctx;
  }

  Flow exec_instr(const LInstr& in, Frame& f) {
    cur_ = &in;
    // Session-scoped deadline / cancellation: communication ops already poll
    // it inside minimpi, but a compute-only loop (huge for-range of scalar
    // work) would otherwise run forever inside a daemon worker. Amortize the
    // clock read over a stride of statements.
    if ((opts_.spmd.has_deadline() || opts_.spmd.cancel != nullptr) &&
        ++deadline_stride_ % 64 == 0 && opts_.spmd.expired()) {
      throw rt::RtError(opts_.spmd.expiry_reason(), in.loc, "E5004");
    }
    switch (in.op) {
      case LOp::MatMul:
        mat(f, in.dst) = rt::matmul(comm_, operand_mat(in.args[0], f),
                                    operand_mat(in.args[1], f));
        return Flow::Normal;
      case LOp::MatVec:
        mat(f, in.dst) = rt::matvec(comm_, operand_mat(in.args[0], f),
                                    operand_mat(in.args[1], f));
        return Flow::Normal;
      case LOp::VecMat:
        mat(f, in.dst) = rt::vecmat(comm_, operand_mat(in.args[0], f),
                                    operand_mat(in.args[1], f));
        return Flow::Normal;
      case LOp::OuterProd:
        mat(f, in.dst) = rt::outer(comm_, operand_mat(in.args[0], f),
                                   operand_mat(in.args[1], f));
        return Flow::Normal;
      case LOp::TransposeOp:
        mat(f, in.dst) = rt::transpose(comm_, operand_mat(in.args[0], f));
        return Flow::Normal;
      case LOp::DotProd:
        scalar(f, in.sdst) = rt::dot(comm_, operand_mat(in.args[0], f),
                                     operand_mat(in.args[1], f));
        return Flow::Normal;
      case LOp::Reduce: {
        const DMat& m = operand_mat(in.args[0], f);
        double v = 0;
        switch (in.red) {
          case RedKind::Sum: v = rt::reduce_sum(comm_, m); break;
          case RedKind::Mean: v = rt::reduce_mean(comm_, m); break;
          case RedKind::Min: v = rt::reduce_min(comm_, m); break;
          case RedKind::Max: v = rt::reduce_max(comm_, m); break;
          case RedKind::Prod: v = rt::reduce_prod(comm_, m); break;
        }
        scalar(f, in.sdst) = v;
        return Flow::Normal;
      }
      case LOp::Colwise: {
        const DMat& m = operand_mat(in.args[0], f);
        switch (in.red) {
          case RedKind::Sum:
            mat(f, in.dst) = rt::colwise_sum(comm_, m, false);
            break;
          case RedKind::Mean:
            mat(f, in.dst) = rt::colwise_sum(comm_, m, true);
            break;
          case RedKind::Min:
            mat(f, in.dst) = rt::colwise_minmax(comm_, m, true);
            break;
          case RedKind::Max:
            mat(f, in.dst) = rt::colwise_minmax(comm_, m, false);
            break;
          case RedKind::Prod:
            fail("column-wise prod is not supported");
        }
        return Flow::Normal;
      }
      case LOp::Norm:
        scalar(f, in.sdst) = rt::norm2(comm_, operand_mat(in.args[0], f));
        return Flow::Normal;
      case LOp::Trapz:
        if (in.args.size() == 2) {
          scalar(f, in.sdst) = rt::trapz_xy(comm_, operand_mat(in.args[0], f),
                                            operand_mat(in.args[1], f));
        } else {
          scalar(f, in.sdst) = rt::trapz(comm_, operand_mat(in.args[0], f));
        }
        return Flow::Normal;
      case LOp::GetElem: {
        const DMat& m = operand_mat(in.args[0], f);
        size_t r;
        size_t c;
        if (in.linear) {
          size_t k = as_index(operand_scalar(in.args[1], f), "linear");
          if (m.rows() == 1 || !m.is_vector()) {
            // Row vector (or 1x1): linear k maps to column k of row 0.
            if (m.rows() != 1) {
              // Row-major linear indexing into a full matrix (documented
              // deviation from MATLAB's column-major order).
              r = k / m.cols();
              c = k % m.cols();
            } else {
              r = 0;
              c = k;
            }
          } else {
            r = k;
            c = 0;
          }
        } else {
          r = as_index(operand_scalar(in.args[1], f), "row");
          c = as_index(operand_scalar(in.args[2], f), "column");
        }
        scalar(f, in.sdst) = rt::get_element(comm_, m, r, c);
        return Flow::Normal;
      }
      case LOp::SetElem: {
        DMat& m = mat(f, in.dst);
        size_t r;
        size_t c;
        double v;
        if (in.linear) {
          size_t k = as_index(operand_scalar(in.args[0], f), "linear");
          if (m.rows() == 1) {
            r = 0;
            c = k;
          } else if (m.cols() == 1) {
            r = k;
            c = 0;
          } else {
            r = k / m.cols();
            c = k % m.cols();
          }
          v = operand_scalar(in.args[1], f);
        } else {
          r = as_index(operand_scalar(in.args[0], f), "row");
          c = as_index(operand_scalar(in.args[1], f), "column");
          v = operand_scalar(in.args[2], f);
        }
        rt::set_element(comm_, m, r, c, v);
        return Flow::Normal;
      }
      case LOp::ExtractRowOp:
        mat(f, in.dst) = rt::extract_row(
            comm_, operand_mat(in.args[0], f),
            as_index(operand_scalar(in.args[1], f), "row"));
        return Flow::Normal;
      case LOp::ExtractColOp:
        mat(f, in.dst) = rt::extract_col(
            comm_, operand_mat(in.args[0], f),
            as_index(operand_scalar(in.args[1], f), "column"));
        return Flow::Normal;
      case LOp::AssignRowOp:
        rt::assign_row(comm_, mat(f, in.dst),
                       as_index(operand_scalar(in.args[0], f), "row"),
                       operand_mat(in.args[1], f));
        return Flow::Normal;
      case LOp::AssignColOp:
        rt::assign_col(comm_, mat(f, in.dst),
                       as_index(operand_scalar(in.args[0], f), "column"),
                       operand_mat(in.args[1], f));
        return Flow::Normal;
      case LOp::SliceVec: {
        size_t lo = as_index(operand_scalar(in.args[1], f), "slice lo");
        size_t hi = as_index(operand_scalar(in.args[2], f), "slice hi");
        mat(f, in.dst) =
            rt::slice_vector(comm_, operand_mat(in.args[0], f), lo, hi);
        return Flow::Normal;
      }
      case LOp::AssignSliceOp: {
        size_t lo = as_index(operand_scalar(in.args[0], f), "slice lo");
        size_t hi = as_index(operand_scalar(in.args[1], f), "slice hi");
        rt::assign_slice(comm_, mat(f, in.dst), lo, hi,
                         operand_mat(in.args[2], f));
        return Flow::Normal;
      }
      case LOp::FillZeros:
      case LOp::FillOnes:
      case LOp::FillEye: {
        size_t r = as_dim(operand_scalar(in.args[0], f), "row");
        size_t c = as_dim(operand_scalar(in.args[1], f), "column");
        if (in.op == LOp::FillZeros) {
          mat(f, in.dst) = rt::fill_zeros(comm_, r, c, opts_.dist);
        } else if (in.op == LOp::FillOnes) {
          mat(f, in.dst) = rt::fill_ones(comm_, r, c, opts_.dist);
        } else {
          mat(f, in.dst) = rt::fill_eye(comm_, r, c, opts_.dist);
        }
        return Flow::Normal;
      }
      case LOp::FillRand: {
        size_t r = as_dim(operand_scalar(in.args[0], f), "row");
        size_t c = as_dim(operand_scalar(in.args[1], f), "column");
        mat(f, in.dst) =
            rt::fill_rand(comm_, r, c, opts_.rand_seed, rand_seq_, opts_.dist);
        rand_seq_ += static_cast<uint64_t>(r) * c;
        return Flow::Normal;
      }
      case LOp::FillRange: {
        double lo = operand_scalar(in.args[0], f);
        double step = operand_scalar(in.args[1], f);
        double hi = operand_scalar(in.args[2], f);
        mat(f, in.dst) = rt::fill_range(comm_, lo, step, hi, opts_.dist);
        return Flow::Normal;
      }
      case LOp::LoadFile:
        mat(f, in.dst) = rt::load_matrix(comm_, in.args[0].str, opts_.dist);
        return Flow::Normal;
      case LOp::FillLinspace: {
        double lo = operand_scalar(in.args[0], f);
        double hi = operand_scalar(in.args[1], f);
        size_t n = as_dim(operand_scalar(in.args[2], f), "count");
        mat(f, in.dst) = rt::fill_linspace(comm_, lo, hi, n, opts_.dist);
        return Flow::Normal;
      }
      case LOp::FromLiteral: {
        size_t rows = in.literal_rows.size();
        size_t cols = rows ? in.literal_rows[0].size() : 0;
        std::vector<double> data;
        data.reserve(rows * cols);
        for (const auto& row : in.literal_rows) {
          if (row.size() != cols) fail("ragged matrix literal");
          for (const lower::LExprPtr& e : row) {
            data.push_back(eval_scalar(*e, f));
          }
        }
        mat(f, in.dst) = rt::from_full(comm_, rows, cols, data, opts_.dist);
        return Flow::Normal;
      }
      case LOp::CopyMat:
        mat(f, in.dst) = operand_mat(in.args[0], f);
        return Flow::Normal;
      case LOp::Elemwise: {
        if (opts_.kernels) {
          const Kernel& k = kernel_for(in);
          if (k.ok && !k.mats.empty()) return exec_elemwise_kernel(in, f, k);
        }
        const DMat* shape = tree_shape(*in.tree, f);
        if (shape == nullptr) fail("element-wise loop without matrix operand");
        // Paper-style local loop: each processor updates its share.
        DMat out(comm_, shape->rows(), shape->cols(), shape->layout().dist());
        auto ov = out.local();
        for (size_t l = 0; l < ov.size(); ++l) {
          ov[l] = eval_elem(*in.tree, f, l);
        }
        mat(f, in.dst) = std::move(out);
        return Flow::Normal;
      }
      case LOp::ScalarAssign: {
        if (opts_.kernels) {
          const Kernel& k = kernel_for(in);
          if (k.ok && k.mats.empty()) {
            bind_scalar_slots(k, f);
            double v = 0.0;
            k.run(&v, nullptr, kscalar_vals_.data(), kstack_, 1);
            scalar(f, in.sdst) = v;
            return Flow::Normal;
          }
        }
        scalar(f, in.sdst) = eval_scalar(*in.tree, f);
        return Flow::Normal;
      }
      case LOp::CallFn:
        exec_call(in, f);
        return Flow::Normal;
      case LOp::Display: {
        const std::string& name = in.args[0].str;
        if (in.args[1].is_matrix) {
          std::string body = rt::format_dmat(comm_, operand_mat(in.args[1], f));
          if (comm_.rank() == 0) out_ << name << " =\n" << body;
        } else {
          double v = operand_scalar(in.args[1], f);
          if (comm_.rank() == 0) {
            out_ << name << " =\n";
            print_real(out_, v);
            out_ << '\n';
          }
        }
        return Flow::Normal;
      }
      case LOp::DispOp: {
        const LOperand& o = in.args[0];
        if (o.is_string) {
          if (comm_.rank() == 0) out_ << o.str << '\n';
        } else if (o.is_matrix) {
          std::string body = rt::format_dmat(comm_, operand_mat(o, f));
          if (comm_.rank() == 0) out_ << body;
        } else {
          double v = operand_scalar(o, f);
          if (comm_.rank() == 0) {
            print_real(out_, v);
            out_ << '\n';
          }
        }
        return Flow::Normal;
      }
      case LOp::FprintfOp:
        exec_fprintf(in, f);
        return Flow::Normal;
      case LOp::ErrorOp:
        fail(in.args.empty() || !in.args[0].is_string ? "error"
                                                      : in.args[0].str);
      case LOp::ShapeGuard: {
        // Backs a graceful-inference assumption: the compiler assumed a
        // column-wise (matrix) reduction; abort with a coded error if the
        // argument is actually a vector at run time.
        const DMat& m = operand_mat(in.args[0], f);
        std::string what = in.args.size() > 1 && in.args[1].is_string
                               ? in.args[1].str
                               : "reduction";
        if ((m.rows() == 1 || m.cols() == 1) && m.numel() > 1) {
          throw rt::RtError(
              "shape guard failed: the argument of '" + what +
                  "' was assumed to be a matrix at compile time but is a " +
                  std::to_string(m.rows()) + "x" + std::to_string(m.cols()) +
                  " vector at run time (recompile with --strict-infer to "
                  "reject this program statically)",
              in.loc, "E5003");
        }
        return Flow::Normal;
      }
      case LOp::IfOp: {
        for (const lower::LIfArm& arm : in.arms) {
          if (!arm.cond || eval_scalar(*arm.cond, f) != 0.0) {
            return exec_body(arm.body, f);
          }
        }
        return Flow::Normal;
      }
      case LOp::WhileOp: {
        while (eval_scalar(*in.cond, f) != 0.0) {
          Flow flow = exec_body(in.body, f);
          if (flow == Flow::Break) break;
          if (flow == Flow::Return) return flow;
        }
        return Flow::Normal;
      }
      case LOp::ForOp: {
        double lo = eval_scalar(*in.lo, f);
        double step = eval_scalar(*in.step, f);
        double hi = eval_scalar(*in.hi, f);
        size_t n = rt::checked_range_count(lo, step, hi);
        for (size_t k = 0; k < n; ++k) {
          f.scalars[in.loop_var] = lo + static_cast<double>(k) * step;
          Flow flow = exec_body(in.body, f);
          if (flow == Flow::Break) break;
          if (flow == Flow::Return) return flow;
        }
        return Flow::Normal;
      }
      case LOp::BreakOp: return Flow::Break;
      case LOp::ContinueOp: return Flow::Continue;
      case LOp::ReturnOp: return Flow::Return;
    }
    return Flow::Normal;
  }

  void exec_call(const LInstr& in, Frame& caller) {
    auto it = fns_.find(in.callee);
    if (it == fns_.end()) fail("unknown function instance '" + in.callee + "'");
    const LFunction& fn = *it->second;
    Frame frame;
    declare(frame, fn.params);
    declare(frame, fn.outs);
    declare(frame, fn.locals);
    for (size_t i = 0; i < in.args.size() && i < fn.params.size(); ++i) {
      if (fn.params[i].is_matrix) {
        frame.mats[fn.params[i].name] = operand_mat(in.args[i], caller);
      } else {
        frame.scalars[fn.params[i].name] = operand_scalar(in.args[i], caller);
      }
    }
    exec_body(fn.body, frame);
    for (size_t i = 0; i < in.call_dsts.size() && i < fn.outs.size(); ++i) {
      if (in.call_dsts[i].is_matrix) {
        mat(caller, in.call_dsts[i].name) = mat(frame, fn.outs[i].name);
      } else {
        scalar(caller, in.call_dsts[i].name) = scalar(frame, fn.outs[i].name);
      }
    }
  }

  void exec_fprintf(const LInstr& in, Frame& f) {
    if (in.args.empty() || !in.args[0].is_string) fail("fprintf needs a format");
    const std::string& fmt = in.args[0].str;
    // Flatten arguments into a replicated scalar stream (matrices gather).
    std::vector<double> data;
    for (size_t i = 1; i < in.args.size(); ++i) {
      if (in.args[i].is_matrix) {
        std::vector<double> full = rt::to_full(comm_, operand_mat(in.args[i], f));
        data.insert(data.end(), full.begin(), full.end());
      } else {
        data.push_back(operand_scalar(in.args[i], f));
      }
    }
    if (comm_.rank() != 0) return;
    fprintf_stream(out_, fmt, data);
  }

  const LProgram& prog_;
  mpi::Comm& comm_;
  std::ostream& out_;
  ExecOptions opts_;
  std::unordered_map<std::string, const LFunction*> fns_;
  uint64_t rand_seq_ = 0;
  uint64_t deadline_stride_ = 0;  // amortizes the per-statement deadline poll
  const LInstr* cur_ = nullptr;  // innermost statement, for error context
  // Compiled-kernel cache and reusable per-statement scratch (the "arena":
  // operand pointers, scalar slots, and the block registers are allocated
  // once and reused across statements).
  std::unordered_map<const LInstr*, Kernel> kernels_;
  std::vector<const double*> kmat_ptrs_;
  std::vector<double> kscalar_vals_;
  KScratch kstack_;
};

}  // namespace

void fprintf_stream(std::ostream& out, const std::string& fmt,
                    const std::vector<double>& data) {
  if (char bad = fprintf_format(out, fmt, data)) {
    fail(std::string("unsupported fprintf conversion '%") + bad + "'");
  }
}

void execute_lir(const LProgram& prog, mpi::Comm& comm, std::ostream& out,
                 const ExecOptions& opts) {
  if (opts.backend != ExecBackend::Tree) {
    // Auto resolves to the VM: it is the default tier, and every caller
    // that wants the tree reference (-O0, differential legs) says so.
    const vm::BcModule* mod = opts.bytecode;
    vm::BcModule local;
    if (mod == nullptr) {
      local = vm::compile_bytecode(prog);
      mod = &local;
    }
    vm::execute_bytecode(*mod, comm, out, opts);
    return;
  }
  Executor ex(prog, comm, out, opts);
  ex.run();
}

}  // namespace otter::driver
