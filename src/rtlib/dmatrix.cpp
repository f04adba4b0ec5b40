#include "rtlib/dmatrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "support/matio.hpp"
#include "support/rng.hpp"

namespace otter::rt {

namespace {
[[noreturn]] void fail(const std::string& msg) { throw RtError(msg); }

std::string shape_str(const DMat& m) {
  return std::to_string(m.rows()) + "x" + std::to_string(m.cols());
}
}  // namespace

// -- dimension validation -----------------------------------------------------

void check_extents(size_t rows, size_t cols, SourceLoc loc) {
  if (cols != 0 && rows > kMaxMatrixElements / cols) {
    throw RtError("matrix dimensions " + std::to_string(rows) + "x" +
                      std::to_string(cols) +
                      " overflow the addressable element count",
                  loc, "E5007");
  }
}

size_t checked_dim(double v, const char* what, SourceLoc loc) {
  // 2^53: beyond this a double has gaps wider than 1, so the value cannot
  // name an exact extent — and any such request is absurd anyway. The
  // comparison is also the NaN/Inf guard (NaN fails v >= 0, Inf fails the
  // upper bound).
  constexpr double kLimit = 9007199254740992.0;
  if (!(v >= 0.0) || !(v < kLimit) || std::floor(v) != v) {
    throw RtError(std::string("invalid ") + what + " dimension " +
                      std::to_string(v) +
                      " (must be a nonnegative finite integer)",
                  loc, "E5007");
  }
  return static_cast<size_t>(v);
}

// -- DMat ---------------------------------------------------------------------

DMat::DMat(mpi::Comm& comm, size_t rows, size_t cols, Dist dist)
    : rows_(rows), cols_(cols), rank_(comm.rank()) {
  check_extents(rows, cols);
  // Vectors are distributed by element blocks, matrices by rows (paper §3).
  if (is_vector()) {
    layout_ = Layout(rows * cols, comm.size(), dist);
    local_.assign(layout_.count(rank_), 0.0);
  } else {
    layout_ = Layout(rows, comm.size(), dist);
    local_.assign(layout_.count(rank_) * cols, 0.0);
  }
}

void DMat::save_snapshot(snap::Writer& w) const {
  w.u64(rows_);
  w.u64(cols_);
  w.u64(layout_.total());
  w.u32(static_cast<uint32_t>(layout_.nranks()));
  w.u8(static_cast<uint8_t>(layout_.dist()));
  w.u64(local_.size());
  for (double v : local_) w.f64(v);
}

DMat DMat::load_snapshot(snap::Reader& r, int rank) {
  DMat m;
  m.rows_ = r.u64();
  m.cols_ = r.u64();
  size_t n = r.u64();
  int p = static_cast<int>(r.u32());
  auto dist_raw = r.u8();
  if (dist_raw > static_cast<uint8_t>(Dist::Cyclic) || p < 1)
    throw snap::SnapshotError("corrupt checkpoint: bad matrix layout");
  if (m.cols_ != 0 && m.rows_ > kMaxMatrixElements / m.cols_)
    throw snap::SnapshotError("corrupt checkpoint: matrix extents overflow");
  m.rank_ = rank;
  m.layout_ = Layout(n, p, static_cast<Dist>(dist_raw));
  size_t count = r.u64();
  size_t expect = m.is_vector() ? m.layout_.count(rank)
                                : m.layout_.count(rank) * m.cols_;
  if (rank >= p || count != expect)
    throw snap::SnapshotError(
        "corrupt checkpoint: matrix payload disagrees with its layout");
  m.local_.resize(count);
  for (double& v : m.local_) v = r.f64();
  return m;
}

size_t DMat::local_to_global_row(size_t i) const {
  if (is_vector()) {
    size_t g = layout_.to_global(rank_, i);
    return cols_ == 1 ? g : 0;
  }
  return layout_.to_global(rank_, i / cols_);
}

size_t DMat::local_to_global_col(size_t i) const {
  if (is_vector()) {
    size_t g = layout_.to_global(rank_, i);
    return cols_ == 1 ? 0 : g;
  }
  return i % cols_;
}

int DMat::owner_of(size_t r, size_t c) const {
  if (is_vector()) return layout_.owner(rows_ == 1 ? c : r);
  return layout_.owner(r);
}

bool DMat::owns(size_t r, size_t c) const { return owner_of(r, c) == rank_; }

size_t DMat::local_index(size_t r, size_t c) const {
  if (is_vector()) return layout_.to_local(rows_ == 1 ? c : r);
  return layout_.to_local(r) * cols_ + c;
}

// -- element-wise scalar kernels ------------------------------------------------

DMat ew_binary(mpi::Comm& comm, EwBin op, const DMat& a, const DMat& b) {
  if (!a.aligned_with(b)) {
    fail("element-wise op on unaligned operands: " + shape_str(a) + " vs " +
         shape_str(b));
  }
  DMat out(comm, a.rows(), a.cols(), a.layout().dist());
  auto av = a.local();
  auto bv = b.local();
  auto ov = out.local();
  for (size_t i = 0; i < ov.size(); ++i) {
    ov[i] = ew_apply_bin(op, av[i], bv[i]);
  }
  return out;
}

DMat ew_binary_scalar(mpi::Comm& comm, EwBin op, const DMat& a, double s,
                      bool scalar_left) {
  DMat out(comm, a.rows(), a.cols(), a.layout().dist());
  auto av = a.local();
  auto ov = out.local();
  for (size_t i = 0; i < ov.size(); ++i) {
    ov[i] = scalar_left ? ew_apply_bin(op, s, av[i]) : ew_apply_bin(op, av[i], s);
  }
  return out;
}

DMat ew_unary(mpi::Comm& comm, EwUn op, const DMat& a) {
  DMat out(comm, a.rows(), a.cols(), a.layout().dist());
  auto av = a.local();
  auto ov = out.local();
  for (size_t i = 0; i < ov.size(); ++i) ov[i] = ew_apply_un(op, av[i]);
  return out;
}

// -- construction -------------------------------------------------------------

DMat from_full(mpi::Comm& comm, size_t rows, size_t cols,
               std::span<const double> data, Dist dist) {
  if (data.size() != rows * cols) fail("from_full: data size mismatch");
  DMat m(comm, rows, cols, dist);
  auto lv = m.local();
  for (size_t i = 0; i < lv.size(); ++i) {
    size_t r = m.local_to_global_row(i);
    size_t c = m.local_to_global_col(i);
    lv[i] = data[r * cols + c];
  }
  return m;
}

std::vector<double> to_full(mpi::Comm& comm, const DMat& m) {
  int p = comm.size();
  std::vector<size_t> counts(static_cast<size_t>(p));
  bool vec = m.is_vector();
  for (int r = 0; r < p; ++r) {
    counts[static_cast<size_t>(r)] =
        vec ? m.layout().count(r) : m.layout().count(r) * m.cols();
  }
  std::vector<double> gathered(m.numel());
  // allgather keeps every rank's copy consistent (and its ring cost models
  // the real redistribution traffic).
  comm.allgatherv(m.local().data(), gathered.data(), counts);
  if (m.layout().dist() == Dist::RowBlock) return gathered;  // already in order

  // Cyclic: reorder rank-concatenated units into global order.
  std::vector<double> full(m.numel());
  size_t off = 0;
  for (int r = 0; r < p; ++r) {
    size_t n_units = m.layout().count(r);
    for (size_t i = 0; i < n_units; ++i) {
      size_t g = m.layout().to_global(r, i);
      if (vec) {
        full[g] = gathered[off + i];
      } else {
        // Pointer arithmetic, not operator[]: an n x 0 matrix has empty
        // buffers and n units.
        std::copy_n(gathered.data() + off + i * m.cols(), m.cols(),
                    full.data() + g * m.cols());
      }
    }
    off += vec ? n_units : n_units * m.cols();
  }
  return full;
}

DMat& ensure_like(mpi::Comm& comm, DMat& dst, const DMat& proto) {
  if (!dst.aligned_with(proto)) {
    dst = DMat(comm, proto.rows(), proto.cols(), proto.layout().dist());
  }
  return dst;
}

DMat fill_zeros(mpi::Comm& comm, size_t rows, size_t cols, Dist dist) {
  return DMat(comm, rows, cols, dist);
}

DMat fill_value(mpi::Comm& comm, size_t rows, size_t cols, double v,
                Dist dist) {
  DMat m(comm, rows, cols, dist);
  std::fill(m.local().begin(), m.local().end(), v);
  return m;
}

DMat fill_ones(mpi::Comm& comm, size_t rows, size_t cols, Dist dist) {
  return fill_value(comm, rows, cols, 1.0, dist);
}

DMat fill_eye(mpi::Comm& comm, size_t rows, size_t cols, Dist dist) {
  DMat m(comm, rows, cols, dist);
  auto lv = m.local();
  if (!m.is_vector()) {
    // Touch only the diagonal entries of the local rows.
    size_t my_rows = m.layout().count(comm.rank());
    for (size_t i = 0; i < my_rows; ++i) {
      size_t g = m.layout().to_global(comm.rank(), i);
      if (g < cols) lv[i * cols + g] = 1.0;
    }
    return m;
  }
  for (size_t i = 0; i < lv.size(); ++i) {
    if (m.local_to_global_row(i) == m.local_to_global_col(i)) lv[i] = 1.0;
  }
  return m;
}

size_t checked_range_count(double lo, double step, double hi) {
  if (!range_is_finite(lo, step, hi)) {
    throw RtError(kRangeNotFiniteMsg, {}, kRangeNotFiniteCode);
  }
  if (step == 0.0) fail("range step must be nonzero");
  size_t n = range_count(lo, step, hi);
  // The interpreter materialises every range, a for-loop's too, so a count
  // no matrix can hold is E5007 for the compiled loops as well.
  check_extents(1, n);
  return n;
}

DMat fill_range(mpi::Comm& comm, double lo, double step, double hi,
                Dist dist) {
  DMat m(comm, 1, checked_range_count(lo, step, hi), dist);
  auto lv = m.local();
  for (size_t i = 0; i < lv.size(); ++i) {
    lv[i] = lo + static_cast<double>(m.local_to_global_col(i)) * step;
  }
  return m;
}

DMat fill_linspace(mpi::Comm& comm, double lo, double hi, size_t n,
                   Dist dist) {
  DMat m(comm, 1, n, dist);
  auto lv = m.local();
  for (size_t i = 0; i < lv.size(); ++i) {
    size_t g = m.local_to_global_col(i);
    lv[i] = n == 1 ? hi
                   : lo + (hi - lo) * static_cast<double>(g) /
                              static_cast<double>(n - 1);
  }
  return m;
}

DMat fill_rand(mpi::Comm& comm, size_t rows, size_t cols, uint64_t seed,
               uint64_t seq, Dist dist) {
  DMat m(comm, rows, cols, dist);
  auto lv = m.local();
  // Each local element takes the value the sequential generator would give
  // its flat (row-major) index, so the result is independent of rank count
  // and distribution. Contiguous runs share one O(log n) skip-ahead.
  if (m.layout().dist() == Dist::RowBlock) {
    // Block layouts are one contiguous global run per rank.
    if (!lv.empty()) {
      size_t unit = m.is_vector() ? 1 : cols;
      size_t g0 = m.layout().block_lo(comm.rank()) * unit;
      Lcg gen(seed);
      gen.discard(seq + g0);
      for (double& x : lv) x = gen.next();
    }
    return m;
  }
  // Cyclic: one run per local row (matrices) or per element (vectors).
  if (!m.is_vector()) {
    size_t my_rows = m.layout().count(comm.rank());
    for (size_t i = 0; i < my_rows; ++i) {
      size_t g = m.layout().to_global(comm.rank(), i) * cols;
      Lcg gen(seed);
      gen.discard(seq + g);
      for (size_t j = 0; j < cols; ++j) lv[i * cols + j] = gen.next();
    }
    return m;
  }
  for (size_t i = 0; i < lv.size(); ++i) {
    Lcg gen(seed);
    gen.discard(seq + m.layout().to_global(comm.rank(), i));
    lv[i] = gen.next();
  }
  return m;
}

// -- element access -----------------------------------------------------------

double get_element(mpi::Comm& comm, const DMat& m, size_t r, size_t c) {
  if (r >= m.rows() || c >= m.cols()) fail("get_element: index out of range");
  int owner = m.owner_of(r, c);
  double v = 0.0;
  if (comm.rank() == owner) v = m.local()[m.local_index(r, c)];
  comm.bcast(&v, sizeof v, owner);
  return v;
}

void set_element(mpi::Comm& comm, DMat& m, size_t r, size_t c, double v) {
  if (r >= m.rows() || c >= m.cols()) fail("set_element: index out of range");
  if (m.owns(r, c)) m.local()[m.local_index(r, c)] = v;
  (void)comm;
}

// -- dense kernels -------------------------------------------------------------
// matmul, matvec and transpose are tiled over output rows and columns only.
// Each element of a product starts from +0.0 and adds its terms in k order,
// one rounded multiply then one rounded add per term, exactly like the
// interpreter's i-j-k loop; the build passes -ffp-contract=off, so no step
// fuses into an FMA. Tiling changes which elements are in flight together,
// never the order of the terms within one, so results are bit-identical.

namespace {

// Two independent IEEE lanes: `acc += a * b` on V2 is the scalar statement
// applied to each lane.
using V2 = double __attribute__((vector_size(16)));

V2 load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store2(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

/// Rows [0, R) x columns [0, 4) of C = A * B with the C tile held in
/// registers across the whole k loop. `a` is the tile's first A row, `b`
/// points at B's column j0, `c` at C's element (i0, j0).
template <size_t R>
void matmul_tile(const double* a, size_t lda, const double* b, size_t ldb,
                 double* c, size_t ldc, size_t kdim) {
  V2 lo[R] = {};
  V2 hi[R] = {};
  for (size_t k = 0; k < kdim; ++k) {
    V2 b0 = load2(b + k * ldb);
    V2 b1 = load2(b + k * ldb + 2);
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      double ark = a[r * lda + k];
      V2 av = {ark, ark};
      lo[r] += av * b0;
      hi[r] += av * b1;
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
    store2(c + r * ldc, lo[r]);
    store2(c + r * ldc + 2, hi[r]);
  }
}

/// One row group of C = A * B (R rows): 4-column register tiles, then the
/// columns that do not fill a tile with the same k-order scalar sum.
template <size_t R>
void matmul_rows(const double* a, size_t kdim, const double* b, size_t n,
                 double* c) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) matmul_tile<R>(a, kdim, b + j, n, c + j, n, kdim);
  for (; j < n; ++j) {
    for (size_t r = 0; r < R; ++r) {
      double acc = 0.0;
      for (size_t k = 0; k < kdim; ++k) acc += a[r * kdim + k] * b[k * n + j];
      c[r * n + j] = acc;
    }
  }
}

/// C (rows x n) = A (rows x kdim) * B (kdim x n), all row-major.
void matmul_local(const double* a, size_t rows, size_t kdim, const double* b,
                  size_t n, double* c) {
  size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    matmul_rows<4>(a + i * kdim, kdim, b, n, c + i * n);
  }
  switch (rows - i) {
    case 3: matmul_rows<3>(a + i * kdim, kdim, b, n, c + i * n); break;
    case 2: matmul_rows<2>(a + i * kdim, kdim, b, n, c + i * n); break;
    case 1: matmul_rows<1>(a + i * kdim, kdim, b, n, c + i * n); break;
    default: break;
  }
}

/// y (rows) = A (rows x kdim) * x: four rows at a time, four independent
/// k-order sums instead of one dependent add chain.
void matvec_local(const double* a, size_t rows, size_t kdim, const double* x,
                  double* y) {
  size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* a0 = a + i * kdim;
    const double* a1 = a0 + kdim;
    const double* a2 = a1 + kdim;
    const double* a3 = a2 + kdim;
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    for (size_t k = 0; k < kdim; ++k) {
      double xk = x[k];
      s0 += a0[k] * xk;
      s1 += a1[k] * xk;
      s2 += a2[k] * xk;
      s3 += a3[k] * xk;
    }
    y[i] = s0;
    y[i + 1] = s1;
    y[i + 2] = s2;
    y[i + 3] = s3;
  }
  for (; i < rows; ++i) {
    const double* ai = a + i * kdim;
    double acc = 0.0;
    for (size_t k = 0; k < kdim; ++k) acc += ai[k] * x[k];
    y[i] = acc;
  }
}

/// dst[c * ldd + r] = src[r * lds + c] for r < rows, c < cols, one 16 x 16
/// tile at a time: the tile's source lines stay in L1 while each
/// destination row segment is written contiguously, instead of one side
/// striding through a new cache line per element.
void transpose_local(const double* src, size_t lds, double* dst, size_t ldd,
                     size_t rows, size_t cols) {
  constexpr size_t kTile = 16;
  for (size_t c0 = 0; c0 < cols; c0 += kTile) {
    size_t c1 = std::min(cols, c0 + kTile);
    for (size_t r0 = 0; r0 < rows; r0 += kTile) {
      size_t r1 = std::min(rows, r0 + kTile);
      for (size_t c = c0; c < c1; ++c) {
        for (size_t r = r0; r < r1; ++r) dst[c * ldd + r] = src[r * lds + c];
      }
    }
  }
}

}  // namespace

// -- heavy operations ----------------------------------------------------------

DMat matmul(mpi::Comm& comm, const DMat& a, const DMat& b) {
  if (a.cols() != b.rows()) {
    fail("matmul: inner dimensions disagree: " + shape_str(a) + " * " +
         shape_str(b));
  }
  // Row-distributed A stays put; B is replicated via allgather, then each
  // rank forms its rows of C locally (paper: ML_matrix_multiply).
  std::vector<double> bfull = to_full(comm, b);
  DMat c(comm, a.rows(), b.cols(), a.layout().dist());
  size_t n = b.cols();
  size_t kdim = a.cols();

  if (!a.is_vector() && !c.is_vector()) {
    // No zero skip on A's entries: 0 * Inf and 0 * NaN are NaN, and the
    // interpreter's k-order sum includes every term.
    matmul_local(a.local().data(), a.layout().count(comm.rank()), kdim,
                 bfull.data(), n, c.local().data());
    return c;
  }

  // Vector-shaped operand(s): fall back to a general local evaluation over
  // the full A as well (sizes involved are small in practice).
  std::vector<double> afull = to_full(comm, a);
  auto cv = c.local();
  for (size_t i = 0; i < cv.size(); ++i) {
    size_t r = c.local_to_global_row(i);
    size_t cc = c.local_to_global_col(i);
    double acc = 0.0;
    for (size_t k = 0; k < kdim; ++k) {
      acc += afull[r * kdim + k] * bfull[k * n + cc];
    }
    cv[i] = acc;
  }
  return c;
}

DMat matvec(mpi::Comm& comm, const DMat& a, const DMat& x) {
  if (!x.is_vector() || a.cols() != x.numel()) {
    fail("matvec: shape mismatch: " + shape_str(a) + " * " + shape_str(x));
  }
  std::vector<double> xfull = to_full(comm, x);
  DMat y(comm, a.rows(), 1, a.layout().dist());
  size_t kdim = a.cols();
  if (a.is_vector()) {
    // Degenerate: A is 1 x k or m x 1, distributed by elements rather than
    // rows. Gather it and form this rank's elements of y.
    std::vector<double> afull = to_full(comm, a);
    auto yv = y.local();
    for (size_t i = 0; i < yv.size(); ++i) {
      const double* arow = &afull[y.local_to_global_row(i) * kdim];
      double acc = 0.0;
      for (size_t k = 0; k < kdim; ++k) acc += arow[k] * xfull[k];
      yv[i] = acc;
    }
    return y;
  }
  matvec_local(a.local().data(), a.layout().count(comm.rank()), kdim,
               xfull.data(), y.local().data());
  return y;
}

DMat vecmat(mpi::Comm& comm, const DMat& x, const DMat& a) {
  if (!x.is_vector() || x.numel() != a.rows()) {
    fail("vecmat: shape mismatch: " + shape_str(x) + " * " + shape_str(a));
  }
  size_t n = a.cols();
  std::vector<double> partial(n, 0.0);
  if (a.is_vector()) {
    // a is 1 x n (so x is 1 x 1): scale.
    std::vector<double> xfull = to_full(comm, x);
    std::vector<double> afull = to_full(comm, a);
    for (size_t j = 0; j < n; ++j) partial[j] = xfull[0] * afull[j];
  } else {
    // x's element layout over a.rows() matches a's row layout: rank-local
    // pairs multiply without communication, then one allreduce.
    if (x.layout() != a.layout()) {
      std::vector<double> xfull = to_full(comm, x);
      size_t my_rows = a.layout().count(comm.rank());
      auto av = a.local();
      for (size_t i = 0; i < my_rows; ++i) {
        double xi = xfull[a.layout().to_global(comm.rank(), i)];
        for (size_t j = 0; j < n; ++j) partial[j] += xi * av[i * n + j];
      }
    } else {
      auto xv = x.local();
      auto av = a.local();
      for (size_t i = 0; i < xv.size(); ++i) {
        for (size_t j = 0; j < n; ++j) partial[j] += xv[i] * av[i * n + j];
      }
    }
    std::vector<double> summed(n);
    comm.allreduce(partial.data(), summed.data(), n, mpi::Comm::ReduceOp::Sum);
    partial = std::move(summed);
  }
  DMat out(comm, 1, n, a.layout().dist());
  auto ov = out.local();
  for (size_t i = 0; i < ov.size(); ++i) {
    ov[i] = partial[out.local_to_global_col(i)];
  }
  return out;
}

DMat outer(mpi::Comm& comm, const DMat& col, const DMat& row) {
  if (!col.is_vector() || !row.is_vector()) {
    fail("outer: expected vectors, got " + shape_str(col) + " and " +
         shape_str(row));
  }
  size_t m = col.numel();
  size_t n = row.numel();
  std::vector<double> rowfull = to_full(comm, row);
  DMat out(comm, m, n, col.layout().dist());
  // col's element layout over m matches out's row layout over m.
  std::vector<double> colfull;
  bool aligned = col.layout() == out.layout();
  if (!aligned) colfull = to_full(comm, col);
  size_t my_rows = out.layout().count(comm.rank());
  auto cv = col.local();
  auto ov = out.local();
  for (size_t i = 0; i < my_rows; ++i) {
    double ci = aligned ? cv[i]
                        : colfull[out.layout().to_global(comm.rank(), i)];
    for (size_t j = 0; j < n; ++j) ov[i * n + j] = ci * rowfull[j];
  }
  return out;
}

double dot(mpi::Comm& comm, const DMat& a, const DMat& b) {
  if (!a.is_vector() || !b.is_vector() || a.numel() != b.numel()) {
    fail("dot: expected equal-length vectors");
  }
  double acc = 0.0;
  if (a.layout() == b.layout()) {
    auto av = a.local();
    auto bv = b.local();
    for (size_t i = 0; i < av.size(); ++i) acc += av[i] * bv[i];
  } else {
    std::vector<double> bfull = to_full(comm, b);
    auto av = a.local();
    for (size_t i = 0; i < av.size(); ++i) {
      size_t g = a.layout().to_global(comm.rank(), i);
      acc += av[i] * bfull[g];
    }
  }
  return comm.allreduce_scalar(acc, mpi::Comm::ReduceOp::Sum);
}

namespace {
double reduce_local(const DMat& m, mpi::Comm::ReduceOp op, double init) {
  double acc = init;
  for (double v : m.local()) {
    switch (op) {
      case mpi::Comm::ReduceOp::Sum: acc += v; break;
      case mpi::Comm::ReduceOp::Min: acc = std::min(acc, v); break;
      case mpi::Comm::ReduceOp::Max: acc = std::max(acc, v); break;
      case mpi::Comm::ReduceOp::Prod: acc *= v; break;
    }
  }
  return acc;
}
}  // namespace

double reduce_sum(mpi::Comm& comm, const DMat& m) {
  return comm.allreduce_scalar(reduce_local(m, mpi::Comm::ReduceOp::Sum, 0.0),
                               mpi::Comm::ReduceOp::Sum);
}

double reduce_min(mpi::Comm& comm, const DMat& m) {
  return comm.allreduce_scalar(
      reduce_local(m, mpi::Comm::ReduceOp::Min,
                   std::numeric_limits<double>::infinity()),
      mpi::Comm::ReduceOp::Min);
}

double reduce_max(mpi::Comm& comm, const DMat& m) {
  return comm.allreduce_scalar(
      reduce_local(m, mpi::Comm::ReduceOp::Max,
                   -std::numeric_limits<double>::infinity()),
      mpi::Comm::ReduceOp::Max);
}

double reduce_mean(mpi::Comm& comm, const DMat& m) {
  return reduce_sum(comm, m) / static_cast<double>(m.numel());
}

double reduce_prod(mpi::Comm& comm, const DMat& m) {
  return comm.allreduce_scalar(reduce_local(m, mpi::Comm::ReduceOp::Prod, 1.0),
                               mpi::Comm::ReduceOp::Prod);
}

DMat colwise_sum(mpi::Comm& comm, const DMat& m, bool mean) {
  size_t n = m.cols();
  std::vector<double> partial(n, 0.0);
  auto lv = m.local();
  size_t my_rows = m.is_vector() ? 0 : m.layout().count(comm.rank());
  for (size_t i = 0; i < my_rows; ++i) {
    for (size_t j = 0; j < n; ++j) partial[j] += lv[i * n + j];
  }
  std::vector<double> summed(n);
  comm.allreduce(partial.data(), summed.data(), n, mpi::Comm::ReduceOp::Sum);
  if (mean) {
    for (double& v : summed) v /= static_cast<double>(m.rows());
  }
  DMat out(comm, 1, n, m.layout().dist());
  auto ov = out.local();
  for (size_t i = 0; i < ov.size(); ++i) {
    ov[i] = summed[out.local_to_global_col(i)];
  }
  return out;
}

DMat colwise_minmax(mpi::Comm& comm, const DMat& m, bool is_min) {
  size_t n = m.cols();
  double init = is_min ? std::numeric_limits<double>::infinity()
                       : -std::numeric_limits<double>::infinity();
  std::vector<double> partial(n, init);
  auto lv = m.local();
  size_t my_rows = m.is_vector() ? 0 : m.layout().count(comm.rank());
  for (size_t i = 0; i < my_rows; ++i) {
    for (size_t j = 0; j < n; ++j) {
      partial[j] = is_min ? std::min(partial[j], lv[i * n + j])
                          : std::max(partial[j], lv[i * n + j]);
    }
  }
  std::vector<double> red(n);
  comm.allreduce(partial.data(), red.data(), n,
                 is_min ? mpi::Comm::ReduceOp::Min : mpi::Comm::ReduceOp::Max);
  DMat out(comm, 1, n, m.layout().dist());
  auto ov = out.local();
  for (size_t i = 0; i < ov.size(); ++i) {
    ov[i] = red[out.local_to_global_col(i)];
  }
  return out;
}

DMat transpose(mpi::Comm& comm, const DMat& m) {
  DMat t(comm, m.cols(), m.rows(), m.layout().dist());
  int p = comm.size();
  if (p == 1) {
    // Single rank: plain local transpose.
    transpose_local(m.local().data(), m.cols(), t.local().data(), m.rows(),
                    m.rows(), m.cols());
    return t;
  }

  if (m.layout().dist() == Dist::RowBlock && !m.is_vector() &&
      !t.is_vector()) {
    // Fast path: sender s owns source rows [slo, shi); the element (r, c)
    // lands on the owner of t's row c. Each block travels row-major, (r asc,
    // c asc), so packing is one copy per source row and unpacking is a
    // local transpose of the block. This rank's own block never leaves its
    // storage: it is transposed straight from m into t.
    int me = comm.rank();
    size_t cols = m.cols();
    size_t tcols = t.cols();  // == m.rows()
    const double* lv = m.local().data();
    double* tv = t.local().data();
    std::vector<std::vector<double>> send(static_cast<size_t>(p));
    size_t slo = m.layout().block_lo(me);
    size_t shi = m.layout().block_hi(me);
    for (int d = 0; d < p; ++d) {
      if (d == me) continue;
      size_t dlo = t.layout().block_lo(d);
      size_t dhi = t.layout().block_hi(d);
      auto& blk = send[static_cast<size_t>(d)];
      blk.reserve((shi - slo) * (dhi - dlo));
      for (size_t r = 0; r < shi - slo; ++r) {
        blk.insert(blk.end(), lv + r * cols + dlo, lv + r * cols + dhi);
      }
    }
    std::vector<std::vector<double>> recv;
    comm.alltoallv(send, recv);
    size_t mylo = t.layout().block_lo(me);
    size_t mywidth = t.layout().block_hi(me) - mylo;
    for (int src = 0; src < p; ++src) {
      size_t sl = m.layout().block_lo(src);
      size_t sh = m.layout().block_hi(src);
      if (sh == sl || mywidth == 0) continue;  // empty block, null buffers
      if (src == me) {
        transpose_local(lv + mylo, cols, tv + sl, tcols, sh - sl, mywidth);
      } else {
        transpose_local(recv[static_cast<size_t>(src)].data(), mywidth,
                        tv + sl, tcols, sh - sl, mywidth);
      }
    }
    return t;
  }

  // General path (vectors, cyclic layouts): route every local element to
  // the rank owning its transposed position; sender and receiver enumerate
  // blocks in the same deterministic order.
  std::vector<std::vector<double>> send(static_cast<size_t>(p));
  auto lv = m.local();
  for (size_t i = 0; i < lv.size(); ++i) {
    size_t r = m.local_to_global_row(i);
    size_t c = m.local_to_global_col(i);
    send[static_cast<size_t>(t.owner_of(c, r))].push_back(lv[i]);
  }
  std::vector<std::vector<double>> recv;
  comm.alltoallv(send, recv);
  auto tv = t.local();
  for (int s = 0; s < p; ++s) {
    size_t idx = 0;
    size_t src_units = m.layout().count(s);
    size_t unit_elems = m.is_vector() ? 1 : m.cols();
    for (size_t u = 0; u < src_units; ++u) {
      for (size_t e = 0; e < unit_elems; ++e) {
        size_t r;
        size_t c;
        if (m.is_vector()) {
          size_t g = m.layout().to_global(s, u);
          r = m.cols() == 1 ? g : 0;
          c = m.cols() == 1 ? 0 : g;
        } else {
          r = m.layout().to_global(s, u);
          c = e;
        }
        if (t.owner_of(c, r) == comm.rank()) {
          tv[t.local_index(c, r)] = recv[static_cast<size_t>(s)][idx++];
        }
      }
    }
  }
  return t;
}

DMat slice_vector(mpi::Comm& comm, const DMat& x, size_t lo, size_t hi) {
  if (!x.is_vector() || hi >= x.numel() || lo > hi) {
    fail("slice_vector: bad range");
  }
  size_t len = hi - lo + 1;
  DMat out(comm, x.rows() == 1 ? 1 : len, x.rows() == 1 ? len : 1,
           x.layout().dist());
  int p = comm.size();
  std::vector<std::vector<double>> send(static_cast<size_t>(p));
  auto lv = x.local();
  for (size_t i = 0; i < lv.size(); ++i) {
    size_t g = x.layout().to_global(comm.rank(), i);
    if (g < lo || g > hi) continue;
    send[static_cast<size_t>(out.layout().owner(g - lo))].push_back(lv[i]);
  }
  std::vector<std::vector<double>> recv;
  comm.alltoallv(send, recv);
  auto ov = out.local();
  std::vector<size_t> cursor(static_cast<size_t>(p), 0);
  for (size_t i = 0; i < ov.size(); ++i) {
    size_t gd = out.layout().to_global(comm.rank(), i);
    int src = x.layout().owner(gd + lo);
    ov[i] = recv[static_cast<size_t>(src)][cursor[static_cast<size_t>(src)]++];
  }
  return out;
}

void assign_slice(mpi::Comm& comm, DMat& x, size_t lo, size_t hi,
                  const DMat& v) {
  if (!x.is_vector() || !v.is_vector() || hi >= x.numel() || lo > hi ||
      v.numel() != hi - lo + 1) {
    fail("assign_slice: bad range");
  }
  int p = comm.size();
  std::vector<std::vector<double>> send(static_cast<size_t>(p));
  auto vv = v.local();
  for (size_t i = 0; i < vv.size(); ++i) {
    size_t g = v.layout().to_global(comm.rank(), i);
    send[static_cast<size_t>(x.layout().owner(g + lo))].push_back(vv[i]);
  }
  std::vector<std::vector<double>> recv;
  comm.alltoallv(send, recv);
  auto xv = x.local();
  std::vector<size_t> cursor(static_cast<size_t>(p), 0);
  for (size_t i = 0; i < xv.size(); ++i) {
    size_t g = x.layout().to_global(comm.rank(), i);
    if (g < lo || g > hi) continue;
    int src = v.layout().owner(g - lo);
    xv[i] = recv[static_cast<size_t>(src)][cursor[static_cast<size_t>(src)]++];
  }
}

DMat extract_row(mpi::Comm& comm, const DMat& m, size_t r) {
  if (m.is_vector()) fail("extract_row: operand is a vector");
  if (r >= m.rows()) fail("extract_row: row out of range");
  size_t n = m.cols();
  // Row-contiguous distribution: one rank owns the whole row; it broadcasts.
  int owner = m.layout().owner(r);
  std::vector<double> row(n);
  if (comm.rank() == owner) {
    size_t lr = m.layout().to_local(r);
    std::copy_n(&m.local()[lr * n], n, row.data());
  }
  comm.bcast(row.data(), n * sizeof(double), owner);
  DMat out(comm, 1, n, m.layout().dist());
  auto ov = out.local();
  for (size_t i = 0; i < ov.size(); ++i) {
    ov[i] = row[out.local_to_global_col(i)];
  }
  return out;
}

DMat extract_col(mpi::Comm& comm, const DMat& m, size_t c) {
  if (m.is_vector()) fail("extract_col: operand is a vector");
  if (c >= m.cols()) fail("extract_col: column out of range");
  DMat out(comm, m.rows(), 1, m.layout().dist());
  // Column elements align with the matrix's row distribution: no comm
  // when the layouts coincide, redistribution otherwise.
  if (out.layout() == m.layout()) {
    auto ov = out.local();
    auto lv = m.local();
    for (size_t i = 0; i < ov.size(); ++i) ov[i] = lv[i * m.cols() + c];
    return out;
  }
  std::vector<double> full = to_full(comm, m);
  auto ov = out.local();
  for (size_t i = 0; i < ov.size(); ++i) {
    size_t g = out.layout().to_global(comm.rank(), i);
    ov[i] = full[g * m.cols() + c];
  }
  return out;
}

void assign_row(mpi::Comm& comm, DMat& m, size_t r, const DMat& v) {
  if (m.is_vector() || !v.is_vector() || v.numel() != m.cols()) {
    fail("assign_row: shape mismatch");
  }
  if (r >= m.rows()) fail("assign_row: row out of range");
  int owner = m.layout().owner(r);
  size_t n = m.cols();
  std::vector<size_t> counts(static_cast<size_t>(comm.size()));
  for (int k = 0; k < comm.size(); ++k) {
    counts[static_cast<size_t>(k)] = v.layout().count(k);
  }
  std::vector<double> row(comm.rank() == owner ? n : 0);
  comm.gatherv(v.local().data(), row.data(), counts, owner);
  if (comm.rank() == owner) {
    // gatherv concatenates rank blocks; for cyclic layouts reorder.
    if (v.layout().dist() == Dist::RowBlock) {
      size_t lr = m.layout().to_local(r);
      std::copy_n(row.data(), n, &m.local()[lr * n]);
    } else {
      size_t lr = m.layout().to_local(r);
      size_t off = 0;
      for (int s = 0; s < comm.size(); ++s) {
        for (size_t i = 0; i < counts[static_cast<size_t>(s)]; ++i) {
          m.local()[lr * n + v.layout().to_global(s, i)] = row[off++];
        }
      }
    }
  }
}

void assign_col(mpi::Comm& comm, DMat& m, size_t c, const DMat& v) {
  if (m.is_vector() || !v.is_vector() || v.numel() != m.rows()) {
    fail("assign_col: shape mismatch");
  }
  if (c >= m.cols()) fail("assign_col: column out of range");
  DMat probe(comm, m.rows(), 1, m.layout().dist());
  if (probe.layout() == v.layout()) {
    auto vv = v.local();
    auto lv = m.local();
    for (size_t i = 0; i < vv.size(); ++i) lv[i * m.cols() + c] = vv[i];
    return;
  }
  std::vector<double> full = to_full(comm, v);
  size_t my_rows = m.layout().count(comm.rank());
  auto lv = m.local();
  for (size_t i = 0; i < my_rows; ++i) {
    lv[i * m.cols() + c] = full[m.layout().to_global(comm.rank(), i)];
  }
}

double trapz(mpi::Comm& comm, const DMat& y) {
  if (!y.is_vector()) fail("trapz: expected a vector");
  size_t n = y.numel();
  if (n < 2) return 0.0;
  if (y.layout().dist() != Dist::RowBlock) {
    // Cyclic layout has no contiguous local runs; gather and integrate.
    std::vector<double> full = to_full(comm, y);
    double acc = 0.0;
    for (size_t i = 0; i + 1 < n; ++i) acc += 0.5 * (full[i] + full[i + 1]);
    return acc;
  }
  auto lv = y.local();
  double acc = 0.0;
  for (size_t i = 0; i + 1 < lv.size(); ++i) {
    acc += 0.5 * (lv[i] + lv[i + 1]);
  }
  // Boundary term with the next rank's first element.
  constexpr int kTagTrapz = 9 << 20;
  if (lv.size() > 0) {
    size_t gfirst = y.layout().to_global(comm.rank(), 0);
    if (gfirst > 0) {
      comm.send(y.layout().owner(gfirst - 1), kTagTrapz, &lv[0], sizeof(double));
    }
    size_t glast = y.layout().to_global(comm.rank(), lv.size() - 1);
    if (glast + 1 < n) {
      double nxt = 0.0;
      comm.recv(y.layout().owner(glast + 1), kTagTrapz, &nxt, sizeof nxt);
      acc += 0.5 * (lv.back() + nxt);
    }
  }
  return comm.allreduce_scalar(acc, mpi::Comm::ReduceOp::Sum);
}

double trapz_xy(mpi::Comm& comm, const DMat& x, const DMat& y) {
  if (!x.is_vector() || !y.is_vector() || x.numel() != y.numel()) {
    fail("trapz_xy: x and y must be equal-length vectors");
  }
  size_t n = y.numel();
  if (n < 2) return 0.0;
  if (x.layout() != y.layout() || y.layout().dist() != Dist::RowBlock) {
    std::vector<double> xf = to_full(comm, x);
    std::vector<double> yf = to_full(comm, y);
    double acc = 0.0;
    for (size_t i = 0; i + 1 < n; ++i) {
      acc += 0.5 * (xf[i + 1] - xf[i]) * (yf[i + 1] + yf[i]);
    }
    return acc;
  }
  auto xv = x.local();
  auto yv = y.local();
  double acc = 0.0;
  for (size_t i = 0; i + 1 < yv.size(); ++i) {
    acc += 0.5 * (xv[i + 1] - xv[i]) * (yv[i + 1] + yv[i]);
  }
  constexpr int kTagTrapzX = 10 << 20;
  constexpr int kTagTrapzY = 11 << 20;
  if (!yv.empty()) {
    size_t gfirst = y.layout().to_global(comm.rank(), 0);
    if (gfirst > 0) {
      int prev = y.layout().owner(gfirst - 1);
      comm.send(prev, kTagTrapzX, &xv[0], sizeof(double));
      comm.send(prev, kTagTrapzY, &yv[0], sizeof(double));
    }
    size_t glast = y.layout().to_global(comm.rank(), yv.size() - 1);
    if (glast + 1 < n) {
      int nxt_rank = y.layout().owner(glast + 1);
      double xn = 0.0;
      double yn = 0.0;
      comm.recv(nxt_rank, kTagTrapzX, &xn, sizeof xn);
      comm.recv(nxt_rank, kTagTrapzY, &yn, sizeof yn);
      acc += 0.5 * (xn - xv.back()) * (yn + yv.back());
    }
  }
  return comm.allreduce_scalar(acc, mpi::Comm::ReduceOp::Sum);
}

double norm2(mpi::Comm& comm, const DMat& v) {
  if (!v.is_vector()) fail("norm2: expected a vector");
  double acc = 0.0;
  for (double x : v.local()) acc += x * x;
  return std::sqrt(comm.allreduce_scalar(acc, mpi::Comm::ReduceOp::Sum));
}

DMat load_matrix(mpi::Comm& comm, const std::string& path, Dist dist) {
  // Rank 0 coordinates I/O (paper assumption 5), then broadcasts shape and
  // contents; every rank keeps its slice.
  double dims[2] = {0, 0};
  std::vector<double> data;
  if (comm.rank() == 0) {
    std::string err;
    std::optional<MatFile> mf = read_mat_file(path, &err);
    if (!mf) fail("load: " + err);
    dims[0] = static_cast<double>(mf->rows);
    dims[1] = static_cast<double>(mf->cols);
    data = std::move(mf->data);
  }
  comm.bcast(dims, sizeof dims, 0);
  auto rows = static_cast<size_t>(dims[0]);
  auto cols = static_cast<size_t>(dims[1]);
  data.resize(rows * cols);
  comm.bcast(data.data(), data.size() * sizeof(double), 0);
  return from_full(comm, rows, cols, data, dist);
}

std::string format_dmat(mpi::Comm& comm, const DMat& m) {
  std::vector<double> full = to_full(comm, m);
  if (comm.rank() != 0) return {};
  std::ostringstream ss;
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      if (c) ss << ' ';
      print_real(ss, full[r * m.cols() + c]);
    }
    ss << '\n';
  }
  return ss.str();
}

}  // namespace otter::rt
