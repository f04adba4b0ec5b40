#include "interp/ops.hpp"

#include <cmath>
#include <functional>
#include <sstream>

#include "support/range.hpp"

namespace otter::interp {

namespace {

[[noreturn]] void fail(SourceLoc loc, const std::string& msg) {
  throw InterpError(loc, msg);
}

std::string shape_str(const Value& v) {
  std::ostringstream ss;
  ss << value_rows(v) << 'x' << value_cols(v);
  return ss.str();
}

bool any_complex(const Value& a, const Value& b) {
  auto cplx = [](const Value& v) {
    return v.is_complex_scalar() || (v.is_matrix() && v.mat()->is_complex);
  };
  return cplx(a) || cplx(b);
}

using RealFn = double (*)(double, double);
using CplxFn = std::complex<double> (*)(std::complex<double>,
                                        std::complex<double>);

/// Element-wise combine with scalar broadcasting. Allocates a fresh result
/// (interpreter temporaries — this is the cost profile we are modelling).
Value elementwise(const Value& a, const Value& b, SourceLoc loc,
                  const char* opname, RealFn rf, CplxFn cf,
                  bool result_real = false) {
  bool cplx = !result_real && any_complex(a, b);
  if (a.is_scalar() && b.is_scalar()) {
    if (cplx) {
      return simplify(Value(cf(a.complex_scalar(), b.complex_scalar())));
    }
    return Value(rf(to_double(a, loc), to_double(b, loc)));
  }

  auto scalar_matrix = [&](std::complex<double> s, const Mat& m,
                           bool scalar_on_left) {
    auto out = std::make_shared<Mat>(m.rows, m.cols, cplx);
    for (size_t i = 0; i < m.numel(); ++i) {
      if (cplx) {
        std::complex<double> r =
            scalar_on_left ? cf(s, m.cat(i)) : cf(m.cat(i), s);
        out->re[i] = r.real();
        out->im[i] = r.imag();
      } else {
        out->re[i] =
            scalar_on_left ? rf(s.real(), m.re[i]) : rf(m.re[i], s.real());
      }
    }
    return Value(std::move(out));
  };

  if (a.is_scalar() && b.is_matrix()) {
    return scalar_matrix(a.complex_scalar(), *b.mat(), true);
  }
  if (a.is_matrix() && b.is_scalar()) {
    return scalar_matrix(b.complex_scalar(), *a.mat(), false);
  }
  if (a.is_matrix() && b.is_matrix()) {
    const Mat& ma = *a.mat();
    const Mat& mb = *b.mat();
    if (ma.rows != mb.rows || ma.cols != mb.cols) {
      fail(loc, std::string("matrix dimensions must agree for '") + opname +
                    "': " + shape_str(a) + " vs " + shape_str(b));
    }
    auto out = std::make_shared<Mat>(ma.rows, ma.cols, cplx);
    for (size_t i = 0; i < ma.numel(); ++i) {
      if (cplx) {
        std::complex<double> r = cf(ma.cat(i), mb.cat(i));
        out->re[i] = r.real();
        out->im[i] = r.imag();
      } else {
        out->re[i] = rf(ma.re[i], mb.re[i]);
      }
    }
    return Value(std::move(out));
  }
  fail(loc, std::string("invalid operands to '") + opname + "': " +
                type_name(a) + " and " + type_name(b));
}

double radd(double x, double y) { return x + y; }
double rsub(double x, double y) { return x - y; }
double rmul(double x, double y) { return x * y; }
double rdiv(double x, double y) { return x / y; }
double rpow(double x, double y) { return std::pow(x, y); }
double rlt(double x, double y) { return x < y ? 1.0 : 0.0; }
double rle(double x, double y) { return x <= y ? 1.0 : 0.0; }
double rgt(double x, double y) { return x > y ? 1.0 : 0.0; }
double rge(double x, double y) { return x >= y ? 1.0 : 0.0; }
double req(double x, double y) { return x == y ? 1.0 : 0.0; }
double rne(double x, double y) { return x != y ? 1.0 : 0.0; }
double rand_(double x, double y) { return (x != 0.0 && y != 0.0) ? 1.0 : 0.0; }
double ror_(double x, double y) { return (x != 0.0 || y != 0.0) ? 1.0 : 0.0; }

std::complex<double> cadd(std::complex<double> x, std::complex<double> y) {
  return x + y;
}
std::complex<double> csub(std::complex<double> x, std::complex<double> y) {
  return x - y;
}
std::complex<double> cmul(std::complex<double> x, std::complex<double> y) {
  return x * y;
}
std::complex<double> cdiv(std::complex<double> x, std::complex<double> y) {
  return x / y;
}
std::complex<double> cpow_(std::complex<double> x, std::complex<double> y) {
  return std::pow(x, y);
}
std::complex<double> ceqc(std::complex<double> x, std::complex<double> y) {
  return {x == y ? 1.0 : 0.0, 0.0};
}
std::complex<double> cnec(std::complex<double> x, std::complex<double> y) {
  return {x != y ? 1.0 : 0.0, 0.0};
}

}  // namespace

Value matmul(const Value& a, const Value& b, SourceLoc loc) {
  // Scalar * anything degenerates to element-wise multiply (MATLAB rule).
  if (a.is_scalar() || b.is_scalar()) {
    return elementwise(a, b, loc, "*", rmul, cmul);
  }
  const Mat& ma = *a.mat();
  const Mat& mb = *b.mat();
  if (ma.cols != mb.rows) {
    fail(loc, "inner matrix dimensions must agree for '*': " + shape_str(a) +
                  " vs " + shape_str(b));
  }
  bool cplx = ma.is_complex || mb.is_complex;
  auto out = std::make_shared<Mat>(ma.rows, mb.cols, cplx);
  if (!cplx) {
    // Textbook i-j-k loop: this is the memory-access pattern a dynamically
    // typed interpreter without a tuned kernel exhibits (strided walks over
    // B), and part of why compiled code beats the interpreter in Figure 2.
    for (size_t i = 0; i < ma.rows; ++i) {
      for (size_t j = 0; j < mb.cols; ++j) {
        double acc = 0.0;
        for (size_t k = 0; k < ma.cols; ++k) {
          acc += ma.re[i * ma.cols + k] * mb.re[k * mb.cols + j];
        }
        out->re[i * mb.cols + j] = acc;
      }
    }
  } else {
    for (size_t i = 0; i < ma.rows; ++i) {
      for (size_t j = 0; j < mb.cols; ++j) {
        std::complex<double> acc = 0.0;
        for (size_t k = 0; k < ma.cols; ++k) {
          acc += ma.cat(i * ma.cols + k) * mb.cat(k * mb.cols + j);
        }
        out->re[i * mb.cols + j] = acc.real();
        out->im[i * mb.cols + j] = acc.imag();
      }
    }
  }
  return simplify(Value(std::move(out)));
}

Value transpose(const Value& a, bool conjugate, SourceLoc loc) {
  (void)loc;
  if (a.is_real()) return a;
  if (a.is_complex_scalar()) {
    return conjugate ? Value(std::conj(a.complex_scalar())) : a;
  }
  if (a.is_string()) return a;
  const Mat& m = *a.mat();
  auto out = std::make_shared<Mat>(m.cols, m.rows, m.is_complex);
  for (size_t r = 0; r < m.rows; ++r) {
    for (size_t c = 0; c < m.cols; ++c) {
      out->re[c * m.rows + r] = m.re[r * m.cols + c];
      if (m.is_complex) {
        out->im[c * m.rows + r] =
            conjugate ? -m.im[r * m.cols + c] : m.im[r * m.cols + c];
      }
    }
  }
  return Value(std::move(out));
}

Value binary_op(BinOp op, const Value& a, const Value& b, SourceLoc loc) {
  switch (op) {
    case BinOp::Add: return elementwise(a, b, loc, "+", radd, cadd);
    case BinOp::Sub: return elementwise(a, b, loc, "-", rsub, csub);
    case BinOp::ElemMul: return elementwise(a, b, loc, ".*", rmul, cmul);
    case BinOp::ElemDiv: return elementwise(a, b, loc, "./", rdiv, cdiv);
    case BinOp::ElemPow: return elementwise(a, b, loc, ".^", rpow, cpow_);
    case BinOp::MatMul: return matmul(a, b, loc);
    case BinOp::MatDiv:
      if (!b.is_scalar()) {
        fail(loc, "matrix right-division is only supported with a scalar "
                  "divisor in the Otter subset");
      }
      return elementwise(a, b, loc, "/", rdiv, cdiv);
    case BinOp::MatLDiv:
      if (!a.is_scalar()) {
        fail(loc, "matrix left-division is only supported with a scalar "
                  "divisor in the Otter subset");
      }
      return elementwise(b, a, loc, "\\", rdiv, cdiv);
    case BinOp::MatPow:
      if (!a.is_scalar() || !b.is_scalar()) {
        fail(loc, "matrix power is only supported for scalars in the Otter "
                  "subset (use .^ for element-wise power)");
      }
      return elementwise(a, b, loc, "^", rpow, cpow_);
    case BinOp::Lt: return elementwise(a, b, loc, "<", rlt, nullptr, true);
    case BinOp::Le: return elementwise(a, b, loc, "<=", rle, nullptr, true);
    case BinOp::Gt: return elementwise(a, b, loc, ">", rgt, nullptr, true);
    case BinOp::Ge: return elementwise(a, b, loc, ">=", rge, nullptr, true);
    case BinOp::Eq: return elementwise(a, b, loc, "==", req, ceqc);
    case BinOp::Ne: return elementwise(a, b, loc, "~=", rne, cnec);
    case BinOp::And: return elementwise(a, b, loc, "&", rand_, nullptr, true);
    case BinOp::Or: return elementwise(a, b, loc, "|", ror_, nullptr, true);
    case BinOp::AndAnd:
      return Value(truthy(a, loc) && truthy(b, loc) ? 1.0 : 0.0);
    case BinOp::OrOr:
      return Value(truthy(a, loc) || truthy(b, loc) ? 1.0 : 0.0);
  }
  fail(loc, "unhandled binary operator");
}

Value unary_op(UnOp op, const Value& a, SourceLoc loc) {
  switch (op) {
    case UnOp::Plus:
      return a;
    case UnOp::Neg:
      if (a.is_real()) return Value(-a.real_scalar());
      if (a.is_complex_scalar()) return Value(-a.complex_scalar());
      if (a.is_matrix()) {
        const Mat& m = *a.mat();
        auto out = std::make_shared<Mat>(m.rows, m.cols, m.is_complex);
        for (size_t i = 0; i < m.numel(); ++i) {
          out->re[i] = -m.re[i];
          if (m.is_complex) out->im[i] = -m.im[i];
        }
        return Value(std::move(out));
      }
      fail(loc, "cannot negate a " + type_name(a));
    case UnOp::Not:
      if (a.is_scalar()) {
        return Value(a.complex_scalar() == std::complex<double>(0.0) ? 1.0 : 0.0);
      }
      if (a.is_matrix()) {
        const Mat& m = *a.mat();
        auto out = std::make_shared<Mat>(m.rows, m.cols);
        for (size_t i = 0; i < m.numel(); ++i) {
          out->re[i] = m.cat(i) == std::complex<double>(0.0) ? 1.0 : 0.0;
        }
        return Value(std::move(out));
      }
      fail(loc, "cannot apply '~' to a " + type_name(a));
    case UnOp::Transpose:
      return transpose(a, /*conjugate=*/false, loc);
    case UnOp::CTranspose:
      return transpose(a, /*conjugate=*/true, loc);
  }
  fail(loc, "unhandled unary operator");
}

Value make_range(double lo, double step, double hi, SourceLoc loc) {
  if (!range_is_finite(lo, step, hi)) {
    throw InterpError(loc, kRangeNotFiniteMsg, kRangeNotFiniteCode);
  }
  if (step == 0.0) fail(loc, "range step must be nonzero");
  size_t n = range_count(lo, step, hi);
  auto out = std::make_shared<Mat>(1, n);
  for (size_t i = 0; i < n; ++i) out->re[i] = lo + static_cast<double>(i) * step;
  return Value(std::move(out));
}

Value build_matrix(const std::vector<std::vector<Value>>& rows, SourceLoc loc) {
  if (rows.empty()) return Value(std::make_shared<Mat>(0, 0));

  // Each literal row is the horizontal concatenation of its blocks; rows are
  // then concatenated vertically. Blocks may be scalars or matrices.
  struct RowInfo {
    size_t height = 0;
    size_t width = 0;
  };
  std::vector<RowInfo> infos(rows.size());
  size_t total_rows = 0;
  size_t width = 0;
  bool cplx = false;
  for (size_t r = 0; r < rows.size(); ++r) {
    size_t h = 0;
    size_t w = 0;
    for (const Value& block : rows[r]) {
      size_t bh = value_rows(block);
      size_t bw = value_cols(block);
      if (block.is_string()) fail(loc, "strings inside matrix literals are not supported");
      if (block.is_complex_scalar() ||
          (block.is_matrix() && block.mat()->is_complex)) {
        cplx = true;
      }
      if (h == 0) h = bh;
      else if (bh != h) fail(loc, "inconsistent block heights in matrix literal row");
      w += bw;
    }
    if (rows[r].empty()) continue;
    infos[r] = {h, w};
    if (width == 0) width = w;
    else if (w != width) fail(loc, "inconsistent row widths in matrix literal");
    total_rows += h;
  }
  auto out = std::make_shared<Mat>(total_rows, width, cplx);
  size_t row_base = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].empty()) continue;
    size_t col_base = 0;
    for (const Value& block : rows[r]) {
      size_t bh = value_rows(block);
      size_t bw = value_cols(block);
      for (size_t i = 0; i < bh; ++i) {
        for (size_t j = 0; j < bw; ++j) {
          std::complex<double> v;
          if (block.is_scalar()) {
            v = block.complex_scalar();
          } else {
            v = block.mat()->cat(i * bw + j);
          }
          size_t dst = (row_base + i) * width + (col_base + j);
          out->re[dst] = v.real();
          if (cplx) out->im[dst] = v.imag();
        }
      }
      col_base += bw;
    }
    row_base += infos[r].height;
  }
  return simplify(Value(std::move(out)));
}

namespace {

size_t check_index(double idx, size_t extent, SourceLoc loc, bool allow_grow) {
  double rounded = std::round(idx);
  if (rounded != idx || rounded < 1.0) {
    fail(loc, "matrix index must be a positive integer");
  }
  auto i = static_cast<size_t>(rounded);
  if (!allow_grow && i > extent) {
    std::ostringstream ss;
    ss << "index " << i << " exceeds matrix dimension " << extent;
    fail(loc, ss.str());
  }
  return i - 1;  // to 0-based
}

std::vector<size_t> resolve_spec(const IndexSpec& spec, size_t extent,
                                 SourceLoc loc, bool allow_grow = false) {
  std::vector<size_t> out;
  switch (spec.kind) {
    case IndexSpec::Kind::Scalar:
      out.push_back(check_index(spec.scalar, extent, loc, allow_grow));
      break;
    case IndexSpec::Kind::Vector:
      out.reserve(spec.indices.size());
      for (double d : spec.indices) {
        out.push_back(check_index(d, extent, loc, allow_grow));
      }
      break;
    case IndexSpec::Kind::All:
      out.resize(extent);
      for (size_t i = 0; i < extent; ++i) out[i] = i;
      break;
  }
  return out;
}

}  // namespace

Value index_read(const Value& base, const std::vector<IndexSpec>& indices,
                 SourceLoc loc) {
  if (base.is_string()) fail(loc, "indexing strings is not supported");
  if (base.is_scalar()) {
    // MATLAB allows s(1) and s(1,1) on scalars.
    for (const IndexSpec& s : indices) {
      if (s.kind == IndexSpec::Kind::Scalar && s.scalar != 1.0) {
        fail(loc, "index out of range for scalar value");
      }
    }
    return base;
  }
  const Mat& m = *base.mat();
  if (indices.size() == 1) {
    const IndexSpec& s = indices[0];
    if (s.kind == IndexSpec::Kind::All) {
      // a(:) — flatten to a column vector.
      auto out = std::make_shared<Mat>(m.numel(), 1, m.is_complex);
      out->re = m.re;
      if (m.is_complex) out->im = m.im;
      return Value(std::move(out));
    }
    std::vector<size_t> lin = resolve_spec(s, m.numel(), loc);
    if (s.kind == IndexSpec::Kind::Scalar) {
      if (m.is_complex) {
        return simplify(Value(std::complex<double>(m.re[lin[0]], m.im[lin[0]])));
      }
      return Value(m.re[lin[0]]);
    }
    // Orientation follows the base when it is a vector, else row-major gather.
    size_t n = lin.size();
    bool column = m.cols == 1;
    auto out = std::make_shared<Mat>(column ? n : 1, column ? 1 : n,
                                     m.is_complex);
    for (size_t i = 0; i < n; ++i) {
      out->re[i] = m.re[lin[i]];
      if (m.is_complex) out->im[i] = m.im[lin[i]];
    }
    return Value(std::move(out));
  }
  if (indices.size() == 2) {
    std::vector<size_t> ri = resolve_spec(indices[0], m.rows, loc);
    std::vector<size_t> ci = resolve_spec(indices[1], m.cols, loc);
    if (ri.size() == 1 && ci.size() == 1 &&
        indices[0].kind == IndexSpec::Kind::Scalar &&
        indices[1].kind == IndexSpec::Kind::Scalar) {
      size_t i = ri[0] * m.cols + ci[0];
      if (m.is_complex) {
        return simplify(Value(std::complex<double>(m.re[i], m.im[i])));
      }
      return Value(m.re[i]);
    }
    auto out = std::make_shared<Mat>(ri.size(), ci.size(), m.is_complex);
    for (size_t r = 0; r < ri.size(); ++r) {
      for (size_t c = 0; c < ci.size(); ++c) {
        size_t src = ri[r] * m.cols + ci[c];
        size_t dst = r * ci.size() + c;
        out->re[dst] = m.re[src];
        if (m.is_complex) out->im[dst] = m.im[src];
      }
    }
    return simplify(Value(std::move(out)));
  }
  fail(loc, "only 1- and 2-dimensional indexing is supported");
}

namespace {

/// Converts any Value into a Mat view for writing (scalars become 1×1).
Mat value_as_mat(const Value& v, SourceLoc loc) {
  if (v.is_matrix()) return *v.mat();
  Mat m(1, 1, v.is_complex_scalar());
  if (v.is_complex_scalar()) {
    m.re[0] = v.complex_scalar().real();
    m.im[0] = v.complex_scalar().imag();
  } else if (v.is_real()) {
    m.re[0] = v.real_scalar();
  } else {
    fail(loc, "cannot assign a " + type_name(v) + " into a matrix");
  }
  return m;
}

void grow_to(Mat& m, size_t rows, size_t cols) {
  if (rows <= m.rows && cols <= m.cols) return;
  size_t nr = std::max(rows, m.rows);
  size_t nc = std::max(cols, m.cols);
  Mat bigger(nr, nc, m.is_complex);
  for (size_t r = 0; r < m.rows; ++r) {
    for (size_t c = 0; c < m.cols; ++c) {
      bigger.re[r * nc + c] = m.re[r * m.cols + c];
      if (m.is_complex) bigger.im[r * nc + c] = m.im[r * m.cols + c];
    }
  }
  m = std::move(bigger);
}

}  // namespace

void index_write(Value& base, const std::vector<IndexSpec>& indices,
                 const Value& rhs, SourceLoc loc) {
  // Auto-vivify: writing through an undefined/scalar base turns it into a
  // matrix first (MATLAB semantics).
  if (!base.is_matrix()) {
    auto fresh = std::make_shared<Mat>(0, 0);
    if (base.is_real() || base.is_complex_scalar()) {
      *fresh = value_as_mat(base, loc);
    }
    base = Value(std::move(fresh));
  }
  Mat& m = base.mutable_mat();
  Mat rv = value_as_mat(rhs, loc);
  if (rv.is_complex) m.complexify();

  if (indices.size() == 1) {
    const IndexSpec& s = indices[0];
    if (s.kind == IndexSpec::Kind::All) {
      if (rv.numel() != m.numel() && rv.numel() != 1) {
        fail(loc, "shape mismatch in a(:) = rhs");
      }
      for (size_t i = 0; i < m.numel(); ++i) {
        size_t j = rv.numel() == 1 ? 0 : i;
        m.re[i] = rv.re[j];
        if (m.is_complex) m.im[i] = rv.is_complex ? rv.im[j] : 0.0;
      }
      return;
    }
    // Linear / vector write. Growth is only well-defined for vectors.
    std::vector<size_t> lin = resolve_spec(s, m.numel(), loc, /*grow=*/true);
    size_t max_needed = 0;
    for (size_t i : lin) max_needed = std::max(max_needed, i + 1);
    if (max_needed > m.numel()) {
      if (m.rows > 1 && m.cols > 1) {
        fail(loc, "linear index exceeds matrix size");
      }
      bool column = m.cols == 1 && m.rows > 1;
      if (m.numel() == 0) column = false;  // default to row vector
      grow_to(m, column ? max_needed : 1, column ? 1 : max_needed);
      if (column) m.rows = max_needed; else m.cols = max_needed;
    }
    if (rv.numel() != lin.size() && rv.numel() != 1) {
      fail(loc, "shape mismatch in indexed assignment");
    }
    for (size_t i = 0; i < lin.size(); ++i) {
      size_t j = rv.numel() == 1 ? 0 : i;
      m.re[lin[i]] = rv.re[j];
      if (m.is_complex) m.im[lin[i]] = rv.is_complex ? rv.im[j] : 0.0;
    }
    return;
  }

  if (indices.size() == 2) {
    // Resolve with growth allowed for scalar/vector specs.
    std::vector<size_t> ri = resolve_spec(indices[0], m.rows, loc, true);
    std::vector<size_t> ci = resolve_spec(indices[1], m.cols, loc, true);
    size_t need_r = m.rows;
    size_t need_c = m.cols;
    for (size_t r : ri) need_r = std::max(need_r, r + 1);
    for (size_t c : ci) need_c = std::max(need_c, c + 1);
    if (need_r > m.rows || need_c > m.cols) {
      if (indices[0].kind == IndexSpec::Kind::All ||
          indices[1].kind == IndexSpec::Kind::All) {
        fail(loc, "index exceeds matrix dimensions");
      }
      grow_to(m, need_r, need_c);
    }
    if (rv.numel() != ri.size() * ci.size() && rv.numel() != 1) {
      fail(loc, "shape mismatch in indexed assignment");
    }
    for (size_t r = 0; r < ri.size(); ++r) {
      for (size_t c = 0; c < ci.size(); ++c) {
        size_t dst = ri[r] * m.cols + ci[c];
        size_t j = rv.numel() == 1 ? 0 : r * ci.size() + c;
        m.re[dst] = rv.re[j];
        if (m.is_complex) m.im[dst] = rv.is_complex ? rv.im[j] : 0.0;
      }
    }
    return;
  }
  fail(loc, "only 1- and 2-dimensional indexing is supported");
}

}  // namespace otter::interp
