#include "interp/value.hpp"

#include <cmath>
#include <sstream>

#include "support/matio.hpp"

namespace otter::interp {

void Mat::demote_if_real() {
  if (!is_complex) return;
  for (double x : im) {
    if (x != 0.0) return;
  }
  is_complex = false;
  im.clear();
}

double to_double(const Value& v, SourceLoc loc) {
  if (v.is_real()) return v.real_scalar();
  if (v.is_complex_scalar()) {
    if (v.complex_scalar().imag() == 0.0) return v.complex_scalar().real();
    throw InterpError(loc, "complex value used where a real scalar is required");
  }
  if (v.is_matrix() && v.mat()->numel() == 1) {
    const Mat& m = *v.mat();
    if (m.is_complex && m.im[0] != 0.0) {
      throw InterpError(loc, "complex value used where a real scalar is required");
    }
    return m.re[0];
  }
  throw InterpError(loc, "expected a scalar, got " + type_name(v));
}

std::complex<double> to_complex(const Value& v, SourceLoc loc) {
  if (v.is_scalar()) return v.complex_scalar();
  if (v.is_matrix() && v.mat()->numel() == 1) return v.mat()->cat(0);
  throw InterpError(loc, "expected a scalar, got " + type_name(v));
}

bool truthy(const Value& v, SourceLoc loc) {
  if (v.is_real()) return v.real_scalar() != 0.0;
  if (v.is_complex_scalar()) return v.complex_scalar() != std::complex<double>(0.0);
  if (v.is_string()) return !v.str().empty();
  const Mat& m = *v.mat();
  if (m.numel() == 0) return false;
  for (size_t i = 0; i < m.numel(); ++i) {
    if (m.cat(i) == std::complex<double>(0.0)) return false;
  }
  (void)loc;
  return true;
}

size_t numel(const Value& v) {
  if (v.is_scalar()) return 1;
  if (v.is_string()) return v.str().size();
  return v.mat()->numel();
}

size_t value_rows(const Value& v) {
  if (v.is_scalar()) return 1;
  if (v.is_string()) return 1;
  return v.mat()->rows;
}

size_t value_cols(const Value& v) {
  if (v.is_scalar()) return 1;
  if (v.is_string()) return v.str().size();
  return v.mat()->cols;
}

Value simplify(Value v) {
  if (v.is_matrix() && v.mat()->numel() == 1) {
    const Mat& m = *v.mat();
    if (m.is_complex && m.im[0] != 0.0) {
      return Value(std::complex<double>(m.re[0], m.im[0]));
    }
    return Value(m.re[0]);
  }
  if (v.is_complex_scalar() && v.complex_scalar().imag() == 0.0) {
    return Value(v.complex_scalar().real());
  }
  return v;
}

std::string type_name(const Value& v) {
  if (v.is_real()) return "real scalar";
  if (v.is_complex_scalar()) return "complex scalar";
  if (v.is_string()) return "string";
  std::ostringstream ss;
  ss << v.mat()->rows << "x" << v.mat()->cols
     << (v.mat()->is_complex ? " complex matrix" : " matrix");
  return ss.str();
}

namespace {
void format_number(std::ostream& os, double re, double im, bool is_complex) {
  // The real part prints like every compiled engine's display.
  print_real(os, re);
  if (is_complex && im != 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+.6gi", print_form(im));
    os << buf;
  }
}
}  // namespace

std::string format_value(const Value& v) {
  std::ostringstream ss;
  if (v.is_real()) {
    format_number(ss, v.real_scalar(), 0.0, false);
  } else if (v.is_complex_scalar()) {
    format_number(ss, v.complex_scalar().real(), v.complex_scalar().imag(), true);
  } else if (v.is_string()) {
    ss << v.str();
  } else {
    const Mat& m = *v.mat();
    for (size_t r = 0; r < m.rows; ++r) {
      for (size_t c = 0; c < m.cols; ++c) {
        if (c) ss << ' ';
        size_t i = r * m.cols + c;
        format_number(ss, m.re[i], m.is_complex ? m.im[i] : 0.0, m.is_complex);
      }
      ss << '\n';
    }
  }
  return ss.str();
}

}  // namespace otter::interp
