// Builtin function implementations for the interpreter.
#include <cmath>
#include <cstdio>
#include <numbers>
#include <ostream>
#include <sstream>

#include "interp/interp.hpp"
#include "support/matio.hpp"

namespace otter::interp {

namespace {

[[noreturn]] void fail(SourceLoc loc, const std::string& msg) {
  throw InterpError(loc, msg);
}

/// Applies `f` to every element (matrices) or to the scalar.
Value map_real(const Value& v, SourceLoc loc, double (*f)(double)) {
  if (v.is_real()) return Value(f(v.real_scalar()));
  if (v.is_matrix() && !v.mat()->is_complex) {
    const Mat& m = *v.mat();
    auto out = std::make_shared<Mat>(m.rows, m.cols);
    for (size_t i = 0; i < m.numel(); ++i) out->re[i] = f(m.re[i]);
    return Value(std::move(out));
  }
  fail(loc, "expected a real argument, got " + type_name(v));
}

Value map_complex(const Value& v, SourceLoc loc,
                  std::complex<double> (*cf)(const std::complex<double>&),
                  double (*rf)(double)) {
  if (v.is_real()) return Value(rf(v.real_scalar()));
  if (v.is_complex_scalar()) return simplify(Value(cf(v.complex_scalar())));
  if (v.is_matrix()) {
    const Mat& m = *v.mat();
    auto out = std::make_shared<Mat>(m.rows, m.cols, m.is_complex);
    for (size_t i = 0; i < m.numel(); ++i) {
      if (m.is_complex) {
        std::complex<double> r = cf(m.cat(i));
        out->re[i] = r.real();
        out->im[i] = r.imag();
      } else {
        out->re[i] = rf(m.re[i]);
      }
    }
    out->demote_if_real();
    return Value(std::move(out));
  }
  fail(loc, "expected a numeric argument, got " + type_name(v));
}

double dsign(double x) { return x > 0 ? 1.0 : (x < 0 ? -1.0 : 0.0); }
double dmod(double x, double y) {
  if (y == 0.0) return x;
  double r = std::fmod(x, y);
  if (r != 0.0 && ((r < 0) != (y < 0))) r += y;
  return r;
}

/// Column-wise reduction for sum/mean/prod/min/max on matrices; whole-vector
/// reduction for vectors (MATLAB semantics).
template <typename Fold>
Value reduce(const Value& v, SourceLoc loc, double init, Fold fold,
             bool mean_divide = false) {
  if (v.is_real()) return v;
  if (!v.is_matrix() || v.mat()->is_complex) {
    fail(loc, "reduction expects a real matrix, got " + type_name(v));
  }
  const Mat& m = *v.mat();
  if (m.numel() == 0) return Value(init);
  if (m.is_vector()) {
    double acc = init;
    for (size_t i = 0; i < m.numel(); ++i) acc = fold(acc, m.re[i]);
    if (mean_divide) acc /= static_cast<double>(m.numel());
    return Value(acc);
  }
  auto out = std::make_shared<Mat>(1, m.cols);
  for (size_t c = 0; c < m.cols; ++c) {
    double acc = init;
    for (size_t r = 0; r < m.rows; ++r) acc = fold(acc, m.re[r * m.cols + c]);
    if (mean_divide) acc /= static_cast<double>(m.rows);
    out->re[c] = acc;
  }
  return Value(std::move(out));
}

/// Two-argument real element-wise builtin with scalar broadcasting:
/// min(a,b), max(a,b), mod and rem.
template <typename Fn>
Value real_binary(const Value& a, const Value& b, SourceLoc loc,
                  const char* name, Fn fn) {
  if (a.is_real() && b.is_real()) {
    return Value(fn(a.real_scalar(), b.real_scalar()));
  }
  auto bop = [&](const Mat& m, double s, bool scalar_second) {
    auto out = std::make_shared<Mat>(m.rows, m.cols);
    for (size_t i = 0; i < m.numel(); ++i) {
      out->re[i] = scalar_second ? fn(m.re[i], s) : fn(s, m.re[i]);
    }
    return Value(std::move(out));
  };
  auto real_mat = [](const Value& v) {
    return v.is_matrix() && !v.mat()->is_complex;
  };
  if (real_mat(a) && b.is_real()) return bop(*a.mat(), b.real_scalar(), true);
  if (a.is_real() && real_mat(b)) return bop(*b.mat(), a.real_scalar(), false);
  if (real_mat(a) && real_mat(b)) {
    const Mat& ma = *a.mat();
    const Mat& mb = *b.mat();
    if (ma.rows != mb.rows || ma.cols != mb.cols) {
      fail(loc, std::string("matrix dimensions must agree in ") + name);
    }
    auto out = std::make_shared<Mat>(ma.rows, ma.cols);
    for (size_t i = 0; i < ma.numel(); ++i) {
      out->re[i] = fn(ma.re[i], mb.re[i]);
    }
    return Value(std::move(out));
  }
  fail(loc, std::string("invalid arguments to ") + name);
}

Value min_or_max(const std::vector<Value>& args, SourceLoc loc, bool is_min) {
  auto pick = [is_min](double a, double b) {
    return is_min ? std::min(a, b) : std::max(a, b);
  };
  if (args.size() == 2) {
    return real_binary(args[0], args[1], loc, "min/max", pick);
  }
  // Reduction form.
  double init = is_min ? std::numeric_limits<double>::infinity()
                       : -std::numeric_limits<double>::infinity();
  return reduce(args[0], loc, init,
                [&](double a, double b) { return pick(a, b); });
}

}  // namespace

std::vector<Value> Interp::call_builtin(const BuiltinInfo& info,
                                        std::vector<Value> args,
                                        size_t nargout, SourceLoc loc) {
  const int argc = static_cast<int>(args.size());
  if (argc < info.min_args ||
      (info.max_args >= 0 && argc > info.max_args)) {
    fail(loc, std::string("wrong number of arguments to '") +
                  std::string(info.name) + "'");
  }
  auto arg_dim = [&](int i) {
    double v = to_double(args[i], loc);
    // 2^53: past this a double cannot represent every integer, so the
    // value is rejected before the size_t cast (also rejects NaN/Inf).
    if (!(v >= 0.0) || !(v < 9007199254740992.0) || std::floor(v) != v) {
      throw InterpError(loc,
                        "invalid dimension " + format_value(Value(v)) +
                            " (must be a nonnegative finite integer)",
                        "E5007");
    }
    return static_cast<size_t>(v);
  };

  switch (info.id) {
    case Builtin::Zeros:
    case Builtin::Ones: {
      size_t r = arg_dim(0);
      size_t c = argc == 2 ? arg_dim(1) : r;
      auto m = std::make_shared<Mat>(r, c);
      if (info.id == Builtin::Ones) {
        std::fill(m->re.begin(), m->re.end(), 1.0);
      }
      return {Value(std::move(m))};
    }
    case Builtin::Eye: {
      size_t r = arg_dim(0);
      size_t c = argc == 2 ? arg_dim(1) : r;
      auto m = std::make_shared<Mat>(r, c);
      for (size_t i = 0; i < std::min(r, c); ++i) m->re[i * c + i] = 1.0;
      return {Value(std::move(m))};
    }
    case Builtin::Rand: {
      if (argc == 0) return {Value(rng_.next())};
      size_t r = arg_dim(0);
      size_t c = argc == 2 ? arg_dim(1) : r;
      auto m = std::make_shared<Mat>(r, c);
      for (double& x : m->re) x = rng_.next();
      return {Value(std::move(m))};
    }
    case Builtin::Linspace: {
      double lo = to_double(args[0], loc);
      double hi = to_double(args[1], loc);
      size_t n = argc == 3 ? arg_dim(2) : 100;
      auto m = std::make_shared<Mat>(1, n);
      for (size_t i = 0; i < n; ++i) {
        m->re[i] = n == 1 ? hi
                          : lo + (hi - lo) * static_cast<double>(i) /
                                     static_cast<double>(n - 1);
      }
      return {Value(std::move(m))};
    }
    case Builtin::Repmat: {
      size_t rr = arg_dim(1);
      size_t rc = arg_dim(2);
      Mat src(1, 1);
      if (args[0].is_matrix()) {
        src = *args[0].mat();
      } else {
        src.re[0] = to_double(args[0], loc);
      }
      auto out = std::make_shared<Mat>(src.rows * rr, src.cols * rc);
      for (size_t r = 0; r < out->rows; ++r) {
        for (size_t c = 0; c < out->cols; ++c) {
          out->re[r * out->cols + c] =
              src.re[(r % src.rows) * src.cols + (c % src.cols)];
        }
      }
      return {Value(std::move(out))};
    }
    case Builtin::Size: {
      double r = static_cast<double>(value_rows(args[0]));
      double c = static_cast<double>(value_cols(args[0]));
      if (argc == 2) {
        double d = to_double(args[1], loc);
        return {Value(d == 1.0 ? r : c)};
      }
      if (nargout >= 2) return {Value(r), Value(c)};
      auto m = std::make_shared<Mat>(1, 2);
      m->re[0] = r;
      m->re[1] = c;
      return {Value(std::move(m))};
    }
    case Builtin::Length:
      // length([]) is 0; otherwise the larger dimension.
      if (numel(args[0]) == 0) return {Value(0.0)};
      return {Value(static_cast<double>(
          std::max(value_rows(args[0]), value_cols(args[0]))))};
    case Builtin::Numel:
      return {Value(static_cast<double>(numel(args[0])))};
    case Builtin::Sum:
      return {reduce(args[0], loc, 0.0,
                     [](double a, double b) { return a + b; })};
    case Builtin::Mean:
      return {reduce(args[0], loc, 0.0,
                     [](double a, double b) { return a + b; }, true)};
    case Builtin::Prod:
      return {reduce(args[0], loc, 1.0,
                     [](double a, double b) { return a * b; })};
    case Builtin::MinFn:
      return {min_or_max(args, loc, true)};
    case Builtin::MaxFn:
      return {min_or_max(args, loc, false)};
    case Builtin::Dot: {
      const Value& a = args[0];
      const Value& b = args[1];
      if (!a.is_matrix() || !b.is_matrix() || a.mat()->is_complex ||
          b.mat()->is_complex) {
        fail(loc, "dot expects two real vectors");
      }
      const Mat& ma = *a.mat();
      const Mat& mb = *b.mat();
      if (!ma.is_vector() || !mb.is_vector() || ma.numel() != mb.numel()) {
        fail(loc, "dot expects two vectors of identical length");
      }
      double acc = 0.0;
      for (size_t i = 0; i < ma.numel(); ++i) acc += ma.re[i] * mb.re[i];
      return {Value(acc)};
    }
    case Builtin::Norm: {
      if (args[0].is_real()) return {Value(std::fabs(args[0].real_scalar()))};
      if (!args[0].is_matrix() || args[0].mat()->is_complex) {
        fail(loc, "norm expects a real vector");
      }
      const Mat& m = *args[0].mat();
      if (!m.is_vector()) {
        fail(loc, "matrix norms are not supported in the Otter subset");
      }
      double acc = 0.0;
      for (size_t i = 0; i < m.numel(); ++i) acc += m.re[i] * m.re[i];
      return {Value(std::sqrt(acc))};
    }
    case Builtin::Trapz: {
      // trapz(y) with unit spacing, or trapz(x, y).
      const Value& yv = argc == 2 ? args[1] : args[0];
      if (!yv.is_matrix() || yv.mat()->is_complex) {
        fail(loc, "trapz expects a real vector");
      }
      const Mat& y = *yv.mat();
      if (!y.is_vector()) {
        fail(loc, "trapz over matrices is not supported in the Otter subset");
      }
      size_t n = y.numel();
      if (n < 2) return {Value(0.0)};
      double acc = 0.0;
      if (argc == 2) {
        if (!args[0].is_matrix() || args[0].mat()->numel() != n) {
          fail(loc, "trapz(x, y): x and y must have identical length");
        }
        const Mat& x = *args[0].mat();
        for (size_t i = 0; i + 1 < n; ++i) {
          acc += (x.re[i + 1] - x.re[i]) * (y.re[i + 1] + y.re[i]) * 0.5;
        }
      } else {
        for (size_t i = 0; i + 1 < n; ++i) {
          acc += (y.re[i + 1] + y.re[i]) * 0.5;
        }
      }
      return {Value(acc)};
    }
    case Builtin::Abs:
      return {map_complex(args[0], loc,
                          [](const std::complex<double>& z) {
                            return std::complex<double>(std::abs(z), 0.0);
                          },
                          [](double x) { return std::fabs(x); })};
    case Builtin::Sqrt:
      return {map_complex(args[0], loc,
                          [](const std::complex<double>& z) { return std::sqrt(z); },
                          [](double x) { return std::sqrt(x); })};
    case Builtin::Exp:
      return {map_complex(args[0], loc,
                          [](const std::complex<double>& z) { return std::exp(z); },
                          [](double x) { return std::exp(x); })};
    case Builtin::Log:
      return {map_complex(args[0], loc,
                          [](const std::complex<double>& z) { return std::log(z); },
                          [](double x) { return std::log(x); })};
    case Builtin::Sin:
      return {map_complex(args[0], loc,
                          [](const std::complex<double>& z) { return std::sin(z); },
                          [](double x) { return std::sin(x); })};
    case Builtin::Cos:
      return {map_complex(args[0], loc,
                          [](const std::complex<double>& z) { return std::cos(z); },
                          [](double x) { return std::cos(x); })};
    case Builtin::Tan:
      return {map_real(args[0], loc, [](double x) { return std::tan(x); })};
    case Builtin::Floor:
      return {map_real(args[0], loc, [](double x) { return std::floor(x); })};
    case Builtin::Ceil:
      return {map_real(args[0], loc, [](double x) { return std::ceil(x); })};
    case Builtin::Round:
      return {map_real(args[0], loc, [](double x) { return std::round(x); })};
    case Builtin::Sign:
      return {map_real(args[0], loc, dsign)};
    case Builtin::Mod:
      return {real_binary(args[0], args[1], loc, "mod", dmod)};
    case Builtin::Rem:
      return {real_binary(args[0], args[1], loc, "rem",
                          [](double x, double y) { return std::fmod(x, y); })};
    case Builtin::Real:
      return {map_complex(args[0], loc,
                          [](const std::complex<double>& z) {
                            return std::complex<double>(z.real(), 0.0);
                          },
                          [](double x) { return x; })};
    case Builtin::Imag:
      return {map_complex(args[0], loc,
                          [](const std::complex<double>& z) {
                            return std::complex<double>(z.imag(), 0.0);
                          },
                          [](double) { return 0.0; })};
    case Builtin::Conj:
      return {map_complex(args[0], loc,
                          [](const std::complex<double>& z) { return std::conj(z); },
                          [](double x) { return x; })};
    case Builtin::Disp:
      out_ << format_value(args[0]);
      if (!args[0].is_matrix()) out_ << '\n';
      return {};
    case Builtin::Fprintf:
      do_fprintf(args, loc);
      return {};
    case Builtin::Num2str: {
      return {Value(format_value(simplify(args[0])))};
    }
    case Builtin::ErrorFn:
      fail(loc, args[0].is_string() ? args[0].str() : format_value(args[0]));
    case Builtin::Load: {
      if (!args[0].is_string()) fail(loc, "load expects a file name string");
      std::string err;
      std::optional<MatFile> mf = read_mat_file(args[0].str(), &err);
      if (!mf) fail(loc, "load: " + err);
      auto m = std::make_shared<Mat>(mf->rows, mf->cols);
      m->re.assign(mf->data.begin(), mf->data.end());
      return {simplify(Value(std::move(m)))};
    }
    case Builtin::RankId:
      // The baseline interpreter is a single-CPU oracle: it models rank 0
      // of a 1-rank world (compiled runs only match it at np=1).
      return {Value(0.0)};
    case Builtin::NProcs:
      return {Value(1.0)};
    case Builtin::Pi:
      return {Value(std::numbers::pi)};
    case Builtin::Eps:
      return {Value(std::numeric_limits<double>::epsilon())};
    case Builtin::InfConst:
      return {Value(std::numeric_limits<double>::infinity())};
    case Builtin::NanConst:
      return {Value(std::numeric_limits<double>::quiet_NaN())};
    case Builtin::ImagUnit:
    default:
      break;
  }
  fail(loc, std::string("builtin '") + std::string(info.name) +
                "' is not implemented");
}

void Interp::do_fprintf(const std::vector<Value>& args, SourceLoc loc) {
  if (!args[0].is_string()) {
    fail(loc, "fprintf expects a format string as its first argument");
  }
  const std::string& fmt = args[0].str();

  // Flatten all remaining arguments into a scalar stream; MATLAB cycles the
  // format string until the data is exhausted.
  std::vector<double> data;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i].is_real()) {
      data.push_back(args[i].real_scalar());
    } else if (args[i].is_matrix() && !args[i].mat()->is_complex) {
      const Mat& m = *args[i].mat();
      data.insert(data.end(), m.re.begin(), m.re.end());
    } else {
      fail(loc, "fprintf arguments must be real");
    }
  }

  if (char bad = fprintf_format(out_, fmt, data)) {
    fail(loc, std::string("unsupported fprintf conversion '%") + bad + "'");
  }
}

}  // namespace otter::interp
