#include "support/matio.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace otter {

namespace {

/// One %d or %i conversion of `v` under `spec` (e.g. "%-5d").
std::string format_integer(const std::string& spec, double v) {
  char buf[128];
  constexpr double kLongLongLimit = 9223372036854775808.0;  // 2^63
  if (std::isfinite(v) && v >= -kLongLongLimit && v < kLongLongLimit) {
    std::string lld = spec.substr(0, spec.size() - 1) + "lld";
    std::snprintf(buf, sizeof buf, lld.c_str(), static_cast<long long>(v));
    return buf;
  }
  // Keep the '-' flag and the field width; sign flags, zero padding and a
  // precision do not apply to a word (or to MATLAB's %e fallback).
  std::string text = "%";
  size_t i = 1;
  for (; i + 1 < spec.size() && std::string("-+ 0").find(spec[i]) !=
                                     std::string::npos; ++i) {
    if (spec[i] == '-' && text.size() == 1) text += '-';
  }
  for (; i + 1 < spec.size() && std::isdigit(static_cast<unsigned char>(spec[i]));
       ++i) {
    text += spec[i];
  }
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, (text + "e").c_str(), v);
  } else {
    std::snprintf(buf, sizeof buf, (text + "s").c_str(),
                  std::isnan(v) ? "NaN" : (v > 0 ? "Inf" : "-Inf"));
  }
  return buf;
}

}  // namespace

void print_real(std::ostream& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", print_form(v));
  out << buf;
}

char fprintf_format(std::ostream& out, const std::string& fmt,
                    const std::vector<double>& data) {
  size_t next = 0;
  do {
    size_t consumed = 0;
    for (size_t i = 0; i < fmt.size(); ++i) {
      char c = fmt[i];
      if (c == '\\' && i + 1 < fmt.size()) {
        char e = fmt[++i];
        if (e == 'n') out << '\n';
        else if (e == 't') out << '\t';
        else out << e;
        continue;
      }
      if (c != '%') {
        out << c;
        continue;
      }
      if (i + 1 < fmt.size() && fmt[i + 1] == '%') {
        out << '%';
        ++i;
        continue;
      }
      std::string spec = "%";
      ++i;
      while (i < fmt.size() && std::string("-+ 0123456789.*").find(fmt[i]) !=
                                   std::string::npos) {
        spec += fmt[i++];
      }
      if (i >= fmt.size()) break;
      char conv = fmt[i];
      spec += conv;
      double v = next < data.size() ? print_form(data[next]) : 0.0;
      if (next < data.size()) {
        ++next;
        ++consumed;
      }
      char buf[128];
      switch (conv) {
        case 'd':
        case 'i':
          out << format_integer(spec, v);
          break;
        case 'f':
        case 'e':
        case 'g':
        case 'E':
        case 'G':
          std::snprintf(buf, sizeof buf, spec.c_str(), v);
          out << buf;
          break;
        case 's':
          // Only meaningful for string args; print the number otherwise.
          std::snprintf(buf, sizeof buf, "%g", v);
          out << buf;
          break;
        default:
          return conv;
      }
    }
    if (consumed == 0) break;  // a format without conversions prints once
  } while (next < data.size());
  return '\0';
}

std::optional<MatFile> read_mat_file(const std::string& path,
                                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  MatFile mf;
  std::string line;
  while (std::getline(in, line)) {
    // Skip blank lines and '%' comments.
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '%') continue;
    std::istringstream ls(line);
    std::vector<double> row;
    double v;
    while (ls >> v) row.push_back(v);
    if (!ls.eof()) {
      if (error) {
        *error = "malformed number in '" + path + "' line " +
                 std::to_string(mf.rows + 1);
      }
      return std::nullopt;
    }
    if (row.empty()) continue;
    if (mf.rows == 0) {
      mf.cols = row.size();
    } else if (row.size() != mf.cols) {
      if (error) {
        *error = "ragged rows in '" + path + "' (line " +
                 std::to_string(mf.rows + 1) + " has " +
                 std::to_string(row.size()) + " values, expected " +
                 std::to_string(mf.cols) + ")";
      }
      return std::nullopt;
    }
    for (double x : row) {
      if (x != std::floor(x)) mf.all_integer = false;
    }
    mf.data.insert(mf.data.end(), row.begin(), row.end());
    ++mf.rows;
  }
  if (mf.rows == 0) {
    if (error) *error = "'" + path + "' contains no data";
    return std::nullopt;
  }
  return mf;
}

bool write_mat_file(const std::string& path, size_t rows, size_t cols,
                    const std::vector<double>& data) {
  if (data.size() != rows * cols) return false;
  std::ofstream out(path);
  if (!out) return false;
  char buf[64];
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c) out << ' ';
      std::snprintf(buf, sizeof buf, "%.17g", data[r * cols + c]);
      out << buf;
    }
    out << '\n';
  }
  return out.good();
}

}  // namespace otter
