// Plain-text matrix files (MATLAB `load` format): one row per line,
// whitespace-separated numbers, every row the same width.
//
// The paper: "If the user's program initializes a variable through external
// file input, a sample data file must be present, so that the compiler can
// determine the type of the variable as well as its rank." The compiler
// reads the file at compile time for inference; the run-time reads it again
// at execution (rank 0 coordinates I/O and broadcasts).
#pragma once

#include <cmath>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace otter {

/// The value every engine hands to printf. A NaN's sign and payload are not
/// MATLAB-visible, and which operand's NaN `a + b` returns depends on how the
/// C++ compiler ordered the instruction's operands, so every NaN prints as
/// the one positive quiet NaN ("nan").
inline double print_form(double v) {
  return std::isnan(v) ? std::numeric_limits<double>::quiet_NaN() : v;
}

/// MATLAB fprintf, the one formatting loop of every engine: expands the
/// backslash escapes \n and \t and %%, and cycles `fmt` until `data` is
/// exhausted (a missing value prints as 0). %d and %i print through long
/// long, except NaN, Inf and -Inf, which print as those words in the spec's
/// field width, and finite values beyond long long, which print as %e like
/// MATLAB (the cast would be undefined for both); %f %e %g %E %G print through
/// printf; %s prints a number as %g. Stops at any other conversion and
/// returns its character, or returns '\0' when the format printed in full.
char fprintf_format(std::ostream& out, const std::string& fmt,
                    const std::vector<double>& data);

struct MatFile {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<double> data;       // row-major
  bool all_integer = true;        // every value integral (type inference)
};

/// Parses `path`; nullopt when the file is missing or malformed
/// (*error explains why when provided).
std::optional<MatFile> read_mat_file(const std::string& path,
                                     std::string* error = nullptr);

/// Writes a matrix in the same format (tests and examples).
bool write_mat_file(const std::string& path, size_t rows, size_t cols,
                    const std::vector<double>& data);

}  // namespace otter
