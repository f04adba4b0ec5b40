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
