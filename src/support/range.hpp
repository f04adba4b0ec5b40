// The extent of a MATLAB range lo:step:hi, shared by every engine (the
// interpreter, the run-time library's fill_range, the for-loops of the tree
// executor, the VM and generated C, and shape inference) so that all of them
// agree on every input.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>

namespace otter {

/// Diagnostic code and message for a range with an Inf or NaN bound or a NaN
/// step. MATLAB rejects such ranges; an element count derived from them would
/// be a cast of Inf or NaN to an integer, which is undefined.
inline constexpr const char* kRangeNotFiniteCode = "E5008";
inline constexpr const char* kRangeNotFiniteMsg =
    "range bounds must be finite (lo:step:hi with an Inf or NaN bound or a "
    "NaN step)";

/// True when lo:step:hi has a countable extent. An infinite step with finite
/// bounds is allowed: its span is a zero, so the count stays finite.
inline bool range_is_finite(double lo, double step, double hi) {
  return std::isfinite(lo) && std::isfinite(hi) && !std::isnan(step);
}

/// Element count of lo:step:hi, saturated at SIZE_MAX (the matrix
/// constructors then reject it as E5007). Requires range_is_finite and a
/// nonzero step.
inline size_t range_count(double lo, double step, double hi) {
  double span = (hi - lo) / step;
  if (span < 0) return 0;
  double n = std::floor(span + 1e-10) + 1.0;
  constexpr double kLimit = 18446744073709551616.0;  // 2^64
  return n < kLimit ? static_cast<size_t>(n)
                    : std::numeric_limits<size_t>::max();
}

}  // namespace otter
