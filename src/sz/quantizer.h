// SZ's error-controlled linear-scale quantizer.
//
// The prediction error (value - predicted) is mapped to an integer bin of
// width 2*eb, so reconstructing from the bin index is guaranteed to land
// within eb of the original.  Values whose bin falls outside the code
// range are "unpredictable" (code 0) and stored losslessly-within-bound
// by the unpredictable encoder.
#pragma once

#include <cmath>
#include <cstdint>

#include "sz/params.h"

namespace szsec::sz {

/// std::nearbyint(x) under the default rounding mode (to nearest, ties to
/// even), bit for bit for every double, but inline: on baseline x86-64
/// nearbyint is a libm call (ROUNDSD needs SSE4.1), and the quantizer
/// sits on the Lorenzo recurrence.  For |x| < 2^52, |x| + 2^52 lies in
/// [2^52, 2^53), where the ulp is 1, so the sum rounds to an integer as
/// nearbyint would and subtracting 2^52 back is exact; copysign keeps the
/// sign of a result that rounds to zero.  |x| >= 2^52 (already integral),
/// +-inf and quiet NaNs come back unchanged; a signalling NaN comes back
/// quieted, as nearbyint returns it (x + 0.0 is x for every other value
/// there).  Relies on IEEE double arithmetic that is not reassociated (no
/// -ffast-math).
inline double round_half_even(double x) {
  constexpr double kTwo52 = 4503599627370496.0;
  const double a = std::fabs(x);
  const double r = std::copysign((a + kTwo52) - kTwo52, x);
  return a < kTwo52 ? r : x + 0.0;
}

class LinearQuantizer {
 public:
  LinearQuantizer(double abs_error_bound, uint32_t bins)
      : eb_(abs_error_bound),
        two_eb_(2.0 * abs_error_bound),
        bins_(bins),
        radius_(bins / 2) {}

  /// Quantizes `value` against `predicted`.  On success returns a code in
  /// [1, bins-1] and sets `reconstructed` to the decoder-visible value
  /// (|reconstructed - value| <= eb).  Returns 0 (unpredictable) otherwise.
  template <typename T>
  uint32_t quantize(T value, T predicted, T& reconstructed) const {
    const double diff = static_cast<double>(value) - predicted;
    // Round to nearest bin; bins are centred multiples of 2*eb.
    const double scaled = diff / two_eb_;
    const double rounded = round_half_even(scaled);
    if (std::abs(rounded) >= static_cast<double>(radius_) ||
        !std::isfinite(diff)) {
      return 0;
    }
    const int64_t q = static_cast<int64_t>(rounded);
    const T recon = static_cast<T>(predicted + rounded * two_eb_);
    // Guard against floating-point rounding pushing the reconstruction out
    // of bound (can happen when |predicted| >> |value|).
    if (std::abs(static_cast<double>(recon) - value) > eb_) return 0;
    reconstructed = recon;
    return static_cast<uint32_t>(q + radius_);
  }

  /// Inverse mapping for a predictable code (1..bins-1).
  template <typename T>
  T dequantize(uint32_t code, T predicted) const {
    const int64_t q = static_cast<int64_t>(code) - radius_;
    return static_cast<T>(static_cast<double>(predicted) +
                          static_cast<double>(q) * two_eb_);
  }

  double error_bound() const { return eb_; }
  uint32_t bins() const { return bins_; }
  uint32_t radius() const { return radius_; }

 private:
  double eb_;
  double two_eb_;
  uint32_t bins_;
  int64_t radius_;
};

}  // namespace szsec::sz
