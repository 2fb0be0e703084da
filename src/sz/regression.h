// Per-block linear regression predictor (the SZ-2 hybrid candidate the
// paper's Section II-A describes) and the quantized-coefficient codec
// (Algorithm 1's "Compress regression coefficients").
//
// A block's field is approximated as f(z,y,x) = az*z + ay*y + ax*x + b via
// closed-form least squares on the regular block grid.  Coefficients are
// quantized so compressor and decompressor predict identically; slope
// precision eb/side and intercept precision eb keep the coefficient error
// a small fraction of the bound (correctness never depends on it — the
// quantizer re-checks every point).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytestream.h"
#include "sz/quantizer.h"

namespace szsec::sz {

/// Up to 3 slopes + intercept; unused slopes are 0 for lower ranks.
struct RegressionCoeffs {
  double slope[3] = {0, 0, 0};  // z, y, x order (slowest first)
  double intercept = 0;
};

/// Least-squares fit over a block of extents (bz, by, bx) stored row-major
/// with the given strides into `data`.  Works for rank 1..3 by setting the
/// leading extents to 1.
template <typename T>
RegressionCoeffs fit_block(const T* data, size_t bz, size_t by, size_t bx,
                           size_t sz, size_t sy, size_t sx) {
  // For a regular grid the normal equations decouple: the slope along each
  // axis is cov(axis, value)/var(axis) and the intercept re-centres.
  const double n = static_cast<double>(bz * by * bx);
  double sum = 0;
  double sum_z = 0, sum_y = 0, sum_x = 0;
  for (size_t z = 0; z < bz; ++z) {
    for (size_t y = 0; y < by; ++y) {
      for (size_t x = 0; x < bx; ++x) {
        const double v = data[z * sz + y * sy + x * sx];
        sum += v;
        sum_z += v * static_cast<double>(z);
        sum_y += v * static_cast<double>(y);
        sum_x += v * static_cast<double>(x);
      }
    }
  }
  RegressionCoeffs c;
  const double mean_v = sum / n;
  auto slope_of = [&](double sv, size_t extent) {
    if (extent <= 1) return 0.0;
    const double e = static_cast<double>(extent);
    const double mean_c = (e - 1.0) / 2.0;
    const double var = (e * e - 1.0) / 12.0;
    const double cov = sv / n - mean_c * mean_v;
    return cov / var;
  };
  c.slope[0] = slope_of(sum_z, bz);
  c.slope[1] = slope_of(sum_y, by);
  c.slope[2] = slope_of(sum_x, bx);
  c.intercept = mean_v -
                c.slope[0] * (static_cast<double>(bz) - 1) / 2.0 -
                c.slope[1] * (static_cast<double>(by) - 1) / 2.0 -
                c.slope[2] * (static_cast<double>(bx) - 1) / 2.0;
  return c;
}

/// Quantizes/serializes coefficients so both sides predict identically.
class CoeffCodec {
 public:
  CoeffCodec(double abs_error_bound, uint32_t block_side)
      : slope_step_(abs_error_bound / (2.0 * block_side)),
        intercept_step_(abs_error_bound / 2.0) {}

  /// Quantizes in place (coefficients become exact step multiples) and
  /// appends the zigzag-varint representation to `w`.
  void encode(RegressionCoeffs& c, ByteWriter& w) const {
    for (double& s : c.slope) s = quantize(s, slope_step_, w);
    c.intercept = quantize(c.intercept, intercept_step_, w);
  }

  RegressionCoeffs decode(ByteReader& r) const {
    RegressionCoeffs c;
    for (double& s : c.slope) s = unzig(r) * slope_step_;
    c.intercept = unzig(r) * intercept_step_;
    return c;
  }

  /// Quantizes/encodes a scalar block mean (for the mean predictor).
  double encode_mean(double mean, ByteWriter& w) const {
    return quantize(mean, intercept_step_, w);
  }

  double decode_mean(ByteReader& r) const {
    return unzig(r) * intercept_step_;
  }

 private:
  static uint64_t zigzag(int64_t v) {
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
  }
  static double unzig(ByteReader& r) {
    const uint64_t u = r.get_varint();
    const int64_t v =
        static_cast<int64_t>(u >> 1) ^ -static_cast<int64_t>(u & 1);
    return static_cast<double>(v);
  }

  double quantize(double v, double step, ByteWriter& w) const {
    double q = round_half_even(v / step);
    // Clamp pathological values (inf/nan from degenerate fits) to 0.
    if (!std::isfinite(q) || std::abs(q) > 9.0e18) q = 0;
    const int64_t qi = static_cast<int64_t>(q);
    w.put_varint(zigzag(qi));
    return static_cast<double>(qi) * step;
  }

  double slope_step_;
  double intercept_step_;
};

}  // namespace szsec::sz
