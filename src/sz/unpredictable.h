// Unpredictable-value storage via IEEE-754 binary representation analysis
// (Algorithm 1's "Compress the unpredictable array using IEEE 754 binary
// representation analysis").
//
// A value the quantizer cannot represent is stored as sign + raw exponent
// + only as many leading mantissa bits as the error bound requires: a bit
// at mantissa position t (from the LSB) carries weight 2^(e-M+t), so bits
// below the error bound's magnitude are simply dropped.  The decoder
// recomputes the kept-bit count from the exponent and the (globally known)
// error bound, so no per-value length field is needed.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/bitstream.h"

namespace szsec::sz {

namespace detail {

/// Mantissa bits to keep for a float32 with biased exponent `biased`
/// under error bound 2^log2_eb_floor.
inline unsigned kept_bits_f32(unsigned biased, int log2_eb_floor) {
  if (biased == 0xFF) return 23;  // inf/nan: store exactly
  const int e = (biased == 0) ? -126 : static_cast<int>(biased) - 127;
  const int drop = log2_eb_floor - e + 23;  // bits safely droppable
  if (drop <= 0) return 23;
  if (drop >= 23) return 0;
  return static_cast<unsigned>(23 - drop);
}

inline unsigned kept_bits_f64(unsigned biased, int log2_eb_floor) {
  if (biased == 0x7FF) return 52;
  const int e = (biased == 0) ? -1022 : static_cast<int>(biased) - 1023;
  const int drop = log2_eb_floor - e + 52;
  if (drop <= 0) return 52;
  if (drop >= 52) return 0;
  return static_cast<unsigned>(52 - drop);
}

}  // namespace detail

/// Streams unpredictable values into a truncated-bit blob.
class UnpredictableEncoder {
 public:
  explicit UnpredictableEncoder(double abs_error_bound)
      : log2_eb_(static_cast<int>(std::floor(std::log2(abs_error_bound)))) {}

  /// The value the decoder will see for `v`: sign, exponent and the
  /// mantissa bits the bound keeps, the rest cleared.  Pure, so a caller
  /// can reconstruct a point now and write its bits later (put() writes
  /// exactly the bits of truncate(v)).
  float truncate(float v) const {
    const uint32_t bits = std::bit_cast<uint32_t>(v);
    const unsigned kept = detail::kept_bits_f32((bits >> 23) & 0xFF, log2_eb_);
    return std::bit_cast<float>(bits & ~(uint32_t{0x7FFFFF} >> kept));
  }

  double truncate(double v) const {
    const uint64_t bits = std::bit_cast<uint64_t>(v);
    const unsigned kept = detail::kept_bits_f64(
        static_cast<unsigned>((bits >> 52) & 0x7FF), log2_eb_);
    return std::bit_cast<double>(bits &
                                 ~(uint64_t{0xFFFFFFFFFFFFF} >> kept));
  }

  /// Writes `v` and returns truncate(v); the compressor must store that
  /// into its reconstruction array so both sides keep predicting from
  /// identical data.
  float put(float v) {
    const float t = truncate(v);
    const uint32_t bits = std::bit_cast<uint32_t>(t);
    const uint32_t biased = (bits >> 23) & 0xFF;
    const unsigned kept = detail::kept_bits_f32(biased, log2_eb_);
    w_.put_bit(bits >> 31);
    w_.put_bits(biased, 8);
    if (kept > 0) w_.put_bits((bits & 0x7FFFFF) >> (23 - kept), kept);
    return t;
  }

  double put(double v) {
    const double t = truncate(v);
    const uint64_t bits = std::bit_cast<uint64_t>(t);
    const uint64_t biased = (bits >> 52) & 0x7FF;
    const unsigned kept =
        detail::kept_bits_f64(static_cast<unsigned>(biased), log2_eb_);
    w_.put_bit(static_cast<unsigned>(bits >> 63));
    w_.put_bits(biased, 11);
    if (kept > 0) {
      w_.put_bits((bits & 0xFFFFFFFFFFFFFull) >> (52 - kept), kept);
    }
    return t;
  }

  Bytes finish() { return w_.finish(); }

 private:
  int log2_eb_;
  BitWriter w_;
};

/// Decodes values written by UnpredictableEncoder, in order.
class UnpredictableDecoder {
 public:
  UnpredictableDecoder(BytesView blob, double abs_error_bound)
      : log2_eb_(static_cast<int>(std::floor(std::log2(abs_error_bound)))),
        r_(blob) {}

  float next_f32() {
    const uint32_t sign = static_cast<uint32_t>(r_.get_bit());
    const uint32_t biased = static_cast<uint32_t>(r_.get_bits(8));
    const unsigned kept = detail::kept_bits_f32(biased, log2_eb_);
    uint32_t mant = 0;
    if (kept > 0) {
      mant = static_cast<uint32_t>(r_.get_bits(kept)) << (23 - kept);
    }
    return std::bit_cast<float>((sign << 31) | (biased << 23) | mant);
  }

  double next_f64() {
    const uint64_t sign = r_.get_bit();
    const uint64_t biased = r_.get_bits(11);
    const unsigned kept =
        detail::kept_bits_f64(static_cast<unsigned>(biased), log2_eb_);
    uint64_t mant = 0;
    if (kept > 0) mant = r_.get_bits(kept) << (52 - kept);
    return std::bit_cast<double>((sign << 63) | (biased << 52) | mant);
  }

 private:
  int log2_eb_;
  BitReader r_;
};

}  // namespace szsec::sz
