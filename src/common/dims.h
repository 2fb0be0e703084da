// N-dimensional extents for scientific fields (up to 4D, matching the
// SDRBench datasets the paper evaluates: 3D Hurricane/Nyx fields and the
// 4D SCALE-LetKF fields).
#pragma once

#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>

#include "common/error.h"

namespace szsec {

/// Dataset extents, slowest-varying dimension first (C order).
/// A 3D 100x500x500 field is Dims{100, 500, 500}.
class Dims {
 public:
  static constexpr size_t kMaxRank = 4;

  Dims() = default;

  Dims(std::initializer_list<size_t> extents)
      : Dims(std::span<const size_t>(extents.begin(), extents.size())) {}

  explicit Dims(std::span<const size_t> extents) {
    SZSEC_REQUIRE(extents.size() >= 1 && extents.size() <= kMaxRank,
                  "rank must be 1..4");
    rank_ = extents.size();
    size_t i = 0;
    for (size_t e : extents) {
      SZSEC_REQUIRE(e > 0, "zero extent");
      d_[i++] = e;
    }
  }

  size_t rank() const { return rank_; }

  size_t operator[](size_t i) const {
    SZSEC_REQUIRE(i < rank_, "dimension index out of range");
    return d_[i];
  }

  /// Total number of elements.
  size_t count() const {
    size_t n = 1;
    for (size_t i = 0; i < rank_; ++i) n *= d_[i];
    return n;
  }

  /// Row-major strides: stride[rank-1] == 1.
  std::array<size_t, kMaxRank> strides() const {
    std::array<size_t, kMaxRank> s{};
    size_t acc = 1;
    for (size_t i = rank_; i-- > 0;) {
      s[i] = acc;
      acc *= d_[i];
    }
    return s;
  }

  /// Per-axis extent cap shared by every untrusted-header parser
  /// (container, chunked archive index, slab archive).
  static constexpr uint64_t kMaxExtent = uint64_t{1} << 40;

  /// Whole-field element cap for untrusted headers.  Axes that each
  /// pass the per-axis cap can still multiply past 2^64 at rank 4, so
  /// parsers must bound the product overflow-safely before sizing any
  /// allocation from it; see checked_field_elements().
  static constexpr uint64_t kMaxElements = uint64_t{1} << 40;

  bool operator==(const Dims& o) const {
    if (rank_ != o.rank_) return false;
    for (size_t i = 0; i < rank_; ++i) {
      if (d_[i] != o.d_[i]) return false;
    }
    return true;
  }

  std::string to_string() const {
    std::string s;
    for (size_t i = 0; i < rank_; ++i) {
      if (i) s += "x";
      s += std::to_string(d_[i]);
    }
    return s;
  }

 private:
  std::array<size_t, kMaxRank> d_{};
  size_t rank_ = 0;
};

/// Validates extents decoded from an untrusted header: every axis in
/// [1, Dims::kMaxExtent] and the whole-field product within
/// Dims::kMaxElements, accumulated without ever overflowing uint64_t.
/// Throws CorruptError on violation; returns the element count.
inline uint64_t checked_field_elements(const size_t* extents, size_t rank) {
  SZSEC_CHECK_FORMAT(rank >= 1 && rank <= Dims::kMaxRank, "bad rank");
  uint64_t total = 1;
  for (size_t i = 0; i < rank; ++i) {
    const uint64_t e = extents[i];
    SZSEC_CHECK_FORMAT(e >= 1 && e <= Dims::kMaxExtent, "bad extent");
    // total * e <= kMaxElements, phrased divisionally so the product
    // is never actually formed when it would wrap.
    SZSEC_CHECK_FORMAT(e <= Dims::kMaxElements / total,
                       "field element count exceeds format limit");
    total *= e;
  }
  return total;
}

/// Reads a u8 rank and that many varint extents of an untrusted header
/// through `r` (any reader with get_u8 and get_varint), checked as
/// checked_field_elements checks them.
template <typename Reader>
Dims read_dims(Reader& r) {
  const uint8_t rank = r.get_u8();
  SZSEC_CHECK_FORMAT(rank >= 1 && rank <= Dims::kMaxRank, "bad rank");
  size_t extents[Dims::kMaxRank] = {};
  for (size_t i = 0; i < rank; ++i) {
    const uint64_t e = r.get_varint();
    SZSEC_CHECK_FORMAT(e > 0 && e <= Dims::kMaxExtent, "bad extent");
    extents[i] = static_cast<size_t>(e);
  }
  checked_field_elements(extents, rank);
  return Dims(std::span<const size_t>(extents, rank));
}

}  // namespace szsec
