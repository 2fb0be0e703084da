// Canonical Huffman code shapes for the decoder's two-level tables.
//
// huffman::decode() resolves codewords of up to kDecodeTableBits bits in
// its root probe table, longer ones through a second-level table under
// their root prefix (up to kDecodeTableBits + kMaxSubTableBits bits), and
// anything longer, or any bits no codeword covers, by the exact walk.  A
// shape fixes which of those paths a code exercises: its longest length,
// how many root prefixes hold longer codewords, and whether the code is
// incomplete, leaving a hole at the end of the code space that covers
// whole root prefixes or only part of the last one.  The identity and
// dispatch suites decode streams over each shape against the per-bit
// walks.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "huffman/huffman.h"

namespace szsec::testing {

struct CodeShape {
  unsigned longest;     ///< the longest codeword, exactly
  size_t prefixes;      ///< root prefixes under which codewords run longer
  size_t short_codes;   ///< codewords of at most kDecodeTableBits bits
  size_t long_codes;    ///< codewords past kDecodeTableBits bits
  unsigned hole = 0;    ///< length of the codeword left out, 0 for none
};

/// Code lengths of a random code of shape `s`, one per used symbol, in
/// random order.  The short codewords cover the root but `s.prefixes`
/// prefixes: the binary digits of the space left, then random splits
/// until there are `s.short_codes` of them.  Each of those prefixes is
/// split into two codewords, one chain of splits reaches `s.longest`, and
/// random splits of the long codewords follow until there are
/// `s.long_codes`.  Leaving out one codeword of length `s.hole` (or the
/// next shorter length there is one of) makes the code incomplete: its
/// space, at the end of the code space in canonical order, becomes a
/// hole.  With `s.longest` at most kDecodeTableBits,
/// `s.prefixes` and `s.long_codes` must be 0.
inline std::vector<uint8_t> shape_lengths(const CodeShape& s,
                                          std::mt19937_64& rng) {
  constexpr unsigned kRoot = huffman::kDecodeTableBits;
  constexpr unsigned kMax = huffman::kMaxCodeLength;
  std::array<size_t, kMax + 2> count{};
  const auto codes = [&](unsigned lo, unsigned hi) {
    size_t n = 0;
    for (unsigned l = lo; l <= hi; ++l) n += count[l];
    return n;
  };
  // Splits one codeword of a length in [lo, hi], picked in proportion to
  // their counts, into two one bit longer; false when there is none.
  const auto split = [&](unsigned lo, unsigned hi) {
    const size_t n = codes(lo, hi);
    if (n == 0) return false;
    size_t pick = rng() % n;
    unsigned l = lo;
    while (pick >= count[l]) pick -= count[l++];
    --count[l];
    count[l + 1] += 2;
    return true;
  };
  if (s.prefixes == 0) {
    count[1] = 2;
    while (count[s.longest] == 0) {
      unsigned l = s.longest - 1;
      while (count[l] == 0) --l;
      split(l, l);
    }
  } else {
    const size_t space = (size_t{1} << kRoot) - s.prefixes;
    for (unsigned bit = 0; bit < kRoot; ++bit) {
      if ((space >> bit) & 1) ++count[kRoot - bit];
    }
  }
  const unsigned short_max = std::min(s.longest, kRoot);
  while (codes(1, kRoot) < s.short_codes && split(1, short_max - 1)) {
  }
  if (s.prefixes != 0) {
    count[kRoot + 1] += 2 * s.prefixes;
    for (unsigned l = kRoot + 1; l < s.longest; ++l) split(l, l);
    while (codes(kRoot + 1, kMax) < s.long_codes &&
           split(kRoot + 1, s.longest - 1)) {
    }
  }
  if (s.hole != 0) {
    unsigned l = s.hole;
    while (l > 1 && count[l] == 0) --l;
    --count[l];
  }

  std::vector<uint8_t> lengths;
  for (unsigned l = 1; l <= kMax; ++l) {
    lengths.insert(lengths.end(), count[l], static_cast<uint8_t>(l));
  }
  std::shuffle(lengths.begin(), lengths.end(), rng);
  return lengths;
}

/// The shapes both suites run: longest codewords of exactly 11, 12, 18,
/// 19 and 32 bits, under a few or many of the root prefixes; holes of
/// whole root prefixes (after the short codes, and after second-level
/// tables), inside the last second-level table, and past it.
inline std::vector<CodeShape> second_level_shapes() {
  return {
      {11, 0, 40, 0},       {12, 1, 30, 2},      {12, 90, 40, 180},
      {18, 3, 50, 40},      {18, 40, 30, 300},   {19, 4, 40, 50},
      {19, 20, 60, 200},    {32, 2, 30, 40},     {32, 30, 50, 250},
      {11, 0, 60, 0, 11},   {15, 5, 40, 30, 9},  {16, 8, 40, 80, 13},
      {18, 6, 40, 60, 18},  {19, 20, 60, 200, 19},
  };
}

}  // namespace szsec::testing
