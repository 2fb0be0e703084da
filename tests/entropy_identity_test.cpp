// Byte-identity differential test for the entropy encoders: the
// word-at-a-time bit writers, Huffman packer and zlite deflate must emit
// exactly the bytes of the reference encoders in
// src/testing/reference_coders.h, the per-bit and per-byte versions the
// golden container pins were recorded with.
//
// Deflate inputs sit at the edges the wide paths touch: the 32 KiB
// window (chain mask), the 256 KiB block (window slide, matches clipped
// at the block end) and the buffer end (8-byte match extension).  Each
// input is its own exact-size heap allocation, so the sanitizer build
// flags any wide load past the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "common/bitstream.h"
#include "huffman/huffman.h"
#include "testing/reference_coders.h"
#include "zlite/zlite.h"

namespace szsec {
namespace {

namespace ref = testing::reference;

constexpr size_t kKiB = 1024;
const size_t kSizes[] = {0, 1, 2, 3, 4,
                         32 * kKiB - 1, 32 * kKiB, 32 * kKiB + 1,
                         256 * kKiB - 1, 256 * kKiB, 256 * kKiB + 1,
                         300 * kKiB};

Bytes random_bytes(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Bytes b(n);
  for (auto& x : b) x = static_cast<uint8_t>(rng());
  return b;
}

// Segments that repeat a random pattern, the period changing per
// segment, so matches span distance codes from 1 to the full window.
Bytes periodic_bytes(size_t n, uint64_t seed) {
  static constexpr size_t kPeriods[] = {1,    2,    3,    7,     64,
                                        255,  257,  1000, 4097,  20000,
                                        32767, 32768, 32769};
  std::mt19937_64 rng(seed);
  Bytes b;
  b.reserve(n);
  size_t seg = 0;
  while (b.size() < n) {
    const size_t period = kPeriods[seg++ % std::size(kPeriods)];
    Bytes pattern(period);
    for (auto& x : pattern) x = static_cast<uint8_t>(rng());
    const size_t len = std::min(n - b.size(), 3 * period + rng() % 40000);
    for (size_t i = 0; i < len; ++i) b.push_back(pattern[i % period]);
  }
  return b;
}

// Runs of one byte, from 1 to well past the 258-byte match limit.
Bytes long_run_bytes(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Bytes b(n);
  size_t i = 0;
  while (i < n) {
    const uint8_t v = static_cast<uint8_t>(rng() % 4);
    const size_t run = std::min(n - i, size_t{1} + rng() % 2000);
    std::fill_n(b.begin() + static_cast<std::ptrdiff_t>(i), run, v);
    i += run;
  }
  return b;
}

// What zlite sees in the codec: Huffman-packed quantization codes
// clustered around the central bin, with runs of the zero bin.
Bytes codeword_bytes(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> gauss(0.0, 3.0);
  constexpr uint32_t kRadius = 512;
  constexpr int64_t kSpread = 200;
  const auto draw = [&](bool zero_bin) {
    const auto d = zero_bin ? 0 : static_cast<int64_t>(std::lround(gauss(rng)));
    return static_cast<uint32_t>(kRadius +
                                 std::clamp<int64_t>(d, -kSpread, kSpread));
  };
  std::vector<uint64_t> freq(2 * kRadius, 0);
  for (uint32_t s = kRadius - kSpread; s <= kRadius + kSpread; ++s) freq[s] = 1;
  for (int i = 0; i < 65536; ++i) ++freq[draw(false)];
  const auto table = huffman::build_code_table(freq);
  BitWriter w;
  while (w.bit_count() < 8 * n) {
    const bool zero_bin = rng() % 8 == 0;
    for (int k = 0; k < 64; ++k) {
      const uint32_t s = draw(zero_bin);
      w.put_bits(table.codes[s], table.lengths[s]);
    }
  }
  Bytes b = w.finish();
  return Bytes(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(n));
}

using Generator = Bytes (*)(size_t, uint64_t);

// Every size is a prefix of one stream, copied to its own allocation.
void expect_deflate_identical(Generator gen, const char* kind) {
  const Bytes stream = gen(*std::max_element(std::begin(kSizes),
                                             std::end(kSizes)),
                           0xE17A0);
  for (const size_t n : kSizes) {
    const Bytes data(stream.begin(),
                     stream.begin() + static_cast<std::ptrdiff_t>(n));
    for (const zlite::Level level :
         {zlite::Level::kFast, zlite::Level::kDefault}) {
      SCOPED_TRACE(std::string(kind) + " size " + std::to_string(n) +
                   " level " + std::to_string(static_cast<int>(level)));
      const Bytes got = zlite::deflate(BytesView(data), level);
      const Bytes want = ref::deflate(BytesView(data), level);
      ASSERT_EQ(got, want);
      EXPECT_EQ(zlite::inflate(BytesView(got), n), data);
    }
  }
}

TEST(EntropyIdentity, DeflateRandom) {
  expect_deflate_identical(random_bytes, "random");
}

TEST(EntropyIdentity, DeflatePeriodic) {
  expect_deflate_identical(periodic_bytes, "periodic");
}

TEST(EntropyIdentity, DeflateLongRuns) {
  expect_deflate_identical(long_run_bytes, "long-run");
}

TEST(EntropyIdentity, DeflateHuffmanCodewords) {
  expect_deflate_identical(codeword_bytes, "codewords");
}

// Random bytes with a growing share copied from earlier in the input.
// Along the sweep the block type goes from stored to dynamic and then
// alternates between fixed and dynamic, so the histogram-based cost
// estimates decide real choices.
TEST(EntropyIdentity, DeflateBlockTypeCrossover) {
  std::mt19937_64 rng(0xC057);
  for (int share = 0; share < 64; ++share) {
    Bytes data(4096 + rng() % 4096);
    for (size_t i = 0; i < data.size();) {
      if (i > 300 && static_cast<int>(rng() % 64) < share) {
        const size_t from = i - 1 - rng() % 300;
        const size_t len = std::min(data.size() - i, size_t{3} + rng() % 40);
        for (size_t k = 0; k < len; ++k) data[i + k] = data[from + k];
        i += len;
      } else {
        data[i++] = static_cast<uint8_t>(rng());
      }
    }
    for (const zlite::Level level :
         {zlite::Level::kFast, zlite::Level::kDefault}) {
      ASSERT_EQ(zlite::deflate(BytesView(data), level),
                ref::deflate(BytesView(data), level))
          << "share " << share << " level " << static_cast<int>(level);
    }
  }
}

TEST(EntropyIdentity, DeflateStored) {
  for (const size_t n : kSizes) {
    const Bytes data = random_bytes(n, n);
    EXPECT_EQ(zlite::deflate(BytesView(data), zlite::Level::kStored),
              ref::deflate(BytesView(data), zlite::Level::kStored))
        << "size " << n;
  }
}

// Random alphabets with random frequency shapes, up to skews that drive
// codewords to the 32-bit length limit.
TEST(EntropyIdentity, HuffmanEncodeRandomAlphabets) {
  std::mt19937_64 rng(0x4AFF);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t alphabet = 1 + rng() % (trial % 4 == 0 ? 70000 : 300);
    std::vector<uint64_t> freq(alphabet, 0);
    const int shape = trial % 3;
    for (size_t s = 0; s < alphabet; ++s) {
      if (rng() % 3 == 0) continue;  // unused symbol
      if (shape == 0) {
        freq[s] = 1 + rng() % 1000;
      } else if (shape == 1) {  // geometric: long codes for the tail
        freq[s] = uint64_t{1} << std::min<size_t>(s % 48, 40);
      } else {
        freq[s] = 1 + (rng() % 2 == 0 ? rng() % 4 : rng() % 1000000);
      }
    }
    freq[rng() % alphabet] += 1;  // at least one used symbol
    const auto table = huffman::build_code_table(freq);
    std::vector<uint32_t> used;
    for (size_t s = 0; s < alphabet; ++s) {
      if (table.lengths[s] > 0) used.push_back(static_cast<uint32_t>(s));
    }
    std::vector<uint32_t> symbols(rng() % 20000);
    for (auto& s : symbols) s = used[rng() % used.size()];
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(huffman::encode(table, symbols),
              ref::huffman_encode(table, symbols));
  }
}

uint64_t with_junk(uint64_t value, unsigned nbits, std::mt19937_64& rng) {
  return nbits >= 64 ? value : value | (rng() << nbits);
}

uint64_t low_bits(uint64_t value, unsigned nbits) {
  return nbits >= 64 ? value : value & ((uint64_t{1} << nbits) - 1);
}

TEST(EntropyIdentity, MsbWriterPutsWithJunk) {
  std::mt19937_64 rng(0xB175);
  for (int trial = 0; trial < 200; ++trial) {
    BitWriter got;
    ref::BitWriter want;
    const int puts = static_cast<int>(rng() % 300);
    for (int i = 0; i < puts; ++i) {
      const unsigned nbits = static_cast<unsigned>(rng() % 65);
      const uint64_t v = with_junk(rng(), nbits, rng);
      if (nbits == 1 && rng() % 2 == 0) {
        got.put_bit(static_cast<unsigned>(v));
        want.put_bit(static_cast<unsigned>(v));
      } else {
        got.put_bits(v, nbits);
        want.put_bits(v, nbits);
      }
      ASSERT_EQ(got.bit_count(), want.bit_count());
    }
    ASSERT_EQ(got.finish(), want.finish()) << "trial " << trial;
  }
}

TEST(EntropyIdentity, LsbWriterPutsWithJunk) {
  std::mt19937_64 rng(0x15B);
  for (int trial = 0; trial < 200; ++trial) {
    LsbBitWriter got;
    ref::LsbBitWriter want;
    const int puts = static_cast<int>(rng() % 300);
    for (int i = 0; i < puts; ++i) {
      const unsigned op = static_cast<unsigned>(rng() % 40);
      if (op == 0) {
        got.align_to_byte();
        want.align_to_byte();
      } else if (op == 1) {
        got.align_to_byte();
        want.align_to_byte();
        const Bytes raw = random_bytes(rng() % 9, rng());
        got.put_bytes(BytesView(raw));
        want.put_bytes(BytesView(raw));
      } else {
        const unsigned nbits = static_cast<unsigned>(rng() % 65);
        const uint64_t clean = low_bits(rng(), nbits);
        got.put_bits(with_junk(clean, nbits, rng), nbits);
        // The reference takes at most 57 clean bits per put.
        if (nbits > 57) {
          want.put_bits(clean & 0xFFFFFFFFu, 32);
          want.put_bits(clean >> 32, nbits - 32);
        } else {
          want.put_bits(clean, nbits);
        }
      }
      ASSERT_EQ(got.bit_count(), want.bit_count());
    }
    ASSERT_EQ(got.finish(), want.finish()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace szsec
