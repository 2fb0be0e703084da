// Identity differential tests for the entropy coders and CRC-32 against
// the frozen references in src/testing/reference_coders.h, the per-bit
// and per-byte versions the golden container pins were recorded with.
//
// Encoders: the word-at-a-time bit writers, Huffman packer and zlite
// deflate must emit exactly the reference bytes.  Deflate inputs sit at
// the edges the wide paths touch: the 32 KiB window (chain mask), the
// 256 KiB block (window slide, matches clipped at the block end) and the
// buffer end (8-byte match extension).  Each input is its own exact-size
// heap allocation, so the sanitizer build flags any wide load past the
// end.
//
// Decoders: the 64-bit bit readers and the table-driven zlite inflater
// must return the reference's bytes on every input, and on a bad one
// throw the same exception type with the same message from the same call.
// Their inputs are zlite and zlib streams, every truncation of small
// streams, seeded bit flips, forged headers, and output caps at and
// around the true size.
//
// Huffman tables: the sparse builder must give the heap builder's code
// lengths, codewords, table blob and encoded bytes over random, skewed,
// degenerate, wide and Fibonacci-weighted alphabets (the last force
// frequency-halving rounds).  The sparse parser plus decoder must give
// the dense parser plus decoder's symbols or error on truncated,
// bit-flipped and forged tables, except where the library's used-symbol
// bound fires, which the reference lacks.  Codes whose longest codewords
// are 11, 12, 18, 19 and 32 bits, complete or with holes at the root and
// inside a second-level table, run the decoder's two-level tables over
// every truncation, seeded bit flips and counts around its guards.
//
// SZ stages 1+2: sz::predict_quantize, which visits Lorenzo blocks plane
// by plane and rounds inline, must give the scan-order oracle's codes,
// unpredictable bytes and count, and side info at every forced dispatch
// level: f32 and f64, ranks 1-4, extents that are not multiples of the
// block, block sides 2, 6, 7 and 8, four quantization bins, bounds near
// the denormal range, fields with NaN, +-inf, -0.0, denormals and
// spikes, the interpolation predictor and REL mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#if SZSEC_HAVE_ZLIB
#include <zlib.h>
#endif

#include "common/bitstream.h"
#include "common/cpu.h"
#include "common/crc32.h"
#include "common/error.h"
#include "huffman/huffman.h"
#include "sz/pipeline.h"
#include "testing/code_shapes.h"
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
  const auto table = ref::huffman_build_table(freq);
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

// ---------------------------------------------------------------------
// Huffman table set-up: the sparse library against the dense reference.

// The library's table spread over the reference's dense arrays.
ref::HuffmanTable dense_table(const huffman::CodeTable& t) {
  ref::HuffmanTable d;
  d.lengths.assign(t.alphabet_size(), 0);
  d.codes.assign(t.alphabet_size(), 0);
  for (size_t i = 0; i < t.used_symbols(); ++i) {
    d.lengths[t.symbols[i]] = t.lengths[i];
    d.codes[t.symbols[i]] = t.codes[i];
  }
  return d;
}

// Both builders on `freq`: equal lengths, codewords and table blob, equal
// encodings of a stream of the used symbols, and the library's parser
// gives its table back.
void expect_tables_identical(const std::vector<uint64_t>& freq,
                             uint64_t seed) {
  const huffman::CodeTable got = huffman::build_code_table(freq);
  const ref::HuffmanTable want = ref::huffman_build_table(freq);
  const ref::HuffmanTable spread = dense_table(got);
  ASSERT_EQ(spread.lengths, want.lengths);
  ASSERT_EQ(spread.codes, want.codes);
  const Bytes blob = huffman::serialize_table(got);
  ASSERT_EQ(blob, ref::huffman_serialize_table(want));

  const huffman::CodeTable parsed =
      huffman::deserialize_table(BytesView(blob), got.used_symbols());
  EXPECT_EQ(parsed.alphabet, got.alphabet);
  EXPECT_EQ(parsed.symbols, got.symbols);
  EXPECT_EQ(parsed.lengths, got.lengths);
  EXPECT_EQ(parsed.codes, got.codes);

  if (got.used_symbols() == 0) return;
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> symbols(got.used_symbols() + rng() % 5000);
  // Every used symbol at least once, so the stream uses the symbols
  // `freq` uses.
  for (size_t i = 0; i < symbols.size(); ++i) {
    symbols[i] = i < got.used_symbols()
                     ? got.symbols[i]
                     : got.symbols[rng() % got.used_symbols()];
  }
  std::shuffle(symbols.begin(), symbols.end(), rng);
  const Bytes encoded = huffman::encode(got, symbols);
  ASSERT_EQ(encoded, ref::huffman_encode(want, symbols));
  EXPECT_EQ((huffman::encoded_bits(got, symbols) + 7) / 8, encoded.size());

  // The stream's sparse histogram builds the table its dense counts build.
  std::vector<uint64_t> counts(size_t{got.symbols.back()} + 1, 0);
  for (const uint32_t s : symbols) ++counts[s];
  const huffman::CodeTable from_stream =
      huffman::build_code_table(huffman::count_symbols(symbols));
  const ref::HuffmanTable from_counts = ref::huffman_build_table(counts);
  EXPECT_EQ(dense_table(from_stream).lengths, from_counts.lengths);
}

// Weights F(1), F(2), ... on `n` symbols spread `stride` apart: the
// unrestricted tree is n - 1 deep, so past 33 symbols the build halves.
std::vector<uint64_t> fibonacci_freq(size_t n, size_t stride) {
  std::vector<uint64_t> freq(n * stride, 0);
  uint64_t a = 1, b = 1;
  for (size_t i = 0; i < n; ++i) {
    freq[i * stride] = a;
    const uint64_t next = a + b;
    a = b;
    b = next;
  }
  return freq;
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
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_tables_identical(freq, rng());
  }
}

// Quantization-code shapes: a tight or wide spread around the central bin
// of 65,536, plus the unpredictable bin 0, and a few hot symbols over a
// flat tail.
TEST(EntropyIdentity, HuffmanTablesSkewed) {
  std::mt19937_64 rng(0x5CE7);
  for (const double sigma : {0.3, 2.0, 40.0, 900.0}) {
    std::normal_distribution<double> gauss(0.0, sigma);
    std::vector<uint64_t> freq(65536, 0);
    for (int i = 0; i < 262144; ++i) {
      const auto d = static_cast<int64_t>(std::lround(gauss(rng)));
      const int64_t bin = 32768 + std::clamp<int64_t>(d, -32767, 32767);
      ++freq[static_cast<size_t>(bin)];
    }
    freq[0] += 1 + rng() % 100;
    SCOPED_TRACE("sigma " + std::to_string(sigma));
    expect_tables_identical(freq, rng());
  }
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint64_t> freq(1 + rng() % 5000, 1);
    for (int hot = 0; hot < 1 + trial % 4; ++hot) {
      freq[rng() % freq.size()] = uint64_t{1} << (10 + rng() % 40);
    }
    SCOPED_TRACE("hot trial " + std::to_string(trial));
    expect_tables_identical(freq, rng());
  }
}

// No, one and two used symbols, alone and inside wider alphabets.
TEST(EntropyIdentity, HuffmanTablesDegenerate) {
  const std::vector<std::vector<uint64_t>> cases = {
      {},
      {0},
      std::vector<uint64_t>(16, 0),
      {7},
      {0, 0, 0, 1},
      {5, 0, 0, 0},
      {1, 1},
      {1, 1000000},
      {0, 3, 0, 0, 0, 0, 0, 9},
      {uint64_t{1} << 62, 1},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    expect_tables_identical(cases[i], i);
  }
  for (const size_t alphabet : {size_t{65536}, size_t{1} << 20}) {
    for (const size_t used : {1, 2}) {
      std::vector<uint64_t> freq(alphabet, 0);
      freq[alphabet / 2] = 10;
      if (used == 2) freq[alphabet - 1] = 3;
      SCOPED_TRACE("alphabet " + std::to_string(alphabet) + " used " +
                   std::to_string(used));
      expect_tables_identical(freq, alphabet + used);
    }
  }
}

// The whole 65,536-bin alphabet in use, and 2^20-symbol alphabets with
// scattered and clustered used symbols.
TEST(EntropyIdentity, HuffmanTablesWide) {
  std::mt19937_64 rng(0x1DE);
  {
    std::vector<uint64_t> freq(65536);
    for (auto& f : freq) f = 1 + rng() % 50;
    expect_tables_identical(freq, rng());
  }
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<uint64_t> freq(size_t{1} << 20, 0);
    for (int i = 0; i < 20000; ++i) {
      const size_t at = trial == 0 ? rng() % freq.size()
                                   : (freq.size() / 2) + rng() % 6000;
      freq[at] += 1 + rng() % (trial == 2 ? 1000000 : 100);
    }
    SCOPED_TRACE("2^20 trial " + std::to_string(trial));
    expect_tables_identical(freq, rng());
  }
}

// Fibonacci weights past the 32-bit limit force halving rounds, alone and
// mixed with random weights on the other symbols.
TEST(EntropyIdentity, HuffmanTablesFibonacci) {
  std::mt19937_64 rng(0xF1B);
  for (const size_t n : {2, 20, 33, 34, 35, 50, 70, 90}) {
    for (const size_t stride : {1, 3}) {
      SCOPED_TRACE("n " + std::to_string(n) + " stride " +
                   std::to_string(stride));
      expect_tables_identical(fibonacci_freq(n, stride), rng());
      std::vector<uint64_t> mixed = fibonacci_freq(n, stride);
      for (auto& f : mixed) {
        if (f == 0 && rng() % 2 == 0) f = 1 + rng() % 5;
      }
      expect_tables_identical(mixed, rng());
    }
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

// ---------------------------------------------------------------------
// Decoders: equal bytes, or an equal exception type and message.

// What a decode produced: its bytes, or its exception's type and what().
struct Outcome {
  Bytes bytes;
  std::string error;

  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  if (!o.error.empty()) return os << "threw " << o.error;
  return os << o.bytes.size() << " bytes";
}

template <typename Fn>
Outcome outcome_of(Fn&& decode) {
  try {
    return {decode(), ""};
  } catch (const std::exception& e) {
    return {{}, std::string(typeid(e).name()) + ": " + e.what()};
  }
}

// Inflates `stream` with both decoders under the same size hint and cap.
void expect_inflate_identical(BytesView stream, size_t size_hint,
                              size_t max_size) {
  const Outcome got = outcome_of(
      [&] { return zlite::inflate(stream, size_hint, max_size); });
  const Outcome want = outcome_of(
      [&] { return ref::inflate(stream, size_hint, max_size); });
  ASSERT_EQ(got, want) << "stream of " << stream.size() << " bytes, hint "
                       << size_hint << ", cap " << max_size;
}

// A stream of `n` original bytes under no cap and under caps at, just
// below and well below the true size (the cap check is ordered against
// the other checks), with and without a size hint.
void expect_inflate_identical_capped(BytesView stream, size_t n) {
  expect_inflate_identical(stream, 0, 0);
  expect_inflate_identical(stream, n, 0);
  expect_inflate_identical(stream, 0, n);
  if (n > 0) expect_inflate_identical(stream, n, n - 1);
  if (n > 1) expect_inflate_identical(stream, 0, n / 2);
}

// Decoding a zlite stream of each generator, size and level, stored
// blocks included.
TEST(EntropyIdentity, InflateZliteStreams) {
  const Generator generators[] = {random_bytes, periodic_bytes,
                                  long_run_bytes, codeword_bytes};
  for (const Generator gen : generators) {
    const Bytes stream = gen(*std::max_element(std::begin(kSizes),
                                               std::end(kSizes)),
                             0x1F1A7E);
    for (const size_t n : kSizes) {
      const BytesView data(stream.data(), n);
      for (const zlite::Level level :
           {zlite::Level::kStored, zlite::Level::kFast,
            zlite::Level::kDefault}) {
        SCOPED_TRACE("size " + std::to_string(n) + " level " +
                     std::to_string(static_cast<int>(level)));
        const Bytes packed = zlite::deflate(data, level);
        expect_inflate_identical_capped(BytesView(packed), n);
        EXPECT_EQ(zlite::inflate(BytesView(packed), 0, n),
                  Bytes(data.begin(), data.end()));
      }
    }
  }
}

#if SZSEC_HAVE_ZLIB
// Raw DEFLATE from zlib at `level` with `strategy`.
Bytes zlib_deflate(BytesView data, int level, int strategy) {
  z_stream zs{};
  EXPECT_EQ(deflateInit2(&zs, level, Z_DEFLATED, /*windowBits=*/-15, 8,
                         strategy),
            Z_OK);
  Bytes out(deflateBound(&zs, static_cast<uLong>(data.size())));
  zs.next_in = const_cast<Bytef*>(data.data());
  zs.avail_in = static_cast<uInt>(data.size());
  zs.next_out = out.data();
  zs.avail_out = static_cast<uInt>(out.size());
  EXPECT_EQ(deflate(&zs, Z_FINISH), Z_STREAM_END);
  out.resize(zs.total_out);
  deflateEnd(&zs);
  return out;
}

// zlib's blocks differ from zlite's: other block sizes, code shapes and
// match choices, and fixed-code, Huffman-only and run-length streams.
TEST(EntropyIdentity, InflateZlibStreams) {
  const Generator generators[] = {random_bytes, periodic_bytes,
                                  long_run_bytes, codeword_bytes};
  for (const Generator gen : generators) {
    const Bytes data = gen(200 * kKiB + 17, 0x21B);
    for (int level = 1; level <= 9; ++level) {
      SCOPED_TRACE("level " + std::to_string(level));
      const Bytes packed =
          zlib_deflate(BytesView(data), level, Z_DEFAULT_STRATEGY);
      expect_inflate_identical_capped(BytesView(packed), data.size());
      EXPECT_EQ(zlite::inflate(BytesView(packed)), data);
    }
    for (const int strategy : {Z_FIXED, Z_HUFFMAN_ONLY, Z_RLE, Z_FILTERED}) {
      SCOPED_TRACE("strategy " + std::to_string(strategy));
      const Bytes packed = zlib_deflate(BytesView(data), 6, strategy);
      expect_inflate_identical_capped(BytesView(packed), data.size());
      EXPECT_EQ(zlite::inflate(BytesView(packed)), data);
    }
  }
}
#endif

// Small streams of every block type, for the damage sweeps.
std::vector<std::pair<Bytes, size_t>> small_streams() {
  std::vector<std::pair<Bytes, size_t>> streams;
  std::mt19937_64 rng(0x5A11);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{40}, size_t{700},
                         size_t{3000}}) {
    Bytes data(n);
    for (size_t i = 0; i < n; ++i) {
      // Text-like with repeats, so both codes and matches appear.
      data[i] = i > 8 && rng() % 3 == 0 ? data[i - 1 - rng() % 8]
                                        : static_cast<uint8_t>('a' + rng() % 6);
    }
    for (const zlite::Level level :
         {zlite::Level::kStored, zlite::Level::kFast,
          zlite::Level::kDefault}) {
      streams.emplace_back(zlite::deflate(BytesView(data), level), n);
    }
  }
  // A fixed-code block: short random text costs less without a header.
  const Bytes fixed = [&] {
    Bytes d(60);
    for (auto& x : d) x = static_cast<uint8_t>('a' + rng() % 20);
    return d;
  }();
  streams.emplace_back(zlite::deflate(BytesView(fixed)), fixed.size());
  return streams;
}

// Every prefix of each small stream: the inflaters must run out of input
// at the same call, or finish identically where a prefix is complete.
TEST(EntropyIdentity, InflateEveryTruncation) {
  for (const auto& [stream, n] : small_streams()) {
    for (size_t cut = 0; cut <= stream.size(); ++cut) {
      // Its own allocation, so a read past the cut trips the sanitizer.
      const Bytes prefix(stream.begin(),
                         stream.begin() + static_cast<std::ptrdiff_t>(cut));
      SCOPED_TRACE("cut " + std::to_string(cut) + " of " +
                   std::to_string(stream.size()));
      expect_inflate_identical(BytesView(prefix), 0, 0);
      expect_inflate_identical(BytesView(prefix), 0, n);
    }
  }
}

// Every cap from 0 past the true size, on streams whose matches run up to
// the 258-byte limit: the cap must trip at the same symbol whether the
// fast loop or the checked path is running when it is reached.
TEST(EntropyIdentity, InflateEveryCap) {
  for (const Generator gen : {long_run_bytes, periodic_bytes}) {
    const Bytes data = gen(5000, 0xCA9);
    for (const zlite::Level level :
         {zlite::Level::kFast, zlite::Level::kDefault}) {
      const Bytes packed = zlite::deflate(BytesView(data), level);
      for (size_t cap = 1; cap <= data.size() + 1; ++cap) {
        SCOPED_TRACE("cap " + std::to_string(cap));
        expect_inflate_identical(BytesView(packed), 0, cap);
      }
    }
  }
}

// Seeded single- and multi-bit flips in each small stream: bad codes,
// bad lengths and distances, over-subscribed tables and reserved block
// types must fail alike, and flips that still decode must agree.
TEST(EntropyIdentity, InflateSeededBitFlips) {
  std::mt19937_64 rng(0xF11B5);
  for (const auto& [stream, n] : small_streams()) {
    if (stream.empty()) continue;
    for (int trial = 0; trial < 400; ++trial) {
      Bytes damaged = stream;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        // Half the flips land in the first bytes, where the headers are.
        const size_t at = rng() % 2 == 0 ? rng() % std::min<size_t>(
                                                        damaged.size(), 48)
                                         : rng() % damaged.size();
        damaged[at] ^= static_cast<uint8_t>(1u << (rng() % 8));
      }
      SCOPED_TRACE("trial " + std::to_string(trial));
      expect_inflate_identical(BytesView(damaged), 0, 0);
      expect_inflate_identical(BytesView(damaged), 0, n + 16);
    }
  }
}

// Random bytes under each block type: forged dynamic headers (bad code
// counts, repeat with no previous, length overruns, incomplete and
// over-subscribed codes) and random fixed-code and stored data.
TEST(EntropyIdentity, InflateForgedStreams) {
  std::mt19937_64 rng(0xF0A6ED);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes forged = random_bytes(1 + rng() % 300, rng());
    // Bits 1-2 of the first byte are the block type.
    const unsigned btype = trial % 4;
    forged[0] = static_cast<uint8_t>((forged[0] & ~6u) | (btype << 1));
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_inflate_identical(BytesView(forged), 0, 0);
    expect_inflate_identical(BytesView(forged), 0, 1 + rng() % 4096);
  }
}

// Huffman parse plus decode: the sparse parser and the probe-table or
// walking decoder against the dense parser and per-bit walk.

Bytes symbol_bytes(const std::vector<uint32_t>& symbols) {
  Bytes b(symbols.size() * sizeof(uint32_t));
  if (!b.empty()) std::memcpy(b.data(), symbols.data(), b.size());
  return b;
}

// How many inputs the reference judged, and how many the library's
// used-symbol bound rejected first.
struct ParseTally {
  size_t compared = 0;
  size_t bounded = 0;
};

// Parses `blob` and decodes `count` symbols from `bits` with both: the
// same symbols, or the same exception type and message.  Where the
// library's used-symbol bound fired, the reference must have more used
// symbols than `count`, or fail on a later run.
void expect_parse_decode_identical(BytesView blob, BytesView bits,
                                   size_t count, ParseTally& tally) {
  const Outcome got = outcome_of([&] {
    return symbol_bytes(huffman::decode(
        huffman::deserialize_table(blob, count), bits, count));
  });
  if (got.error.find("more symbols than the stream holds") !=
      std::string::npos) {
    ++tally.bounded;
    try {
      const ref::HuffmanTable t = ref::huffman_deserialize_table(blob);
      EXPECT_GT(static_cast<size_t>(std::count_if(
                    t.lengths.begin(), t.lengths.end(),
                    [](uint8_t l) { return l != 0; })),
                count);
    } catch (const CorruptError&) {
    }
    return;
  }
  ++tally.compared;
  const Outcome want = outcome_of([&] {
    return symbol_bytes(ref::huffman_decode(
        ref::huffman_deserialize_table(blob), bits, count));
  });
  ASSERT_EQ(got, want) << "table of " << blob.size() << " bytes, stream of "
                       << bits.size() << " bytes, count " << count;
}

// A table blob from (length, run) pairs, as the writer lays it out.
Bytes table_blob(uint64_t alphabet,
                 const std::vector<std::pair<unsigned, uint64_t>>& runs) {
  ByteWriter w;
  w.put_varint(alphabet);
  for (const auto& [length, run] : runs) {
    w.put_u8(static_cast<uint8_t>(length));
    w.put_varint(run);
  }
  return w.take();
}

struct HuffmanCase {
  Bytes blob;
  Bytes bits;
  std::vector<uint32_t> symbols;
};

// Small tables with their streams: 7 symbols, one, two, 20 sparse ones in
// 65,536, Fibonacci-weighted lengths up to 32, and a quantization-like
// stream long enough for the probe-table decoder.
std::vector<HuffmanCase> huffman_cases() {
  std::mt19937_64 rng(0x7AB1E);
  std::vector<std::vector<uint32_t>> streams(6);
  for (uint32_t i = 0; i < 96; ++i) streams[0].push_back((i * i + i / 3) % 7);
  streams[1].assign(40, 5);
  for (int i = 0; i < 50; ++i) streams[2].push_back(rng() % 4 == 0 ? 3 : 8);
  for (int i = 0; i < 300; ++i) {
    streams[3].push_back(32768 + 3 * static_cast<uint32_t>(rng() % 20));
  }
  for (uint32_t s = 0; s < 40; ++s) streams[4].insert(streams[4].end(), 3, s);
  std::normal_distribution<double> gauss(0.0, 6.0);
  for (size_t i = 0; i < huffman::kProbeDecodeMinSymbols + 900; ++i) {
    streams[5].push_back(
        32768 + static_cast<uint32_t>(std::lround(gauss(rng)) + 100));
  }
  std::vector<HuffmanCase> cases;
  for (size_t k = 0; k < streams.size(); ++k) {
    std::vector<uint32_t>& symbols = streams[k];
    std::shuffle(symbols.begin(), symbols.end(), rng);
    const huffman::CodeTable t =
        k == 4 ? huffman::build_code_table(fibonacci_freq(40, 1))
               : huffman::build_code_table(huffman::count_symbols(symbols));
    cases.push_back(
        {huffman::serialize_table(t), huffman::encode(t, symbols), symbols});
  }
  return cases;
}

// Every prefix of each table, and every prefix of each stream (every
// seventh of the long one), under the true count and one more.
TEST(EntropyIdentity, HuffmanParseEveryTruncation) {
  ParseTally tally;
  for (const HuffmanCase& c : huffman_cases()) {
    const size_t n = c.symbols.size();
    for (size_t cut = 0; cut <= c.blob.size(); ++cut) {
      // Its own allocation, so a read past the cut trips the sanitizer.
      const Bytes prefix(c.blob.begin(),
                         c.blob.begin() + static_cast<std::ptrdiff_t>(cut));
      SCOPED_TRACE("table cut " + std::to_string(cut));
      expect_parse_decode_identical(BytesView(prefix), BytesView(c.bits), n,
                                    tally);
    }
    const size_t step = c.bits.size() > 512 ? 7 : 1;
    for (size_t cut = 0; cut <= c.bits.size(); ++cut) {
      if (cut % step != 0 && cut + 16 < c.bits.size()) continue;
      const Bytes prefix(c.bits.begin(),
                         c.bits.begin() + static_cast<std::ptrdiff_t>(cut));
      SCOPED_TRACE("stream cut " + std::to_string(cut));
      expect_parse_decode_identical(BytesView(c.blob), BytesView(prefix), n,
                                    tally);
      expect_parse_decode_identical(BytesView(c.blob), BytesView(prefix),
                                    n + 1, tally);
    }
  }
  EXPECT_GT(tally.compared, 1000u);
}

// Seeded one- to three-bit flips, mostly in the table: changed lengths,
// runs and alphabets, and flipped codewords.
TEST(EntropyIdentity, HuffmanParseSeededBitFlips) {
  std::mt19937_64 rng(0xB17F1);
  ParseTally tally;
  for (const HuffmanCase& c : huffman_cases()) {
    for (int trial = 0; trial < 400; ++trial) {
      Bytes blob = c.blob;
      Bytes bits = c.bits;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        Bytes& target = rng() % 4 != 0 || bits.empty() ? blob : bits;
        const size_t at = rng() % target.size();
        target[at] ^= static_cast<uint8_t>(1u << (rng() % 8));
      }
      const size_t count = rng() % 4 == 0 ? rng() % (c.symbols.size() + 2)
                                          : c.symbols.size();
      SCOPED_TRACE("trial " + std::to_string(trial));
      expect_parse_decode_identical(BytesView(blob), BytesView(bits), count,
                                    tally);
    }
  }
  EXPECT_GT(tally.compared, 1000u);
  EXPECT_GT(tally.bounded, 0u);
}

// Hand-forged tables for each parser rule, then random (length, run)
// sequences over small alphabets: over-long lengths, Kraft violations,
// incomplete codes, zero and overlong runs, trailing bytes and oversized
// alphabets.
TEST(EntropyIdentity, HuffmanParseForgedTables) {
  const uint64_t kMax = huffman::kMaxAlphabet;
  const uint64_t kWrap = ~uint64_t{0};
  std::vector<Bytes> forged = {
      {},
      table_blob(0, {}),
      table_blob(4, {{33, 1}, {1, 1}, {2, 2}}),
      table_blob(4, {{1, 1}, {255, 3}}),
      table_blob(2, {{40, 2}}),
      table_blob(3, {{1, 3}}),
      table_blob(5, {{2, 5}}),
      table_blob(3, {{2, 3}}),
      table_blob(70, {{0, 3}, {7, 64}, {0, 3}}),
      table_blob(4, {{1, 0}}),
      table_blob(4, {{0, 0}}),
      table_blob(4, {{1, 5}}),
      table_blob(4, {{1, 2}, {2, 3}}),
      table_blob(10, {{1, 1}, {1, kWrap}}),
      table_blob(10, {{0, 1}, {0, kWrap}}),
      table_blob(kMax + 1, {{0, kMax + 1}}),
      table_blob(uint64_t{1} << 40, {{0, 1}}),
      table_blob(kWrap, {}),
      table_blob(1 << 20, {{0, (1 << 20) - 2}, {1, 2}}),
  };
  Bytes trailing = table_blob(2, {{1, 2}});
  trailing.push_back(0);
  forged.push_back(trailing);
  Bytes varint_only = table_blob(300, {});
  varint_only.push_back(0x80);
  forged.push_back(varint_only);

  std::mt19937_64 rng(0xF0A6E);
  ParseTally tally;
  const Bytes ones(64, 0xFF);
  for (size_t i = 0; i < forged.size(); ++i) {
    for (const size_t count : {0, 1, 2, 5, 64}) {
      const Bytes bits = random_bytes(8 + count / 4, rng());
      SCOPED_TRACE("forged " + std::to_string(i) + " count " +
                   std::to_string(count));
      expect_parse_decode_identical(BytesView(forged[i]), BytesView(bits),
                                    count, tally);
      expect_parse_decode_identical(BytesView(forged[i]), BytesView(ones),
                                    count, tally);
    }
  }

  for (int trial = 0; trial < 3000; ++trial) {
    const uint64_t alphabet = rng() % (trial % 3 == 0 ? 4 : 300);
    // Now and then the runs cover one symbol past the alphabet.
    const uint64_t cover = alphabet + (rng() % 8 == 0 ? 1 : 0);
    std::vector<std::pair<unsigned, uint64_t>> runs;
    for (uint64_t pos = 0; pos < cover;) {
      const unsigned pick = static_cast<unsigned>(rng() % 10);
      const unsigned length = pick < 3   ? 0
                              : pick < 9 ? 1 + static_cast<unsigned>(rng() % 12)
                                         : static_cast<unsigned>(rng() % 40);
      const uint64_t left = alphabet > pos ? alphabet - pos : 1;
      const uint64_t run = rng() % 16 == 0
                               ? rng() % 3
                               : 1 + rng() % std::min<uint64_t>(left, 40);
      runs.emplace_back(length, run);
      pos += run == 0 ? 1 : run;
    }
    Bytes blob = table_blob(alphabet, runs);
    if (rng() % 8 == 0) blob.push_back(static_cast<uint8_t>(rng()));
    if (rng() % 8 == 0 && !blob.empty()) blob.resize(rng() % blob.size());
    const bool long_stream = trial % 50 == 0;
    const size_t count = long_stream
                             ? huffman::kProbeDecodeMinSymbols + rng() % 500
                             : rng() % 80;
    const Bytes bits =
        random_bytes(long_stream ? 6000 : rng() % 64, rng());
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_parse_decode_identical(BytesView(blob), BytesView(bits), count,
                                  tally);
  }
  EXPECT_GT(tally.compared, 1000u);
  EXPECT_GT(tally.bounded, 0u);
}

// Huffman second level: codewords past the root window, through the
// two-level tables, the walk, and the holes of incomplete codes.

// A table of each code shape (src/testing/code_shapes.h), its used
// symbols spread over an alphabet twice as wide, with a stream of `count`
// symbols over it: half drawn from every used symbol, so long codewords
// are frequent, half from the codewords within the root window.
std::vector<HuffmanCase> second_level_cases(size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<HuffmanCase> cases;
  for (const testing::CodeShape& shape : testing::second_level_shapes()) {
    const std::vector<uint8_t> lengths = testing::shape_lengths(shape, rng);
    std::vector<uint8_t> dense(2 * lengths.size(), 0);
    for (size_t i = 0; i < lengths.size(); ++i) {
      dense[2 * i + rng() % 2] = lengths[i];
    }
    const huffman::CodeTable t = huffman::CodeTable::from_lengths(dense);
    std::vector<uint32_t> in_root;
    for (size_t i = 0; i < t.used_symbols(); ++i) {
      if (t.lengths[i] <= huffman::kDecodeTableBits) {
        in_root.push_back(t.symbols[i]);
      }
    }
    std::vector<uint32_t> symbols(count);
    for (auto& s : symbols) {
      s = rng() % 2 == 0 ? t.symbols[rng() % t.used_symbols()]
                         : in_root[rng() % in_root.size()];
    }
    cases.push_back(
        {huffman::serialize_table(t), huffman::encode(t, symbols), symbols});
  }
  return cases;
}

// Counts at and around kProbeDecodeMinSymbols, where decode() starts to
// take the tables, and around the fast loop's exit, which leaves the last
// eight or fewer symbols of a stream of `n` to the walk.
std::vector<size_t> guard_counts(size_t n) {
  const size_t min = huffman::kProbeDecodeMinSymbols;
  return {min - 1, min, min + 1, min + 8, min + 9, min + 10,
          n - 10,  n - 9, n - 8, n - 1, n,       n + 1};
}

// Every prefix of each table, and every prefix of each stream (every
// seventh but in the last 80 bytes, where the fast loop hands over to the
// walk), under the true count and one more, just past the threshold.
TEST(EntropyIdentity, HuffmanSecondLevelEveryTruncation) {
  ParseTally tally;
  for (const HuffmanCase& c :
       second_level_cases(huffman::kProbeDecodeMinSymbols + 9, 0x2E7)) {
    const size_t n = c.symbols.size();
    for (size_t cut = 0; cut <= c.blob.size(); ++cut) {
      const Bytes prefix(c.blob.begin(),
                         c.blob.begin() + static_cast<std::ptrdiff_t>(cut));
      SCOPED_TRACE("table cut " + std::to_string(cut));
      expect_parse_decode_identical(BytesView(prefix), BytesView(c.bits), n,
                                    tally);
    }
    for (size_t cut = 0; cut <= c.bits.size(); ++cut) {
      if (cut % 7 != 0 && cut + 80 < c.bits.size()) continue;
      const Bytes prefix(c.bits.begin(),
                         c.bits.begin() + static_cast<std::ptrdiff_t>(cut));
      SCOPED_TRACE("stream cut " + std::to_string(cut));
      expect_parse_decode_identical(BytesView(c.blob), BytesView(prefix), n,
                                    tally);
      expect_parse_decode_identical(BytesView(c.blob), BytesView(prefix),
                                    n + 1, tally);
    }
  }
  EXPECT_GT(tally.compared, 3000u);
}

// Seeded one- to three-bit flips, mostly in the stream (a flipped
// codeword shifts every later one, onto other codewords, into holes and
// past the end) and sometimes in the table, under counts around the
// guards.
TEST(EntropyIdentity, HuffmanSecondLevelSeededBitFlips) {
  std::mt19937_64 rng(0x5EC0F);
  ParseTally tally;
  for (const HuffmanCase& c :
       second_level_cases(huffman::kProbeDecodeMinSymbols + 100, 0x5EC)) {
    const std::vector<size_t> counts = guard_counts(c.symbols.size());
    for (int trial = 0; trial < 200; ++trial) {
      Bytes blob = c.blob;
      Bytes bits = c.bits;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        Bytes& target = rng() % 4 == 0 ? blob : bits;
        target[rng() % target.size()] ^= static_cast<uint8_t>(1u << (rng() % 8));
      }
      const size_t count = counts[rng() % counts.size()];
      SCOPED_TRACE("trial " + std::to_string(trial));
      expect_parse_decode_identical(BytesView(blob), BytesView(bits), count,
                                    tally);
    }
  }
  EXPECT_GT(tally.compared, 2000u);
}

// Each table over its own stream, random bytes and all-one bytes (which
// run into the hole at the end of an incomplete code), under every guard
// count: the same symbols, or the same error from the same call.
TEST(EntropyIdentity, HuffmanSecondLevelGuardCounts) {
  std::mt19937_64 rng(0x6A2D);
  ParseTally tally;
  for (const HuffmanCase& c : second_level_cases(3000, 0x6A2)) {
    const Bytes noise = random_bytes(c.bits.size(), rng());
    const Bytes ones(c.bits.size(), 0xFF);
    for (const size_t count : guard_counts(c.symbols.size())) {
      SCOPED_TRACE("count " + std::to_string(count));
      for (const Bytes* bits : {&c.bits, &noise, &ones}) {
        expect_parse_decode_identical(BytesView(c.blob), BytesView(*bits),
                                      count, tally);
      }
    }
  }
  EXPECT_EQ(tally.bounded, 0u);
}

// Random get sequences of 0 to 64 bits that run past the end: each get
// returns the same value or throws the same error, and the position
// after it matches, also after the first failure.
TEST(EntropyIdentity, MsbReaderRandomGets) {
  std::mt19937_64 rng(0x3D6E75);
  for (int trial = 0; trial < 2000; ++trial) {
    const Bytes buf = random_bytes(rng() % 40, rng());
    BitReader got{BytesView(buf)};
    ref::BitReader want{BytesView(buf)};
    for (int i = 0; i < 40; ++i) {
      const unsigned nbits = static_cast<unsigned>(rng() % 65);
      const bool one = nbits == 1 && rng() % 2 == 0;
      const auto get = [&](auto& r) {
        return outcome_of([&] {
          const uint64_t v = one ? r.get_bit() : r.get_bits(nbits);
          Bytes b(8);
          for (int k = 0; k < 8; ++k) b[k] = static_cast<uint8_t>(v >> (8 * k));
          return b;
        });
      };
      ASSERT_EQ(get(got), get(want)) << "trial " << trial << " get " << i
                                     << " of " << nbits << " bits";
      ASSERT_EQ(got.bit_pos(), want.bit_pos());
      ASSERT_EQ(got.bits_remaining(), want.bits_remaining());
    }
  }
}

TEST(EntropyIdentity, LsbReaderRandomGets) {
  std::mt19937_64 rng(0x15BE75);
  for (int trial = 0; trial < 2000; ++trial) {
    const Bytes buf = random_bytes(rng() % 40, rng());
    LsbBitReader got{BytesView(buf)};
    ref::LsbBitReader want{BytesView(buf)};
    for (int i = 0; i < 40; ++i) {
      const unsigned op = static_cast<unsigned>(rng() % 12);
      const unsigned nbits = static_cast<unsigned>(rng() % 65);
      const size_t nbytes = rng() % 12;
      // Mostly gets; some aligned byte runs, as stored blocks read them.
      const auto step = [&](auto& r) {
        return outcome_of([&] {
          if (op == 0) {
            r.align_to_byte();
            const BytesView v = r.get_bytes(nbytes);
            return Bytes(v.begin(), v.end());
          }
          const uint64_t v = op == 1 ? r.get_bit() : r.get_bits(nbits);
          Bytes b(8);
          for (int k = 0; k < 8; ++k) b[k] = static_cast<uint8_t>(v >> (8 * k));
          return b;
        });
      };
      ASSERT_EQ(step(got), step(want)) << "trial " << trial << " step " << i
                                       << " op " << op;
      ASSERT_EQ(got.bits_remaining(), want.bits_remaining());
    }
  }
}

// Every length up to 1 KiB at every offset from an 8-byte boundary, each
// continuing from the previous CRC.
TEST(EntropyIdentity, Crc32SlicedMatchesBytewise) {
  const Bytes buf = random_bytes(1024 + 8, 0xC4C);
  uint32_t got_seed = 0, want_seed = 0;
  for (size_t len = 0; len <= 1024; ++len) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const BytesView data(buf.data() + offset, len);
      const uint32_t got = crc32(data, got_seed);
      const uint32_t want = ref::crc32(data, want_seed);
      ASSERT_EQ(got, want) << "length " << len << " offset " << offset;
      ASSERT_EQ(crc32(data), ref::crc32(data));
      got_seed = got;
      want_seed = want;
    }
  }
}

// Smooth waves plus noise, so blocks pick all three predictors, with
// special values sprinkled in so unpredictable points fall inside
// Lorenzo blocks: NaN, +-inf, -0.0, denormals of T and spikes.
template <typename T>
std::vector<T> sz_field(size_t n, size_t nx, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> noise(-1e-3, 1e-3);
  std::vector<T> f(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i % nx), r = static_cast<double>(i / nx);
    double v = std::sin(0.13 * x + 0.07 * r) + 0.002 * r;
    if ((i / 97) % 3 == 1) v = 0.5 + 1e-4 * x;  // ramps and flats
    f[i] = static_cast<T>(v + noise(rng));
  }
  const T specials[] = {std::numeric_limits<T>::quiet_NaN(),
                        std::numeric_limits<T>::infinity(),
                        -std::numeric_limits<T>::infinity(),
                        T(-0.0),
                        std::numeric_limits<T>::denorm_min(),
                        -std::numeric_limits<T>::denorm_min() * T(37),
                        std::numeric_limits<T>::min() / T(3),
                        T(1e6),
                        T(-3e4),
                        std::numeric_limits<T>::max()};
  for (size_t k = 0; k < n / 23 + 1; ++k) {
    f[rng() % n] = specials[rng() % std::size(specials)];
  }
  return f;
}

struct SzCase {
  const char* name;
  sz::Params params;
};

std::vector<SzCase> sz_cases() {
  std::vector<SzCase> cases;
  const auto add = [&](const char* name, auto&& tweak) {
    sz::Params p;
    p.abs_error_bound = 1e-3;
    tweak(p);
    cases.push_back({name, p});
  };
  add("abs", [](sz::Params&) {});
  add("four-bins", [](sz::Params& p) { p.quant_bins = 4; });
  add("tight", [](sz::Params& p) { p.abs_error_bound = 1e-9; });
  add("f32-denormal-bound", [](sz::Params& p) { p.abs_error_bound = 1e-40; });
  add("f64-denormal-bound", [](sz::Params& p) { p.abs_error_bound = 1e-310; });
  add("lorenzo-only", [](sz::Params& p) {
    p.use_regression = false;
    p.use_mean_predictor = false;
  });
  add("rel", [](sz::Params& p) {
    p.eb_mode = sz::ErrorBoundMode::kRel;
    p.rel_error_bound = 1e-4;
  });
  add("interpolation", [](sz::Params& p) {
    p.predictor = sz::Predictor::kInterpolation;
  });
  add("interpolation-four-bins", [](sz::Params& p) {
    p.predictor = sz::Predictor::kInterpolation;
    p.quant_bins = 4;
  });
  return cases;
}

// An Error's message without the file:line the requirement macros put
// first, which differs between the library and the oracle.
std::string without_location(const Error& e) {
  const std::string what = e.what();
  const size_t at = what.find("requirement failed");
  return at == std::string::npos ? what : what.substr(at);
}

template <typename T>
void expect_predict_quantize_identical() {
  // Extents off every block side; rank 4 runs several 3-D volumes
  // through one reconstruction buffer.
  const std::vector<Dims> shapes = {
      Dims{1000},        Dims{37},           Dims{37, 29},
      Dims{13, 50},      Dims{9, 14, 11},    Dims{5, 17, 23},
      Dims{3, 7, 10, 9}, Dims{2, 5, 13, 6}};
  const uint32_t levels[] = {0, cpu::kSse2, cpu::kSse2 | cpu::kAvx2,
                             cpu::detected_features()};
  // Restores the enabled features if a case throws.
  struct Restore {
    uint32_t saved = cpu::enabled_features();
    ~Restore() { cpu::override_features_for_testing(saved); }
  } restore;
  uint64_t seed = 0x5A1;
  for (const Dims& dims : shapes) {
    // The field as drawn, and a copy with its infinities replaced by
    // spikes, so that REL mode gets a finite value range as well.
    const std::vector<T> drawn =
        sz_field<T>(dims.count(), dims[dims.rank() - 1], ++seed);
    std::vector<T> finite = drawn;
    for (T& v : finite) {
      if (std::isinf(v)) v = std::signbit(v) ? T(-2e3) : T(5e3);
    }
    for (const std::vector<T>* field : {&drawn, &std::as_const(finite)}) {
      const std::span<const T> in(*field);
      for (const uint32_t side : {2u, 6u, 7u, 8u}) {
        for (SzCase c : sz_cases()) {
          c.params.block_side = side;
          // Where the oracle rejects the parameters (a REL bound over a
          // range with an infinity), the library must throw the same.
          sz::QuantizedField want;
          std::string want_error;
          try {
            want = ref::predict_quantize(in, dims, c.params);
          } catch (const Error& e) {
            want_error = without_location(e);
          }
          for (const uint32_t level : levels) {
            if ((level & cpu::detected_features()) != level) continue;
            cpu::override_features_for_testing(level);
            SCOPED_TRACE(std::string(c.name) + " rank " +
                         std::to_string(dims.rank()) + " n " +
                         std::to_string(dims.count()) + " side " +
                         std::to_string(side) + " level " +
                         std::to_string(level) +
                         (field == &drawn ? " drawn" : " finite"));
            sz::QuantizedField got;
            std::string got_error;
            try {
              got = sz::predict_quantize(in, dims, c.params);
            } catch (const Error& e) {
              got_error = without_location(e);
            }
            cpu::override_features_for_testing(restore.saved);
            ASSERT_EQ(got_error, want_error);
            ASSERT_EQ(got.codes, want.codes);
            ASSERT_EQ(got.unpredictable_count, want.unpredictable_count);
            ASSERT_EQ(got.unpredictable, want.unpredictable);
            ASSERT_EQ(got.side_info, want.side_info);
            ASSERT_EQ(got.params.abs_error_bound,
                      want.params.abs_error_bound);
          }
        }
      }
    }
  }
}

TEST(EntropyIdentity, PredictQuantizeMatchesScanOrderF32) {
  expect_predict_quantize_identical<float>();
}

TEST(EntropyIdentity, PredictQuantizeMatchesScanOrderF64) {
  expect_predict_quantize_identical<double>();
}

}  // namespace
}  // namespace szsec
