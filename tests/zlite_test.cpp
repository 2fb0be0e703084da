// zlite (DEFLATE-style codec) tests: round trips across data regimes and
// sizes, compression-effectiveness sanity, the random-data behaviour that
// drives the paper's Encr-Quant results, kAuto's level choice on real
// stage-4 payloads, and corrupt-stream handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <span>

#include "common/error.h"
#include "core/secure_compressor.h"
#include "crypto/drbg.h"
#include "zlite/zlite.h"

namespace szsec::zlite {
namespace {

void expect_round_trip(const Bytes& data, Level level = Level::kDefault) {
  const Bytes compressed = deflate(BytesView(data), level);
  const Bytes restored = inflate(BytesView(compressed), data.size());
  ASSERT_EQ(restored.size(), data.size());
  EXPECT_EQ(restored, data);
}

TEST(Zlite, EmptyInput) { expect_round_trip({}); }

TEST(Zlite, SingleByte) { expect_round_trip({0x42}); }

TEST(Zlite, ShortLiteralRun) {
  expect_round_trip({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
}

TEST(Zlite, AllLevels) {
  Bytes data(10000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i % 251);
  }
  expect_round_trip(data, Level::kStored);
  expect_round_trip(data, Level::kFast);
  expect_round_trip(data, Level::kDefault);
}

TEST(Zlite, HighlyRepetitiveCompressesHard) {
  const Bytes data(100000, 0x55);
  const Bytes compressed = deflate(BytesView(data));
  EXPECT_LT(compressed.size(), data.size() / 100);
  expect_round_trip(data);
}

TEST(Zlite, PeriodicPatternUsesMatches) {
  Bytes data;
  const std::string phrase = "the quick brown fox jumps over the lazy dog. ";
  while (data.size() < 50000) {
    data.insert(data.end(), phrase.begin(), phrase.end());
  }
  const Bytes compressed = deflate(BytesView(data));
  EXPECT_LT(compressed.size(), data.size() / 10);
  expect_round_trip(data);
}

TEST(Zlite, RandomDataDoesNotExplode) {
  // Encrypted/random input must cost at most a few bytes per 64 KiB —
  // this is the property Encr-Quant leans on (its ciphertext passes
  // through this codec).
  crypto::CtrDrbg drbg(2024);
  const Bytes data = drbg.generate(256 * 1024);
  const Bytes compressed = deflate(BytesView(data));
  EXPECT_LT(compressed.size(), data.size() + data.size() / 1000 + 64);
  expect_round_trip(data);
}

TEST(Zlite, MatchAcrossChunkBoundary) {
  // A repeat that spans the encoder's 256 KiB chunking must still decode.
  Bytes data(300 * 1024);
  std::mt19937_64 rng(7);
  for (size_t i = 0; i < 1024; ++i) data[i] = static_cast<uint8_t>(rng());
  for (size_t i = 1024; i < data.size(); ++i) data[i] = data[i - 1024];
  const Bytes compressed = deflate(BytesView(data));
  EXPECT_LT(compressed.size(), data.size() / 20);
  expect_round_trip(data);
}

TEST(Zlite, OverlappingMatchDistanceOne) {
  // dist=1, len>1 overlap copies are the classic inflate edge case.
  Bytes data = {'a'};
  data.insert(data.end(), 500, 'a');
  expect_round_trip(data);
}

TEST(Zlite, LongMatchesCapAt258) {
  Bytes data(5000, 'x');
  data[0] = 'y';
  expect_round_trip(data);
}

class ZliteSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ZliteSizeTest, MixedContentRoundTrip) {
  std::mt19937_64 rng(GetParam());
  Bytes data(GetParam());
  // Mixture: runs, text-like bytes, and noise.
  size_t i = 0;
  while (i < data.size()) {
    const int kind = rng() % 3;
    const size_t run = 1 + rng() % 100;
    for (size_t j = 0; j < run && i < data.size(); ++j, ++i) {
      switch (kind) {
        case 0:
          data[i] = 0;
          break;
        case 1:
          data[i] = static_cast<uint8_t>('a' + rng() % 26);
          break;
        default:
          data[i] = static_cast<uint8_t>(rng());
      }
    }
  }
  expect_round_trip(data, Level::kFast);
  expect_round_trip(data, Level::kDefault);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZliteSizeTest,
                         ::testing::Values(1, 2, 100, 4095, 65535, 65536,
                                           65537, 262144, 1000000));

TEST(Zlite, StoredLevelIsByteExactOverhead) {
  const Bytes data(65535, 0xAA);
  const Bytes compressed = deflate(BytesView(data), Level::kStored);
  // One stored block: 1 byte header + 4 bytes LEN/NLEN.
  EXPECT_EQ(compressed.size(), data.size() + 5);
}

TEST(Zlite, TruncatedStreamThrows) {
  Bytes data(10000);
  std::mt19937_64 rng(3);
  for (auto& b : data) b = static_cast<uint8_t>(rng() % 7);
  const Bytes compressed = deflate(BytesView(data));
  for (size_t cut : {size_t{0}, size_t{1}, compressed.size() / 2,
                     compressed.size() - 1}) {
    EXPECT_THROW(inflate(BytesView(compressed).subspan(0, cut)), Error)
        << "cut=" << cut;
  }
}

TEST(Zlite, CorruptBlockTypeThrows) {
  Bytes stream = {0x07};  // BFINAL=1, BTYPE=11 (reserved)
  EXPECT_THROW(inflate(BytesView(stream)), CorruptError);
}

TEST(Zlite, StoredLenMismatchThrows) {
  // BFINAL=1 BTYPE=00, then LEN != ~NLEN.
  Bytes stream = {0x01, 0x05, 0x00, 0x00, 0x00};
  EXPECT_THROW(inflate(BytesView(stream)), CorruptError);
}

TEST(Zlite, BitflipEitherFailsOrChangesOutput) {
  // Flipping any bit of a compressed stream must never produce the
  // original data "successfully" — it throws or yields different bytes.
  Bytes data(5000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i * 7) % 100);
  }
  const Bytes compressed = deflate(BytesView(data));
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 32; ++trial) {
    Bytes tampered = compressed;
    tampered[rng() % tampered.size()] ^=
        static_cast<uint8_t>(1u << (rng() % 8));
    try {
      const Bytes out = inflate(BytesView(tampered));
      EXPECT_NE(out, data) << "bit flip decoded to the original data";
    } catch (const Error&) {
      SUCCEED();
    }
  }
}

TEST(Zlite, MatchAtExactWindowDistance) {
  // A repeat exactly 32 KiB back sits on the window boundary.
  Bytes data;
  std::mt19937_64 rng(31);
  for (int i = 0; i < 512; ++i) data.push_back(static_cast<uint8_t>(rng()));
  data.resize(32 * 1024, 0x7E);
  for (int i = 0; i < 512; ++i) data.push_back(data[i]);  // dist = 32768
  expect_round_trip(data);
}

TEST(Zlite, RepeatJustBeyondWindowStillRoundTrips) {
  // The matcher cannot reference past 32 KiB; output is larger but must
  // stay correct.
  Bytes data;
  std::mt19937_64 rng(37);
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<uint8_t>(rng()));
  data.resize(33 * 1024, 0x00);
  for (int i = 0; i < 256; ++i) data.push_back(data[i]);
  expect_round_trip(data);
}

TEST(Zlite, MaxDistanceCodesDecodable) {
  // Hand-built stream exercise: all 30 distance codes via synthetic data
  // with matches at geometrically growing distances.
  Bytes data;
  std::mt19937_64 rng(41);
  const Bytes phrase = [&] {
    Bytes p(64);
    for (auto& b : p) b = static_cast<uint8_t>(rng());
    return p;
  }();
  for (size_t gap : {1u, 5u, 33u, 257u, 1025u, 4097u, 16385u, 24577u}) {
    data.insert(data.end(), phrase.begin(), phrase.end());
    for (size_t i = 0; i < gap; ++i) {
      data.push_back(static_cast<uint8_t>(rng()));
    }
    data.insert(data.end(), phrase.begin(), phrase.end());
  }
  expect_round_trip(data);
}

TEST(Zlite, DeflateIsDeterministic) {
  Bytes data(50000);
  std::mt19937_64 rng(17);
  for (auto& b : data) b = static_cast<uint8_t>(rng() % 31);
  EXPECT_EQ(deflate(BytesView(data)), deflate(BytesView(data)));
}

// Decompression-bomb guard: a stream expanding past max_size must throw
// before allocating the full output, for every block type.
TEST(Zlite, InflateMaxSizeCapsOutput) {
  Bytes data(100000, 0x41);  // hugely compressible -> match-heavy stream
  for (size_t i = 0; i < data.size(); i += 997) {
    data[i] = static_cast<uint8_t>(i);
  }
  for (Level level : {Level::kStored, Level::kFast, Level::kDefault}) {
    const Bytes packed = deflate(BytesView(data), level);
    EXPECT_EQ(inflate(BytesView(packed), 0, data.size()), data);
    EXPECT_EQ(inflate(BytesView(packed), 0, data.size() + 1), data);
    EXPECT_THROW(inflate(BytesView(packed), 0, data.size() - 1),
                 CorruptError);
    EXPECT_THROW(inflate(BytesView(packed), 0, 1), CorruptError);
  }
  // max_size = 0 stays unlimited.
  const Bytes packed = deflate(BytesView(data));
  EXPECT_EQ(inflate(BytesView(packed)), data);
}

// What the codec's stage 4 deflates for `field`: the body of a kStored
// container, inflated.
Bytes stage4_payload(const std::vector<float>& field, const Dims& dims,
                     double eb, core::Scheme scheme) {
  sz::Params params;
  params.abs_error_bound = eb;
  params.lossless_level = Level::kStored;
  const Bytes key(16, 0x5A);
  crypto::CtrDrbg drbg(7);
  const core::SecureCompressor c(params, scheme, BytesView(key),
                                 crypto::Mode::kCbc, &drbg);
  const Bytes container =
      c.compress(std::span<const float>(field), dims).container;
  const core::Header h = core::peek_header(BytesView(container));
  return inflate(BytesView(container)
                     .subspan(core::write_header(h).size(), h.payload_size));
}

const Dims kFieldDims{8, 64, 64};

// Hard-like: white noise, whose prediction errors spread over thousands
// of bins, so the Huffman codewords pack to near-random bytes.
std::vector<float> hard_field() {
  std::mt19937_64 rng(0x4A3D);
  std::normal_distribution<float> gauss(0.0f, 1.0f);
  std::vector<float> f(kFieldDims.count());
  for (auto& v : f) v = gauss(rng);
  return f;
}

// Easy-like: a smooth bump in a field of zeros, mostly the zero bin.
std::vector<float> easy_field() {
  std::vector<float> f(kFieldDims.count());
  for (size_t i = 0; i < f.size(); ++i) {
    const double z = static_cast<double>(i / 4096) - 4;
    const double y = static_cast<double>(i / 64 % 64) - 32;
    const double x = static_cast<double>(i % 64) - 32;
    f[i] = static_cast<float>(std::max(0.0, 1 - (x * x + y * y + z * z) / 400));
  }
  return f;
}

// The golden containers' f32 field (tests/golden_container_test.cpp).
std::vector<float> golden_field() {
  const Dims dims{12, 16, 20};
  std::mt19937_64 rng(17);
  std::vector<float> f(dims.count());
  float walk = 10.0f;
  for (auto& v : f) {
    walk += static_cast<float>((rng() % 2001) - 1000) * 1e-4f;
    v = walk;
  }
  return f;
}

TEST(ZliteAuto, StoresFlatHistograms) {
  crypto::CtrDrbg drbg(2024);
  const Bytes random = drbg.generate(256 * 1024);
  EXPECT_EQ(resolve_level(BytesView(random), Level::kAuto), Level::kStored);
  // Hard-like codewords, in the clear and encrypted (Encr-Quant).
  for (const core::Scheme scheme :
       {core::Scheme::kNone, core::Scheme::kEncrQuant}) {
    const Bytes p = stage4_payload(hard_field(), kFieldDims, 1e-3, scheme);
    EXPECT_EQ(resolve_level(BytesView(p), Level::kAuto), Level::kStored)
        << core::scheme_name(scheme);
  }
}

TEST(ZliteAuto, KeepsDefaultOnSkewedHistograms) {
  for (const core::Scheme scheme :
       {core::Scheme::kNone, core::Scheme::kEncrHuffman}) {
    const Bytes p = stage4_payload(easy_field(), kFieldDims, 1e-3, scheme);
    EXPECT_EQ(resolve_level(BytesView(p), Level::kAuto), Level::kDefault)
        << core::scheme_name(scheme);
  }
  for (const core::Scheme scheme :
       {core::Scheme::kNone, core::Scheme::kEncrQuant,
        core::Scheme::kEncrHuffman}) {
    const Bytes p =
        stage4_payload(golden_field(), Dims{12, 16, 20}, 1e-4, scheme);
    EXPECT_EQ(resolve_level(BytesView(p), Level::kAuto), Level::kDefault)
        << core::scheme_name(scheme);
  }
}

// Each 256 KiB block deflate emits gets its own code, and so does each
// block of the estimate: a random block then one of 7-bit bytes saves
// about 6% (under 3% by one histogram of the whole input).
TEST(ZliteAuto, EstimatesEachBlockWithItsOwnCode) {
  std::mt19937_64 rng(5);
  Bytes data(512 * 1024);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i < data.size() / 2 ? rng() : rng() % 128);
  }
  EXPECT_EQ(resolve_level(BytesView(data), Level::kAuto), Level::kDefault);
  EXPECT_LT(deflate(BytesView(data), Level::kDefault).size(),
            data.size() * 97 / 100);
}

TEST(ZliteAuto, OtherLevelsPassThrough) {
  const Bytes p = stage4_payload(hard_field(), kFieldDims, 1e-3,
                                 core::Scheme::kNone);
  for (const Level level : {Level::kStored, Level::kFast, Level::kDefault}) {
    EXPECT_EQ(resolve_level(BytesView(p), level), level);
  }
}

TEST(ZliteAuto, DeflatesAtTheResolvedLevel) {
  crypto::CtrDrbg drbg(99);
  const std::vector<Bytes> inputs = {
      {},
      {0x42},
      drbg.generate(70000),
      Bytes(70000, 0x55),
      stage4_payload(hard_field(), kFieldDims, 1e-3, core::Scheme::kNone),
      stage4_payload(easy_field(), kFieldDims, 1e-3, core::Scheme::kNone)};
  for (const Bytes& data : inputs) {
    SCOPED_TRACE(data.size());
    const Level resolved = resolve_level(BytesView(data), Level::kAuto);
    EXPECT_NE(resolved, Level::kAuto);
    EXPECT_EQ(deflate(BytesView(data), Level::kAuto),
              deflate(BytesView(data), resolved));
    expect_round_trip(data, Level::kAuto);
  }
}

TEST(Zlite, LazyBeatsOrMatchesGreedyOnText) {
  Bytes data;
  const std::string phrase =
      "compression and encryption are natural companions; ";
  std::mt19937_64 rng(23);
  while (data.size() < 200000) {
    data.insert(data.end(), phrase.begin(), phrase.end());
    data.push_back(static_cast<uint8_t>(rng()));  // break exact periodicity
  }
  const size_t lazy = deflate(BytesView(data), Level::kDefault).size();
  const size_t greedy = deflate(BytesView(data), Level::kFast).size();
  EXPECT_LE(lazy, greedy + greedy / 100);
}

}  // namespace
}  // namespace szsec::zlite
