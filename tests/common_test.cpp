// Unit tests for the common substrate: byte/bit streams, varints, CRC32,
// hex, entropy/statistics, and Dims.
#include <gtest/gtest.h>

#include <random>

#include "common/bitstream.h"
#include "common/bytestream.h"
#include "common/crc32.h"
#include "common/dims.h"
#include "common/hex.h"
#include "common/stats.h"
#include "common/timer.h"

namespace szsec {
namespace {

TEST(ByteStream, ScalarRoundTrip) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0x1234);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i32(-42);
  w.put_i64(-1);
  w.put_f32(3.25f);
  w.put_f64(-2.5);
  const Bytes buf = w.take();

  ByteReader r{BytesView(buf)};
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_i64(), -1);
  EXPECT_EQ(r.get_f32(), 3.25f);
  EXPECT_EQ(r.get_f64(), -2.5);
  EXPECT_TRUE(r.done());
}

TEST(ByteStream, TakeResetsWriter) {
  ByteWriter w;
  w.put_u8(1);
  EXPECT_EQ(w.take().size(), 1u);
  EXPECT_TRUE(w.empty());
}

class VarintTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintTest, RoundTrip) {
  ByteWriter w;
  w.put_varint(GetParam());
  const Bytes buf = w.take();
  ByteReader r{BytesView(buf)};
  EXPECT_EQ(r.get_varint(), GetParam());
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintTest,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 129ull, 16383ull, 16384ull,
                      (1ull << 32) - 1, 1ull << 32, (1ull << 63),
                      ~0ull));

TEST(ByteStream, VarintSizes) {
  auto size_of = [](uint64_t v) {
    ByteWriter w;
    w.put_varint(v);
    return w.size();
  };
  EXPECT_EQ(size_of(0), 1u);
  EXPECT_EQ(size_of(127), 1u);
  EXPECT_EQ(size_of(128), 2u);
  EXPECT_EQ(size_of(~0ull), 10u);
}

TEST(ByteStream, TruncationThrows) {
  ByteWriter w;
  w.put_u16(7);
  const Bytes buf = w.take();
  ByteReader r{BytesView(buf)};
  EXPECT_THROW(r.get_u32(), CorruptError);
}

TEST(ByteStream, TruncatedVarintThrows) {
  const Bytes buf = {0x80, 0x80};  // continuation bits with no terminator
  ByteReader r{BytesView(buf)};
  EXPECT_THROW(r.get_varint(), CorruptError);
}

TEST(ByteStream, OverlongVarintThrows) {
  const Bytes buf(11, 0x80);
  ByteReader r{BytesView(buf)};
  EXPECT_THROW(r.get_varint(), CorruptError);
}

// Pathological encodings whose 10th byte carries bits beyond 2^64-1 must
// be rejected, not silently truncated modulo 2^64 (a forged length could
// otherwise alias a small value).
TEST(ByteStream, VarintOverflowingU64Throws) {
  // 9 continuation bytes then 0x02: encodes 2^65.
  Bytes buf(9, 0x80);
  buf.push_back(0x02);
  {
    ByteReader r{BytesView(buf)};
    EXPECT_THROW(r.get_varint(), CorruptError);
  }
  // Every 10th-byte value other than 0x00/0x01 overflows.
  for (int last = 0x02; last <= 0x7F; last += 0x1D) {
    Bytes b(9, 0xFF);
    b.push_back(static_cast<uint8_t>(last));
    ByteReader r{BytesView(b)};
    EXPECT_THROW(r.get_varint(), CorruptError) << last;
  }
  // A continuation bit on the 10th byte can never terminate in range.
  Bytes cont(9, 0xFF);
  cont.push_back(0x81);
  ByteReader rc{BytesView(cont)};
  EXPECT_THROW(rc.get_varint(), CorruptError);
}

TEST(ByteStream, VarintMaxU64StillParses) {
  Bytes buf(9, 0xFF);
  buf.push_back(0x01);  // canonical encoding of 2^64-1
  ByteReader r{BytesView(buf)};
  EXPECT_EQ(r.get_varint(), ~0ull);
  EXPECT_TRUE(r.done());
}

TEST(ByteStream, BlobRoundTrip) {
  ByteWriter w;
  const Bytes payload = {1, 2, 3, 4, 5};
  w.put_blob(BytesView(payload));
  w.put_string("hello");
  const Bytes buf = w.take();
  ByteReader r{BytesView(buf)};
  const BytesView blob = r.get_blob();
  EXPECT_EQ(Bytes(blob.begin(), blob.end()), payload);
  EXPECT_EQ(r.get_string(), "hello");
}

TEST(ByteStream, BlobLengthBeyondBufferThrows) {
  ByteWriter w;
  w.put_varint(1000);  // claims 1000 bytes, provides none
  const Bytes buf = w.take();
  ByteReader r{BytesView(buf)};
  EXPECT_THROW(r.get_blob(), CorruptError);
}

TEST(BitStream, MsbFirstRoundTrip) {
  BitWriter w;
  w.put_bits(0b101, 3);
  w.put_bits(0xFFFF, 16);
  w.put_bits(0, 5);
  w.put_bit(1);
  const Bytes buf = w.finish();
  BitReader r{BytesView(buf)};
  EXPECT_EQ(r.get_bits(3), 0b101u);
  EXPECT_EQ(r.get_bits(16), 0xFFFFu);
  EXPECT_EQ(r.get_bits(5), 0u);
  EXPECT_EQ(r.get_bit(), 1u);
}

TEST(BitStream, MsbBitOrderWithinByte) {
  BitWriter w;
  w.put_bit(1);  // must land in the MSB of byte 0
  const Bytes buf = w.finish();
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 0x80);
}

TEST(BitStream, ExhaustionThrows) {
  BitWriter w;
  w.put_bits(0xF, 4);
  const Bytes buf = w.finish();
  BitReader r{BytesView(buf)};
  r.get_bits(8);  // padded to one byte
  EXPECT_THROW(r.get_bit(), CorruptError);
}

TEST(BitStream, LsbFirstRoundTrip) {
  LsbBitWriter w;
  w.put_bits(0b101, 3);
  w.put_bits(0x5A5A, 16);
  w.put_bits(1, 1);
  const Bytes buf = w.finish();
  LsbBitReader r{BytesView(buf)};
  EXPECT_EQ(r.get_bits(3), 0b101u);
  EXPECT_EQ(r.get_bits(16), 0x5A5Au);
  EXPECT_EQ(r.get_bit(), 1u);
}

TEST(BitStream, LsbBitOrderWithinByte) {
  LsbBitWriter w;
  w.put_bits(1, 1);  // must land in the LSB of byte 0
  const Bytes buf = w.finish();
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 0x01);
}

TEST(BitStream, LsbAlignAndBytes) {
  LsbBitWriter w;
  w.put_bits(0b11, 2);
  w.align_to_byte();
  const Bytes raw = {0xDE, 0xAD};
  w.put_bytes(BytesView(raw));
  const Bytes buf = w.finish();
  LsbBitReader r{BytesView(buf)};
  EXPECT_EQ(r.get_bits(2), 0b11u);
  r.align_to_byte();
  const BytesView got = r.get_bytes(2);
  EXPECT_EQ(got[0], 0xDE);
  EXPECT_EQ(got[1], 0xAD);
}

TEST(BitStream, RandomizedMsbLsbRoundTrip) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::pair<uint64_t, unsigned>> items;
    BitWriter mw;
    LsbBitWriter lw;
    for (int i = 0; i < 200; ++i) {
      const unsigned nbits = 1 + rng() % 32;
      const uint64_t v = rng() & ((nbits == 64) ? ~0ull
                                                : ((1ull << nbits) - 1));
      items.push_back({v, nbits});
      mw.put_bits(v, nbits);
      lw.put_bits(v, nbits);
    }
    const Bytes mb = mw.finish();
    const Bytes lb = lw.finish();
    BitReader mr{BytesView(mb)};
    LsbBitReader lr{BytesView(lb)};
    for (const auto& [v, nbits] : items) {
      EXPECT_EQ(mr.get_bits(nbits), v);
      EXPECT_EQ(lr.get_bits(nbits), v);
    }
  }
}

TEST(Crc32, KnownAnswer) {
  const std::string s = "123456789";
  const Bytes b(s.begin(), s.end());
  EXPECT_EQ(crc32(BytesView(b)), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(BytesView{}), 0u); }

TEST(Crc32, SeedContinuation) {
  const std::string s = "123456789";
  const Bytes b(s.begin(), s.end());
  const uint32_t part = crc32(BytesView(b).subspan(0, 4));
  EXPECT_EQ(crc32(BytesView(b).subspan(4), part), crc32(BytesView(b)));
}

TEST(Hex, RoundTrip) {
  const Bytes b = {0x00, 0xFF, 0x12, 0xAB};
  EXPECT_EQ(to_hex(BytesView(b)), "00ff12ab");
  EXPECT_EQ(from_hex("00ff12ab"), b);
  EXPECT_EQ(from_hex("00FF12AB"), b);
}

TEST(Hex, InvalidInputThrows) {
  EXPECT_THROW(from_hex("abc"), Error);   // odd length
  EXPECT_THROW(from_hex("zz"), Error);    // non-hex
}

TEST(Entropy, ConstantIsZero) {
  const Bytes b(1024, 0x55);
  EXPECT_DOUBLE_EQ(shannon_entropy(BytesView(b)), 0.0);
}

TEST(Entropy, UniformIsEight) {
  Bytes b(256 * 64);
  for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<uint8_t>(i);
  EXPECT_NEAR(shannon_entropy(BytesView(b)), 8.0, 1e-12);
}

TEST(Entropy, TwoSymbolIsOne) {
  Bytes b(1000);
  for (size_t i = 0; i < b.size(); ++i) b[i] = i % 2 ? 0xAA : 0x55;
  EXPECT_NEAR(shannon_entropy(BytesView(b)), 1.0, 1e-12);
}

TEST(Stats, ErrorStats) {
  const std::vector<float> a = {0.f, 1.f, 2.f, 3.f};
  const std::vector<float> b = {0.5f, 1.f, 2.f, 3.f};
  const ErrorStats e = compute_error_stats(std::span<const float>(a),
                                           std::span<const float>(b));
  EXPECT_FLOAT_EQ(e.max_abs_err, 0.5f);
  EXPECT_FLOAT_EQ(e.mean_abs_err, 0.125f);
  EXPECT_NEAR(e.rmse, 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(e.value_range, 3.0);
}

TEST(Stats, WithinBound) {
  const std::vector<float> a = {0.f, 1.f};
  const std::vector<float> b = {0.001f, 0.999f};
  EXPECT_TRUE(within_abs_bound(std::span<const float>(a),
                               std::span<const float>(b), 0.0011));
  EXPECT_FALSE(within_abs_bound(std::span<const float>(a),
                                std::span<const float>(b), 0.0005));
}

TEST(Stats, Summary) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(std::span<const double>(xs));
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(Dims, BasicProperties) {
  const Dims d{4, 5, 6};
  EXPECT_EQ(d.rank(), 3u);
  EXPECT_EQ(d.count(), 120u);
  EXPECT_EQ(d[0], 4u);
  EXPECT_EQ(d[2], 6u);
  const auto s = d.strides();
  EXPECT_EQ(s[0], 30u);
  EXPECT_EQ(s[1], 6u);
  EXPECT_EQ(s[2], 1u);
  EXPECT_EQ(d.to_string(), "4x5x6");
}

TEST(Dims, Equality) {
  EXPECT_EQ(Dims({2, 3}), Dims({2, 3}));
  EXPECT_FALSE(Dims({2, 3}) == Dims({3, 2}));
  EXPECT_FALSE(Dims({2, 3}) == Dims({2, 3, 1}));
}

TEST(Dims, InvalidConstruction) {
  EXPECT_THROW(Dims({0}), Error);
  EXPECT_THROW(Dims({1, 2, 3, 4, 5}), Error);
  EXPECT_THROW(Dims({2, 3})[5], Error);
}

TEST(Timers, WallAndCpuAdvance) {
  WallTimer w;
  CpuTimer c;
  // Burn a little CPU.
  volatile double acc = 0;
  for (int i = 0; i < 2000000; ++i) acc += i * 0.5;
  EXPECT_GT(w.elapsed_s(), 0.0);
  EXPECT_GT(c.elapsed_s(), 0.0);
  EXPECT_GT(w.elapsed_ms(), 0.0);
  w.reset();
  c.reset();
  EXPECT_LT(w.elapsed_s(), 1.0);
}

TEST(StageTimes, AccumulatesAndTotals) {
  PipelineMetrics st;
  st.add("a", 1.0);
  st.add("a", 0.5);
  st.add("b", 2.0);
  EXPECT_DOUBLE_EQ(st.get("a"), 1.5);
  EXPECT_DOUBLE_EQ(st.get("b"), 2.0);
  EXPECT_DOUBLE_EQ(st.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(st.total(), 3.5);
  EXPECT_EQ(st.all().size(), 2u);
  st.clear();
  EXPECT_DOUBLE_EQ(st.total(), 0.0);
}

TEST(StageTimes, ScopedTimerRecords) {
  PipelineMetrics st;
  {
    ScopedStageTimer t(&st, "scope");
    volatile int x = 0;
    for (int i = 0; i < 100000; ++i) x += i;
  }
  EXPECT_GT(st.get("scope"), 0.0);
  // Null sink is a no-op, not a crash.
  ScopedStageTimer null_timer(nullptr, "ignored");
}

}  // namespace
}  // namespace szsec
