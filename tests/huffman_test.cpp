// Huffman coder tests: canonical-code construction, round trips over
// skewed/uniform/degenerate alphabets, table serialization (the blob
// Encr-Huffman encrypts), and robustness against corrupt tables/streams.
#include <gtest/gtest.h>

#include <random>

#include "common/error.h"
#include "huffman/huffman.h"

namespace szsec::huffman {
namespace {

std::vector<uint64_t> histogram(std::span<const uint32_t> symbols,
                                size_t alphabet) {
  std::vector<uint64_t> freq(alphabet, 0);
  for (uint32_t s : symbols) ++freq[s];
  return freq;
}

void expect_round_trip(std::span<const uint32_t> symbols, size_t alphabet) {
  const CodeTable table = build_code_table(histogram(symbols, alphabet));
  const Bytes bits = encode(table, symbols);
  const std::vector<uint32_t> decoded =
      decode(table, BytesView(bits), symbols.size());
  ASSERT_EQ(decoded.size(), symbols.size());
  for (size_t i = 0; i < symbols.size(); ++i) {
    ASSERT_EQ(decoded[i], symbols[i]) << "at index " << i;
  }
}

TEST(Huffman, TwoSymbolRoundTrip) {
  const std::vector<uint32_t> syms = {0, 1, 0, 0, 1, 0, 1, 1, 1, 0};
  expect_round_trip(syms, 2);
}

TEST(Huffman, SingleSymbolGetsOneBitCode) {
  const std::vector<uint32_t> syms(100, 7);
  const CodeTable t = build_code_table(histogram(syms, 8));
  EXPECT_EQ(t.symbols, std::vector<uint32_t>{7});
  EXPECT_EQ(t.lengths, std::vector<uint8_t>{1});
  EXPECT_EQ(t.used_symbols(), 1u);
  expect_round_trip(syms, 8);
}

TEST(Huffman, EmptyInput) {
  const std::vector<uint64_t> freq(16, 0);
  const CodeTable t = build_code_table(freq);
  EXPECT_EQ(t.used_symbols(), 0u);
  const Bytes bits = encode(t, {});
  EXPECT_TRUE(bits.empty());
  EXPECT_TRUE(decode(t, BytesView(bits), 0).empty());
}

TEST(Huffman, SkewedDistributionUsesShortCodesForFrequentSymbols) {
  // Symbol 0 appears 1000x, symbol 1 once: code(0) must be shorter.
  std::vector<uint32_t> syms(1000, 0);
  syms.push_back(1);
  const CodeTable t = build_code_table(histogram(syms, 2));
  EXPECT_LE(t.lengths[0], t.lengths[1]);
  expect_round_trip(syms, 2);
}

TEST(Huffman, OptimalityMatchesEntropyWithinOneBit) {
  // Huffman average code length is within 1 bit of the entropy.
  std::mt19937_64 rng(1);
  std::vector<uint32_t> syms(20000);
  // Geometric-ish distribution over 64 symbols.
  for (auto& s : syms) {
    uint32_t v = 0;
    while (v < 63 && (rng() & 1)) ++v;
    s = v;
  }
  const auto freq = histogram(syms, 64);
  const CodeTable t = build_code_table(freq);
  double entropy = 0;
  const double n = static_cast<double>(syms.size());
  for (uint64_t f : freq) {
    if (f == 0) continue;
    const double p = static_cast<double>(f) / n;
    entropy -= p * std::log2(p);
  }
  const double avg_len =
      static_cast<double>(encoded_bits(t, syms)) / n;
  EXPECT_GE(avg_len + 1e-9, entropy);
  EXPECT_LE(avg_len, entropy + 1.0);
}

class HuffmanRandomTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(HuffmanRandomTest, RoundTrip) {
  const auto [alphabet, count] = GetParam();
  std::mt19937_64 rng(alphabet * 1000003 + count);
  // Zipf-ish skew: squared uniform concentrates on small symbols.
  std::vector<uint32_t> syms(count);
  for (auto& s : syms) {
    const double u = static_cast<double>(rng() % 100000) / 100000.0;
    s = static_cast<uint32_t>(u * u * static_cast<double>(alphabet));
    if (s >= alphabet) s = static_cast<uint32_t>(alphabet) - 1;
  }
  expect_round_trip(syms, alphabet);
}

INSTANTIATE_TEST_SUITE_P(
    AlphabetsAndSizes, HuffmanRandomTest,
    ::testing::Combine(::testing::Values(2, 17, 256, 65536),
                       ::testing::Values(1, 100, 50000)));

TEST(Huffman, LengthLimitRespectedOnPathologicalInput) {
  // Fibonacci-like frequencies drive unrestricted Huffman depth ~ n.
  std::vector<uint64_t> freq(64);
  uint64_t a = 1, b = 1;
  for (auto& f : freq) {
    f = a;
    const uint64_t next = a + b;
    a = b;
    b = next;
  }
  const CodeTable t = build_code_table(freq);
  for (uint8_t l : t.lengths) EXPECT_LE(l, kMaxCodeLength);
  // Still decodable.
  std::vector<uint32_t> syms;
  for (uint32_t s = 0; s < 64; ++s) {
    syms.insert(syms.end(), 3, s);
  }
  const Bytes bits = encode(t, syms);
  EXPECT_EQ(decode(t, BytesView(bits), syms.size()), syms);
}

TEST(Huffman, CanonicalCodesAreNumericallyOrdered) {
  // Canonical property: within a length, codes increase with symbol; and
  // shorter codes, left-shifted, are below longer ones.
  const std::vector<uint64_t> freq = {40, 30, 20, 5, 3, 2};
  const CodeTable t = build_code_table(freq);
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    uint32_t prev = 0;
    bool first = true;
    for (size_t i = 0; i < t.used_symbols(); ++i) {
      if (t.lengths[i] != l) continue;
      if (!first) {
        EXPECT_GT(t.codes[i], prev);
      }
      prev = t.codes[i];
      first = false;
    }
  }
}

TEST(Huffman, SerializeDeserializeIdentity) {
  const std::vector<uint64_t> freq = {100, 50, 25, 12, 6, 3, 1, 1};
  const CodeTable t = build_code_table(freq);
  const Bytes blob = serialize_table(t);
  const CodeTable u = deserialize_table(BytesView(blob), 8);
  EXPECT_EQ(t.alphabet, u.alphabet);
  EXPECT_EQ(t.symbols, u.symbols);
  EXPECT_EQ(t.lengths, u.lengths);
  EXPECT_EQ(t.codes, u.codes);
}

TEST(Huffman, SerializedTableIsCompactForSparseAlphabets) {
  // A 65536-symbol alphabet with 20 used symbols must serialize to well
  // under 200 bytes thanks to run-length encoding (Figure 4's premise).
  std::vector<uint64_t> freq(65536, 0);
  for (int i = 0; i < 20; ++i) freq[32768 + i * 3] = 100 + i;
  const CodeTable t = build_code_table(freq);
  const Bytes blob = serialize_table(t);
  EXPECT_LT(blob.size(), 200u);
  const CodeTable u = deserialize_table(BytesView(blob), 20);
  EXPECT_EQ(u.symbols, t.symbols);
  EXPECT_EQ(u.lengths, t.lengths);
}

TEST(Huffman, CorruptTableThrows) {
  const std::vector<uint64_t> freq = {10, 20, 30};
  const Bytes blob = serialize_table(build_code_table(freq));
  // Truncation.
  EXPECT_THROW(deserialize_table(BytesView(blob).subspan(0, 1), 3),
               CorruptError);
  // Trailing garbage.
  Bytes extended = blob;
  extended.push_back(0xFF);
  EXPECT_THROW(deserialize_table(BytesView(extended), 3), Error);
}

TEST(Huffman, OversubscribedLengthsRejected) {
  // Three symbols of length 1 violate Kraft.
  EXPECT_THROW(CodeTable::from_lengths({1, 1, 1}), CorruptError);
}

TEST(Huffman, UndersubscribedLengthsDecodeUpToDeadBranch) {
  // {2,2,2} is incomplete (Kraft sum 3/4) — legal to build, but a stream
  // hitting the missing branch must throw, not loop.
  const CodeTable t = CodeTable::from_lengths({2, 2, 2});
  const Bytes bits = {0xFF};  // code 11 is unassigned
  EXPECT_THROW(decode(t, BytesView(bits), 1), CorruptError);
}

TEST(Huffman, TruncatedStreamThrows) {
  const std::vector<uint32_t> syms(100, 0);
  std::vector<uint32_t> mixed = syms;
  mixed.push_back(1);
  const CodeTable t = build_code_table(histogram(mixed, 2));
  const Bytes bits = encode(t, mixed);
  // Ask for more symbols than encoded.
  EXPECT_THROW(decode(t, BytesView(bits), mixed.size() + 16), CorruptError);
}

TEST(Huffman, EncodingUnknownSymbolThrows) {
  const std::vector<uint64_t> freq = {10, 0, 20};
  const CodeTable t = build_code_table(freq);
  const std::vector<uint32_t> bad1 = {1};  // zero frequency
  const std::vector<uint32_t> bad2 = {5};  // out of alphabet
  EXPECT_THROW(encode(t, bad1), Error);
  EXPECT_THROW(encode(t, bad2), Error);
}

TEST(Huffman, EncodedBitsMatchesActualEncoding) {
  std::mt19937_64 rng(99);
  std::vector<uint32_t> syms(5000);
  for (auto& s : syms) s = rng() % 37;
  const CodeTable t = build_code_table(histogram(syms, 37));
  const size_t bits = encoded_bits(t, syms);
  const Bytes encoded = encode(t, syms);
  EXPECT_EQ(encoded.size(), (bits + 7) / 8);
}

}  // namespace
}  // namespace szsec::huffman
