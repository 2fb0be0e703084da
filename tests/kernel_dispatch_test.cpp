// Kernel dispatch equivalence suite: every runtime-dispatched fast path
// (AES-NI/VAES block kernels, table-driven Huffman decode, SIMD SZ row
// kernels) must be bit-identical to its scalar reference at every
// dispatch level the machine supports.
//
// Levels are forced in-process via cpu::override_features_for_testing
// (the test-only hook behind SZSEC_CPU_FEATURES), so one binary checks
// scalar, SSE2, AES-NI, AVX2 and VAES paths wherever the CPU has them:
//   * FIPS-197 Appendix C KATs re-run per level,
//   * bulk ECB/CBC/CTR differentials against a scalar-pinned cipher,
//   * the golden container SHA-256 pins re-asserted per level,
//   * huffman::decode vs decode_tree_walk on streams past the probe
//     threshold, including error-path message equality, and on codes
//     whose long codewords take the second-level tables or the walk,
//   * SZ row kernels (predict/quantize/dequantize, f32+f64, NaN/Inf
//     lanes) per level against scalar,
//   * a sampled-config campaign proving scalar and auto dispatch emit
//     byte-identical archives and bit-identical decodes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "common/error.h"
#include "common/hex.h"
#include "core/secure_compressor.h"
#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "huffman/huffman.h"
#include "sz/kernels.h"
#include "testing/code_shapes.h"
#include "testing/generator.h"
#include "testing/rng.h"

namespace szsec {
namespace {

// Restores the enabled-feature set (including any SZSEC_CPU_FEATURES
// restriction in effect at test start) when a test that forces levels
// leaves scope.
class FeatureGuard {
 public:
  FeatureGuard() : saved_(cpu::enabled_features()) {}
  ~FeatureGuard() { cpu::override_features_for_testing(saved_); }
  FeatureGuard(const FeatureGuard&) = delete;
  FeatureGuard& operator=(const FeatureGuard&) = delete;

 private:
  uint32_t saved_;
};

struct Level {
  const char* name;
  uint32_t mask;
};

// Every dispatch level worth distinguishing.  Levels whose mask the CPU
// doesn't fully support are skipped by the loops below (override can
// only restrict, so running them would silently retest a lower level).
std::vector<Level> levels() {
  return {
      {"scalar", 0},
      {"sse2", cpu::kSse2},
      {"aesni", cpu::kSse2 | cpu::kAesni},
      {"avx2", cpu::kSse2 | cpu::kAvx2},
      {"all", cpu::detected_features()},
  };
}

bool level_available(uint32_t mask) {
  return (mask & cpu::detected_features()) == mask;
}

// ---------------------------------------------------------------------
// AES: FIPS-197 Appendix C KATs + bulk differentials per level.

struct AesKat {
  const char* key_hex;
  const char* plain_hex;
  const char* cipher_hex;
};

const AesKat kFips197[] = {
    {"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"},
    {"000102030405060708090a0b0c0d0e0f1011121314151617",
     "00112233445566778899aabbccddeeff",
     "dda97ca4864cdfe06eaf70a0ec0d7191"},
    {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "00112233445566778899aabbccddeeff",
     "8ea2b7ca516745bfeafc49904b496089"},
};

TEST(KernelDispatch, AesFips197KatsAtEveryLevel) {
  FeatureGuard guard;
  for (const Level& lvl : levels()) {
    if (!level_available(lvl.mask)) continue;
    cpu::override_features_for_testing(lvl.mask);
    for (const AesKat& kat : kFips197) {
      const Bytes key = from_hex(kat.key_hex);
      const Bytes plain = from_hex(kat.plain_hex);
      const Bytes cipher = from_hex(kat.cipher_hex);
      const crypto::Aes aes{BytesView(key)};
      uint8_t out[crypto::Aes::kBlockSize];
      aes.encrypt_block(plain.data(), out);
      EXPECT_EQ(to_hex(BytesView(out, sizeof(out))), kat.cipher_hex)
          << "level " << lvl.name << " backend " << aes.backend_name();
      aes.decrypt_block(cipher.data(), out);
      EXPECT_EQ(to_hex(BytesView(out, sizeof(out))), kat.plain_hex)
          << "level " << lvl.name << " backend " << aes.backend_name();
    }
  }
}

TEST(KernelDispatch, AesBackendNameFollowsLevel) {
  FeatureGuard guard;
  const Bytes key = from_hex(kFips197[0].key_hex);

  cpu::override_features_for_testing(0);
  EXPECT_STREQ(crypto::Aes{BytesView(key)}.backend_name(), "scalar");

  if (level_available(cpu::kSse2 | cpu::kAesni)) {
    cpu::override_features_for_testing(cpu::kSse2 | cpu::kAesni);
    EXPECT_STREQ(crypto::Aes{BytesView(key)}.backend_name(), "aes-ni");
  }
  if (level_available(cpu::detected_features() | cpu::kVaes)) {
    cpu::override_features_for_testing(cpu::detected_features());
    EXPECT_STREQ(crypto::Aes{BytesView(key)}.backend_name(), "vaes");
  }
}

// Bulk differential: every mode, every key size, many lengths (odd
// block counts and partial CTR tails hit the kernel remainder paths).
TEST(KernelDispatch, AesBulkMatchesScalarEveryModeAndLength) {
  FeatureGuard guard;
  std::mt19937_64 rng(0xD15Ful);
  for (const size_t key_len : {16u, 24u, 32u}) {
    Bytes key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng());

    cpu::override_features_for_testing(0);
    const crypto::Aes scalar{BytesView(key)};
    ASSERT_STREQ(scalar.backend_name(), "scalar");

    for (const Level& lvl : levels()) {
      if (!level_available(lvl.mask)) continue;
      cpu::override_features_for_testing(lvl.mask);
      const crypto::Aes hw{BytesView(key)};

      // Block counts around the 8-block (AES-NI) and 16-block (VAES)
      // kernel widths, plus larger odd sizes.
      for (const size_t nblocks : {1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u, 31u,
                                   32u, 33u, 129u, 257u}) {
        Bytes msg(nblocks * crypto::Aes::kBlockSize);
        for (auto& b : msg) b = static_cast<uint8_t>(rng());

        Bytes a = msg, b = msg;
        scalar.encrypt_blocks(a.data(), a.data(), nblocks);
        hw.encrypt_blocks(b.data(), b.data(), nblocks);
        EXPECT_EQ(a, b) << "ecb-enc " << lvl.name << " n=" << nblocks;

        scalar.decrypt_blocks(a.data(), a.data(), nblocks);
        hw.decrypt_blocks(b.data(), b.data(), nblocks);
        EXPECT_EQ(a, b) << "ecb-dec " << lvl.name << " n=" << nblocks;
        EXPECT_EQ(a, msg) << "ecb roundtrip " << lvl.name;

        uint8_t iv[crypto::Aes::kBlockSize];
        for (auto& v : iv) v = static_cast<uint8_t>(rng());
        uint8_t ca[crypto::Aes::kBlockSize], cb[crypto::Aes::kBlockSize];
        std::memcpy(ca, iv, sizeof(iv));
        std::memcpy(cb, iv, sizeof(iv));
        a = msg;
        b = msg;
        scalar.cbc_encrypt_blocks(ca, a.data(), nblocks);
        hw.cbc_encrypt_blocks(cb, b.data(), nblocks);
        EXPECT_EQ(a, b) << "cbc-enc " << lvl.name << " n=" << nblocks;
        EXPECT_EQ(0, std::memcmp(ca, cb, sizeof(ca))) << "cbc-enc chain";

        std::memcpy(ca, iv, sizeof(iv));
        std::memcpy(cb, iv, sizeof(iv));
        scalar.cbc_decrypt_blocks(ca, a.data(), nblocks);
        hw.cbc_decrypt_blocks(cb, b.data(), nblocks);
        EXPECT_EQ(a, b) << "cbc-dec " << lvl.name << " n=" << nblocks;
        EXPECT_EQ(a, msg) << "cbc roundtrip " << lvl.name;
        EXPECT_EQ(0, std::memcmp(ca, cb, sizeof(ca))) << "cbc-dec chain";
      }

      // CTR over byte lengths with partial tails, from a counter close
      // to a low-64-bit carry so the big-endian increment is exercised.
      for (const size_t nbytes : {1u, 15u, 16u, 17u, 127u, 128u, 255u, 256u,
                                  257u, 4093u}) {
        Bytes msg(nbytes);
        for (auto& b : msg) b = static_cast<uint8_t>(rng());
        uint8_t ctr_a[crypto::Aes::kBlockSize], ctr_b[crypto::Aes::kBlockSize];
        for (auto& v : ctr_a) v = 0xFF;  // increments carry immediately
        ctr_a[0] = 0x12;
        std::memcpy(ctr_b, ctr_a, sizeof(ctr_a));

        Bytes a = msg, b = msg;
        scalar.ctr_xor_bytes(ctr_a, a.data(), a.size());
        hw.ctr_xor_bytes(ctr_b, b.data(), b.size());
        EXPECT_EQ(a, b) << "ctr " << lvl.name << " nbytes=" << nbytes;
        EXPECT_EQ(0, std::memcmp(ctr_a, ctr_b, sizeof(ctr_a)))
            << "ctr counter continuation " << lvl.name << " nbytes=" << nbytes;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Golden container pins re-asserted at every dispatch level: the whole
// pipeline (predict/quantize, Huffman, zlite, AES) must emit the exact
// bytes the scalar implementation is pinned to.

const Bytes kGoldenKey = {0, 1, 2,  3,  4,  5,  6,  7,
                          8, 9, 10, 11, 12, 13, 14, 15};
const Dims kGoldenDims{12, 16, 20};

std::vector<float> golden_field_f32(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<float> f(kGoldenDims.count());
  float walk = 10.0f;
  for (auto& v : f) {
    walk += static_cast<float>((rng() % 2001) - 1000) * 1e-4f;
    v = walk;
  }
  return f;
}

std::string digest(BytesView bytes) {
  return to_hex(BytesView(crypto::Sha256::hash(bytes)));
}

Bytes golden_compress(core::Scheme scheme, crypto::Mode mode) {
  sz::Params params;
  params.abs_error_bound = 1e-4;
  const std::vector<float> f = golden_field_f32(17);
  crypto::CtrDrbg drbg(0xC0FFEE);
  const core::SecureCompressor c(params, scheme, BytesView(kGoldenKey), mode,
                                 &drbg);
  return c.compress(std::span<const float>(f), kGoldenDims).container;
}

TEST(KernelDispatch, GoldenContainerPinsHoldAtEveryLevel) {
  FeatureGuard guard;
  for (const Level& lvl : levels()) {
    if (!level_available(lvl.mask)) continue;
    cpu::override_features_for_testing(lvl.mask);
    // Same digests as tests/golden_container_test.cpp.
    EXPECT_EQ(digest(BytesView(golden_compress(core::Scheme::kEncrHuffman,
                                               crypto::Mode::kCbc))),
              "9cae546ebf236276f897204799b0ef55c810777a697b389cfe0b0f35a6a81c93")
        << "level " << lvl.name;
    EXPECT_EQ(digest(BytesView(golden_compress(core::Scheme::kEncrQuant,
                                               crypto::Mode::kCtr))),
              "a50a92d5ccd26574f3bda32eb0ca8557d6c4293c867fd32ec6f9e1339fd03baf")
        << "level " << lvl.name;
  }
}

// ---------------------------------------------------------------------
// Huffman: probe-table decode vs the exact canonical walk.

huffman::CodeTable table_for(std::span<const uint32_t> symbols,
                             size_t alphabet) {
  std::vector<uint64_t> freq(alphabet, 0);
  for (uint32_t s : symbols) ++freq[s];
  return huffman::build_code_table(freq);
}

std::vector<uint32_t> gen_symbols(std::mt19937_64& rng, size_t count,
                                  int shape) {
  std::vector<uint32_t> syms(count);
  switch (shape) {
    case 0: {  // quantization-like: tight normal around a center bin
      std::normal_distribution<double> d(0.0, 2.5);
      for (auto& s : syms) {
        const double v = std::max(-64.0, std::min(64.0, d(rng)));
        s = static_cast<uint32_t>(32768 + static_cast<long>(std::lround(v)));
      }
      break;
    }
    case 1:  // uniform over a wide alphabet: long codes, frequent probe misses
      for (auto& s : syms) s = static_cast<uint32_t>(rng() % 60001);
      break;
    case 2:  // degenerate single symbol (1-bit codes, 3 symbols per probe)
      for (auto& s : syms) s = 7;
      break;
    default:  // heavy skew: one hot symbol plus a rare deep tail
      for (auto& s : syms) {
        s = (rng() % 100 == 0) ? static_cast<uint32_t>(rng() % 4096) : 42u;
      }
      break;
  }
  return syms;
}

TEST(KernelDispatch, HuffmanProbeDecodeMatchesTreeWalk) {
  std::mt19937_64 rng(0x8FF);
  // Counts straddle kProbeDecodeMinSymbols: below it decode() takes the
  // walk directly, above it the probe table must agree symbol-for-symbol.
  const size_t counts[] = {huffman::kProbeDecodeMinSymbols - 1,
                           huffman::kProbeDecodeMinSymbols,
                           huffman::kProbeDecodeMinSymbols + 1, 50000};
  for (int shape = 0; shape < 4; ++shape) {
    for (const size_t count : counts) {
      const std::vector<uint32_t> syms = gen_symbols(rng, count, shape);
      const huffman::CodeTable t = table_for(syms, 65536);
      const Bytes bits = huffman::encode(t, syms);
      const auto fast = huffman::decode(t, BytesView(bits), count);
      const auto slow = huffman::decode_tree_walk(t, BytesView(bits), count);
      EXPECT_EQ(fast, slow) << "shape " << shape << " count " << count;
      EXPECT_EQ(fast, syms) << "shape " << shape << " count " << count;
    }
  }
}

// What a decode gave: its symbols, or its CorruptError message.
struct Decoded {
  std::vector<uint32_t> symbols;
  std::string error;
  bool operator==(const Decoded&) const = default;
};

Decoded decoded(const huffman::CodeTable& t, BytesView bits, size_t count,
                bool fast) {
  try {
    return {fast ? huffman::decode(t, bits, count)
                 : huffman::decode_tree_walk(t, bits, count),
            ""};
  } catch (const CorruptError& e) {
    return {{}, e.what()};
  }
}

TEST(KernelDispatch, HuffmanErrorPathsMatchTreeWalk) {
  // Alphabet {A:len1, B:len2, C:len2}; Kraft-complete, so dead branches
  // require running past kMaxCodeLength.
  huffman::CodeTable t =
      huffman::CodeTable::from_lengths(std::vector<uint8_t>{1, 2, 2});
  const size_t n = huffman::kProbeDecodeMinSymbols + 1000;

  // Exhaustion mid-stream: n two-bit symbols encoded, n + 1 requested.
  std::vector<uint32_t> syms(n, 1);
  Bytes bits = huffman::encode(t, syms);
  const Decoded short_stream = decoded(t, BytesView(bits), n + 1, true);
  EXPECT_EQ(short_stream, decoded(t, BytesView(bits), n + 1, false));
  EXPECT_FALSE(short_stream.error.empty());

  // Count beyond bitstream capacity: rejected before any decode.
  EXPECT_EQ(decoded(t, BytesView(bits), bits.size() * 8 + 1, true),
            decoded(t, BytesView(bits), bits.size() * 8 + 1, false));

  // Dead branch: a single-symbol table admits only 0-bits; a run of
  // 1-bits extends past kMaxCodeLength in both decoders.
  huffman::CodeTable one =
      huffman::CodeTable::from_lengths(std::vector<uint8_t>{1});
  std::vector<uint32_t> zeros(n, 0);
  Bytes zbits = huffman::encode(one, zeros);
  for (int i = 0; i < 5; ++i) zbits.push_back(0xFF);
  const size_t ask = n + 33;  // reaches the 1-bits, within bit capacity
  const Decoded dead = decoded(one, BytesView(zbits), ask, true);
  EXPECT_EQ(dead, decoded(one, BytesView(zbits), ask, false));
  EXPECT_NE(dead.error.find("dead branch"), std::string::npos) << dead.error;
}

// Second-level tables: codes whose longest codewords are 11, 12, 18, 19
// and 32 bits, complete or with holes at the root and inside a
// second-level table (src/testing/code_shapes.h), over their own streams,
// every truncation of the last 64 bytes, random bytes and all-one bytes,
// under counts at and around kProbeDecodeMinSymbols and the fast loop's
// exit: decode() must give decode_tree_walk's symbols or error.
TEST(KernelDispatch, HuffmanSecondLevelMatchesTreeWalk) {
  std::mt19937_64 rng(0x2E7E1);
  const size_t min = huffman::kProbeDecodeMinSymbols;
  size_t compared = 0, failed = 0;
  for (const testing::CodeShape& shape : testing::second_level_shapes()) {
    const huffman::CodeTable t =
        huffman::CodeTable::from_lengths(testing::shape_lengths(shape, rng));
    const size_t n = 2000;
    std::vector<uint32_t> syms(n);
    for (auto& s : syms) s = t.symbols[rng() % t.used_symbols()];
    const Bytes bits = huffman::encode(t, syms);
    std::vector<Bytes> streams = {bits, Bytes(bits.size(), 0xFF),
                                  Bytes(bits.size())};
    for (auto& b : streams[2]) b = static_cast<uint8_t>(rng());
    for (size_t cut = bits.size() - 64; cut < bits.size(); ++cut) {
      streams.emplace_back(bits.begin(),
                           bits.begin() + static_cast<std::ptrdiff_t>(cut));
    }
    for (const Bytes& b : streams) {
      for (const size_t count : {min - 1, min, min + 1, min + 8, min + 9,
                                 min + 10, n - 9, n - 1, n, n + 1}) {
        const Decoded fast = decoded(t, BytesView(b), count, true);
        ASSERT_EQ(fast, decoded(t, BytesView(b), count, false))
            << "longest " << shape.longest << " prefixes " << shape.prefixes
            << " hole " << shape.hole << ", " << b.size()
            << "-byte stream, count " << count << ": " << fast.error;
        ++compared;
        if (!fast.error.empty()) ++failed;
      }
    }
  }
  // Both outcomes are well represented.
  EXPECT_GT(failed, compared / 4);
  EXPECT_GT(compared - failed, compared / 4);
}

// A CodeTable assembled by hand, past from_lengths' Kraft check, whose
// codewords oversubscribe the code space: at the root (three 1-bit
// codewords; five 2-bit ones) and among the codewords that take
// second-level tables (a 1-bit codeword and 2^12 12-bit ones).  Decode
// tables built from such lengths would index past their storage, so
// decode() must take the walk; over zero, one and random bits it must
// give decode_tree_walk's symbols or error.
TEST(KernelDispatch, HuffmanKraftViolatingTableMatchesTreeWalk) {
  std::mt19937_64 rng(0x3A7F);
  std::vector<std::vector<uint8_t>> shapes = {{1, 1, 1}, {2, 2, 2, 2, 2}};
  shapes.emplace_back(size_t{1} << 12, uint8_t{12});
  shapes.back().insert(shapes.back().begin(), uint8_t{1});
  const size_t min = huffman::kProbeDecodeMinSymbols;
  for (const std::vector<uint8_t>& lengths : shapes) {
    huffman::CodeTable t;
    t.alphabet = lengths.size();
    t.lengths = lengths;
    for (size_t s = 0; s < lengths.size(); ++s) {
      t.symbols.push_back(static_cast<uint32_t>(s));
    }
    std::vector<Bytes> streams = {Bytes(4096), Bytes(4096, 0xFF),
                                  Bytes(4096)};
    for (auto& b : streams[2]) b = static_cast<uint8_t>(rng());
    for (const Bytes& b : streams) {
      for (const size_t count : {min, min + 1, 4 * min}) {
        const Decoded fast = decoded(t, BytesView(b), count, true);
        ASSERT_EQ(fast, decoded(t, BytesView(b), count, false))
            << lengths.size() << " codewords, first stream byte "
            << int{b[0]} << ", count " << count << ": " << fast.error;
      }
    }
    // All-zero bits are the first codeword repeated: a clean decode.
    EXPECT_EQ(decoded(t, BytesView(streams[0]), min, true).symbols,
              std::vector<uint32_t>(min, 0));
  }
}

// ---------------------------------------------------------------------
// SZ row kernels: per-level bit-equality against the scalar reference,
// including NaN/Inf lanes, both dtypes, and the big-radius fallback.

template <typename T>
std::vector<T> gen_field(std::mt19937_64& rng, size_t n, bool lace) {
  std::normal_distribution<double> d(0.0, 1.0);
  std::vector<T> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<T>(d(rng) * 10);
  if (lace) {
    v[n / 3] = std::numeric_limits<T>::quiet_NaN();
    v[n / 2] = std::numeric_limits<T>::infinity();
    v[2 * n / 3] = -std::numeric_limits<T>::infinity();
    v[n - 1] = std::numeric_limits<T>::max();  // quantizes out of range
  }
  return v;
}

template <typename T>
void check_sz_kernels_level(const Level& lvl, int64_t radius) {
  std::mt19937_64 rng(0x5EED + radius);
  const size_t n = 1023;  // odd: exercises every vector tail
  const double eb = 1e-3;
  const std::vector<T> values = gen_field<T>(rng, n, true);
  const std::vector<T> pred = gen_field<T>(rng, n, false);

  // Scalar reference.
  cpu::override_features_for_testing(0);
  ASSERT_STREQ(sz::kernels::active_backend(), "scalar");
  std::vector<T> pred_s(n), recon_s(n, T(7)), deq_s = pred;
  std::vector<uint32_t> codes_s(n);
  sz::kernels::predict_affine_row(1.25, -0.5, 3.0, n, pred_s.data());
  sz::kernels::quantize_row(values.data(), pred.data(), n, eb, radius,
                            codes_s.data(), recon_s.data());
  sz::kernels::dequantize_row(codes_s.data(), deq_s.data(), n, eb, radius);

  // Level under test.
  cpu::override_features_for_testing(lvl.mask);
  std::vector<T> pred_h(n), recon_h(n, T(7)), deq_h = pred;
  std::vector<uint32_t> codes_h(n);
  sz::kernels::predict_affine_row(1.25, -0.5, 3.0, n, pred_h.data());
  sz::kernels::quantize_row(values.data(), pred.data(), n, eb, radius,
                            codes_h.data(), recon_h.data());
  sz::kernels::dequantize_row(codes_h.data(), deq_h.data(), n, eb, radius);

  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::memcmp(&pred_s[i], &pred_h[i], sizeof(T)), 0)
        << lvl.name << " predict lane " << i;
    ASSERT_EQ(codes_s[i], codes_h[i]) << lvl.name << " code lane " << i;
    if (codes_s[i] != 0) {
      // Unpredictable (code 0) lanes are unspecified by contract.
      EXPECT_EQ(std::memcmp(&recon_s[i], &recon_h[i], sizeof(T)), 0)
          << lvl.name << " recon lane " << i;
      EXPECT_EQ(std::memcmp(&deq_s[i], &deq_h[i], sizeof(T)), 0)
          << lvl.name << " dequant lane " << i;
    }
  }
}

TEST(KernelDispatch, SzKernelsMatchScalarAtEveryLevel) {
  FeatureGuard guard;
  for (const Level& lvl : levels()) {
    if (!level_available(lvl.mask)) continue;
    check_sz_kernels_level<float>(lvl, 32768);
    check_sz_kernels_level<double>(lvl, 32768);
    // Radius past the int32-lane limit: SIMD must fall back to the
    // scalar int64 path and still match.
    check_sz_kernels_level<float>(lvl, (int64_t{1} << 30) + 7);
    check_sz_kernels_level<double>(lvl, (int64_t{1} << 30) + 7);
  }
}

TEST(KernelDispatch, SzBackendNameFollowsLevel) {
  FeatureGuard guard;
  cpu::override_features_for_testing(0);
  EXPECT_STREQ(sz::kernels::active_backend(), "scalar");
  if (level_available(cpu::kSse2)) {
    cpu::override_features_for_testing(cpu::kSse2);
    EXPECT_STREQ(sz::kernels::active_backend(), "sse2");
  }
  if (level_available(cpu::kSse2 | cpu::kAvx2)) {
    cpu::override_features_for_testing(cpu::kSse2 | cpu::kAvx2);
    EXPECT_STREQ(sz::kernels::active_backend(), "avx2");
  }
}

// ---------------------------------------------------------------------
// End-to-end campaign: sampled configurations compressed under forced
// scalar and under full hardware dispatch must yield byte-identical
// archives and bit-identical decodes.

template <typename T>
const std::vector<T>& pick_vec(const core::DecompressResult& r) {
  if constexpr (sizeof(T) == 4) {
    return r.f32;
  } else {
    return r.f64;
  }
}

template <typename T>
std::vector<T> synthesize(const testing::SampledConfig& cfg) {
  if constexpr (sizeof(T) == 4) {
    return testing::synthesize_f32(cfg);
  } else {
    return testing::synthesize_f64(cfg);
  }
}

template <typename T>
void check_scalar_vs_auto(const testing::SampledConfig& cfg) {
  const std::vector<T> field = synthesize<T>(cfg);
  const std::span<const T> in(field);
  const BytesView key(cfg.key);

  cpu::override_features_for_testing(0);
  crypto::CtrDrbg d1(cfg.seed + 1);
  const core::SecureCompressor scalar_comp(cfg.params, cfg.scheme, key,
                                           cfg.spec, &d1);
  const core::CompressResult scalar_r = scalar_comp.compress(in, cfg.dims);

  cpu::override_features_for_testing(cpu::detected_features());
  crypto::CtrDrbg d2(cfg.seed + 1);
  const core::SecureCompressor auto_comp(cfg.params, cfg.scheme, key,
                                         cfg.spec, &d2);
  const core::CompressResult auto_r = auto_comp.compress(in, cfg.dims);

  ASSERT_EQ(scalar_r.container, auto_r.container)
      << "scalar vs auto dispatch containers differ: " << cfg.describe();

  // Cross-decode: hardware dispatch decoding the scalar-built container
  // (same bytes, but exercises the decode kernels) must reproduce the
  // scalar decode bit-for-bit.
  const core::DecompressResult auto_out =
      auto_comp.decompress(BytesView(scalar_r.container));
  cpu::override_features_for_testing(0);
  const core::DecompressResult scalar_out =
      scalar_comp.decompress(BytesView(scalar_r.container));
  const std::vector<T>& a = pick_vec<T>(scalar_out);
  const std::vector<T>& b = pick_vec<T>(auto_out);
  ASSERT_EQ(a.size(), b.size()) << cfg.describe();
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(T)), 0)
        << "decode lane " << i << ": " << cfg.describe();
  }
}

TEST(KernelDispatch, ScalarVsAutoArchivesByteIdentical) {
  FeatureGuard guard;
  testing::PropRng rng(0xD15FA7C4u);
  for (int i = 0; i < 24; ++i) {
    const testing::SampledConfig cfg = testing::sample_config(rng);
    if (cfg.dtype == sz::DType::kFloat32) {
      check_scalar_vs_auto<float>(cfg);
    } else {
      check_scalar_vs_auto<double>(cfg);
    }
  }
}

// A field large enough that the chunk Huffman streams cross
// kProbeDecodeMinSymbols, so the probe decoder runs inside the real
// pipeline (the golden field is below the threshold).
TEST(KernelDispatch, LargeFieldRoundtripUsesProbeDecoder) {
  FeatureGuard guard;
  const Dims dims{32, 40, 50};
  std::vector<float> f(dims.count());
  for (size_t i = 0; i < f.size(); ++i) {
    f[i] = std::sin(static_cast<double>(i) * 0.01) * 40 +
           std::cos(static_cast<double>(i) * 0.003) * 15;
  }
  sz::Params params;
  params.abs_error_bound = 1e-4;

  cpu::override_features_for_testing(0);
  crypto::CtrDrbg d1(0xFEED);
  const core::SecureCompressor cs(params, core::Scheme::kEncrHuffman,
                                  BytesView(kGoldenKey), crypto::Mode::kCbc,
                                  &d1);
  const core::CompressResult rs = cs.compress(std::span<const float>(f), dims);

  cpu::override_features_for_testing(cpu::detected_features());
  crypto::CtrDrbg d2(0xFEED);
  const core::SecureCompressor ch(params, core::Scheme::kEncrHuffman,
                                  BytesView(kGoldenKey), crypto::Mode::kCbc,
                                  &d2);
  const core::CompressResult rh = ch.compress(std::span<const float>(f), dims);
  ASSERT_EQ(rs.container, rh.container);

  const core::DecompressResult out = ch.decompress(BytesView(rh.container));
  ASSERT_EQ(out.f32.size(), f.size());
  for (size_t i = 0; i < f.size(); ++i) {
    ASSERT_NEAR(out.f32[i], f[i], 1e-4) << "lane " << i;
  }
}

}  // namespace
}  // namespace szsec
