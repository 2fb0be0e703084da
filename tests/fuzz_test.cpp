// Robustness fuzzing as CI tests: every decoder in the system must treat
// arbitrary and corrupted bytes as data, never as a crash.  These are the
// in-tree versions of the exhaustive ASan bit-flip campaigns run during
// development (all 8 * container_size flips, every scheme).
#include <gtest/gtest.h>

#include <random>

#include "common/stats.h"
#include "core/secure_compressor.h"
#include "crypto/drbg.h"
#include "data/datasets.h"
#include "huffman/huffman.h"
#include "nist/sp800_22.h"
#include "zlite/zlite.h"

namespace szsec {
namespace {

const Bytes kKey = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6};

// Arbitrary bytes into every public decoder: must throw szsec::Error or
// succeed, never crash or hang.
TEST(Fuzz, RandomGarbageIntoDecoders) {
  crypto::CtrDrbg drbg(0xF022);
  const core::SecureCompressor c(sz::Params{}, core::Scheme::kNone);
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes garbage = drbg.generate(1 + trial * 7 % 4096);
    const BytesView view(garbage);
    try {
      (void)zlite::inflate(view);
    } catch (const Error&) {
    }
    try {
      (void)huffman::deserialize_table(view, huffman::kMaxAlphabet);
    } catch (const Error&) {
    }
    try {
      (void)c.decompress(view);
    } catch (const Error&) {
    }
    try {
      (void)core::peek_header(view);
    } catch (const Error&) {
    }
  }
}

// Garbage prefixed with a valid magic/version so parsing goes deeper.
TEST(Fuzz, MagicPrefixedGarbage) {
  crypto::CtrDrbg drbg(0xF055);
  const core::SecureCompressor c(sz::Params{}, core::Scheme::kCmprEncr,
                                 BytesView(kKey));
  for (int trial = 0; trial < 200; ++trial) {
    Bytes data = drbg.generate(64 + trial % 512);
    data[0] = 0x53;  // 'S'
    data[1] = 0x5A;  // 'Z'
    data[2] = 0x53;  // 'S'
    data[3] = 0x31;  // '1'
    data[4] = 2;     // version
    try {
      (void)c.decompress(BytesView(data));
    } catch (const Error&) {
    }
  }
}

class SchemeFlipFuzz : public ::testing::TestWithParam<core::Scheme> {};

// Exhaustive single-bit flips over a whole (small) container: every flip
// must be detected (exception or out-of-bound output), and none may
// crash.  This is the CI slice of the full ASan campaign.
TEST_P(SchemeFlipFuzz, EveryBitFlipHandled) {
  const core::Scheme scheme = GetParam();
  const Dims dims{6, 12, 12};
  std::vector<float> f(dims.count());
  std::mt19937_64 rng(3);
  float walk = 0;
  for (auto& v : f) {
    walk += static_cast<float>((rng() % 200) - 100) * 1e-3f;
    v = walk;
  }
  sz::Params params;
  params.abs_error_bound = 1e-3;
  crypto::CtrDrbg drbg(0xF1FF);
  const core::SecureCompressor c(
      params, scheme,
      scheme == core::Scheme::kNone ? BytesView{} : BytesView(kKey),
      crypto::Mode::kCbc, &drbg);
  const auto r = c.compress(std::span<const float>(f), dims);
  const std::vector<float> baseline = c.decompress_f32(BytesView(r.container));

  // The guarantee under test: a flip either (a) raises an Error, or
  // (b) was semantically inert — dead bits exist in any DEFLATE-style
  // stream (unused code-table entries, final-byte padding) and in inert
  // header fields — in which case the output must be *bit-identical* to
  // the untampered decode.  What must never happen is a successful
  // decode of different data (the payload CRC forecloses it).
  size_t silent_changes = 0;
  for (size_t byte = 0; byte < r.container.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes t = r.container;
      t[byte] ^= static_cast<uint8_t>(1u << bit);
      try {
        const auto out = c.decompress(BytesView(t));
        if (out.f32 != baseline) ++silent_changes;
      } catch (const Error&) {
        // Detected: good.
      }
    }
  }
  EXPECT_EQ(silent_changes, 0u)
      << silent_changes << " bit flips silently changed the output";
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeFlipFuzz,
                         ::testing::Values(core::Scheme::kNone,
                                           core::Scheme::kCmprEncr,
                                           core::Scheme::kEncrQuant,
                                           core::Scheme::kEncrHuffman));

// Truncations at every length: clean exceptions only.
TEST(Fuzz, EveryTruncationHandled) {
  const data::Dataset d = data::make_cloudf48(data::Scale::kTiny);
  sz::Params params;
  crypto::CtrDrbg drbg(0xF2FF);
  const core::SecureCompressor c(params, core::Scheme::kEncrHuffman,
                                 BytesView(kKey), crypto::Mode::kCbc,
                                 &drbg);
  const auto r = c.compress(std::span<const float>(d.values), d.dims);
  for (size_t len = 0; len < r.container.size(); len += 7) {
    EXPECT_THROW(c.decompress(BytesView(r.container).subspan(0, len)),
                 Error)
        << len;
  }
}

// Random zlite streams that *start* valid then degrade.
TEST(Fuzz, ZliteMutatedStreams) {
  Bytes data(20000);
  std::mt19937_64 rng(0xF3);
  for (auto& b : data) b = static_cast<uint8_t>(rng() % 17);
  const Bytes compressed = zlite::deflate(BytesView(data));
  for (int trial = 0; trial < 300; ++trial) {
    Bytes t = compressed;
    const int mutations = 1 + trial % 4;
    for (int m = 0; m < mutations; ++m) {
      t[rng() % t.size()] = static_cast<uint8_t>(rng());
    }
    try {
      const Bytes out = zlite::inflate(BytesView(t));
      (void)out;
    } catch (const Error&) {
    }
  }
}

// NIST suite on arbitrary inputs: no crashes, all p-values in [0, 1].
TEST(Fuzz, NistSuiteOnArbitraryData) {
  crypto::CtrDrbg drbg(0xF4);
  for (size_t size : {size_t{1}, size_t{13}, size_t{100}, size_t{4096}}) {
    const Bytes data = drbg.generate(size);
    for (const nist::TestResult& r :
         nist::run_all(nist::BitSequence{BytesView(data)})) {
      for (double p : r.p_values) {
        EXPECT_GE(p, 0.0) << r.name;
        EXPECT_LE(p, 1.0) << r.name;
      }
    }
  }
}

}  // namespace
}  // namespace szsec
