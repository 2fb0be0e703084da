// Golden-container tests: the serialized output of every scheme (v2
// containers, v3 chunked archives, v1 slab archives) is locked to
// SHA-256 digests captured from the pre-stage-graph implementation.
// Compression with a fixed DRBG seed is fully deterministic, so any
// refactor that changes a single output byte — stage ordering, payload
// layout, IV consumption, framing — fails here before it can silently
// break format compatibility with existing archives.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "archive/chunked.h"
#include "archive/slab.h"
#include "common/hex.h"
#include "core/secure_compressor.h"
#include "crypto/sha256.h"

namespace szsec {
namespace {

const Bytes kKey = {0, 1, 2,  3,  4,  5,  6,  7,
                    8, 9, 10, 11, 12, 13, 14, 15};
const Dims kDims{12, 16, 20};

std::vector<float> golden_field_f32(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<float> f(kDims.count());
  float walk = 10.0f;
  for (auto& v : f) {
    walk += static_cast<float>((rng() % 2001) - 1000) * 1e-4f;
    v = walk;
  }
  return f;
}

std::vector<double> golden_field_f64() {
  std::vector<double> f(kDims.count());
  for (size_t i = 0; i < f.size(); ++i) f[i] = std::cos(i * 0.01) * 50;
  return f;
}

// The pins below predate the kAuto default and pin the kDefault encoder;
// the Auto* tests pin what kAuto writes.
sz::Params golden_params(zlite::Level level = zlite::Level::kDefault) {
  sz::Params params;
  params.abs_error_bound = 1e-4;
  params.lossless_level = level;
  return params;
}

std::string digest(BytesView bytes) {
  const auto d = crypto::Sha256::hash(bytes);
  return to_hex(BytesView(d));
}

Bytes compress_v2(core::Scheme scheme, crypto::Mode mode,
                  zlite::Level level = zlite::Level::kDefault) {
  const std::vector<float> f = golden_field_f32(17);
  crypto::CtrDrbg drbg(0xC0FFEE);
  const core::SecureCompressor c(golden_params(level), scheme,
                                 BytesView(kKey), mode, &drbg);
  return c.compress(std::span<const float>(f), kDims).container;
}

Bytes compress_f64(zlite::Level level = zlite::Level::kDefault) {
  const std::vector<double> d64 = golden_field_f64();
  crypto::CtrDrbg drbg(0xC0FFEE);
  const core::SecureCompressor c(golden_params(level),
                                 core::Scheme::kEncrQuant, BytesView(kKey),
                                 crypto::Mode::kCbc, &drbg);
  return c.compress(std::span<const double>(d64), kDims).container;
}

zlite::Level header_level(const Bytes& container) {
  return core::peek_header(BytesView(container)).params.lossless_level;
}

TEST(GoldenContainer, SchemeNone) {
  EXPECT_EQ(
      digest(BytesView(compress_v2(core::Scheme::kNone, crypto::Mode::kCbc))),
      "b61956d6ff4e599b3e00de5504f65753b396553a766d1cba26eae51b4b4f70a8");
}

TEST(GoldenContainer, SchemeCmprEncr) {
  EXPECT_EQ(
      digest(BytesView(
          compress_v2(core::Scheme::kCmprEncr, crypto::Mode::kCbc))),
      "f9751bb8438d204d5f9e7e4d7228ffa80042c76208c5d138812cbbe68626d36a");
}

TEST(GoldenContainer, SchemeEncrQuant) {
  EXPECT_EQ(
      digest(BytesView(
          compress_v2(core::Scheme::kEncrQuant, crypto::Mode::kCbc))),
      "076e35e1f2c9cb1eb25b948fb4aac8ac610e9bf8a09a0fa43cb247e2ee0241a0");
}

TEST(GoldenContainer, SchemeEncrHuffman) {
  EXPECT_EQ(
      digest(BytesView(
          compress_v2(core::Scheme::kEncrHuffman, crypto::Mode::kCbc))),
      "9cae546ebf236276f897204799b0ef55c810777a697b389cfe0b0f35a6a81c93");
}

TEST(GoldenContainer, CtrMode) {
  EXPECT_EQ(
      digest(BytesView(
          compress_v2(core::Scheme::kEncrQuant, crypto::Mode::kCtr))),
      "a50a92d5ccd26574f3bda32eb0ca8557d6c4293c867fd32ec6f9e1339fd03baf");
}

TEST(GoldenContainer, Authenticated) {
  const std::vector<float> f = golden_field_f32(17);
  crypto::CtrDrbg drbg(0xC0FFEE);
  core::CipherSpec spec;
  spec.authenticate = true;
  const core::SecureCompressor c(golden_params(),
                                 core::Scheme::kEncrHuffman, BytesView(kKey),
                                 spec, &drbg);
  const auto r = c.compress(std::span<const float>(f), kDims);
  EXPECT_EQ(
      digest(BytesView(r.container)),
      "b63b4364d9f42adb62ceea4b110d9e09abe7fc55a77fb93e0afd0e7dfb08b3f1");
}

TEST(GoldenContainer, Float64) {
  EXPECT_EQ(
      digest(BytesView(compress_f64())),
      "f61a10f6433f14d8358d9bf674121a9bc1adb4d9a9d426bb236734702aec2348");
}

// kAuto writes the level it applied.  The golden f32 payloads resolve to
// kDefault, so every v2 scheme's bytes are those its kDefault pin holds.
TEST(GoldenContainer, AutoSchemesResolveToDefault) {
  for (const core::Scheme scheme :
       {core::Scheme::kNone, core::Scheme::kCmprEncr,
        core::Scheme::kEncrQuant, core::Scheme::kEncrHuffman}) {
    const Bytes a = compress_v2(scheme, crypto::Mode::kCbc,
                                zlite::Level::kAuto);
    EXPECT_EQ(header_level(a), zlite::Level::kDefault)
        << core::scheme_name(scheme);
    EXPECT_EQ(digest(BytesView(a)),
              digest(BytesView(compress_v2(scheme, crypto::Mode::kCbc))))
        << core::scheme_name(scheme);
  }
}

// The f64 Encr-Quant payload is mostly ciphertext and resolves to
// kStored: the bytes of an explicit kStored encode, whose level byte (0)
// and the payload CRC it seeds are all that differ from the Float64 pin.
TEST(GoldenContainer, AutoFloat64) {
  const Bytes a = compress_f64(zlite::Level::kAuto);
  EXPECT_EQ(header_level(a), zlite::Level::kStored);
  EXPECT_EQ(a, compress_f64(zlite::Level::kStored));
  EXPECT_EQ(
      digest(BytesView(a)),
      "a60711b3ada07648000bdc67f34626195e0a46fcb3266589f2facc9e41459995");
}

TEST(GoldenContainer, ChunkedArchive) {
  // Pinned to the footer-less layout: this hash predates the seek-table
  // footer and proves the pre-footer byte stream is still emitted
  // bit-identically (old readers and old writers stay interoperable).
  const std::vector<float> f = golden_field_f32(17);
  crypto::CtrDrbg drbg(0xABCD);
  archive::ChunkedConfig cfg;
  cfg.threads = 2;
  cfg.chunks = 4;
  cfg.seek_table = false;
  const auto r = archive::compress_chunked(
      std::span<const float>(f), kDims, golden_params(),
      core::Scheme::kEncrHuffman, BytesView(kKey), core::CipherSpec{}, cfg,
      &drbg);
  EXPECT_EQ(
      digest(BytesView(r.archive)),
      "f3c578186833f9cb9d44e3e7c2958e4a6136d234adfe3e6e5d16c9613082d188");
}

TEST(GoldenContainer, ChunkedArchiveSeekFooter) {
  // The default (footered) layout, pinned separately: the archive must
  // be the footer-less golden bytes plus a deterministic footer suffix.
  const std::vector<float> f = golden_field_f32(17);
  crypto::CtrDrbg drbg(0xABCD);
  archive::ChunkedConfig cfg;
  cfg.threads = 2;
  cfg.chunks = 4;
  const auto r = archive::compress_chunked(
      std::span<const float>(f), kDims, golden_params(),
      core::Scheme::kEncrHuffman, BytesView(kKey), core::CipherSpec{}, cfg,
      &drbg);
  EXPECT_EQ(
      digest(BytesView(r.archive)),
      "db0540590a318ac3dbfa2116d0dd8c09dd24417a1841fe0bff5a61828df8d7e7");
}

TEST(GoldenContainer, SlabArchive) {
  const std::vector<float> f = golden_field_f32(17);
  crypto::CtrDrbg drbg(0xABCD);
  archive::ChunkedConfig cfg;
  cfg.threads = 2;
  cfg.chunks = 4;
  const auto r = archive::compress_slabs(
      std::span<const float>(f), kDims, golden_params(),
      core::Scheme::kCmprEncr, BytesView(kKey), core::CipherSpec{}, cfg,
      &drbg);
  EXPECT_EQ(
      digest(BytesView(r.archive)),
      "5c8c10668628689ee3746de1c692229a8ddfe54032568ab8eb38ce7343330bb6");
}

}  // namespace
}  // namespace szsec
