// Golden-container tests: the serialized output of every scheme (v2
// containers, v3 chunked archives, v1 slab archives) is locked to
// SHA-256 digests captured from the pre-stage-graph implementation.
// Compression with a fixed DRBG seed is fully deterministic, so any
// refactor that changes a single output byte — stage ordering, payload
// layout, IV consumption, framing — fails here before it can silently
// break format compatibility with existing archives.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <random>
#include <string>

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

// Every CompressStats field and each PipelineMetrics key's byte flow, on
// encode and on decode, for the four schemes with and without the MAC
// over both dtypes.  Captured from the stage-graph codec; the CLI's stage
// table, bench_stage_metrics and Fig. 7 print these numbers.
std::string flows(const PipelineMetrics& m) {
  std::string s;
  for (const auto& [name, metric] : m.all()) {
    EXPECT_GT(metric.seconds, 0.0) << name;
    s += " " + name + "=" + std::to_string(metric.bytes_in) + ">" +
         std::to_string(metric.bytes_out);
  }
  return s;
}

std::string stage_pin(core::Scheme scheme, bool authenticate, bool f64) {
  crypto::CtrDrbg drbg(0xC0FFEE);
  core::CipherSpec spec;
  spec.authenticate = authenticate;
  const core::SecureCompressor c(golden_params(), scheme, BytesView(kKey),
                                 spec, &drbg);
  const std::vector<float> f = golden_field_f32(17);
  const std::vector<double> d = golden_field_f64();
  const core::CompressResult r =
      f64 ? c.compress(std::span<const double>(d), kDims)
          : c.compress(std::span<const float>(f), kDims);
  const core::CompressStats& st = r.stats;
  char predictable[32];
  std::snprintf(predictable, sizeof(predictable), "%.17g",
                st.predictable_fraction);
  return digest(BytesView(r.container)).substr(0, 16) +
         " raw=" + std::to_string(st.raw_bytes) +
         " container=" + std::to_string(st.container_bytes) +
         " payload=" + std::to_string(st.payload_bytes) +
         " tree=" + std::to_string(st.tree_bytes) +
         " codewords=" + std::to_string(st.codeword_bytes) +
         " unpredictable=" + std::to_string(st.unpredictable_bytes) + "/" +
         std::to_string(st.unpredictable_count) +
         " elements=" + std::to_string(st.element_count) +
         " encrypted=" + std::to_string(st.encrypted_bytes) +
         " predictable=" + predictable + " |" + flows(r.times) + " |" +
         flows(c.decompress(BytesView(r.container)).times);
}

TEST(GoldenContainer, StageByteFlows) {
  struct Pin {
    core::Scheme scheme;
    bool authenticate;
    bool f64;
    const char* expect;
  };
  const Pin pins[] = {
      {core::Scheme::kNone, false, false,
        "b61956d6ff4e599b raw=15360 container=7882 payload=13946"
        " tree=11 codewords=480 unpredictable=13413/3354"
        " elements=3840 encrypted=0"
        " predictable=0.12656250000000002 | huffman=15360>491"
        " lossless=13946>7820 predict+quantize=15360>28805 |"
        " huffman=491>15360 lossless=7820>13946"
        " reconstruct=28805>15360"},
      {core::Scheme::kNone, false, true,
        "3bfdfa466f46e4c9 raw=30720 container=7122 payload=9533"
        " tree=3940 codewords=4985 unpredictable=573/153"
        " elements=3840 encrypted=0"
        " predictable=0.96015625000000004 | huffman=15360>8925"
        " lossless=9533>7060 predict+quantize=30720>15957 |"
        " huffman=8925>15360 lossless=7060>9533"
        " reconstruct=15957>30720"},
      {core::Scheme::kNone, true, false,
        "7686f17b3014334b raw=15360 container=7914 payload=13946"
        " tree=11 codewords=480 unpredictable=13413/3354"
        " elements=3840 encrypted=0"
        " predictable=0.12656250000000002 | huffman=15360>491"
        " lossless=13946>7820 predict+quantize=15360>28805 |"
        " huffman=491>15360 lossless=7820>13946"
        " reconstruct=28805>15360"},
      {core::Scheme::kNone, true, true,
        "20218bd3c3ae1ac4 raw=30720 container=7154 payload=9533"
        " tree=3940 codewords=4985 unpredictable=573/153"
        " elements=3840 encrypted=0"
        " predictable=0.96015625000000004 | huffman=15360>8925"
        " lossless=9533>7060 predict+quantize=30720>15957 |"
        " huffman=8925>15360 lossless=7060>9533"
        " reconstruct=15957>30720"},
      {core::Scheme::kCmprEncr, false, false,
        "f9751bb8438d204d raw=15360 container=7886 payload=13946"
        " tree=11 codewords=480 unpredictable=13413/3354"
        " elements=3840 encrypted=7820"
        " predictable=0.12656250000000002 | encrypt=7820>7824"
        " huffman=15360>491 lossless=13946>7820"
        " predict+quantize=15360>28805 | decrypt=7824>7820"
        " huffman=491>15360 lossless=7820>13946"
        " reconstruct=28805>15360"},
      {core::Scheme::kCmprEncr, false, true,
        "d010d59e5d011251 raw=30720 container=7134 payload=9533"
        " tree=3940 codewords=4985 unpredictable=573/153"
        " elements=3840 encrypted=7060"
        " predictable=0.96015625000000004 | encrypt=7060>7072"
        " huffman=15360>8925 lossless=9533>7060"
        " predict+quantize=30720>15957 | decrypt=7072>7060"
        " huffman=8925>15360 lossless=7060>9533"
        " reconstruct=15957>30720"},
      {core::Scheme::kCmprEncr, true, false,
        "d816395264c87bc8 raw=15360 container=7918 payload=13946"
        " tree=11 codewords=480 unpredictable=13413/3354"
        " elements=3840 encrypted=7820"
        " predictable=0.12656250000000002 | encrypt=7820>7824"
        " huffman=15360>491 lossless=13946>7820"
        " predict+quantize=15360>28805 | decrypt=7824>7820"
        " huffman=491>15360 lossless=7820>13946"
        " reconstruct=28805>15360"},
      {core::Scheme::kCmprEncr, true, true,
        "f74b981bef355758 raw=30720 container=7166 payload=9533"
        " tree=3940 codewords=4985 unpredictable=573/153"
        " elements=3840 encrypted=7060"
        " predictable=0.96015625000000004 | encrypt=7060>7072"
        " huffman=15360>8925 lossless=9533>7060"
        " predict+quantize=30720>15957 | decrypt=7072>7060"
        " huffman=8925>15360 lossless=7060>9533"
        " reconstruct=15957>30720"},
      {core::Scheme::kEncrQuant, false, false,
        "076e35e1f2c9cb1e raw=15360 container=8002 payload=13950"
        " tree=11 codewords=480 unpredictable=13413/3354"
        " elements=3840 encrypted=494"
        " predictable=0.12656250000000002 | encrypt=494>496"
        " huffman=15360>491 lossless=13950>7940"
        " predict+quantize=15360>28805 | decrypt=496>494"
        " huffman=491>15360 lossless=7940>13950"
        " reconstruct=28805>15360"},
      {core::Scheme::kEncrQuant, false, true,
        "f61a10f6433f14d8 raw=30720 container=9617 payload=9550"
        " tree=3940 codewords=4985 unpredictable=573/153"
        " elements=3840 encrypted=8929"
        " predictable=0.96015625000000004 | encrypt=8929>8944"
        " huffman=15360>8925 lossless=9550>9555"
        " predict+quantize=30720>15957 | decrypt=8944>8929"
        " huffman=8925>15360 lossless=9555>9550"
        " reconstruct=15957>30720"},
      {core::Scheme::kEncrQuant, true, false,
        "cc800cf7405cb4ee raw=15360 container=8034 payload=13950"
        " tree=11 codewords=480 unpredictable=13413/3354"
        " elements=3840 encrypted=494"
        " predictable=0.12656250000000002 | encrypt=494>496"
        " huffman=15360>491 lossless=13950>7940"
        " predict+quantize=15360>28805 | decrypt=496>494"
        " huffman=491>15360 lossless=7940>13950"
        " reconstruct=28805>15360"},
      {core::Scheme::kEncrQuant, true, true,
        "2630a01e019026e8 raw=30720 container=9649 payload=9550"
        " tree=3940 codewords=4985 unpredictable=573/153"
        " elements=3840 encrypted=8929"
        " predictable=0.96015625000000004 | encrypt=8929>8944"
        " huffman=15360>8925 lossless=9550>9555"
        " predict+quantize=30720>15957 | decrypt=8944>8929"
        " huffman=8925>15360 lossless=9555>9550"
        " reconstruct=15957>30720"},
      {core::Scheme::kEncrHuffman, false, false,
        "9cae546ebf236276 raw=15360 container=7888 payload=13951"
        " tree=11 codewords=480 unpredictable=13413/3354"
        " elements=3840 encrypted=11"
        " predictable=0.12656250000000002 | encrypt=11>16"
        " huffman=15360>491 lossless=13951>7826"
        " predict+quantize=15360>28805 | decrypt=16>11"
        " huffman=491>15360 lossless=7826>13951"
        " reconstruct=28805>15360"},
      {core::Scheme::kEncrHuffman, false, true,
        "76803683c92249b6 raw=30720 container=9612 payload=9545"
        " tree=3940 codewords=4985 unpredictable=573/153"
        " elements=3840 encrypted=3940"
        " predictable=0.96015625000000004 | encrypt=3940>3952"
        " huffman=15360>8925 lossless=9545>9550"
        " predict+quantize=30720>15957 | decrypt=3952>3940"
        " huffman=8925>15360 lossless=9550>9545"
        " reconstruct=15957>30720"},
      {core::Scheme::kEncrHuffman, true, false,
        "b63b4364d9f42adb raw=15360 container=7920 payload=13951"
        " tree=11 codewords=480 unpredictable=13413/3354"
        " elements=3840 encrypted=11"
        " predictable=0.12656250000000002 | encrypt=11>16"
        " huffman=15360>491 lossless=13951>7826"
        " predict+quantize=15360>28805 | decrypt=16>11"
        " huffman=491>15360 lossless=7826>13951"
        " reconstruct=28805>15360"},
      {core::Scheme::kEncrHuffman, true, true,
        "ce25369ba03b4ec4 raw=30720 container=9644 payload=9545"
        " tree=3940 codewords=4985 unpredictable=573/153"
        " elements=3840 encrypted=3940"
        " predictable=0.96015625000000004 | encrypt=3940>3952"
        " huffman=15360>8925 lossless=9545>9550"
        " predict+quantize=30720>15957 | decrypt=3952>3940"
        " huffman=8925>15360 lossless=9550>9545"
        " reconstruct=15957>30720"},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(std::string(core::scheme_name(p.scheme)) +
                 (p.authenticate ? " +mac" : "") + (p.f64 ? " f64" : " f32"));
    EXPECT_EQ(stage_pin(p.scheme, p.authenticate, p.f64), p.expect);
  }
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
