// Sans-io state machine tests.
//
// The contract under test (src/core/sansio.h): a Context fed one byte
// at a time and drained one byte at a time produces byte-identical
// output to the one-shot APIs — for every scheme, both dtypes, and the
// v2/v3/v1 container families, in both directions — and misusing the
// machine (pull before feed, double finish, reuse after an error)
// yields typed errors, never UB.  The golden SHA-256 pins are asserted
// through the context too, tying the sans-io seam to the format
// contract of golden_container_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <random>

#include "archive/chunked.h"
#include "archive/slab.h"
#include "common/hex.h"
#include "core/sansio.h"
#include "core/secure_compressor.h"
#include "crypto/sha256.h"

namespace szsec {
namespace {

const Bytes kKey = {0, 1, 2,  3,  4,  5,  6,  7,
                    8, 9, 10, 11, 12, 13, 14, 15};
const Dims kSmallDims{6, 8, 10};
const Dims kGoldenDims{12, 16, 20};

std::vector<float> field_f32(const Dims& dims, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<float> f(dims.count());
  float walk = 10.0f;
  for (auto& v : f) {
    walk += static_cast<float>((rng() % 2001) - 1000) * 1e-4f;
    v = walk;
  }
  return f;
}

std::vector<double> field_f64(const Dims& dims) {
  std::vector<double> f(dims.count());
  for (size_t i = 0; i < f.size(); ++i) f[i] = std::cos(i * 0.01) * 50;
  return f;
}

template <typename T>
BytesView as_bytes(const std::vector<T>& v) {
  return BytesView(reinterpret_cast<const uint8_t*>(v.data()),
                   v.size() * sizeof(T));
}

std::string digest(BytesView bytes) {
  const auto d = crypto::Sha256::hash(bytes);
  return to_hex(BytesView(d));
}

/// Drives a context (either direction) over `input` with the given
/// feed/pull granularities and returns everything it produced.
Bytes pump(sansio::Context& ctx, BytesView input, size_t feed_step,
           size_t pull_step) {
  Bytes out;
  std::vector<uint8_t> buf(pull_step);
  size_t fed = 0;
  bool finished = false;
  while (true) {
    const sansio::Status st = ctx.status();
    if (st == sansio::Status::kDone) break;
    if (st == sansio::Status::kHaveOutput) {
      size_t produced = 0;
      ctx.pull(std::span<uint8_t>(buf.data(), buf.size()), produced);
      out.insert(out.end(), buf.begin(), buf.begin() + produced);
      continue;
    }
    if (fed < input.size()) {
      size_t consumed = 0;
      ctx.feed(input.subspan(fed, std::min(feed_step, input.size() - fed)),
               consumed);
      fed += consumed;
    } else if (!finished) {
      ctx.finish();
      finished = true;
    } else {
      ADD_FAILURE() << "machine wants input after finish()";
      return out;
    }
  }
  return out;
}

sz::Params small_params() {
  sz::Params p;
  p.abs_error_bound = 1e-4;
  return p;
}

Bytes key_for(core::Scheme scheme) {
  return scheme == core::Scheme::kNone ? Bytes{} : kKey;
}

sansio::EncoderConfig encoder_config(core::Scheme scheme, sz::DType dtype,
                                     sansio::Container container) {
  sansio::EncoderConfig cfg;
  cfg.params = small_params();
  cfg.scheme = scheme;
  cfg.key = key_for(scheme);
  cfg.dtype = dtype;
  cfg.dims = kSmallDims;
  cfg.container = container;
  cfg.chunks = 3;
  cfg.threads = 1;
  cfg.drbg_seed = 0x5EED;
  return cfg;
}

/// One-shot reference bytes for the same configuration.
Bytes oneshot_encode(core::Scheme scheme, sz::DType dtype,
                     sansio::Container container) {
  const Bytes key = key_for(scheme);
  crypto::CtrDrbg drbg(0x5EED);
  const std::vector<float> f32 = field_f32(kSmallDims, 7);
  const std::vector<double> f64 = field_f64(kSmallDims);
  switch (container) {
    case sansio::Container::kV2Single: {
      const core::SecureCompressor c(small_params(), scheme, BytesView(key),
                                     crypto::Mode::kCbc, &drbg);
      return dtype == sz::DType::kFloat32
                 ? c.compress(std::span<const float>(f32), kSmallDims)
                       .container
                 : c.compress(std::span<const double>(f64), kSmallDims)
                       .container;
    }
    case sansio::Container::kV3Chunked: {
      archive::ChunkedConfig cc;
      cc.threads = 1;
      cc.chunks = 3;
      return dtype == sz::DType::kFloat32
                 ? archive::compress_chunked(std::span<const float>(f32),
                                             kSmallDims, small_params(),
                                             scheme, BytesView(key), {}, cc,
                                             &drbg)
                       .archive
                 : archive::compress_chunked(std::span<const double>(f64),
                                             kSmallDims, small_params(),
                                             scheme, BytesView(key), {}, cc,
                                             &drbg)
                       .archive;
    }
    case sansio::Container::kV1Slab: {
      archive::ChunkedConfig sc;
      sc.threads = 1;
      sc.chunks = 3;
      return dtype == sz::DType::kFloat32
                 ? archive::compress_slabs(std::span<const float>(f32),
                                           kSmallDims, small_params(),
                                           scheme, BytesView(key), {}, sc,
                                           &drbg)
                       .archive
                 : archive::compress_slabs(std::span<const double>(f64),
                                           kSmallDims, small_params(),
                                           scheme, BytesView(key), {}, sc,
                                           &drbg)
                       .archive;
    }
  }
  return {};
}

/// One-shot reference decode of `container` to raw element bytes.
Bytes oneshot_decode(BytesView container, core::Scheme scheme) {
  const Bytes key = key_for(scheme);
  const core::SecureCompressor c(small_params(), scheme, BytesView(key));
  const core::DecompressResult r = c.decompress(container);
  return r.dtype == sz::DType::kFloat32
             ? Bytes(as_bytes(r.f32).begin(), as_bytes(r.f32).end())
             : Bytes(as_bytes(r.f64).begin(), as_bytes(r.f64).end());
}

struct Combo {
  core::Scheme scheme;
  sz::DType dtype;
  sansio::Container container;
};

std::vector<Combo> all_combos() {
  std::vector<Combo> combos;
  for (const core::Scheme scheme :
       {core::Scheme::kNone, core::Scheme::kCmprEncr,
        core::Scheme::kEncrQuant, core::Scheme::kEncrHuffman}) {
    for (const sz::DType dtype :
         {sz::DType::kFloat32, sz::DType::kFloat64}) {
      for (const sansio::Container container :
           {sansio::Container::kV2Single, sansio::Container::kV3Chunked}) {
        combos.push_back({scheme, dtype, container});
      }
    }
  }
  // v1 slab rides along on one representative combo per dtype.
  combos.push_back({core::Scheme::kCmprEncr, sz::DType::kFloat32,
                    sansio::Container::kV1Slab});
  combos.push_back({core::Scheme::kEncrQuant, sz::DType::kFloat64,
                    sansio::Container::kV1Slab});
  return combos;
}

std::string combo_name(const Combo& c) {
  return std::string(core::scheme_name(c.scheme)) + "/" +
         (c.dtype == sz::DType::kFloat32 ? "f32" : "f64") + "/" +
         (c.container == sansio::Container::kV2Single     ? "v2"
          : c.container == sansio::Container::kV3Chunked ? "v3"
                                                         : "v1");
}

// ---------------------------------------------------------------------
// Dribble == one-shot, both directions.

TEST(SansIo, DribbleEncodeEqualsOneShot) {
  for (const Combo& c : all_combos()) {
    SCOPED_TRACE(combo_name(c));
    const Bytes want = oneshot_encode(c.scheme, c.dtype, c.container);
    const std::vector<float> f32 = field_f32(kSmallDims, 7);
    const std::vector<double> f64 = field_f64(kSmallDims);
    const BytesView raw =
        c.dtype == sz::DType::kFloat32 ? as_bytes(f32) : as_bytes(f64);
    const Bytes input(raw.begin(), raw.end());
    auto ctx = sansio::Context::encoder(
        encoder_config(c.scheme, c.dtype, c.container));
    const Bytes got = pump(*ctx, input, 1, 1);
    EXPECT_EQ(got, want);
    const sansio::Result& r = ctx->result();
    EXPECT_EQ(r.bytes_in, input.size());
    EXPECT_EQ(r.bytes_out, want.size());
    EXPECT_EQ(r.elements, kSmallDims.count());
    EXPECT_EQ(r.dims, kSmallDims);
  }
}

TEST(SansIo, DribbleDecodeEqualsOneShot) {
  for (const Combo& c : all_combos()) {
    SCOPED_TRACE(combo_name(c));
    const Bytes container = oneshot_encode(c.scheme, c.dtype, c.container);

    Bytes want;
    switch (c.container) {
      case sansio::Container::kV2Single:
        want = oneshot_decode(container, c.scheme);
        break;
      case sansio::Container::kV3Chunked: {
        if (c.dtype == sz::DType::kFloat32) {
          const auto f = archive::decompress_chunked_f32(
              container, BytesView(key_for(c.scheme)));
          want.assign(as_bytes(f).begin(), as_bytes(f).end());
        } else {
          const auto f = archive::decompress_chunked_f64(
              container, BytesView(key_for(c.scheme)));
          want.assign(as_bytes(f).begin(), as_bytes(f).end());
        }
        break;
      }
      case sansio::Container::kV1Slab: {
        if (c.dtype == sz::DType::kFloat32) {
          const auto f = archive::decompress_slabs_f32(
              container, BytesView(key_for(c.scheme)));
          want.assign(as_bytes(f).begin(), as_bytes(f).end());
        } else {
          const auto f = archive::decompress_slabs_f64(
              container, BytesView(key_for(c.scheme)));
          want.assign(as_bytes(f).begin(), as_bytes(f).end());
        }
        break;
      }
    }

    sansio::DecoderConfig dc;
    dc.key = key_for(c.scheme);
    dc.threads = 1;
    auto ctx = sansio::Context::decoder(dc);
    const Bytes got = pump(*ctx, container, 1, 1);
    EXPECT_EQ(got, want);
    const sansio::Result& r = ctx->result();
    EXPECT_EQ(r.container, c.container);
    EXPECT_EQ(r.dtype, c.dtype);
    EXPECT_EQ(r.dims, kSmallDims);
    EXPECT_EQ(r.bytes_out, want.size());
  }
}

TEST(SansIo, BulkStepsMatchDribble) {
  // Chunky feeds/pulls (odd sizes, larger than the pipes' natural
  // quanta) must produce the same bytes as the 1-byte dribble.
  const Combo c{core::Scheme::kEncrHuffman, sz::DType::kFloat32,
                sansio::Container::kV3Chunked};
  const Bytes want = oneshot_encode(c.scheme, c.dtype, c.container);
  const std::vector<float> f = field_f32(kSmallDims, 7);
  const Bytes input(as_bytes(f).begin(), as_bytes(f).end());
  for (const size_t step : {7u, 4096u, 1u << 20}) {
    auto ctx = sansio::Context::encoder(
        encoder_config(c.scheme, c.dtype, c.container));
    EXPECT_EQ(pump(*ctx, input, step, step), want) << "step " << step;
  }
}

// ---------------------------------------------------------------------
// Golden pins through the sans-io seam.

TEST(SansIoGolden, V2EncrHuffman) {
  const std::vector<float> f = field_f32(kGoldenDims, 17);
  sansio::EncoderConfig cfg;
  cfg.params = small_params();
  cfg.scheme = core::Scheme::kEncrHuffman;
  cfg.key = kKey;
  cfg.dims = kGoldenDims;
  cfg.drbg_seed = 0xC0FFEE;
  auto ctx = sansio::Context::encoder(cfg);
  const Bytes got = pump(*ctx, as_bytes(f), 4096, 4096);
  EXPECT_EQ(
      digest(got),
      "9cae546ebf236276f897204799b0ef55c810777a697b389cfe0b0f35a6a81c93");
}

TEST(SansIoGolden, ChunkedArchiveSeekFooter) {
  const std::vector<float> f = field_f32(kGoldenDims, 17);
  sansio::EncoderConfig cfg;
  cfg.params = small_params();
  cfg.scheme = core::Scheme::kEncrHuffman;
  cfg.key = kKey;
  cfg.dims = kGoldenDims;
  cfg.container = sansio::Container::kV3Chunked;
  cfg.chunks = 4;
  cfg.threads = 2;
  cfg.drbg_seed = 0xABCD;
  auto ctx = sansio::Context::encoder(cfg);
  const Bytes got = pump(*ctx, as_bytes(f), 4096, 4096);
  EXPECT_EQ(
      digest(got),
      "db0540590a318ac3dbfa2116d0dd8c09dd24417a1841fe0bff5a61828df8d7e7");
}

TEST(SansIoGolden, ChunkedArchiveFooterless) {
  const std::vector<float> f = field_f32(kGoldenDims, 17);
  sansio::EncoderConfig cfg;
  cfg.params = small_params();
  cfg.scheme = core::Scheme::kEncrHuffman;
  cfg.key = kKey;
  cfg.dims = kGoldenDims;
  cfg.container = sansio::Container::kV3Chunked;
  cfg.chunks = 4;
  cfg.threads = 2;
  cfg.seek_table = false;
  cfg.drbg_seed = 0xABCD;
  auto ctx = sansio::Context::encoder(cfg);
  const Bytes got = pump(*ctx, as_bytes(f), 4096, 4096);
  EXPECT_EQ(
      digest(got),
      "f3c578186833f9cb9d44e3e7c2958e4a6136d234adfe3e6e5d16c9613082d188");
}

TEST(SansIoGolden, SlabArchive) {
  const std::vector<float> f = field_f32(kGoldenDims, 17);
  sansio::EncoderConfig cfg;
  cfg.params = small_params();
  cfg.scheme = core::Scheme::kCmprEncr;
  cfg.key = kKey;
  cfg.dims = kGoldenDims;
  cfg.container = sansio::Container::kV1Slab;
  cfg.chunks = 4;
  cfg.threads = 2;
  cfg.drbg_seed = 0xABCD;
  auto ctx = sansio::Context::encoder(cfg);
  const Bytes got = pump(*ctx, as_bytes(f), 4096, 4096);
  EXPECT_EQ(
      digest(got),
      "5c8c10668628689ee3746de1c692229a8ddfe54032568ab8eb38ce7343330bb6");
}

// ---------------------------------------------------------------------
// Authenticated containers through the context, both directions.

TEST(SansIo, AuthenticatedRoundTrip) {
  const std::vector<float> f = field_f32(kSmallDims, 7);
  sansio::EncoderConfig cfg;
  cfg.params = small_params();
  cfg.scheme = core::Scheme::kEncrHuffman;
  cfg.spec.authenticate = true;
  cfg.key = kKey;
  cfg.dims = kSmallDims;
  cfg.drbg_seed = 1;
  auto enc = sansio::Context::encoder(cfg);
  const Bytes container = pump(*enc, as_bytes(f), 512, 512);

  sansio::DecoderConfig dc;
  dc.key = kKey;
  auto dec = sansio::Context::decoder(dc);
  const Bytes restored = pump(*dec, container, 512, 512);
  ASSERT_EQ(restored.size(), f.size() * sizeof(float));
  const auto* got = reinterpret_cast<const float*>(restored.data());
  for (size_t i = 0; i < f.size(); ++i) {
    ASSERT_NEAR(got[i], f[i], 1e-4) << "element " << i;
  }

  // A flipped byte must be rejected (HMAC), surfacing as a typed error.
  Bytes tampered = container;
  tampered[tampered.size() / 2] ^= 0x40;
  auto dec2 = sansio::Context::decoder(dc);
  size_t consumed = 0;
  EXPECT_THROW(
      {
        dec2->feed(tampered, consumed);
        dec2->finish();
        uint8_t sinkhole[256];
        size_t produced = 0;
        while (dec2->pull(sinkhole, produced) ==
               sansio::Status::kHaveOutput) {
        }
      },
      Error);
}

// ---------------------------------------------------------------------
// Salvage decode through the context.

TEST(SansIo, SalvageDamagedArchive) {
  const Combo c{core::Scheme::kEncrHuffman, sz::DType::kFloat32,
                sansio::Container::kV3Chunked};
  Bytes archive = oneshot_encode(c.scheme, c.dtype, c.container);
  // Stomp a region in the middle of the frames: at least one chunk dies.
  for (size_t i = archive.size() / 2; i < archive.size() / 2 + 32; ++i) {
    archive[i] ^= 0xA5;
  }
  sansio::DecoderConfig dc;
  dc.key = kKey;
  dc.salvage = true;
  dc.fill = archive::FallbackFill::kZeros;
  auto ctx = sansio::Context::decoder(dc);
  const Bytes got = pump(*ctx, archive, 1, 1);
  EXPECT_EQ(got.size(), kSmallDims.count() * sizeof(float));
  const sansio::Result& r = ctx->result();
  ASSERT_TRUE(r.salvage.has_value());
  EXPECT_LT(r.salvage->chunks_recovered, r.salvage->chunks_expected);
  EXPECT_GT(r.salvage->chunks_recovered, 0u);
}

TEST(SansIo, SalvageRejectsMeanFill) {
  sansio::DecoderConfig dc;
  dc.key = kKey;
  dc.salvage = true;
  dc.fill = archive::FallbackFill::kMean;
  EXPECT_THROW(sansio::Context::decoder(dc), Error);
}

// ---------------------------------------------------------------------
// Misuse: typed errors, never UB.

TEST(SansIoMisuse, PullBeforeFeedReportsNeedInput) {
  auto ctx = sansio::Context::encoder(encoder_config(
      core::Scheme::kNone, sz::DType::kFloat32, sansio::Container::kV2Single));
  uint8_t buf[64];
  size_t produced = 99;
  EXPECT_EQ(ctx->pull(buf, produced), sansio::Status::kNeedInput);
  EXPECT_EQ(produced, 0u);
}

TEST(SansIoMisuse, DoubleFinishThrowsStateError) {
  sansio::DecoderConfig dc;
  auto ctx = sansio::Context::decoder(dc);
  size_t consumed = 0;
  const Bytes container = oneshot_encode(
      core::Scheme::kNone, sz::DType::kFloat32, sansio::Container::kV2Single);
  ASSERT_EQ(ctx->feed(container, consumed), sansio::Status::kNeedInput);
  ASSERT_EQ(consumed, container.size());
  ctx->finish();
  EXPECT_THROW(ctx->finish(), sansio::StateError);
}

TEST(SansIoMisuse, FeedAfterFinishThrowsStateError) {
  auto ctx = sansio::Context::encoder(encoder_config(
      core::Scheme::kNone, sz::DType::kFloat32, sansio::Container::kV2Single));
  const std::vector<float> f = field_f32(kSmallDims, 7);
  size_t consumed = 0;
  ctx->feed(as_bytes(f), consumed);
  ASSERT_EQ(consumed, f.size() * sizeof(float));
  ctx->finish();
  uint8_t one = 0;
  EXPECT_THROW(ctx->feed(BytesView(&one, 1), consumed), sansio::StateError);
}

TEST(SansIoMisuse, ReuseAfterErrorThrowsStateError) {
  sansio::DecoderConfig dc;
  auto ctx = sansio::Context::decoder(dc);
  const Bytes junk = {'j', 'u', 'n', 'k', 1, 2, 3, 4};
  size_t consumed = 0;
  ctx->feed(junk, consumed);
  EXPECT_THROW(ctx->finish(), CorruptError);
  // The machine is dead: every further call is StateError, including a
  // second finish (NOT the double-finish path — the error came first).
  uint8_t buf[16];
  size_t produced = 0;
  EXPECT_THROW(ctx->feed(junk, consumed), sansio::StateError);
  EXPECT_THROW(ctx->pull(buf, produced), sansio::StateError);
  EXPECT_THROW(ctx->finish(), sansio::StateError);
  EXPECT_THROW(ctx->status(), sansio::StateError);
  EXPECT_THROW(ctx->result(), sansio::StateError);
}

TEST(SansIoMisuse, TruncatedEncodeInputThrowsIoError) {
  auto ctx = sansio::Context::encoder(encoder_config(
      core::Scheme::kNone, sz::DType::kFloat32, sansio::Container::kV2Single));
  const uint8_t half[7] = {1, 2, 3, 4, 5, 6, 7};
  size_t consumed = 0;
  ctx->feed(half, consumed);
  EXPECT_THROW(ctx->finish(), IoError);
}

TEST(SansIoMisuse, TrailingEncodeInputThrowsError) {
  auto ctx = sansio::Context::encoder(encoder_config(
      core::Scheme::kNone, sz::DType::kFloat32, sansio::Container::kV2Single));
  const std::vector<float> f = field_f32(kSmallDims, 7);
  Bytes input(as_bytes(f).begin(), as_bytes(f).end());
  input.push_back(0xFF);  // one byte beyond the declared field
  // Surplus is checked against the declared field length at feed time,
  // so the offending feed itself throws — deterministically, however
  // far the driver has progressed.
  size_t consumed = 0;
  EXPECT_THROW(ctx->feed(input, consumed), Error);
  EXPECT_EQ(consumed, 0u);
  EXPECT_THROW(ctx->status(), sansio::StateError);
}

TEST(SansIoMisuse, WrongKeyDecodeThrows) {
  const Bytes container =
      oneshot_encode(core::Scheme::kEncrHuffman, sz::DType::kFloat32,
                     sansio::Container::kV2Single);
  sansio::DecoderConfig dc;
  dc.key = Bytes(16, 0xEE);
  auto ctx = sansio::Context::decoder(dc);
  size_t consumed = 0;
  ctx->feed(container, consumed);
  EXPECT_THROW(
      {
        ctx->finish();
        uint8_t sinkhole[256];
        size_t produced = 0;
        while (ctx->pull(sinkhole, produced) ==
               sansio::Status::kHaveOutput) {
        }
      },
      Error);
}

TEST(SansIoMisuse, BadConfigsRejectedEagerly) {
  // Encrypting scheme without a key.
  sansio::EncoderConfig no_key = encoder_config(
      core::Scheme::kCmprEncr, sz::DType::kFloat32,
      sansio::Container::kV2Single);
  no_key.key.clear();
  EXPECT_THROW(sansio::Context::encoder(no_key), Error);

  // Wrong key size for the cipher.
  sansio::EncoderConfig short_key = encoder_config(
      core::Scheme::kCmprEncr, sz::DType::kFloat32,
      sansio::Container::kV2Single);
  short_key.key.resize(5);
  EXPECT_THROW(sansio::Context::encoder(short_key), Error);

  // No dims.
  sansio::EncoderConfig no_dims = encoder_config(
      core::Scheme::kNone, sz::DType::kFloat32, sansio::Container::kV2Single);
  no_dims.dims = Dims{};
  EXPECT_THROW(sansio::Context::encoder(no_dims), Error);
}

TEST(SansIoMisuse, ResultBeforeDoneThrowsStateError) {
  auto ctx = sansio::Context::encoder(encoder_config(
      core::Scheme::kNone, sz::DType::kFloat32, sansio::Container::kV2Single));
  EXPECT_THROW(ctx->result(), sansio::StateError);
}

TEST(SansIoMisuse, AbandonedContextTearsDownCleanly) {
  // Destroying a context mid-run (bytes fed, output pending, no finish)
  // must join the driver without leaks or hangs — ASan/TSan legs verify.
  auto ctx = sansio::Context::encoder(encoder_config(
      core::Scheme::kEncrHuffman, sz::DType::kFloat32,
      sansio::Container::kV3Chunked));
  const std::vector<float> f = field_f32(kSmallDims, 7);
  size_t consumed = 0;
  ctx->feed(as_bytes(f), consumed);
  // No finish, no pull: the destructor aborts the pump.
}

TEST(SansIo, DecoderToleratesTrailingBytes) {
  // A strict v3 stream decode stops at the last indexed frame; the seek
  // footer (and any trailing garbage fed after it) must not fail the
  // decode — mirroring the piped CLI contract.
  Bytes archive = oneshot_encode(core::Scheme::kNone, sz::DType::kFloat32,
                                 sansio::Container::kV3Chunked);
  archive.insert(archive.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  sansio::DecoderConfig dc;
  auto ctx = sansio::Context::decoder(dc);
  const Bytes got = pump(*ctx, archive, 4096, 4096);
  EXPECT_EQ(got.size(), kSmallDims.count() * sizeof(float));
}

TEST(SansIo, StrictV3DecodeReportsChunkCount) {
  const Bytes archive = oneshot_encode(
      core::Scheme::kEncrHuffman, sz::DType::kFloat32,
      sansio::Container::kV3Chunked);
  sansio::DecoderConfig dc;
  dc.key = kKey;
  auto ctx = sansio::Context::decoder(dc);
  pump(*ctx, archive, 4096, 4096);
  EXPECT_EQ(ctx->result().chunk_count, 3u);
  EXPECT_EQ(ctx->result().container, sansio::Container::kV3Chunked);
}

TEST(SansIo, EmptyFeedIsANoOp) {
  // A zero-length feed may carry a null pointer (the C ABI passes
  // szsec_feed(ctx, NULL, 0) straight through); it must take nothing.
  for (const sansio::Container c :
       {sansio::Container::kV2Single, sansio::Container::kV3Chunked}) {
    auto enc = sansio::Context::encoder(
        encoder_config(core::Scheme::kNone, sz::DType::kFloat32, c));
    size_t consumed = 99;
    EXPECT_EQ(enc->feed(BytesView(), consumed), sansio::Status::kNeedInput);
    EXPECT_EQ(consumed, 0u);
  }
  auto dec = sansio::Context::decoder({});
  size_t consumed = 99;
  EXPECT_EQ(dec->feed(BytesView(), consumed), sansio::Status::kNeedInput);
  EXPECT_EQ(consumed, 0u);
}

TEST(SansIo, UnpulledV3DecodeHoldsOneCommit) {
  // A decoder fed a whole archive without pulling stops taking input
  // once a commit's output is pending: it holds one chunk's elements,
  // never the field.
  const Dims dims{24, 8, 10};
  const std::vector<float> f = field_f32(dims, 7);
  archive::ChunkedConfig cc;
  cc.chunks = 6;
  crypto::CtrDrbg drbg(0x5EED);
  const Bytes archive =
      archive::compress_chunked(std::span<const float>(f), dims,
                                small_params(), core::Scheme::kNone, {}, {},
                                cc, &drbg)
          .archive;
  const size_t chunk_bytes = f.size() / 6 * sizeof(float);
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    sansio::DecoderConfig dc;
    dc.threads = threads;
    auto ctx = sansio::Context::decoder(dc);
    // Offered everything at once, the machine stops taking input as soon
    // as a chunk's rows are pending.
    size_t fed = 0;
    ASSERT_EQ(ctx->feed(archive, fed), sansio::Status::kHaveOutput);
    EXPECT_LT(fed, archive.size());
    // Every pull then finds at most one chunk's rows, however large.
    Bytes got;
    std::vector<uint8_t> buf(f.size() * sizeof(float));
    size_t pulls = 0;
    while (true) {
      const sansio::Status st = ctx->status();
      if (st == sansio::Status::kDone) break;
      if (st == sansio::Status::kHaveOutput) {
        size_t produced = 0;
        ctx->pull(std::span<uint8_t>(buf), produced);
        EXPECT_LE(produced, chunk_bytes) << "pull " << pulls;
        got.insert(got.end(), buf.begin(), buf.begin() + produced);
        ++pulls;
      } else if (fed < archive.size()) {
        size_t consumed = 0;
        ctx->feed(BytesView(archive).subspan(fed), consumed);
        fed += consumed;
      } else {
        ctx->finish();
      }
    }
    EXPECT_EQ(got.size(), f.size() * sizeof(float));
    EXPECT_EQ(pulls, 6u);
  }
}

// ---------------------------------------------------------------------
// One worker means no thread: the codec runs on the caller.

size_t threads_now() {
  size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

/// Samples the process's thread count on every read.
class ThreadProbeSource final : public ByteSource {
 public:
  explicit ThreadProbeSource(ByteSource& inner) : inner_(inner) {}
  size_t read(std::span<uint8_t> out) override {
    max_threads = std::max(max_threads, threads_now());
    return inner_.read(out);
  }
  size_t max_threads = 0;

 private:
  ByteSource& inner_;
};

/// Samples the process's thread count on every write.
class ThreadProbeSink final : public ByteSink {
 public:
  void write(BytesView data) override {
    max_threads = std::max(max_threads, threads_now());
    bytes.insert(bytes.end(), data.begin(), data.end());
  }
  size_t max_threads = 0;
  Bytes bytes;
};

TEST(NoThread, OneThreadContextRoundTripStartsNoThread) {
  const size_t before = threads_now();
  const std::vector<float> f = field_f32(kSmallDims, 7);
  for (const sansio::Container c :
       {sansio::Container::kV2Single, sansio::Container::kV3Chunked}) {
    SCOPED_TRACE(static_cast<int>(c));
    auto enc = sansio::Context::encoder(
        encoder_config(core::Scheme::kEncrHuffman, sz::DType::kFloat32, c));
    size_t consumed = 0;
    const BytesView raw = as_bytes(f);
    enc->feed(raw.subspan(0, raw.size() / 2), consumed);
    EXPECT_EQ(threads_now(), before);  // mid-run
    const Bytes archive = pump(*enc, raw.subspan(consumed), 4096, 4096);

    sansio::DecoderConfig dc;
    dc.key = kKey;
    dc.threads = 1;
    auto dec = sansio::Context::decoder(dc);
    dec->feed(BytesView(archive).subspan(0, archive.size() / 2), consumed);
    EXPECT_EQ(threads_now(), before);  // mid-run
    const Bytes back =
        pump(*dec, BytesView(archive).subspan(consumed), 4096, 4096);
    EXPECT_EQ(back.size(), raw.size());
    EXPECT_EQ(threads_now(), before);
  }
}

TEST(NoThread, OneThreadStreamRoundTripStartsNoThread) {
  const size_t before = threads_now();
  const std::vector<float> f = field_f32(kSmallDims, 7);
  archive::ChunkedConfig cc;
  cc.threads = 1;
  cc.chunks = 3;
  cc.spool = FrameSpool::Backing::kMemory;

  MemorySource raw(as_bytes(f));
  ThreadProbeSource raw_probe(raw);
  ThreadProbeSink archive;
  archive::compress_chunked_stream(raw_probe, archive, sz::DType::kFloat32,
                                   kSmallDims, small_params(),
                                   core::Scheme::kEncrHuffman, kKey, {}, cc);
  EXPECT_EQ(raw_probe.max_threads, before);
  EXPECT_EQ(archive.max_threads, before);

  MemorySource packed{BytesView(archive.bytes)};
  ThreadProbeSource packed_probe(packed);
  ThreadProbeSink back;
  const archive::ChunkedStreamDecodeResult r =
      archive::decompress_chunked_stream(packed_probe, back, kKey, cc);
  EXPECT_EQ(packed_probe.max_threads, before);
  EXPECT_EQ(back.max_threads, before);
  EXPECT_EQ(back.bytes.size(), f.size() * sizeof(float));
  EXPECT_EQ(r.chunk_count, 3u);
}

}  // namespace
}  // namespace szsec
