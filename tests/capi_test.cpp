// C ABI coverage: the error taxonomy table (exception type <-> stable
// code <-> name, pinned across the boundary), state-machine misuse
// codes, struct_size versioning, and one-shot/streaming round trips
// proven byte-identical to the underlying sans-io contexts.

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <functional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "capi/error_map.h"
#include "common/error.h"
#include "common/io.h"
#include "core/sansio.h"
#include "szsec.h"

namespace szsec {
namespace {

const Bytes kKey = [] {
  Bytes k(16);
  for (size_t i = 0; i < k.size(); ++i) k[i] = static_cast<uint8_t>(i);
  return k;
}();

std::vector<float> test_field() {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> step(-0.5f, 0.5f);
  std::vector<float> f(6 * 8 * 10);
  float v = 10.0f;
  for (float& x : f) {
    v += step(rng);
    x = v;
  }
  return f;
}

szsec_options base_options() {
  szsec_options o;
  szsec_options_init(&o);
  o.scheme = SZSEC_SCHEME_ENCR_HUFFMAN;
  o.rank = 3;
  o.dims[0] = 6;
  o.dims[1] = 8;
  o.dims[2] = 10;
  o.has_drbg_seed = 1;
  o.drbg_seed = 0x5EED;
  return o;
}

// ------------------------------------------------------------------
// Identity and names

TEST(CApiVersion, AbiAndRelease) {
  EXPECT_EQ(szsec_abi_version(), SZSEC_ABI_VERSION);
  const std::string v = szsec_version();
  EXPECT_FALSE(v.empty());
  EXPECT_NE(v.find('.'), std::string::npos);
}

TEST(CApiVersion, ErrorNamesAreStable) {
  EXPECT_STREQ(szsec_error_name(SZSEC_OK), "SZSEC_OK");
  EXPECT_STREQ(szsec_error_name(SZSEC_NEED_INPUT), "SZSEC_NEED_INPUT");
  EXPECT_STREQ(szsec_error_name(SZSEC_HAVE_OUTPUT), "SZSEC_HAVE_OUTPUT");
  EXPECT_STREQ(szsec_error_name(SZSEC_DONE), "SZSEC_DONE");
  EXPECT_STREQ(szsec_error_name(SZSEC_E_ARG), "SZSEC_E_ARG");
  EXPECT_STREQ(szsec_error_name(SZSEC_E_STATE), "SZSEC_E_STATE");
  EXPECT_STREQ(szsec_error_name(SZSEC_E_INVALID), "SZSEC_E_INVALID");
  EXPECT_STREQ(szsec_error_name(SZSEC_E_CORRUPT), "SZSEC_E_CORRUPT");
  EXPECT_STREQ(szsec_error_name(SZSEC_E_CRYPTO), "SZSEC_E_CRYPTO");
  EXPECT_STREQ(szsec_error_name(SZSEC_E_IO), "SZSEC_E_IO");
  EXPECT_STREQ(szsec_error_name(SZSEC_E_IO_TRANSIENT),
               "SZSEC_E_IO_TRANSIENT");
  EXPECT_STREQ(szsec_error_name(SZSEC_E_NOMEM), "SZSEC_E_NOMEM");
  EXPECT_STREQ(szsec_error_name(SZSEC_E_INTERNAL), "SZSEC_E_INTERNAL");
  EXPECT_STREQ(szsec_error_name(-999), "SZSEC_E_UNKNOWN");
  EXPECT_STREQ(szsec_error_name(99), "SZSEC_E_UNKNOWN");
}

// ------------------------------------------------------------------
// The taxonomy table: every library exception type maps to exactly one
// stable code, and the what() text survives the crossing.  This is the
// contract docs/EMBEDDING.md documents; renumbering is an ABI break.

struct TaxonomyRow {
  const char* label;
  std::function<void()> raise;
  int code;
  const char* name;
  const char* message;  // expected detail (nullptr: don't check)
};

TEST(CApiTaxonomy, ExceptionTypeToCodeToMessage) {
  const TaxonomyRow rows[] = {
      {"StateError", [] { throw sansio::StateError("feed after finish()"); },
       SZSEC_E_STATE, "SZSEC_E_STATE", "feed after finish()"},
      {"CorruptError", [] { throw CorruptError("bad index CRC"); },
       SZSEC_E_CORRUPT, "SZSEC_E_CORRUPT", "bad index CRC"},
      {"CryptoError", [] { throw CryptoError("MAC mismatch"); },
       SZSEC_E_CRYPTO, "SZSEC_E_CRYPTO", "MAC mismatch"},
      {"IoError/permanent", [] { throw IoError("disk gone", EIO); },
       SZSEC_E_IO, "SZSEC_E_IO", "disk gone"},
      {"IoError/no-errno", [] { throw IoError("input ended mid-field"); },
       SZSEC_E_IO, "SZSEC_E_IO", "input ended mid-field"},
      {"IoError/EINTR", [] { throw IoError("interrupted", EINTR); },
       SZSEC_E_IO_TRANSIENT, "SZSEC_E_IO_TRANSIENT", "interrupted"},
      {"IoError/EAGAIN", [] { throw IoError("would block", EAGAIN); },
       SZSEC_E_IO_TRANSIENT, "SZSEC_E_IO_TRANSIENT", "would block"},
      {"IoError/short-write",
       [] { throw IoError("short write", kShortWriteError, 42); },
       SZSEC_E_IO_TRANSIENT, "SZSEC_E_IO_TRANSIENT", "short write"},
      {"Error", [] { throw Error("key must be 16 bytes"); }, SZSEC_E_INVALID,
       "SZSEC_E_INVALID", "key must be 16 bytes"},
      {"bad_alloc", [] { throw std::bad_alloc(); }, SZSEC_E_NOMEM,
       "SZSEC_E_NOMEM", nullptr},
      {"std::exception", [] { throw std::logic_error("oops"); },
       SZSEC_E_INTERNAL, "SZSEC_E_INTERNAL", "oops"},
      {"unknown", [] { throw 42; }, SZSEC_E_INTERNAL, "SZSEC_E_INTERNAL",
       nullptr},
  };
  for (const TaxonomyRow& row : rows) {
    SCOPED_TRACE(row.label);
    capi::MappedError m;
    try {
      row.raise();
      FAIL() << "row did not throw";
    } catch (...) {
      m = capi::map_current_exception();
    }
    EXPECT_EQ(m.code, row.code);
    EXPECT_LT(m.code, 0) << "error codes must be negative";
    EXPECT_STREQ(szsec_error_name(m.code), row.name);
    if (row.message != nullptr) {
      EXPECT_EQ(m.message, row.message);
    }
  }
}

// Distinct codes: no two taxonomy targets collide.
TEST(CApiTaxonomy, CodesAreDistinct) {
  const int codes[] = {SZSEC_E_ARG,     SZSEC_E_STATE,  SZSEC_E_INVALID,
                       SZSEC_E_CORRUPT, SZSEC_E_CRYPTO, SZSEC_E_IO,
                       SZSEC_E_IO_TRANSIENT, SZSEC_E_NOMEM,
                       SZSEC_E_INTERNAL};
  for (size_t i = 0; i < std::size(codes); ++i) {
    for (size_t j = i + 1; j < std::size(codes); ++j) {
      EXPECT_NE(codes[i], codes[j]);
    }
  }
}

// ------------------------------------------------------------------
// Codes produced by real calls across the boundary

TEST(CApiErrors, NullArguments) {
  EXPECT_EQ(szsec_encoder_new(nullptr, nullptr, 0, nullptr), SZSEC_E_ARG);
  szsec_ctx* ctx = nullptr;
  EXPECT_EQ(szsec_encoder_new(nullptr, nullptr, 4, &ctx), SZSEC_E_ARG);
  EXPECT_EQ(ctx, nullptr);
  EXPECT_EQ(szsec_feed(nullptr, nullptr, 0, nullptr), SZSEC_E_ARG);
  EXPECT_EQ(szsec_pull(nullptr, nullptr, 0, nullptr), SZSEC_E_ARG);
  EXPECT_EQ(szsec_finish(nullptr), SZSEC_E_ARG);
  EXPECT_EQ(szsec_status(nullptr), SZSEC_E_ARG);
  EXPECT_EQ(szsec_ctx_info(nullptr, nullptr), SZSEC_E_ARG);
  szsec_ctx_free(nullptr);  // must be a no-op
  EXPECT_STRNE(szsec_last_error_message(), "");
}

TEST(CApiErrors, BadStructSize) {
  szsec_options o = base_options();
  o.struct_size = 4;  // smaller than any released layout
  szsec_ctx* ctx = nullptr;
  EXPECT_EQ(szsec_encoder_new(&o, kKey.data(), kKey.size(), &ctx),
            SZSEC_E_ARG);
  o = base_options();
  o.struct_size = sizeof(szsec_options) + 64;  // from-the-future caller
  EXPECT_EQ(szsec_encoder_new(&o, kKey.data(), kKey.size(), &ctx),
            SZSEC_E_ARG);
}

TEST(CApiErrors, InvalidConfiguration) {
  szsec_ctx* ctx = nullptr;
  szsec_options o = base_options();
  o.rank = 0;  // encoder needs dims
  EXPECT_EQ(szsec_encoder_new(&o, kKey.data(), kKey.size(), &ctx),
            SZSEC_E_INVALID);
  o = base_options();
  o.scheme = 17;
  EXPECT_EQ(szsec_encoder_new(&o, kKey.data(), kKey.size(), &ctx),
            SZSEC_E_INVALID);
  o = base_options();
  o.dims[1] = 0;
  EXPECT_EQ(szsec_encoder_new(&o, kKey.data(), kKey.size(), &ctx),
            SZSEC_E_INVALID);
  // Encrypting scheme with no key: rejected eagerly by the context.
  o = base_options();
  EXPECT_EQ(szsec_encoder_new(&o, nullptr, 0, &ctx), SZSEC_E_INVALID);
  EXPECT_STRNE(szsec_last_error_message(), "");
  EXPECT_EQ(ctx, nullptr);
}

TEST(CApiErrors, CorruptContainer) {
  szsec_ctx* ctx = nullptr;
  ASSERT_EQ(szsec_decoder_new(nullptr, nullptr, 0, &ctx), SZSEC_NEED_INPUT);
  const uint8_t junk[16] = {'n', 'o', 'p', 'e'};
  size_t consumed = 0;
  int rc = szsec_feed(ctx, junk, sizeof junk, &consumed);
  if (rc >= 0) rc = szsec_finish(ctx);
  EXPECT_EQ(rc, SZSEC_E_CORRUPT);
  EXPECT_STRNE(szsec_last_error_message(), "");
  // Dead context: every further call is SZSEC_E_STATE.
  EXPECT_EQ(szsec_status(ctx), SZSEC_E_STATE);
  EXPECT_EQ(szsec_feed(ctx, junk, 1, nullptr), SZSEC_E_STATE);
  EXPECT_EQ(szsec_finish(ctx), SZSEC_E_STATE);
  szsec_ctx_free(ctx);
}

TEST(CApiErrors, TruncatedEncodeInputIsIo) {
  szsec_options o = base_options();
  szsec_ctx* ctx = nullptr;
  ASSERT_GE(szsec_encoder_new(&o, kKey.data(), kKey.size(), &ctx), 0);
  const uint8_t few[8] = {};
  size_t n = 0;
  ASSERT_GE(szsec_feed(ctx, few, sizeof few, &n), 0);
  EXPECT_EQ(szsec_finish(ctx), SZSEC_E_IO);
  szsec_ctx_free(ctx);
}

TEST(CApiErrors, MisuseIsStateError) {
  const std::vector<float> field = test_field();
  szsec_options o = base_options();
  uint8_t* out = nullptr;
  size_t out_len = 0;
  ASSERT_EQ(szsec_compress(&o, kKey.data(), kKey.size(),
                           reinterpret_cast<const uint8_t*>(field.data()),
                           field.size() * sizeof(float), &out, &out_len),
            SZSEC_OK);
  szsec_ctx* ctx = nullptr;
  ASSERT_EQ(szsec_decoder_new(nullptr, kKey.data(), kKey.size(), &ctx),
            SZSEC_NEED_INPUT);
  size_t consumed = 0;
  ASSERT_GE(szsec_feed(ctx, out, out_len, &consumed), 0);
  ASSERT_GE(szsec_finish(ctx), 0);
  EXPECT_EQ(szsec_finish(ctx), SZSEC_E_STATE);  // double finish
  szsec_ctx_free(ctx);
  szsec_buffer_free(out);
}

TEST(CApiErrors, WrongKeyOnAuthenticatedContainerIsCrypto) {
  const std::vector<float> field = test_field();
  szsec_options o = base_options();
  o.authenticate = 1;
  uint8_t* out = nullptr;
  size_t out_len = 0;
  ASSERT_EQ(szsec_compress(&o, kKey.data(), kKey.size(),
                           reinterpret_cast<const uint8_t*>(field.data()),
                           field.size() * sizeof(float), &out, &out_len),
            SZSEC_OK);
  Bytes wrong(kKey);
  wrong[0] ^= 0xFF;
  uint8_t* plain = nullptr;
  size_t plain_len = 0;
  EXPECT_EQ(szsec_decompress(nullptr, wrong.data(), wrong.size(), out,
                             out_len, &plain, &plain_len, nullptr),
            SZSEC_E_CRYPTO);
  EXPECT_EQ(plain, nullptr);
  szsec_buffer_free(out);
}

// ------------------------------------------------------------------
// Round trips and byte identity with the sans-io core

TEST(CApiRoundTrip, OneShotMatchesSansIoBytes) {
  const std::vector<float> field = test_field();
  const auto* raw = reinterpret_cast<const uint8_t*>(field.data());
  const size_t raw_len = field.size() * sizeof(float);

  szsec_options o = base_options();
  uint8_t* c_out = nullptr;
  size_t c_len = 0;
  ASSERT_EQ(szsec_compress(&o, kKey.data(), kKey.size(), raw, raw_len,
                           &c_out, &c_len),
            SZSEC_OK);
  ASSERT_GT(c_len, 0u);

  // Same configuration straight through the C++ sans-io context.
  sansio::EncoderConfig ec;
  ec.scheme = core::Scheme::kEncrHuffman;
  ec.key = kKey;
  ec.dims = Dims{6, 8, 10};
  ec.drbg_seed = 0x5EED;
  auto ctx = sansio::Context::encoder(std::move(ec));
  size_t consumed = 0;
  ctx->feed(BytesView(raw, raw_len), consumed);
  ASSERT_EQ(consumed, raw_len);
  ctx->finish();
  Bytes cpp_out;
  Bytes buf(1 << 16);
  while (ctx->status() != sansio::Status::kDone) {
    size_t produced = 0;
    ctx->pull(std::span<uint8_t>(buf.data(), buf.size()), produced);
    cpp_out.insert(cpp_out.end(), buf.data(), buf.data() + produced);
  }
  ASSERT_EQ(cpp_out.size(), c_len);
  EXPECT_EQ(std::memcmp(cpp_out.data(), c_out, c_len), 0);

  // Decode through the C API and check the error bound holds.
  uint8_t* plain = nullptr;
  size_t plain_len = 0;
  szsec_info info;
  std::memset(&info, 0, sizeof(info));
  info.struct_size = sizeof(info);
  ASSERT_EQ(szsec_decompress(nullptr, kKey.data(), kKey.size(), c_out, c_len,
                             &plain, &plain_len, &info),
            SZSEC_OK);
  ASSERT_EQ(plain_len, raw_len);
  const auto* rec = reinterpret_cast<const float*>(plain);
  for (size_t i = 0; i < field.size(); ++i) {
    ASSERT_NEAR(rec[i], field[i], 1e-4) << "element " << i;
  }
  EXPECT_EQ(info.dtype, SZSEC_DTYPE_F32);
  EXPECT_EQ(info.rank, 3);
  EXPECT_EQ(info.dims[0], 6u);
  EXPECT_EQ(info.dims[1], 8u);
  EXPECT_EQ(info.dims[2], 10u);
  EXPECT_EQ(info.elements, field.size());
  EXPECT_EQ(info.bytes_in, c_len);
  EXPECT_EQ(info.bytes_out, raw_len);
  szsec_buffer_free(plain);
  szsec_buffer_free(c_out);
}

TEST(CApiRoundTrip, DribbleStreamingMatchesOneShot) {
  const std::vector<float> field = test_field();
  const auto* raw = reinterpret_cast<const uint8_t*>(field.data());
  const size_t raw_len = field.size() * sizeof(float);

  szsec_options o = base_options();
  o.container = SZSEC_CONTAINER_V3_CHUNKED;
  o.chunks = 3;
  uint8_t* oneshot = nullptr;
  size_t oneshot_len = 0;
  ASSERT_EQ(szsec_compress(&o, kKey.data(), kKey.size(), raw, raw_len,
                           &oneshot, &oneshot_len),
            SZSEC_OK);

  // 1-byte feed / 1-byte pull through the streaming API.
  szsec_ctx* ctx = nullptr;
  ASSERT_GE(szsec_encoder_new(&o, kKey.data(), kKey.size(), &ctx), 0);
  Bytes streamed;
  size_t off = 0;
  bool finished = false;
  int st = szsec_status(ctx);
  while (st >= 0 && st != SZSEC_DONE) {
    if (st == SZSEC_HAVE_OUTPUT) {
      uint8_t b = 0;
      size_t produced = 0;
      st = szsec_pull(ctx, &b, 1, &produced);
      if (produced != 0) streamed.push_back(b);
    } else if (off < raw_len) {
      size_t consumed = 0;
      st = szsec_feed(ctx, raw + off, 1, &consumed);
      off += consumed;
    } else if (!finished) {
      finished = true;
      st = szsec_finish(ctx);
    } else {
      FAIL() << "machine stalled: " << szsec_error_name(st);
    }
  }
  ASSERT_EQ(st, SZSEC_DONE);

  szsec_info info;
  info.struct_size = sizeof(info);
  ASSERT_EQ(szsec_ctx_info(ctx, &info), SZSEC_OK);
  EXPECT_EQ(info.container, SZSEC_CONTAINER_V3_CHUNKED);
  EXPECT_EQ(info.chunk_count, 3u);
  EXPECT_EQ(info.bytes_in, raw_len);
  EXPECT_EQ(info.bytes_out, streamed.size());
  // A 1.9 KiB field split into 3 chunks expands (per-chunk overhead);
  // the point is that the ratio is reported, not that it flatters.
  EXPECT_NEAR(info.compression_ratio,
              static_cast<double>(raw_len) / streamed.size(), 1e-9);
  szsec_ctx_free(ctx);

  ASSERT_EQ(streamed.size(), oneshot_len);
  EXPECT_EQ(std::memcmp(streamed.data(), oneshot, oneshot_len), 0);
  szsec_buffer_free(oneshot);
}

TEST(CApiRoundTrip, StrictChunkedDecodeReportsChunkCount) {
  const std::vector<float> field = test_field();
  szsec_options o = base_options();
  o.container = SZSEC_CONTAINER_V3_CHUNKED;
  o.chunks = 3;
  uint8_t* archive = nullptr;
  size_t archive_len = 0;
  ASSERT_EQ(szsec_compress(&o, kKey.data(), kKey.size(),
                           reinterpret_cast<const uint8_t*>(field.data()),
                           field.size() * sizeof(float), &archive,
                           &archive_len),
            SZSEC_OK);
  uint8_t* plain = nullptr;
  size_t plain_len = 0;
  szsec_info info;
  std::memset(&info, 0, sizeof(info));
  info.struct_size = sizeof(info);
  ASSERT_EQ(szsec_decompress(nullptr, kKey.data(), kKey.size(), archive,
                             archive_len, &plain, &plain_len, &info),
            SZSEC_OK);
  EXPECT_EQ(plain_len, field.size() * sizeof(float));
  EXPECT_EQ(info.container, SZSEC_CONTAINER_V3_CHUNKED);
  EXPECT_EQ(info.chunk_count, 3u);
  EXPECT_EQ(info.salvage_used, 0);
  szsec_buffer_free(plain);
  szsec_buffer_free(archive);
}

TEST(CApiRoundTrip, NullEmptyFeedIsANoOp) {
  // (NULL, 0) is a valid empty feed: nothing is taken, nothing faults.
  szsec_ctx* ctx = nullptr;
  ASSERT_EQ(szsec_decoder_new(nullptr, nullptr, 0, &ctx), SZSEC_NEED_INPUT);
  size_t consumed = 7;
  EXPECT_EQ(szsec_feed(ctx, nullptr, 0, &consumed), SZSEC_NEED_INPUT);
  EXPECT_EQ(consumed, 0u);
  szsec_ctx_free(ctx);
  szsec_options o = base_options();
  ASSERT_GE(szsec_encoder_new(&o, kKey.data(), kKey.size(), &ctx), 0);
  EXPECT_EQ(szsec_feed(ctx, nullptr, 0, &consumed), SZSEC_NEED_INPUT);
  EXPECT_EQ(consumed, 0u);
  szsec_ctx_free(ctx);
}

TEST(CApiRoundTrip, InfoBeforeDoneIsStateError) {
  szsec_options o = base_options();
  szsec_ctx* ctx = nullptr;
  ASSERT_GE(szsec_encoder_new(&o, kKey.data(), kKey.size(), &ctx), 0);
  szsec_info info;
  info.struct_size = sizeof(info);
  EXPECT_EQ(szsec_ctx_info(ctx, &info), SZSEC_E_STATE);
  szsec_ctx_free(ctx);  // abandoning mid-run must tear down cleanly
}

TEST(CApiRoundTrip, ShorterInfoStructGetsPrefix) {
  const std::vector<float> field = test_field();
  szsec_options o = base_options();
  uint8_t* out = nullptr;
  size_t out_len = 0;
  ASSERT_EQ(szsec_compress(&o, kKey.data(), kKey.size(),
                           reinterpret_cast<const uint8_t*>(field.data()),
                           field.size() * sizeof(float), &out, &out_len),
            SZSEC_OK);
  szsec_ctx* ctx = nullptr;
  ASSERT_EQ(szsec_decoder_new(nullptr, kKey.data(), kKey.size(), &ctx),
            SZSEC_NEED_INPUT);
  size_t n = 0;
  ASSERT_GE(szsec_feed(ctx, out, out_len, &n), 0);
  ASSERT_GE(szsec_finish(ctx), 0);
  Bytes sink(field.size() * sizeof(float));
  size_t produced = 0;
  int st = SZSEC_HAVE_OUTPUT;
  size_t total = 0;
  while (st == SZSEC_HAVE_OUTPUT) {
    st = szsec_pull(ctx, sink.data() + total, sink.size() - total, &produced);
    total += produced;
  }
  ASSERT_EQ(st, SZSEC_DONE);

  // An older caller whose szsec_info ends at `rank` still gets the
  // fields it knows about; ours reports back how much it filled.
  struct OldInfo {
    size_t struct_size;
    int container;
    int dtype;
    int rank;
  } old_info{};
  old_info.struct_size = sizeof(OldInfo);
  ASSERT_EQ(szsec_ctx_info(ctx, reinterpret_cast<szsec_info*>(&old_info)),
            SZSEC_OK);
  EXPECT_EQ(old_info.struct_size, sizeof(OldInfo));
  EXPECT_EQ(old_info.dtype, SZSEC_DTYPE_F32);
  EXPECT_EQ(old_info.rank, 3);
  szsec_ctx_free(ctx);
  szsec_buffer_free(out);
}

TEST(CApiVerify, CleanAndCorrupt) {
  const std::vector<float> field = test_field();
  szsec_options o = base_options();
  o.authenticate = 1;
  uint8_t* out = nullptr;
  size_t out_len = 0;
  ASSERT_EQ(szsec_compress(&o, kKey.data(), kKey.size(),
                           reinterpret_cast<const uint8_t*>(field.data()),
                           field.size() * sizeof(float), &out, &out_len),
            SZSEC_OK);
  EXPECT_EQ(szsec_verify(out, out_len, kKey.data(), kKey.size()), SZSEC_OK);
  out[out_len / 2] ^= 0xFF;  // stomp the payload
  EXPECT_EQ(szsec_verify(out, out_len, kKey.data(), kKey.size()),
            SZSEC_E_CORRUPT);
  EXPECT_STRNE(szsec_last_error_message(), "");
  szsec_buffer_free(out);
}

}  // namespace
}  // namespace szsec
