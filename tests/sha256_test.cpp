// SHA-256 / HMAC-SHA256 / HKDF tests against the FIPS 180-4, RFC 4231,
// and RFC 5869 vectors, plus authenticated-container behaviour.
#include <gtest/gtest.h>

#include <random>

#include "common/hex.h"
#include "common/stats.h"
#include "core/secure_compressor.h"
#include "crypto/sha256.h"
#include "data/datasets.h"

namespace szsec::crypto {
namespace {

Bytes S(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::string digest_hex(const Sha256::Digest& d) {
  return to_hex(BytesView(d));
}

TEST(Sha256Test, Fips180KnownAnswers) {
  EXPECT_EQ(digest_hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_hex(Sha256::hash(BytesView(S("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      digest_hex(Sha256::hash(BytesView(
          S("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(BytesView(chunk));
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const Bytes data = S("the quick brown fox jumps over the lazy dog etc.");
  for (size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(BytesView(data).subspan(0, split));
    h.update(BytesView(data).subspan(split));
    EXPECT_EQ(h.finish(), Sha256::hash(BytesView(data))) << split;
  }
}

// An empty view (data() may be null) in the middle of a block changes
// nothing; copying from its null pointer was undefined behaviour, which
// an UBSan build reports.
TEST(Sha256Test, EmptyUpdateMidBlockIsANoOp) {
  const Bytes data = S("abc");
  Sha256 h;
  h.update(BytesView(data).subspan(0, 2));
  h.update(BytesView());
  h.update(BytesView(data).subspan(2));
  EXPECT_EQ(h.finish(), Sha256::hash(BytesView(data)));
}

TEST(Sha256Test, PaddingBoundaries) {
  // Lengths straddling the 56-byte padding boundary are the classic bug
  // sites.
  for (size_t len : {54, 55, 56, 57, 63, 64, 65, 119, 120, 128}) {
    const Bytes data(len, 0x61);
    Sha256 a;
    a.update(BytesView(data));
    // Byte-at-a-time must agree.
    Sha256 b;
    for (uint8_t byte : data) b.update(BytesView(&byte, 1));
    EXPECT_EQ(a.finish(), b.finish()) << len;
  }
}

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(digest_hex(hmac_sha256(BytesView(key), BytesView(S("Hi There")))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(
      digest_hex(hmac_sha256(BytesView(S("Jefe")),
                             BytesView(S("what do ya want for nothing?")))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 Test Case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(digest_hex(hmac_sha256(
                BytesView(key),
                BytesView(S("Test Using Larger Than Block-Size Key - "
                            "Hash Key First")))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HkdfTest, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf_sha256(BytesView(ikm), BytesView(salt),
                                BytesView(info), 42);
  EXPECT_EQ(to_hex(BytesView(okm)),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, EmptySaltUsesZeros) {
  // RFC 5869 Test Case 3 (salt and info empty).
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf_sha256(BytesView(ikm), {}, {}, 42);
  EXPECT_EQ(to_hex(BytesView(okm)),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(HkdfTest, DistinctInfoDistinctKeys) {
  const Bytes ikm(16, 0x42);
  const Bytes a = hkdf_sha256(BytesView(ikm), {}, BytesView(S("enc")), 32);
  const Bytes b = hkdf_sha256(BytesView(ikm), {}, BytesView(S("mac")), 32);
  EXPECT_NE(a, b);
  EXPECT_THROW(hkdf_sha256(BytesView(ikm), {}, {}, 256 * 32), Error);
}

TEST(Pbkdf2Test, KnownAnswers) {
  // Widely published PBKDF2-HMAC-SHA256 vectors (RFC 6070 analogues).
  EXPECT_EQ(to_hex(BytesView(pbkdf2_hmac_sha256(
                BytesView(S("password")), BytesView(S("salt")), 1, 32))),
            "120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b");
  EXPECT_EQ(to_hex(BytesView(pbkdf2_hmac_sha256(
                BytesView(S("password")), BytesView(S("salt")), 2, 32))),
            "ae4d0c95af6b46d32d0adff928f06dd02a303f8ef3c251dfd6e2d85a95474c43");
  EXPECT_EQ(to_hex(BytesView(pbkdf2_hmac_sha256(
                BytesView(S("password")), BytesView(S("salt")), 4096, 32))),
            "c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a");
}

TEST(Pbkdf2Test, MultiBlockOutput) {
  // 40-byte output spans two HMAC blocks.
  EXPECT_EQ(
      to_hex(BytesView(pbkdf2_hmac_sha256(
          BytesView(S("passwordPASSWORDpassword")),
          BytesView(S("saltSALTsaltSALTsaltSALTsaltSALTsalt")), 4096, 40))),
      "348c89dbcbd32b2f32d814b8116e84cf2b17347ebc1800181c4e2a1fb8dd53e1"
      "c635518c7dac47e9");
}

TEST(Pbkdf2Test, ParametersValidated) {
  EXPECT_THROW(pbkdf2_hmac_sha256({}, {}, 0, 32), Error);
  EXPECT_THROW(pbkdf2_hmac_sha256({}, {}, 1, 0), Error);
}

// --- Authenticated containers ---------------------------------------------------

TEST(AuthenticatedContainer, RoundTripAndTamperRejection) {
  using core::CipherSpec;
  using core::Scheme;
  const data::Dataset d = data::make_q2(data::Scale::kTiny);
  sz::Params params;
  params.abs_error_bound = 1e-4;
  const Bytes key(16, 0x77);
  CipherSpec spec;
  spec.authenticate = true;
  CtrDrbg drbg(55);
  const core::SecureCompressor c(params, Scheme::kEncrHuffman,
                                 BytesView(key), spec, &drbg);
  const auto r = c.compress(std::span<const float>(d.values), d.dims);
  EXPECT_TRUE(core::peek_header(BytesView(r.container)).flags &
              core::kFlagAuthenticated);
  const auto out = c.decompress_f32(BytesView(r.container));
  EXPECT_TRUE(within_abs_bound(std::span<const float>(d.values),
                               std::span<const float>(out), 1e-4));

  // Any single-bit flip — header, body, or the tag itself — must be
  // rejected with a CryptoError (not merely decode garbage).
  std::mt19937_64 rng(5);
  for (int t = 0; t < 24; ++t) {
    Bytes tampered = r.container;
    tampered[rng() % tampered.size()] ^=
        static_cast<uint8_t>(1u << (rng() % 8));
    EXPECT_THROW(c.decompress(BytesView(tampered)), CryptoError);
  }
}

TEST(AuthenticatedContainer, TruncatedTagRejected) {
  const data::Dataset d = data::make_cloudf48(data::Scale::kTiny);
  sz::Params params;
  const Bytes key(16, 0x12);
  core::CipherSpec spec;
  spec.authenticate = true;
  const core::SecureCompressor c(params, core::Scheme::kCmprEncr,
                                 BytesView(key), spec);
  const auto r = c.compress(std::span<const float>(d.values), d.dims);
  EXPECT_THROW(c.decompress(BytesView(r.container)
                                .subspan(0, r.container.size() - 1)),
               Error);
}

TEST(AuthenticatedContainer, UnauthenticatedReaderRejectsAuthFlag) {
  const data::Dataset d = data::make_cloudf48(data::Scale::kTiny);
  sz::Params params;
  const Bytes key(16, 0x12);
  core::CipherSpec auth_spec;
  auth_spec.authenticate = true;
  const core::SecureCompressor writer(params, core::Scheme::kEncrHuffman,
                                      BytesView(key), auth_spec);
  const auto r = writer.compress(std::span<const float>(d.values), d.dims);
  // A reader without a MAC key must refuse rather than skip verification.
  const core::SecureCompressor reader(params, core::Scheme::kEncrHuffman,
                                      BytesView(key));
  EXPECT_THROW(reader.decompress(BytesView(r.container)), CryptoError);
}

TEST(AuthenticatedContainer, WorksWithPlainScheme) {
  // Authentication without encryption: integrity-protected public data.
  const data::Dataset d = data::make_cloudf48(data::Scale::kTiny);
  sz::Params params;
  const Bytes key(16, 0x99);
  core::CipherSpec spec;
  spec.authenticate = true;
  const core::SecureCompressor c(params, core::Scheme::kNone,
                                 BytesView(key), spec);
  const auto r = c.compress(std::span<const float>(d.values), d.dims);
  const auto out = c.decompress_f32(BytesView(r.container));
  EXPECT_TRUE(within_abs_bound(std::span<const float>(d.values),
                               std::span<const float>(out),
                               params.abs_error_bound));
}

}  // namespace
}  // namespace szsec::crypto
