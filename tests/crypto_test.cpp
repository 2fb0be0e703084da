// Crypto substrate tests: FIPS-197 and NIST SP800-38A known-answer
// vectors pin the AES core and the CBC/CTR modes to the standards; the
// remaining tests cover padding, tamper detection, and the DRBG.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/hex.h"
#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/modes.h"
#include "crypto/sha256.h"

namespace szsec::crypto {
namespace {

Bytes H(const std::string& hex) { return from_hex(hex); }
Bytes S(const std::string& s) { return Bytes(s.begin(), s.end()); }

// --- FIPS-197 Appendix C block cipher vectors ------------------------------

struct AesKat {
  const char* key;
  const char* plain;
  const char* cipher;
};

// Without this gtest prints the struct's raw bytes -- three string-literal
// pointers -- so the test names (and the CTest names derived from them)
// would change with every build and every ASLR load address.
void PrintTo(const AesKat& kat, std::ostream* os) {
  *os << "AES-" << std::string(kat.key).size() * 4;
}

class AesKatTest : public ::testing::TestWithParam<AesKat> {};

TEST_P(AesKatTest, EncryptBlock) {
  const AesKat& kat = GetParam();
  const Aes aes{BytesView(H(kat.key))};
  const Bytes pt = H(kat.plain);
  Bytes out(16);
  aes.encrypt_block(pt.data(), out.data());
  EXPECT_EQ(to_hex(BytesView(out)), kat.cipher);
}

TEST_P(AesKatTest, DecryptBlock) {
  const AesKat& kat = GetParam();
  const Aes aes{BytesView(H(kat.key))};
  const Bytes ct = H(kat.cipher);
  Bytes out(16);
  aes.decrypt_block(ct.data(), out.data());
  EXPECT_EQ(to_hex(BytesView(out)), kat.plain);
}

TEST_P(AesKatTest, InPlaceRoundTrip) {
  const AesKat& kat = GetParam();
  const Aes aes{BytesView(H(kat.key))};
  Bytes buf = H(kat.plain);
  aes.encrypt_block(buf.data(), buf.data());
  EXPECT_EQ(to_hex(BytesView(buf)), kat.cipher);
  aes.decrypt_block(buf.data(), buf.data());
  EXPECT_EQ(to_hex(BytesView(buf)), kat.plain);
}

INSTANTIATE_TEST_SUITE_P(
    Fips197, AesKatTest,
    ::testing::Values(
        AesKat{"000102030405060708090a0b0c0d0e0f",
               "00112233445566778899aabbccddeeff",
               "69c4e0d86a7b0430d8cdb78070b4c55a"},
        AesKat{"000102030405060708090a0b0c0d0e0f1011121314151617",
               "00112233445566778899aabbccddeeff",
               "dda97ca4864cdfe06eaf70a0ec0d7191"},
        AesKat{
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "00112233445566778899aabbccddeeff",
            "8ea2b7ca516745bfeafc49904b496089"}));

// FIPS-197 Appendix B (the worked example with a different key).
TEST(Aes, Fips197AppendixB) {
  const Aes aes{BytesView(H("2b7e151628aed2a6abf7158809cf4f3c"))};
  const Bytes pt = H("3243f6a8885a308d313198a2e0370734");
  Bytes out(16);
  aes.encrypt_block(pt.data(), out.data());
  EXPECT_EQ(to_hex(BytesView(out)), "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes, RejectsBadKeySizes) {
  const Bytes k15(15, 0), k17(17, 0), k0;
  EXPECT_THROW(Aes{BytesView(k15)}, Error);
  EXPECT_THROW(Aes{BytesView(k17)}, Error);
  EXPECT_THROW(Aes{BytesView(k0)}, Error);
}

// --- NIST SP800-38A mode vectors --------------------------------------------

const char* kSp38aKey = "2b7e151628aed2a6abf7158809cf4f3c";
const char* kSp38aPlain =
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710";

Iv iv_from_hex(const std::string& hex) {
  const Bytes b = H(hex);
  Iv iv;
  std::copy(b.begin(), b.end(), iv.begin());
  return iv;
}

TEST(Cbc, Sp800_38aVector) {
  const Aes aes{BytesView(H(kSp38aKey))};
  const Iv iv = iv_from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes ct = cbc_encrypt(aes, iv, BytesView(H(kSp38aPlain)));
  // PKCS#7 adds one full block beyond the 4 reference blocks.
  ASSERT_EQ(ct.size(), 80u);
  EXPECT_EQ(to_hex(BytesView(ct).subspan(0, 64)),
            "7649abac8119b246cee98e9b12e9197d"
            "5086cb9b507219ee95db113a917678b2"
            "73bed6b8e3c1743b7116e69e22229516"
            "3ff1caa1681fac09120eca307586e1a7");
  EXPECT_EQ(to_hex(BytesView(cbc_decrypt(aes, iv, BytesView(ct)))),
            kSp38aPlain);
}

TEST(Ctr, Sp800_38aVector) {
  const Aes aes{BytesView(H(kSp38aKey))};
  const Iv nonce = iv_from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes ct = ctr_crypt(aes, nonce, BytesView(H(kSp38aPlain)));
  EXPECT_EQ(to_hex(BytesView(ct)),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
  // CTR is an involution.
  EXPECT_EQ(to_hex(BytesView(ctr_crypt(aes, nonce, BytesView(ct)))),
            kSp38aPlain);
}

// --- Padding -----------------------------------------------------------------

class Pkcs7Test : public ::testing::TestWithParam<size_t> {};

TEST_P(Pkcs7Test, RoundTripAllResidues) {
  Bytes data(GetParam(), 0x61);
  const Bytes original = data;
  pkcs7_pad(data);
  EXPECT_EQ(data.size() % 16, 0u);
  EXPECT_GT(data.size(), original.size());  // always at least one pad byte
  pkcs7_unpad(data);
  EXPECT_EQ(data, original);
}

INSTANTIATE_TEST_SUITE_P(Residues, Pkcs7Test,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 100));

TEST(Pkcs7, InvalidPaddingThrows) {
  Bytes empty;
  EXPECT_THROW(pkcs7_unpad(empty), CryptoError);
  Bytes unaligned(15, 0);
  EXPECT_THROW(pkcs7_unpad(unaligned), CryptoError);
  Bytes zero_pad(16, 0);  // pad byte 0 is invalid
  EXPECT_THROW(pkcs7_unpad(zero_pad), CryptoError);
  Bytes too_big(16, 17);  // pad byte > block size
  EXPECT_THROW(pkcs7_unpad(too_big), CryptoError);
  Bytes inconsistent(16, 4);
  inconsistent[13] = 5;  // one of the last 4 bytes != 4
  EXPECT_THROW(pkcs7_unpad(inconsistent), CryptoError);
}

// --- Mode round trips and tamper behaviour ----------------------------------

class ModeRoundTrip
    : public ::testing::TestWithParam<std::tuple<Mode, size_t>> {};

TEST_P(ModeRoundTrip, EncryptDecrypt) {
  const auto [mode, len] = GetParam();
  std::mt19937_64 rng(len * 31 + static_cast<int>(mode));
  Bytes pt(len);
  for (auto& b : pt) b = static_cast<uint8_t>(rng());
  Bytes key(16);
  for (auto& b : key) b = static_cast<uint8_t>(rng());
  const Aes aes{BytesView(key)};
  Iv iv;
  for (auto& b : iv) b = static_cast<uint8_t>(rng());

  const Bytes ct = encrypt(aes, mode, iv, BytesView(pt));
  if (mode == Mode::kCtr) {
    EXPECT_EQ(ct.size(), pt.size());
  } else {
    EXPECT_GT(ct.size(), pt.size());
    EXPECT_EQ(ct.size() % 16, 0u);
  }
  EXPECT_EQ(decrypt(aes, mode, iv, BytesView(ct)), pt);
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAndSizes, ModeRoundTrip,
    ::testing::Combine(::testing::Values(Mode::kCbc, Mode::kCtr, Mode::kEcb),
                       ::testing::Values(0, 1, 15, 16, 17, 255, 4096, 100001)));

TEST(Cbc, WrongKeyFailsOrCorrupts) {
  const Bytes pt(64, 0x42);
  const Aes good{BytesView(Bytes(16, 1))};
  const Aes bad{BytesView(Bytes(16, 2))};
  const Iv iv{};
  const Bytes ct = cbc_encrypt(good, iv, BytesView(pt));
  // Wrong key: padding check usually throws; if padding happens to parse,
  // plaintext must differ.
  try {
    const Bytes out = cbc_decrypt(bad, iv, BytesView(ct));
    EXPECT_NE(out, pt);
  } catch (const CryptoError&) {
    SUCCEED();
  }
}

TEST(Cbc, CiphertextNotMultipleOf16Throws) {
  const Aes aes{BytesView(Bytes(16, 1))};
  const Iv iv{};
  const Bytes ct(17, 0);
  EXPECT_THROW(cbc_decrypt(aes, iv, BytesView(ct)), CryptoError);
  EXPECT_THROW(cbc_decrypt(aes, iv, BytesView{}), CryptoError);
}

TEST(Cbc, DistinctIvsGiveDistinctCiphertext) {
  const Aes aes{BytesView(Bytes(16, 7))};
  const Bytes pt(48, 0);
  Iv iv1{}, iv2{};
  iv2[0] = 1;
  EXPECT_NE(cbc_encrypt(aes, iv1, BytesView(pt)),
            cbc_encrypt(aes, iv2, BytesView(pt)));
}

TEST(Ecb, LeaksEqualBlocks) {
  // Documents *why* ECB is ablation-only: equal plaintext blocks produce
  // equal ciphertext blocks.
  const Aes aes{BytesView(Bytes(16, 9))};
  const Bytes pt(32, 0x5A);  // two identical blocks
  const Bytes ct = ecb_encrypt(aes, BytesView(pt));
  EXPECT_EQ(Bytes(ct.begin(), ct.begin() + 16),
            Bytes(ct.begin() + 16, ct.begin() + 32));
}

TEST(Ctr, CounterWrapsAcrossLowWordBoundary) {
  // Nonce with the low 64 bits at all-ones: the next block increments
  // across the wrap and must still round trip.
  const Aes aes{BytesView(Bytes(16, 3))};
  Iv nonce{};
  for (size_t i = 8; i < 16; ++i) nonce[i] = 0xFF;
  const Bytes pt(16 * 5, 0x11);
  const Bytes ct = ctr_crypt(aes, nonce, BytesView(pt));
  EXPECT_EQ(ctr_crypt(aes, nonce, BytesView(ct)), pt);
  // Keystream blocks must all differ (no counter stuck).
  for (size_t i = 16; i < ct.size(); i += 16) {
    EXPECT_NE(Bytes(ct.begin() + i, ct.begin() + i + 16),
              Bytes(ct.begin(), ct.begin() + 16));
  }
}

TEST(Aes, EncryptDecryptChainConverges) {
  // Monte-Carlo-style chain: E then D a thousand times returns the start
  // for all key sizes — exercises the schedule/tables heavily.
  for (size_t key_size : {16, 24, 32}) {
    const Aes aes{BytesView(Bytes(key_size, 0x42))};
    uint8_t block[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                         15, 16};
    uint8_t work[16];
    std::memcpy(work, block, 16);
    for (int i = 0; i < 1000; ++i) aes.encrypt_block(work, work);
    for (int i = 0; i < 1000; ++i) aes.decrypt_block(work, work);
    EXPECT_EQ(std::memcmp(work, block, 16), 0) << key_size;
  }
}

TEST(ConstantTime, Equal) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(constant_time_equal(BytesView(a), BytesView(b)));
  EXPECT_FALSE(constant_time_equal(BytesView(a), BytesView(c)));
  EXPECT_FALSE(constant_time_equal(BytesView(a), BytesView(d)));
}

// --- DRBG --------------------------------------------------------------------

TEST(Drbg, DeterministicForSameSeed) {
  CtrDrbg a(12345), b(12345);
  EXPECT_EQ(a.generate(64), b.generate(64));
  EXPECT_EQ(a.generate_iv(), b.generate_iv());
}

TEST(Drbg, DifferentSeedsDiffer) {
  CtrDrbg a(1), b(2);
  EXPECT_NE(a.generate(64), b.generate(64));
}

TEST(Drbg, SequentialOutputsDiffer) {
  CtrDrbg d(7);
  const Bytes x = d.generate(32);
  const Bytes y = d.generate(32);
  EXPECT_NE(x, y);
}

TEST(Drbg, ReseedChangesStream) {
  CtrDrbg a(9), b(9);
  const Bytes extra = {1, 2, 3};
  b.reseed(BytesView(extra));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(Drbg, OutputLooksUniform) {
  CtrDrbg d(31337);
  const Bytes buf = d.generate(1 << 16);
  // Chi-square against uniform bytes: expect each of 256 values ~256 times.
  std::array<size_t, 256> hist{};
  for (uint8_t b : buf) ++hist[b];
  double chi2 = 0;
  const double expected = buf.size() / 256.0;
  for (size_t c : hist) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  // 255 dof: mean 255, sd ~22.6.  8 sigma gives a robust bound.
  EXPECT_LT(chi2, 255 + 8 * 22.6);
}

TEST(Drbg, GlobalInstanceWorks) {
  const Iv iv1 = global_drbg().generate_iv();
  const Iv iv2 = global_drbg().generate_iv();
  EXPECT_NE(iv1, iv2);
}

// --- RFC 5869 Appendix A HKDF-SHA256 vectors -------------------------------
//
// The service's envelope-key scheme (per-tenant data keys derived from
// master keys) leans entirely on this primitive, so all three official
// test cases are pinned here: basic (case 1), long inputs spanning
// multiple expand blocks (case 2), and zero-length salt/info (case 3).

TEST(HkdfKat, Rfc5869Case1Basic) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = H("000102030405060708090a0b0c");
  const Bytes info = H("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm =
      hkdf_sha256(BytesView(ikm), BytesView(salt), BytesView(info), 42);
  EXPECT_EQ(to_hex(BytesView(okm)),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfKat, Rfc5869Case2LongInputs) {
  // 80-byte ikm/salt/info and an 82-byte okm: exercises T(1)..T(4)
  // chaining in the expand step, which case 1 never reaches.
  Bytes ikm(80), salt(80), info(80);
  for (size_t i = 0; i < 80; ++i) {
    ikm[i] = static_cast<uint8_t>(i);
    salt[i] = static_cast<uint8_t>(0x60 + i);
    info[i] = static_cast<uint8_t>(0xb0 + i);
  }
  const Bytes okm =
      hkdf_sha256(BytesView(ikm), BytesView(salt), BytesView(info), 82);
  EXPECT_EQ(to_hex(BytesView(okm)),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
}

TEST(HkdfKat, Rfc5869Case3EmptySaltAndInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf_sha256(BytesView(ikm), {}, {}, 42);
  EXPECT_EQ(to_hex(BytesView(okm)),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(HkdfKat, DerivationIsDeterministic) {
  // The archive service re-derives a tenant's data key on every job
  // from (master, salt, info); any nondeterminism here would make
  // previously written archives undecryptable.
  const Bytes ikm = H("000102030405060708090a0b0c0d0e0f");
  const Bytes salt = Bytes{'s', 'z', 's', 'e', 'c'};
  const Bytes info = Bytes{'t', 'e', 'n', 'a', 'n', 't', '1'};
  const Bytes a =
      hkdf_sha256(BytesView(ikm), BytesView(salt), BytesView(info), 16);
  const Bytes b =
      hkdf_sha256(BytesView(ikm), BytesView(salt), BytesView(info), 16);
  EXPECT_EQ(a, b);
  // A shorter request is a strict prefix of a longer one (RFC 5869
  // expand structure) — truncating a derived key never re-keys it.
  const Bytes longer =
      hkdf_sha256(BytesView(ikm), BytesView(salt), BytesView(info), 64);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), longer.begin()));
}

TEST(HkdfKat, DistinctInfoSeparatesKeys) {
  // Domain separation: the info string carries (tenant, key id), so
  // every coordinate change must produce an unrelated key even when
  // master and salt are identical.
  const Bytes ikm = H("202122232425262728292a2b2c2d2e2f");
  const Bytes salt = Bytes{'s', 'a', 'l', 't'};
  const auto derive = [&](const std::string& info) {
    const Bytes i(info.begin(), info.end());
    return hkdf_sha256(BytesView(ikm), BytesView(salt), BytesView(i), 32);
  };
  const Bytes t1k1 = derive("szsec-data-key|tenant=acme|id=1");
  const Bytes t1k2 = derive("szsec-data-key|tenant=acme|id=2");
  const Bytes t2k1 = derive("szsec-data-key|tenant=globex|id=1");
  EXPECT_NE(t1k1, t1k2);
  EXPECT_NE(t1k1, t2k1);
  EXPECT_NE(t1k2, t2k1);
  // And the salt separates deployments sharing an info convention.
  const Bytes other_salt = Bytes{'S', 'A', 'L', 'T'};
  const Bytes i = S("szsec-data-key|tenant=acme|id=1");
  EXPECT_NE(t1k1, hkdf_sha256(BytesView(ikm), BytesView(other_salt),
                              BytesView(i), 32));
}

}  // namespace
}  // namespace szsec::crypto
