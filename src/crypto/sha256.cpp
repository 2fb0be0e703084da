#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#include "common/error.h"

namespace szsec::crypto {

namespace {

constexpr std::array<uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<uint32_t, 8> kInit = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline uint32_t big_sigma0(uint32_t x) {
  return std::rotr(x, 2) ^ std::rotr(x, 13) ^ std::rotr(x, 22);
}
inline uint32_t big_sigma1(uint32_t x) {
  return std::rotr(x, 6) ^ std::rotr(x, 11) ^ std::rotr(x, 25);
}
inline uint32_t small_sigma0(uint32_t x) {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
inline uint32_t small_sigma1(uint32_t x) {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}

}  // namespace

Sha256::Sha256() : state_(kInit) {}

void Sha256::process_block(const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (uint32_t{block[4 * i]} << 24) | (uint32_t{block[4 * i + 1]} << 16) |
           (uint32_t{block[4 * i + 2]} << 8) | uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) +
           w[i - 16];
  }
  uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 64; ++i) {
    const uint32_t t1 =
        h + big_sigma1(e) + ((e & f) ^ (~e & g)) + kK[i] + w[i];
    const uint32_t t2 = big_sigma0(a) + ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::update(BytesView data) {
  total_bytes_ += data.size();
  size_t off = 0;
  if (buffered_ > 0 && !data.empty()) {
    const size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    off += take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (off + 64 <= data.size()) {
    process_block(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
}

Sha256::Digest Sha256::finish() {
  const uint64_t bit_len = total_bytes_ * 8;
  const uint8_t pad_byte = 0x80;
  update(BytesView(&pad_byte, 1));
  const uint8_t zero = 0;
  while (buffered_ != 56) update(BytesView(&zero, 1));
  uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  std::memcpy(buffer_.data() + 56, len_be, 8);
  process_block(buffer_.data());
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Sha256::Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256::Digest hmac_sha256_parts(BytesView key,
                                 std::span<const BytesView> parts) {
  std::array<uint8_t, 64> k{};
  if (key.size() > 64) {
    const Sha256::Digest d = Sha256::hash(key);
    std::memcpy(k.data(), d.data(), d.size());
  } else {
    std::memcpy(k.data(), key.data(), key.size());
  }
  std::array<uint8_t, 64> ipad, opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.update(BytesView(ipad));
  for (BytesView part : parts) inner.update(part);
  const Sha256::Digest inner_digest = inner.finish();
  Sha256 outer;
  outer.update(BytesView(opad));
  outer.update(BytesView(inner_digest));
  return outer.finish();
}

Sha256::Digest hmac_sha256(BytesView key, BytesView data) {
  return hmac_sha256_parts(key, std::span<const BytesView>(&data, 1));
}

Bytes hkdf_sha256(BytesView ikm, BytesView salt, BytesView info,
                  size_t length) {
  SZSEC_REQUIRE(length <= 255 * Sha256::kDigestSize, "HKDF length too big");
  // Extract.
  const Bytes default_salt(Sha256::kDigestSize, 0);
  const Sha256::Digest prk =
      hmac_sha256(salt.empty() ? BytesView(default_salt) : salt, ikm);
  // Expand.
  Bytes out;
  Bytes t;
  uint8_t counter = 1;
  while (out.size() < length) {
    Bytes block = t;
    block.insert(block.end(), info.begin(), info.end());
    block.push_back(counter++);
    const Sha256::Digest d = hmac_sha256(BytesView(prk), BytesView(block));
    t.assign(d.begin(), d.end());
    out.insert(out.end(), t.begin(), t.end());
  }
  out.resize(length);
  return out;
}

Bytes pbkdf2_hmac_sha256(BytesView password, BytesView salt,
                         uint32_t iterations, size_t length) {
  SZSEC_REQUIRE(iterations >= 1, "need at least one iteration");
  SZSEC_REQUIRE(length >= 1 && length <= (size_t{1} << 20),
                "implausible derived-key length");
  Bytes out;
  out.reserve(length);
  uint32_t block_index = 1;
  while (out.size() < length) {
    // U1 = PRF(password, salt || INT_BE(i))
    Bytes salted(salt.begin(), salt.end());
    salted.push_back(static_cast<uint8_t>(block_index >> 24));
    salted.push_back(static_cast<uint8_t>(block_index >> 16));
    salted.push_back(static_cast<uint8_t>(block_index >> 8));
    salted.push_back(static_cast<uint8_t>(block_index));
    Sha256::Digest u = hmac_sha256(password, BytesView(salted));
    Sha256::Digest acc = u;
    for (uint32_t iter = 1; iter < iterations; ++iter) {
      u = hmac_sha256(password, BytesView(u));
      for (size_t i = 0; i < acc.size(); ++i) acc[i] ^= u[i];
    }
    const size_t take = std::min(acc.size(), length - out.size());
    out.insert(out.end(), acc.begin(), acc.begin() + take);
    ++block_index;
  }
  return out;
}

}  // namespace szsec::crypto
