// MSB-first bit streams used by the Huffman coder and the zlite DEFLATE
// codec.  BitWriter packs bits into bytes high-bit-first; BitReader is the
// bounds-checked inverse.  zlite additionally needs LSB-first access for
// DEFLATE compatibility conventions, so both orders are provided.
//
// Both writers collect bits in a 64-bit accumulator and move them to the
// buffer 32 at a time, so a put of up to 32 bits is a shift, an OR and,
// every 32 bits, one 4-byte store.  Wider puts are split in two.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/bytestream.h"
#include "common/error.h"

namespace szsec {

namespace detail {

/// The low `nbits` bits set; `nbits` <= 32.
inline uint64_t low_mask(unsigned nbits) {
  return (uint64_t{1} << nbits) - 1;
}

/// Growable output buffer for the bit writers: `len` bytes are written,
/// the rest of `buf` is headroom, so a store needs no size bookkeeping in
/// the vector.
struct WordBuffer {
  Bytes buf;
  size_t len = 0;

  void store(const void* src, size_t n) {
    if (n == 0) return;  // an empty view may carry a null pointer
    if (buf.size() - len < n) {
      buf.resize(std::max<size_t>({64, buf.size() * 2, len + n}));
    }
    std::memcpy(buf.data() + len, src, n);
    len += n;
  }

  void store_u8(uint64_t byte) {
    const auto b = static_cast<uint8_t>(byte);
    store(&b, 1);
  }

  Bytes take() {
    buf.resize(len);
    len = 0;
    return std::move(buf);
  }
};

}  // namespace detail

/// MSB-first bit packer: the first bit written becomes the highest bit of
/// the first byte.  Matches textbook Huffman-code emission.
class BitWriter {
 public:
  /// Appends the lowest `nbits` bits of `value`, most significant first.
  /// Bits of `value` above `nbits` are ignored.
  void put_bits(uint64_t value, unsigned nbits) {
    SZSEC_REQUIRE(nbits <= 64, "at most 64 bits per call");
    if (nbits > 32) {
      const unsigned high = nbits - 32;
      push((value >> 32) & detail::low_mask(high), high);
      nbits = 32;
    }
    push(value & detail::low_mask(nbits), nbits);
  }

  void put_bit(unsigned bit) { push(bit & 1u, 1); }

  /// Pads the final partial byte with zero bits and returns the buffer.
  Bytes finish() {
    while (fill_ >= 8) {
      fill_ -= 8;
      out_.store_u8(acc_ >> fill_);
    }
    if (fill_ != 0) {
      out_.store_u8(acc_ << (8 - fill_));
      fill_ = 0;
    }
    acc_ = 0;
    return out_.take();
  }

  /// Total bits written so far (before padding).
  size_t bit_count() const { return out_.len * 8 + fill_; }

 private:
  // Appends `nbits` <= 32 bits of `value`, which has no bits above them.
  // The low `fill_` (< 32) bits of acc_ are pending output.
  void push(uint64_t value, unsigned nbits) {
    acc_ = (acc_ << nbits) | value;
    fill_ += nbits;
    if (fill_ >= 32) {
      fill_ -= 32;
      uint32_t word = static_cast<uint32_t>(acc_ >> fill_);
      if constexpr (std::endian::native == std::endian::little) {
        word = __builtin_bswap32(word);
      }
      out_.store(&word, 4);
    }
  }

  detail::WordBuffer out_;
  uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

/// MSB-first bit reader over a borrowed buffer.
class BitReader {
 public:
  explicit BitReader(BytesView data) : data_(data) {}

  unsigned get_bit() {
    SZSEC_CHECK_FORMAT(bit_pos_ < data_.size() * 8, "bitstream exhausted");
    const size_t byte = bit_pos_ >> 3;
    const unsigned off = 7u - (bit_pos_ & 7u);
    ++bit_pos_;
    return (data_[byte] >> off) & 1u;
  }

  uint64_t get_bits(unsigned nbits) {
    SZSEC_REQUIRE(nbits <= 64, "at most 64 bits per call");
    uint64_t v = 0;
    for (unsigned i = 0; i < nbits; ++i) v = (v << 1) | get_bit();
    return v;
  }

  size_t bits_remaining() const { return data_.size() * 8 - bit_pos_; }
  size_t bit_pos() const { return bit_pos_; }

 private:
  BytesView data_;
  size_t bit_pos_ = 0;
};

/// LSB-first bit packer (DEFLATE convention): the first bit written becomes
/// the lowest bit of the first byte.
class LsbBitWriter {
 public:
  /// Appends the lowest `nbits` bits of `value`, least significant first.
  /// Bits of `value` above `nbits` are ignored.
  void put_bits(uint64_t value, unsigned nbits) {
    SZSEC_REQUIRE(nbits <= 64, "at most 64 bits per call");
    if (nbits > 32) {
      push(value & detail::low_mask(32), 32);
      value >>= 32;
      nbits -= 32;
    }
    push(value & detail::low_mask(nbits), nbits);
  }

  /// Zero-pads to a byte boundary without terminating the stream
  /// (used for DEFLATE stored blocks).
  void align_to_byte() {
    fill_ = (fill_ + 7) & ~7u;  // the bits above fill_ are already zero
    flush_bytes();
  }

  void put_bytes(BytesView bytes) {
    SZSEC_REQUIRE((fill_ & 7) == 0, "put_bytes requires byte alignment");
    flush_bytes();
    out_.store(bytes.data(), bytes.size());
  }

  Bytes finish() {
    align_to_byte();
    return out_.take();
  }

  size_t bit_count() const { return out_.len * 8 + fill_; }

 private:
  // Appends `nbits` <= 32 bits of `value`, which has no bits above them.
  // The low `fill_` (< 32) bits of acc_ are pending output; the bits
  // above them are zero.
  void push(uint64_t value, unsigned nbits) {
    acc_ |= value << fill_;
    fill_ += nbits;
    if (fill_ >= 32) {
      uint32_t word = static_cast<uint32_t>(acc_);
      if constexpr (std::endian::native == std::endian::big) {
        word = __builtin_bswap32(word);
      }
      out_.store(&word, 4);
      acc_ >>= 32;
      fill_ -= 32;
    }
  }

  // Moves the pending whole bytes to the buffer; requires fill_ % 8 == 0.
  void flush_bytes() {
    for (; fill_ > 0; fill_ -= 8) {
      out_.store_u8(acc_);
      acc_ >>= 8;
    }
  }

  detail::WordBuffer out_;
  uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

/// LSB-first bit reader (DEFLATE convention).
class LsbBitReader {
 public:
  explicit LsbBitReader(BytesView data) : data_(data) {}

  unsigned get_bit() {
    SZSEC_CHECK_FORMAT(bit_pos_ < data_.size() * 8, "bitstream exhausted");
    const size_t byte = bit_pos_ >> 3;
    const unsigned off = bit_pos_ & 7u;
    ++bit_pos_;
    return (data_[byte] >> off) & 1u;
  }

  /// Reads `nbits` bits; the first bit read is the result's lowest bit.
  uint64_t get_bits(unsigned nbits) {
    SZSEC_REQUIRE(nbits <= 64, "at most 64 bits per call");
    uint64_t v = 0;
    for (unsigned i = 0; i < nbits; ++i) {
      v |= static_cast<uint64_t>(get_bit()) << i;
    }
    return v;
  }

  void align_to_byte() { bit_pos_ = (bit_pos_ + 7) & ~size_t{7}; }

  /// Copies `n` whole bytes; requires byte alignment.
  BytesView get_bytes(size_t n) {
    SZSEC_REQUIRE((bit_pos_ & 7) == 0, "get_bytes requires byte alignment");
    const size_t byte = bit_pos_ >> 3;
    SZSEC_CHECK_FORMAT(byte + n <= data_.size(), "bitstream exhausted");
    bit_pos_ += n * 8;
    return data_.subspan(byte, n);
  }

  size_t bits_remaining() const { return data_.size() * 8 - bit_pos_; }

 private:
  BytesView data_;
  size_t bit_pos_ = 0;
};

}  // namespace szsec
