// MSB-first bit streams used by the Huffman coder and the zlite DEFLATE
// codec.  BitWriter packs bits into bytes high-bit-first; BitReader is the
// bounds-checked inverse.  zlite additionally needs LSB-first access for
// DEFLATE compatibility conventions, so both orders are provided.
//
// Both writers collect bits in a 64-bit accumulator and move them to the
// buffer 32 at a time, so a put of up to 32 bits is a shift, an OR and,
// every 32 bits, one 4-byte store.  Wider puts are split in two.
//
// Both readers mirror that: a 64-bit accumulator refilled with one 8-byte
// load while 8 input bytes remain (bytewise in the last 7), so a get of up
// to 56 bits is a compare, a shift and a mask.  Wider gets are split in
// two.  A get that runs past the end consumes the rest of the input and
// throws CorruptError("corrupt: bitstream exhausted"), the same error from
// the same call as a reader taking one bit per step.
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

/// The low `nbits` bits set; `nbits` < 64.
inline uint64_t low_mask(unsigned nbits) {
  return (uint64_t{1} << nbits) - 1;
}

/// The 8 bytes at `p` as a little-endian word.
inline uint64_t load_le64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// Input cursor and accumulator shared by the two readers.  `acc` holds
/// `have` unread stream bits (at its top for MSB-first, at its bottom
/// for LSB-first) and may hold further real stream bits past them: a
/// wide refill loads whole words but counts only whole bytes, and the
/// next refill ORs the same values over those bits again.
struct ReaderState {
  const uint8_t* begin;
  const uint8_t* next;  ///< first byte not yet loaded into acc
  const uint8_t* end;
  uint64_t acc = 0;
  unsigned have = 0;

  explicit ReaderState(BytesView data)
      : begin(data.data()), next(data.data()),
        end(data.data() + data.size()) {}

  /// Bytes of the refill that fit below bit 64: have becomes 56..63.
  unsigned wide_refill_bytes() const { return (63u - have) >> 3; }

  /// At least 8 input bytes left for a one-load refill.
  bool wide_input() const { return end - next >= 8; }

  size_t bit_pos() const {
    return static_cast<size_t>(next - begin) * 8 - have;
  }
  size_t bits_remaining() const {
    return static_cast<size_t>(end - next) * 8 + have;
  }

  /// Consumes the rest of the input and throws, as a per-bit reader does
  /// when a get runs past the end.
  [[noreturn]] void exhausted() {
    next = end;
    acc = 0;
    have = 0;
    throw CorruptError("corrupt: bitstream exhausted");
  }
};

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

/// MSB-first bit reader over a borrowed buffer.  The next unread bit is
/// the accumulator's highest bit.
class BitReader {
 public:
  explicit BitReader(BytesView data) : s_(data) {}

  unsigned get_bit() { return static_cast<unsigned>(take(1)); }

  uint64_t get_bits(unsigned nbits) {
    SZSEC_REQUIRE(nbits <= 64, "at most 64 bits per call");
    if (nbits > kMaxTake) {
      const uint64_t high = take(nbits - 32);
      return (high << 32) | take(32);
    }
    return take(nbits);
  }

  size_t bits_remaining() const { return s_.bits_remaining(); }
  size_t bit_pos() const { return s_.bit_pos(); }

 private:
  static constexpr unsigned kMaxTake = 56;

  // Reads `nbits` <= kMaxTake bits.
  uint64_t take(unsigned nbits) {
    if (s_.have < nbits) refill(nbits);
    // Two shifts, so nbits == 0 needs no shift by 64.
    const uint64_t v = (s_.acc >> 1) >> (63 - nbits);
    s_.acc <<= nbits;
    s_.have -= nbits;
    return v;
  }

  void refill(unsigned nbits) {
    if (s_.wide_input()) {
      // Big-endian word: the first byte lands in the top 8 bits.
      const uint64_t word = __builtin_bswap64(detail::load_le64(s_.next));
      s_.acc |= word >> s_.have;
      const unsigned bytes = s_.wide_refill_bytes();
      s_.next += bytes;
      s_.have += bytes * 8;
    } else {
      while (s_.have <= 56 && s_.next != s_.end) {
        s_.acc |= uint64_t{*s_.next++} << (56 - s_.have);
        s_.have += 8;
      }
    }
    if (s_.have < nbits) s_.exhausted();
  }

  detail::ReaderState s_;
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

/// LSB-first bit reader (DEFLATE convention).  The next unread bit is
/// the accumulator's lowest bit.
///
/// Besides the checked gets, it exposes its accumulator to table-driven
/// decoders (zlite's inflater): refill(), then peek() at up to
/// available() bits and consume() what a table entry says.
class LsbBitReader {
 public:
  explicit LsbBitReader(BytesView data) : s_(data) {}

  unsigned get_bit() { return static_cast<unsigned>(take(1)); }

  /// Reads `nbits` bits; the first bit read is the result's lowest bit.
  uint64_t get_bits(unsigned nbits) {
    SZSEC_REQUIRE(nbits <= 64, "at most 64 bits per call");
    if (nbits > kMaxTake) {
      const uint64_t low = take(32);
      return low | (take(nbits - 32) << 32);
    }
    return take(nbits);
  }

  void align_to_byte() { consume(s_.have & 7u); }

  /// Copies `n` whole bytes; requires byte alignment.
  BytesView get_bytes(size_t n) {
    SZSEC_REQUIRE((s_.have & 7) == 0, "get_bytes requires byte alignment");
    const uint8_t* at = s_.next - s_.have / 8;
    SZSEC_CHECK_FORMAT(n <= static_cast<size_t>(s_.end - at),
                       "bitstream exhausted");
    s_.next = at + n;
    s_.acc = 0;
    s_.have = 0;
    return BytesView(at, n);
  }

  size_t bits_remaining() const { return s_.bits_remaining(); }

  /// Tops the accumulator up to at least 56 bits, or to the rest of the
  /// input when less is left.  Never throws.
  void refill() {
    if (s_.wide_input()) {
      refill_wide();
    } else {
      while (s_.have <= 56 && s_.next != s_.end) {
        s_.acc |= uint64_t{*s_.next++} << s_.have;
        s_.have += 8;
      }
    }
  }

  /// refill() as one 8-byte load; requires wide_input().
  void refill_wide() {
    s_.acc |= detail::load_le64(s_.next) << s_.have;
    const unsigned bytes = s_.wide_refill_bytes();
    s_.next += bytes;
    s_.have += bytes * 8;
  }

  /// At least 8 input bytes are left to load, so refill_wide() may run.
  bool wide_input() const { return s_.wide_input(); }

  /// The next bits of the stream, first in bit 0.  Only the low
  /// available() bits are guaranteed.
  uint64_t peek() const { return s_.acc; }
  unsigned available() const { return s_.have; }

  /// Drops `nbits` <= available() bits.
  void consume(unsigned nbits) {
    s_.acc >>= nbits;
    s_.have -= nbits;
  }

  /// Consumes the rest of the input and throws "bitstream exhausted".
  [[noreturn]] void exhausted() { s_.exhausted(); }

 private:
  static constexpr unsigned kMaxTake = 56;

  // Reads `nbits` <= kMaxTake bits.
  uint64_t take(unsigned nbits) {
    if (s_.have < nbits) {
      refill();
      if (s_.have < nbits) s_.exhausted();
    }
    const uint64_t v = s_.acc & detail::low_mask(nbits);
    consume(nbits);
    return v;
  }

  detail::ReaderState s_;
};

}  // namespace szsec
