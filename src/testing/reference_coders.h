// Reference coders for the entropy stages, CRC-32 and SZ stages 1+2,
// kept as a test oracle.
//
// These are the bit-at-a-time and byte-at-a-time coders the library used
// before its word-at-a-time rewrites: the MSB-first and LSB-first bit
// writers and readers, the Huffman symbol packer, zlite's LZ77 matcher and
// DEFLATE block emitter, zlite's canonical-walk inflater, and the bytewise
// table CRC-32.  With them is the Huffman table set-up from before it went
// sparse: the heap builder, the dense table writer and parser, and a
// per-bit canonical decoder over the dense table.  And stages 1+2 as they
// were before the Lorenzo blocks went plane by plane: every block visited
// in scan order, each point rounded through std::nearbyint and its
// unpredictable bits written as it is visited.  They are slow on purpose,
// simple enough to check by reading, and frozen: the production coders
// must match them byte for byte, and the decoders must also throw the
// same exception type with the same message at the same call
// (tests/entropy_identity_test.cpp, testing::replay_zlite,
// testing::replay_huffman).  bench_kernels times the production coders
// against them.  Nothing in the library links them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytestream.h"
#include "common/dims.h"
#include "common/error.h"
#include "huffman/huffman.h"
#include "sz/pipeline.h"
#include "zlite/zlite.h"

namespace szsec::testing::reference {

/// MSB-first bit packer, one bit per step.
class BitWriter {
 public:
  /// Appends the lowest `nbits` bits of `value`, most significant first.
  void put_bits(uint64_t value, unsigned nbits) {
    SZSEC_REQUIRE(nbits <= 64, "at most 64 bits per call");
    for (unsigned i = nbits; i-- > 0;) {
      put_bit((value >> i) & 1u);
    }
  }

  void put_bit(unsigned bit) {
    acc_ = static_cast<uint8_t>((acc_ << 1) | (bit & 1u));
    if (++fill_ == 8) {
      buf_.push_back(acc_);
      acc_ = 0;
      fill_ = 0;
    }
  }

  /// Pads the final partial byte with zero bits and returns the buffer.
  Bytes finish() {
    if (fill_ != 0) {
      buf_.push_back(static_cast<uint8_t>(acc_ << (8 - fill_)));
      acc_ = 0;
      fill_ = 0;
    }
    return std::move(buf_);
  }

  size_t bit_count() const { return buf_.size() * 8 + fill_; }

 private:
  Bytes buf_;
  uint8_t acc_ = 0;
  unsigned fill_ = 0;
};

/// LSB-first bit packer, one byte per step.  `value` must have no bits
/// set above `nbits`.
class LsbBitWriter {
 public:
  void put_bits(uint64_t value, unsigned nbits) {
    SZSEC_REQUIRE(nbits <= 57, "acc overflow");
    acc_ |= value << fill_;
    fill_ += nbits;
    while (fill_ >= 8) {
      buf_.push_back(static_cast<uint8_t>(acc_));
      acc_ >>= 8;
      fill_ -= 8;
    }
  }

  void align_to_byte() {
    if (fill_ > 0) {
      buf_.push_back(static_cast<uint8_t>(acc_));
      acc_ = 0;
      fill_ = 0;
    }
  }

  void put_bytes(BytesView bytes) {
    SZSEC_REQUIRE(fill_ == 0, "put_bytes requires byte alignment");
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  Bytes finish() {
    align_to_byte();
    return std::move(buf_);
  }

  size_t bit_count() const { return buf_.size() * 8 + fill_; }

 private:
  Bytes buf_;
  uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

/// MSB-first bit reader, one bit per step.
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

/// LSB-first bit reader (DEFLATE convention), one bit per step.
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

/// The dense canonical code table the Huffman coder used before its
/// sparse rewrite: a length and a codeword for every symbol of the
/// alphabet.
struct HuffmanTable {
  /// lengths[s] == 0 means symbol s never occurs.
  std::vector<uint8_t> lengths;
  /// Canonical codeword of each symbol (valid when lengths[s] > 0).
  std::vector<uint32_t> codes;

  /// huffman::CodeTable::from_lengths(): codewords in (length, symbol)
  /// order; throws CorruptError on a length over huffman::kMaxCodeLength
  /// or a Kraft-violating set.
  static HuffmanTable from_lengths(std::vector<uint8_t> lengths);
};

/// huffman::build_code_table() through a binary heap over a node pool for
/// the whole alphabet, rebuilt from scratch on every frequency-halving
/// round.
HuffmanTable huffman_build_table(std::span<const uint64_t> frequencies);

/// huffman::serialize_table() from the dense length array.
Bytes huffman_serialize_table(const HuffmanTable& table);

/// huffman::deserialize_table() into the dense length array, with every
/// check but the used-symbol bound.  Its run check is subtractive: the
/// parser it preserves added the run to the stored length, so a run near
/// 2^64 wrapped past the check and std::vector threw std::length_error.
HuffmanTable huffman_deserialize_table(BytesView blob);

/// huffman::encode() through the per-bit writer.
Bytes huffman_encode(const HuffmanTable& table,
                     std::span<const uint32_t> symbols);

/// huffman::decode() as a canonical walk one bit at a time through the
/// per-bit reader.
std::vector<uint32_t> huffman_decode(const HuffmanTable& table,
                                     BytesView bits, size_t count);

/// zlite::deflate() with the scan-based matcher and block emitter.
Bytes deflate(BytesView data, zlite::Level level = zlite::Level::kDefault);

/// zlite::inflate() walking each canonical code one bit at a time through
/// the per-bit reader, with byte-at-a-time match copies.
Bytes inflate(BytesView data, size_t size_hint = 0, size_t max_size = 0);

/// crc32() one byte per table lookup.
uint32_t crc32(BytesView data, uint32_t seed = 0);

/// sz::predict_quantize() with every block visited in scan order.  It
/// shares the library's regression fit, coefficient codec, row kernels,
/// interpolation traversal and unpredictable encoder, and rounds each
/// Lorenzo and interpolation point through std::nearbyint.
sz::QuantizedField predict_quantize(std::span<const float> data,
                                    const Dims& dims, const sz::Params& params);
sz::QuantizedField predict_quantize(std::span<const double> data,
                                    const Dims& dims, const sz::Params& params);

}  // namespace szsec::testing::reference
