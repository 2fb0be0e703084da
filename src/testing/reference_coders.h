// Reference encoders for the entropy stages, kept as a test oracle.
//
// These are the bit-at-a-time and byte-at-a-time encoders the library
// used before its word-at-a-time rewrite: the MSB-first and LSB-first bit
// writers, the Huffman symbol packer, and zlite's LZ77 matcher and DEFLATE
// block emitter.  They are slow on purpose, simple enough to check by
// reading, and frozen: the production encoders must match them byte for
// byte (tests/entropy_identity_test.cpp), and bench_kernels times the
// production encoders against them.  Nothing in the library links them.
#pragma once

#include <cstdint>
#include <span>

#include "common/bytestream.h"
#include "common/error.h"
#include "huffman/huffman.h"
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

/// huffman::encode() through the per-bit writer.
Bytes huffman_encode(const huffman::CodeTable& table,
                     std::span<const uint32_t> symbols);

/// zlite::deflate() with the scan-based matcher and block emitter.
Bytes deflate(BytesView data, zlite::Level level = zlite::Level::kDefault);

}  // namespace szsec::testing::reference
