// The szsec container format (DESIGN.md Section 5).
//
// A container is a plaintext header followed by a scheme-dependent body.
// The header stays outside every encryption boundary: the decoder needs
// the scheme, dims, error bound and IV before it can touch the body.
// Sizes of encrypted regions for Encr-Quant / Encr-Huffman are likewise
// kept in plaintext length prefixes *inside* the (losslessly compressed)
// payload, mirroring how the paper's modified SZ-1.4 lays out its buffer.
#pragma once

#include <cmath>
#include <optional>

#include "common/bytestream.h"
#include "common/dims.h"
#include "crypto/cipher.h"
#include "crypto/modes.h"
#include "core/scheme.h"
#include "sz/params.h"

namespace szsec::core {

/// Container magic, "SZS1" little-endian.
inline constexpr uint32_t kMagic = 0x31535A53;
/// Container format version written and accepted by this build.
inline constexpr uint8_t kVersion = 2;

/// Header flag bits.
inline constexpr uint8_t kFlagAuthenticated = 0x01;

/// Plaintext container header.
struct Header {
  Scheme scheme = Scheme::kNone;
  uint8_t flags = 0;  ///< kFlag* bits
  crypto::CipherKind cipher_kind = crypto::CipherKind::kAes128;
  crypto::Mode cipher_mode = crypto::Mode::kCbc;
  sz::DType dtype = sz::DType::kFloat32;
  Dims dims;
  sz::Params params;
  crypto::Iv iv{};          ///< all-zero when scheme == kNone
  uint32_t payload_crc = 0;  ///< CRC-32 of the plaintext payload (stage-3
                             ///< output bytes) for corruption detection
  uint64_t payload_size = 0;  ///< size of the body that follows
};

/// Serializes `h` to the container prefix.
inline Bytes write_header(const Header& h) {
  ByteWriter w;
  w.put_u32(kMagic);
  w.put_u8(kVersion);
  w.put_u8(static_cast<uint8_t>(h.scheme));
  w.put_u8(h.flags);
  w.put_u8(static_cast<uint8_t>(h.cipher_kind));
  w.put_u8(static_cast<uint8_t>(h.cipher_mode));
  w.put_u8(static_cast<uint8_t>(h.dtype));
  w.put_u8(static_cast<uint8_t>(h.dims.rank()));
  for (size_t i = 0; i < h.dims.rank(); ++i) w.put_varint(h.dims[i]);
  w.put_f64(h.params.abs_error_bound);
  w.put_u32(h.params.quant_bins);
  w.put_u32(h.params.block_side);
  w.put_u8(static_cast<uint8_t>(h.params.lossless_level));
  w.put_u8(static_cast<uint8_t>(h.params.predictor));
  w.put_u8(h.params.use_regression ? 1 : 0);
  w.put_u8(h.params.use_mean_predictor ? 1 : 0);
  w.put_bytes(BytesView(h.iv));
  w.put_u32(h.payload_crc);
  w.put_u64(h.payload_size);
  return w.take();
}

/// The header bytes that carry decompression semantics: everything up to
/// (but excluding) the trailing payload_crc + payload_size fields.  The
/// payload CRC is seeded with a CRC of these bytes, so corruption of any
/// header field that could change the output (error bound, bins, dims,
/// predictor flags, IV...) is detected exactly like payload corruption.
inline Bytes header_semantic_bytes(const Header& h) {
  Bytes full = write_header(h);
  full.resize(full.size() - sizeof(uint32_t) - sizeof(uint64_t));
  return full;
}

/// Parses a header; on success `reader` is positioned at the body start.
inline Header read_header(ByteReader& reader) {
  Header h;
  SZSEC_CHECK_FORMAT(reader.get_u32() == kMagic, "bad magic");
  SZSEC_CHECK_FORMAT(reader.get_u8() == kVersion, "unsupported version");
  const uint8_t scheme = reader.get_u8();
  SZSEC_CHECK_FORMAT(scheme <= 3, "unknown scheme");
  h.scheme = static_cast<Scheme>(scheme);
  h.flags = reader.get_u8();
  SZSEC_CHECK_FORMAT((h.flags & ~kFlagAuthenticated) == 0, "unknown flags");
  const uint8_t kind = reader.get_u8();
  SZSEC_CHECK_FORMAT(kind <= 5, "unknown cipher kind");
  h.cipher_kind = static_cast<crypto::CipherKind>(kind);
  const uint8_t mode = reader.get_u8();
  SZSEC_CHECK_FORMAT(mode <= 2, "unknown cipher mode");
  h.cipher_mode = static_cast<crypto::Mode>(mode);
  const uint8_t dtype = reader.get_u8();
  SZSEC_CHECK_FORMAT(dtype <= 1, "unknown dtype");
  h.dtype = static_cast<sz::DType>(dtype);
  h.dims = read_dims(reader);
  h.params.abs_error_bound = reader.get_f64();
  // +inf would pass a plain `> 0` and overflow the unpredictable-value
  // coder's exponent arithmetic; NaN fails the comparison.
  SZSEC_CHECK_FORMAT(std::isfinite(h.params.abs_error_bound) &&
                         h.params.abs_error_bound > 0,
                     "bad error bound (must be finite and positive)");
  h.params.quant_bins = reader.get_u32();
  SZSEC_CHECK_FORMAT(
      h.params.quant_bins >= 4 && h.params.quant_bins % 2 == 0,
      "bad quant_bins");
  h.params.block_side = reader.get_u32();
  SZSEC_CHECK_FORMAT(h.params.block_side >= 2, "bad block_side");
  const uint8_t level = reader.get_u8();
  SZSEC_CHECK_FORMAT(level <= 2, "bad lossless level");
  h.params.lossless_level = static_cast<zlite::Level>(level);
  const uint8_t predictor = reader.get_u8();
  SZSEC_CHECK_FORMAT(predictor <= 1, "bad predictor");
  h.params.predictor = static_cast<sz::Predictor>(predictor);
  h.params.use_regression = reader.get_u8() != 0;
  h.params.use_mean_predictor = reader.get_u8() != 0;
  const BytesView iv = reader.get_bytes(h.iv.size());
  std::copy(iv.begin(), iv.end(), h.iv.begin());
  h.payload_crc = reader.get_u32();
  h.payload_size = reader.get_u64();
  SZSEC_CHECK_FORMAT(h.payload_size <= reader.remaining(),
                     "payload size exceeds container");
  return h;
}

}  // namespace szsec::core
