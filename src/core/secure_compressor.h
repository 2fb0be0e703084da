// Public API of szsec: error-bounded lossy compression with optional
// in-pipeline AES encryption (the paper's Cmpr-Encr / Encr-Quant /
// Encr-Huffman methods plus the plain-SZ baseline).
//
// Typical use:
//
//   szsec::sz::Params params;
//   params.abs_error_bound = 1e-4;
//   szsec::core::SecureCompressor c(params, Scheme::kEncrHuffman, key);
//   auto result = c.compress(field, dims);        // -> result.container
//   auto round  = c.decompress(result.container); // -> round.f32
//
// SecureCompressor is a thin facade: it owns a codec::CodecRuntime (key
// schedules, MAC key) plus a DRBG pointer and forwards every call to the
// shared codec::encode_payload / codec::decode_payload drivers in
// core/codec.h.  The chunk codec of src/archive (fault-tolerant v3
// chunked archives, and v1 slab archives in another framing) calls
// those drivers directly — all produce and consume the same per-field
// bytes — and runs them chunk-parallel with byte-identical output (see
// docs/ARCHITECTURE.md).
//
// Thread-safety: a SecureCompressor is immutable apart from its DRBG; use
// one instance per thread or supply distinct DRBGs.
#pragma once

#include "core/codec.h"

namespace szsec::core {

class SecureCompressor {
 public:
  /// AES convenience constructor (the paper's configuration): `key` must
  /// be 16/24/32 bytes — the AES variant is chosen by key length — for
  /// encrypting schemes, and is ignored (may be empty) for Scheme::kNone.
  /// `drbg` supplies IVs; pass nullptr to use the process-global
  /// generator.  Authentication cannot be enabled through this
  /// constructor — pass a CipherSpec with `authenticate = true` to the
  /// full-control overload instead.
  SecureCompressor(sz::Params params, Scheme scheme, BytesView key = {},
                   crypto::Mode mode = crypto::Mode::kCbc,
                   crypto::CtrDrbg* drbg = nullptr);

  /// Full-control constructor: any implemented cipher/mode combination.
  /// `key` must match crypto::cipher_key_size(spec.kind).
  SecureCompressor(sz::Params params, Scheme scheme, BytesView key,
                   CipherSpec spec, crypto::CtrDrbg* drbg = nullptr);

  /// Compresses one field into a v2 container.  Every reconstructed
  /// value will be within params().abs_error_bound of the original.
  CompressResult compress(std::span<const float> data, const Dims& dims) const;
  CompressResult compress(std::span<const double> data,
                          const Dims& dims) const;

  /// Decompresses any scheme (read from the header).  Requires the same
  /// key the container was produced with (for encrypting schemes);
  /// throws CorruptError on damaged input, never returns wrong data.
  DecompressResult decompress(BytesView container) const;

  /// Convenience wrappers that additionally check the dtype.
  std::vector<float> decompress_f32(BytesView container) const;
  std::vector<double> decompress_f64(BytesView container) const;

  /// Scheme this instance was constructed with.
  Scheme scheme() const { return runtime_.scheme(); }
  /// Compression parameters this instance was constructed with.
  const sz::Params& params() const { return runtime_.params(); }

 private:
  codec::CodecRuntime runtime_;
  crypto::CtrDrbg* drbg_;
};

}  // namespace szsec::core
