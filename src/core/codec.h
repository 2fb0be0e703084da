// codec: the one shared encode/decode path behind every szsec container.
//
// encode_payload() runs a scheme's stage chain (core/stage.h) forward
// and frames the result as a v2 container; decode_payload() parses the
// framing and runs the chain in reverse.  The SecureCompressor facade
// and the chunk codec of src/archive (v3 chunked archives and v1 slab
// archives) all call these two functions — a v2 container, a v3 chunk
// and a v1 slab are the same codec invoked with different framing, so
// format and scheme logic exist exactly once.
//
// Ownership/zero-copy rules (see also DESIGN.md section 6):
//  * decode_payload borrows `container` for the whole call; blobs are
//    parsed as BytesView into the container/payload buffers and only
//    copied at encryption boundaries.
//  * DecodeOptions::pool lends scratch buffers (the inflated payload)
//    that are returned on exit, so chunked decodes allocate nothing per
//    chunk in steady state.
//  * DecodeOptions::into_f32/into_f64 decode straight into caller
//    memory (an archive writes each chunk into its slice of the final
//    field); otherwise the result owns its element vector.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <tuple>

#include "common/io.h"
#include "core/stage.h"
#include "crypto/drbg.h"

namespace szsec::core {

/// Size/ratio accounting for one compression, feeding every table and
/// figure in the evaluation.
struct CompressStats {
  uint64_t raw_bytes = 0;
  uint64_t container_bytes = 0;     ///< header + body
  uint64_t payload_bytes = 0;       ///< assembled stage-3 output size
  uint64_t tree_bytes = 0;          ///< serialized Huffman tree
  uint64_t codeword_bytes = 0;      ///< Huffman codeword stream
  uint64_t unpredictable_bytes = 0;
  uint64_t unpredictable_count = 0;
  uint64_t element_count = 0;
  uint64_t encrypted_bytes = 0;     ///< plaintext volume fed to the cipher
  double predictable_fraction = 0;  ///< share of elements quantized

  /// Quantization array = tree + codewords (paper Figures 2 and 4).
  uint64_t quant_array_bytes() const { return tree_bytes + codeword_bytes; }

  double compression_ratio() const {
    return container_bytes == 0
               ? 0.0
               : static_cast<double>(raw_bytes) / container_bytes;
  }
};

/// Result of one encode (SecureCompressor::compress keeps this type).
struct CompressResult {
  Bytes container;
  CompressStats stats;
  PipelineMetrics times;  ///< per-stage durations + bytes (Figure 7)
};

/// Result of one decode.  Exactly one of f32/f64 is populated according
/// to `dtype` — unless the caller supplied a destination span via
/// DecodeOptions, in which case both stay empty.
struct DecompressResult {
  sz::DType dtype = sz::DType::kFloat32;
  Dims dims;
  std::vector<float> f32;
  std::vector<double> f64;
  PipelineMetrics times;
};

/// Parses and returns the plaintext header of a container without
/// decrypting or decompressing anything.
Header peek_header(BytesView container);

namespace codec {

/// The HKDF-SHA256-derived MAC key ("szsec-auth-v1" info string) behind
/// every authenticated container.  CodecRuntime derives it once per
/// runtime; read-only tooling (archive verification) calls it directly
/// to check tags without building a full codec runtime.
Bytes derive_auth_key(BytesView key);

/// Owns the material a CodecConfig points at (cipher key schedule, the
/// HKDF-derived MAC key) and validates the key/scheme/spec combination
/// once.  Immutable after construction and safe to share across
/// threads; every chunk of an archive reuses one runtime instead of
/// re-deriving key schedules per chunk.
class CodecRuntime {
 public:
  /// `key` must be non-empty for encrypting schemes and match
  /// crypto::cipher_key_size(spec.kind); authentication also requires a
  /// key.  Throws Error on any violation.
  CodecRuntime(sz::Params params, Scheme scheme, BytesView key,
               CipherSpec spec);

  /// A view-config for encode_payload/decode_payload.  Pointers/views
  /// inside it stay valid while this runtime is alive.
  CodecConfig config() const;

  Scheme scheme() const { return scheme_; }
  const sz::Params& params() const { return params_; }
  const CipherSpec& spec() const { return spec_; }

 private:
  sz::Params params_;
  Scheme scheme_;
  CipherSpec spec_;
  std::optional<crypto::Cipher> cipher_;
  Bytes auth_key_;  ///< empty unless spec_.authenticate
};

/// Thread-safe cache of CodecRuntimes for one decode key.  Archive
/// decoders read a per-chunk header that *claims* a scheme/cipher/spec;
/// rebuilding the AES key schedule and HKDF MAC key per chunk is wasted
/// work when (as always for an undamaged archive) every chunk agrees.
/// The cache key ignores params — decode takes its parameters from each
/// container's own header, never from the runtime.
class RuntimeCache {
 public:
  explicit RuntimeCache(BytesView key) : key_(key.begin(), key.end()) {}

  /// Runtime for this scheme/spec combination, constructed on first
  /// use.  Propagates CodecRuntime's constructor errors (e.g. a header
  /// claiming a cipher whose key size the supplied key cannot satisfy).
  const CodecRuntime& get(const sz::Params& params, Scheme scheme,
                          CipherSpec spec);

 private:
  using Key = std::tuple<uint8_t, uint8_t, uint8_t, bool>;

  Bytes key_;
  std::mutex mu_;
  std::map<Key, CodecRuntime> cache_;
};

/// Serializes a PayloadView into the pre-lossless payload bytes
/// (scheme-dependent layout, see PayloadView).
Bytes assemble_payload(Scheme scheme, const PayloadView& p);

/// Parses the pre-lossless payload into zero-copy views borrowing from
/// `payload` (no blob copies; the caller keeps `payload` alive for as
/// long as the views are used).  Throws CorruptError on malformed
/// input.
PayloadView parse_payload(Scheme scheme, BytesView payload);

/// Mutable state threaded through one encode: the input field, each
/// stage's product, and the under-construction header/payload.  Owned
/// by encode_payload for exactly one invocation; stages are stateless.
struct EncodeContext {
  const CodecConfig* cfg = nullptr;
  std::span<const float> f32;  ///< exactly one of f32/f64 is non-empty
  std::span<const double> f64;
  Dims dims;

  Header header;
  sz::QuantizedField q;  ///< stage 1+2 output
  sz::EncodedQuant enc;  ///< stage 3 output
  PayloadView payload;   ///< borrows from q/enc/cipher_buf
  Bytes cipher_buf;      ///< ciphertext backing for the splice stages
  Bytes payload_bytes;   ///< assembled pre-lossless payload
  Bytes body;            ///< stage-4 output (Cmpr-Encr re-encrypts it)

  CompressStats* stats = nullptr;
  PipelineMetrics* metrics = nullptr;
};

/// Mutable state threaded through one decode (stages run in reverse).
struct DecodeContext {
  const CodecConfig* cfg = nullptr;
  Header header;
  BytesView body;        ///< container body (or a view of decrypted_body)
  Bytes decrypted_body;  ///< Cmpr-Encr plaintext backing
  Bytes* payload_buf = nullptr;  ///< pooled scratch: inflated payload
  PayloadView payload;           ///< borrows from *payload_buf
  Bytes quant_plain;             ///< Encr-Quant decrypt backing
  Bytes tree_plain;              ///< Encr-Huffman decrypt backing
  BytesView tree;                ///< stage-3 inverse inputs (borrows)
  BytesView codewords;
  std::vector<uint32_t> codes;

  DecompressResult* out = nullptr;
  std::span<float> into_f32;
  std::span<double> into_f64;
  PipelineMetrics* metrics = nullptr;
};

/// Encodes one field into a v2 container: runs the scheme's stage chain
/// forward, then frames header + body (+ HMAC tag when authenticated).
/// `drbg` supplies the IV for encrypting schemes (null = global DRBG).
CompressResult encode_payload(const CodecConfig& cfg,
                              std::span<const float> data, const Dims& dims,
                              crypto::CtrDrbg* drbg = nullptr);
CompressResult encode_payload(const CodecConfig& cfg,
                              std::span<const double> data,
                              const Dims& dims,
                              crypto::CtrDrbg* drbg = nullptr);

/// encode_payload, but the framed container (header | body | optional
/// HMAC tag) is written to `out` instead of materialized — every
/// container writer (v2 single, v1 slab archive, v3 chunked frame)
/// funnels through this one emit path.  The returned
/// CompressResult::container stays empty; stats/times are identical to
/// the in-memory overloads, and so are the emitted bytes.
CompressResult encode_payload_to(const CodecConfig& cfg, ByteSink& out,
                                 std::span<const float> data,
                                 const Dims& dims,
                                 crypto::CtrDrbg* drbg = nullptr);
CompressResult encode_payload_to(const CodecConfig& cfg, ByteSink& out,
                                 std::span<const double> data,
                                 const Dims& dims,
                                 crypto::CtrDrbg* drbg = nullptr);

struct DecodeOptions {
  /// Scratch-buffer pool shared across calls (archives pass one pool
  /// for all chunks); null allocates locally.
  BufferPool* pool = nullptr;
  /// Non-empty: reconstruct directly into this span (must match the
  /// container's dtype and hold exactly dims.count() elements) and
  /// leave DecompressResult::f32/f64 empty.
  std::span<float> into_f32 = {};
  std::span<double> into_f64 = {};
};

/// Decodes one v2 container: verifies framing (MAC when present, CRC
/// always), then runs the header's scheme chain in reverse.  Requires
/// cfg to carry the cipher the container was produced with (for
/// encrypting schemes).
DecompressResult decode_payload(const CodecConfig& cfg, BytesView container,
                                const DecodeOptions& opts = {});

}  // namespace codec
}  // namespace szsec::core
