// codec: the one shared encode/decode path behind every szsec container.
//
// The paper's three secure schemes are the same SZ-1.4 pipeline with a
// cipher spliced in at one point.  encode_payload() runs stages 1+2
// (predict + quantize), 3 (Huffman) and 4 (payload framing + zlite
// DEFLATE) in order and frames a v2 container; decode_payload() parses
// the framing and runs the inverses in reverse.  Each splices the cipher
// with an `if` on the scheme:
//
//   kNone         no cipher
//   kCmprEncr     after stage 4: the whole compressed stream
//   kEncrQuant    after stage 3: tree + codewords, as one blob
//   kEncrHuffman  after stage 3: the tree only
//
// Every stage records wall time and bytes in/out into the result's
// PipelineMetrics ("predict+quantize" / "reconstruct", "huffman",
// "encrypt" / "decrypt", "lossless").  The SecureCompressor facade and
// the chunk codec of src/archive (v3 chunked archives and v1 slab
// archives) all call these two functions — a v2 container, a v3 chunk
// and a v1 slab are the same codec invoked with different framing, so
// format and scheme logic exist exactly once.
//
// Ownership/zero-copy rules (see also DESIGN.md section 6):
//  * decode_payload borrows `container` for the whole call; blobs are
//    parsed as BytesView into the container/payload buffers and only
//    copied at encryption boundaries (ciphertext cannot alias
//    plaintext).
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
#include <span>
#include <tuple>
#include <vector>

#include "common/bufpool.h"
#include "common/bytestream.h"
#include "common/dims.h"
#include "common/io.h"
#include "common/timer.h"
#include "core/container.h"
#include "core/scheme.h"
#include "crypto/cipher.h"
#include "crypto/drbg.h"
#include "sz/pipeline.h"

namespace szsec::core {

/// Cipher algorithm + mode selection for the codec (and the
/// SecureCompressor facade).  The paper fixes AES-128-CBC; the other
/// algorithms exist for the cipher ablation bench (DES/3DES from
/// Section II-B, ChaCha20 as the modern light-weight alternative).
struct CipherSpec {
  crypto::CipherKind kind = crypto::CipherKind::kAes128;
  crypto::Mode mode = crypto::Mode::kCbc;

  /// Append an HMAC-SHA256 tag over the whole container
  /// (encrypt-then-MAC) and verify it before decryption.  The MAC key is
  /// HKDF-derived from the cipher key, so one master key drives both.
  /// This goes beyond the paper (whose integrity check is implicit) and
  /// turns "corruption is detected" into "tampering is rejected".
  bool authenticate = false;
};

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

/// Immutable per-codec configuration, shared by every chunk (and every
/// worker thread) of one archive: parameters, the scheme, and the
/// cipher/MAC material.  Build one via CodecRuntime.
struct CodecConfig {
  sz::Params params;
  Scheme scheme = Scheme::kNone;
  CipherSpec spec;
  /// Null for Scheme::kNone; otherwise outlives the config (owned by
  /// the CodecRuntime that produced it).
  const crypto::Cipher* cipher = nullptr;
  /// HKDF-derived MAC key; empty unless spec.authenticate.
  BytesView auth_key;
};

/// Zero-copy stage-3 payload.  Every field is a borrow: on encode into
/// the encoder's QuantizedField/EncodedQuant/ciphertext scratch, on
/// decode into the inflated payload buffer.  The serialized layout
/// (assemble_payload / parse_payload) is unchanged from the original
/// format: for Encr-Quant the tree+codewords travel as one ciphertext
/// blob; for Encr-Huffman only the tree blob is ciphertext; length
/// prefixes stay plaintext exactly as the paper's modified SZ-1.4
/// stores the encrypted-region size outside the encryption.
struct PayloadView {
  BytesView tree_or_cipher;  ///< tree (plain or encrypted) or quant ciphertext
  BytesView codewords;       ///< empty for Encr-Quant (inside the ciphertext)
  uint64_t symbol_count = 0;
  BytesView unpredictable;
  uint64_t unpredictable_count = 0;
  BytesView side_info;
};

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

/// The encrypt-then-MAC check of every authenticated container (v2
/// file, v3 chunk, v1 slab): splits the HMAC-SHA256 tag off the end of
/// `container`, recomputes it over the rest (header | body) under
/// `auth_key` and compares in constant time.  Returns the signed part.
/// Throws CorruptError when `container` cannot hold a `header_size`-byte
/// header and a tag, CryptoError when the tag does not match.
BytesView check_tag(BytesView container, size_t header_size,
                    BytesView auth_key);

/// Serializes a PayloadView into the pre-lossless payload bytes
/// (scheme-dependent layout, see PayloadView).
Bytes assemble_payload(Scheme scheme, const PayloadView& p);

/// Parses the pre-lossless payload into zero-copy views borrowing from
/// `payload` (no blob copies; the caller keeps `payload` alive for as
/// long as the views are used).  Throws CorruptError on malformed
/// input.
PayloadView parse_payload(Scheme scheme, BytesView payload);

/// Encodes one field into a v2 container: runs stages 1+2, 3 and 4 with
/// the scheme's cipher splice, then frames header + body (+ HMAC tag
/// when authenticated).  `drbg` supplies the IV for encrypting schemes
/// (null = global DRBG).
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
/// always), then runs the inverse stages with the header's scheme
/// splice.  Requires cfg to carry the cipher the container was produced
/// with (for encrypting schemes).  A cfg with spec.authenticate rejects
/// a container without a tag (CryptoError): the flag and the tag are
/// removable by anyone, so their absence proves nothing.
DecompressResult decode_payload(const CodecConfig& cfg, BytesView container,
                                const DecodeOptions& opts = {});

}  // namespace codec
}  // namespace szsec::core
