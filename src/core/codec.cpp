#include "core/codec.h"

#include <array>

#include "common/crc32.h"
#include "crypto/sha256.h"
#include "zlite/zlite.h"

namespace szsec::core {

Header peek_header(BytesView container) {
  ByteReader r(container);
  return read_header(r);
}

namespace codec {

Bytes assemble_payload(Scheme scheme, const PayloadView& p) {
  ByteWriter w(p.tree_or_cipher.size() + p.codewords.size() +
               p.unpredictable.size() + p.side_info.size() + 64);
  w.put_blob(p.tree_or_cipher);
  if (scheme != Scheme::kEncrQuant) w.put_blob(p.codewords);
  w.put_varint(p.symbol_count);
  w.put_blob(p.unpredictable);
  w.put_varint(p.unpredictable_count);
  w.put_blob(p.side_info);
  return w.take();
}

PayloadView parse_payload(Scheme scheme, BytesView payload) {
  ByteReader r(payload);
  PayloadView p;
  p.tree_or_cipher = r.get_blob();
  if (scheme != Scheme::kEncrQuant) p.codewords = r.get_blob();
  p.symbol_count = r.get_varint();
  p.unpredictable = r.get_blob();
  p.unpredictable_count = r.get_varint();
  p.side_info = r.get_blob();
  SZSEC_CHECK_FORMAT(r.done(), "trailing bytes in payload");
  return p;
}

Bytes derive_auth_key(BytesView key) {
  SZSEC_REQUIRE(!key.empty(), "authentication requires a key");
  static const char kInfo[] = "szsec-auth-v1";
  return crypto::hkdf_sha256(
      key, /*salt=*/{},
      BytesView(reinterpret_cast<const uint8_t*>(kInfo), sizeof(kInfo)), 32);
}

BytesView check_tag(BytesView container, size_t header_size,
                    BytesView auth_key) {
  constexpr size_t kTag = crypto::Sha256::kDigestSize;
  SZSEC_CHECK_FORMAT(container.size() >= kTag + header_size,
                     "authenticated container too short");
  const BytesView signed_part =
      container.subspan(0, container.size() - kTag);
  const crypto::Sha256::Digest expect =
      crypto::hmac_sha256(auth_key, signed_part);
  if (!crypto::constant_time_equal(BytesView(expect),
                                   container.subspan(signed_part.size()))) {
    throw CryptoError("authentication tag mismatch: container tampered "
                      "with or wrong key");
  }
  return signed_part;
}

CodecRuntime::CodecRuntime(sz::Params params, Scheme scheme, BytesView key,
                           CipherSpec spec)
    : params_(params), scheme_(scheme), spec_(spec) {
  if (scheme_ != Scheme::kNone) {
    SZSEC_REQUIRE(!key.empty(),
                  "an encryption key is required for encrypting schemes");
    cipher_.emplace(spec_.kind, key);
  }
  if (spec_.authenticate) {
    auth_key_ = derive_auth_key(key);
  }
}

CodecConfig CodecRuntime::config() const {
  CodecConfig cfg;
  cfg.params = params_;
  cfg.scheme = scheme_;
  cfg.spec = spec_;
  cfg.cipher = cipher_.has_value() ? &*cipher_ : nullptr;
  cfg.auth_key = BytesView(auth_key_);
  return cfg;
}

const CodecRuntime& RuntimeCache::get(const sz::Params& params,
                                      Scheme scheme, CipherSpec spec) {
  const Key k{static_cast<uint8_t>(scheme), static_cast<uint8_t>(spec.kind),
              static_cast<uint8_t>(spec.mode), spec.authenticate};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(k);
  if (it == cache_.end()) {
    it = cache_
             .emplace(std::piecewise_construct, std::forward_as_tuple(k),
                      std::forward_as_tuple(params, scheme, BytesView(key_),
                                            spec))
             .first;
  }
  return it->second;
}

namespace {

/// The cipher splice, recorded as the "encrypt" stage.
Bytes encrypt(const CodecConfig& cfg, const Header& h, BytesView plain,
              CompressResult& result) {
  result.stats.encrypted_bytes = plain.size();
  Bytes cipher;
  {
    ScopedStageTimer t(&result.times, "encrypt");
    cipher = cfg.cipher->encrypt(h.cipher_mode, h.iv, plain);
  }
  result.times.add_bytes("encrypt", plain.size(), cipher.size());
  return cipher;
}

/// The inverse splice, recorded as the "decrypt" stage.
Bytes decrypt(const CodecConfig& cfg, const Header& h, BytesView cipher,
              PipelineMetrics& times) {
  Bytes plain;
  {
    ScopedStageTimer t(&times, "decrypt");
    plain = cfg.cipher->decrypt(h.cipher_mode, h.iv, cipher);
  }
  times.add_bytes("decrypt", cipher.size(), plain.size());
  return plain;
}

/// The one container-emit path: header | body | optional tag into a
/// sink.  The HMAC covers header + body without re-concatenating them.
void write_container(const CodecConfig& cfg, const Header& h, BytesView body,
                     ByteSink& out) {
  const Bytes head = write_header(h);
  out.write(BytesView(head));
  out.write(body);
  if (cfg.spec.authenticate) {
    // Encrypt-then-MAC over everything (header included): any bit of the
    // container an attacker touches invalidates the tag.
    const std::array<BytesView, 2> parts{BytesView(head), body};
    const crypto::Sha256::Digest tag =
        crypto::hmac_sha256_parts(cfg.auth_key, parts);
    out.write(BytesView(tag.data(), tag.size()));
  }
}

template <typename T>
CompressResult encode(const CodecConfig& cfg, std::span<const T> data,
                      const Dims& dims, crypto::CtrDrbg* drbg,
                      ByteSink* sink) {
  CompressResult result;
  CompressStats& st = result.stats;
  PipelineMetrics& times = result.times;
  Header h;
  h.scheme = cfg.scheme;
  h.cipher_kind = cfg.spec.kind;
  h.cipher_mode = cfg.spec.mode;
  if (cfg.scheme != Scheme::kNone) {
    crypto::CtrDrbg& iv_source = drbg ? *drbg : crypto::global_drbg();
    h.iv = iv_source.generate_iv();
  }

  // Stages 1+2 (fused); predict_quantize records its own duration.
  const sz::QuantizedField q =
      sz::predict_quantize(data, dims, cfg.params, &times);
  times.add_bytes("predict+quantize", data.size_bytes(),
                  q.codes.size() * sizeof(uint32_t) + q.unpredictable.size() +
                      q.side_info.size());
  st.raw_bytes = data.size_bytes();
  st.element_count = q.codes.size();
  st.unpredictable_bytes = q.unpredictable.size();
  st.unpredictable_count = q.unpredictable_count;
  st.predictable_fraction = sz::predictable_fraction(q);
  // The header carries the pipeline's resolved parameters (a REL bound
  // becomes ABS here) so decompression never needs the original data's
  // range.
  h.dtype = q.dtype;
  h.dims = dims;
  h.params = q.params;

  // Stage 3: quantization codes -> Huffman tree + codeword stream.
  const sz::EncodedQuant enc = sz::huffman_encode_codes(q, &times);
  times.add_bytes("huffman", q.codes.size() * sizeof(uint32_t),
                  enc.tree.size() + enc.codewords.size());
  st.tree_bytes = enc.tree.size();
  st.codeword_bytes = enc.codewords.size();
  PayloadView p{.tree_or_cipher = BytesView(enc.tree),
                .codewords = BytesView(enc.codewords),
                .symbol_count = enc.symbol_count,
                .unpredictable = BytesView(q.unpredictable),
                .unpredictable_count = q.unpredictable_count,
                .side_info = BytesView(q.side_info)};

  // Encr-Quant encrypts the whole quantization array (tree + codewords)
  // as one blob; Encr-Huffman the serialized tree only.
  Bytes cipher;
  if (cfg.scheme == Scheme::kEncrQuant) {
    ByteWriter qa(enc.tree.size() + enc.codewords.size() + 16);
    qa.put_blob(BytesView(enc.tree));
    qa.put_blob(BytesView(enc.codewords));
    const Bytes quant = qa.take();
    cipher = encrypt(cfg, h, BytesView(quant), result);
    p.tree_or_cipher = BytesView(cipher);
    p.codewords = BytesView();
  } else if (cfg.scheme == Scheme::kEncrHuffman) {
    cipher = encrypt(cfg, h, BytesView(enc.tree), result);
    p.tree_or_cipher = BytesView(cipher);
  }

  // Stage 4: payload framing + CRC + DEFLATE.
  const Bytes payload = assemble_payload(cfg.scheme, p);
  st.payload_bytes = payload.size();
  if (cfg.spec.authenticate) h.flags |= kFlagAuthenticated;
  Bytes body;
  {
    ScopedStageTimer t(&times, "lossless");
    // The header records the level applied, as it records a REL bound
    // resolved to ABS: no container carries kAuto.
    h.params.lossless_level =
        zlite::resolve_level(BytesView(payload), cfg.params.lossless_level);
    body = zlite::deflate(BytesView(payload), h.params.lossless_level);
  }
  times.add_bytes("lossless", payload.size(), body.size());
  // The CRC covers the semantic header fields (as seed) + the payload.
  h.payload_crc = crc32(BytesView(payload),
                        crc32(BytesView(header_semantic_bytes(h))));

  // Cmpr-Encr encrypts the compressor's final output stream.
  if (cfg.scheme == Scheme::kCmprEncr) {
    body = encrypt(cfg, h, BytesView(body), result);
  }

  h.payload_size = body.size();
  if (sink != nullptr) {
    CountingSink counted(sink);
    write_container(cfg, h, BytesView(body), counted);
    st.container_bytes = counted.count();
  } else {
    MemorySink mem;
    write_container(cfg, h, BytesView(body), mem);
    result.container = mem.take();
    st.container_bytes = result.container.size();
  }
  return result;
}

}  // namespace

CompressResult encode_payload(const CodecConfig& cfg,
                              std::span<const float> data, const Dims& dims,
                              crypto::CtrDrbg* drbg) {
  return encode(cfg, data, dims, drbg, nullptr);
}

CompressResult encode_payload(const CodecConfig& cfg,
                              std::span<const double> data, const Dims& dims,
                              crypto::CtrDrbg* drbg) {
  return encode(cfg, data, dims, drbg, nullptr);
}

CompressResult encode_payload_to(const CodecConfig& cfg, ByteSink& out,
                                 std::span<const float> data,
                                 const Dims& dims, crypto::CtrDrbg* drbg) {
  return encode(cfg, data, dims, drbg, &out);
}

CompressResult encode_payload_to(const CodecConfig& cfg, ByteSink& out,
                                 std::span<const double> data,
                                 const Dims& dims, crypto::CtrDrbg* drbg) {
  return encode(cfg, data, dims, drbg, &out);
}

DecompressResult decode_payload(const CodecConfig& cfg, BytesView container,
                                const DecodeOptions& opts) {
  DecompressResult out;
  PipelineMetrics& times = out.times;
  ByteReader r(container);
  const Header h = read_header(r);
  if (h.flags & kFlagAuthenticated) {
    // Verify the tag before touching any other byte (encrypt-then-MAC).
    if (cfg.auth_key.empty()) {
      throw CryptoError(
          "container is authenticated but this compressor has no MAC key");
    }
    r = ByteReader(check_tag(container, r.pos(), cfg.auth_key));
    (void)read_header(r);  // reposition past the header
  } else if (cfg.spec.authenticate) {
    throw CryptoError(
        "container is not authenticated but this compressor requires a MAC");
  }
  SZSEC_REQUIRE(h.scheme == Scheme::kNone || cfg.cipher != nullptr,
                "container is encrypted but no key was supplied");
  SZSEC_REQUIRE(h.scheme == Scheme::kNone ||
                    cfg.cipher->kind() == h.cipher_kind,
                "container was encrypted with a different cipher");
  BytesView body = r.get_bytes(static_cast<size_t>(h.payload_size));

  // The inflated-payload scratch comes from the shared pool when the
  // caller supplied one (chunked decodes reuse it across chunks).
  PooledBytes payload_lease(opts.pool);
  Bytes& payload = payload_lease.bytes();

  // Cmpr-Encr: the body is the encrypted compressed stream.
  Bytes plain_body;
  if (h.scheme == Scheme::kCmprEncr) {
    plain_body = decrypt(cfg, h, body, times);
    body = BytesView(plain_body);
  }

  // Stage 4.  Decompression-bomb guard: the legitimate payload is linear
  // in the element count (codewords + unpredictable values) plus the
  // Huffman table (bounded by quant_bins) plus cipher padding, so cap
  // inflate at a generous multiple of that.  A tampered body that tries
  // to inflate unboundedly throws CorruptError instead of exhausting
  // memory.
  const uint64_t elem_size = h.dtype == sz::DType::kFloat32 ? 4 : 8;
  const uint64_t payload_cap =
      2 * (static_cast<uint64_t>(h.dims.count()) * (elem_size + 9) +
           static_cast<uint64_t>(h.params.quant_bins) * 16 +
           h.payload_size) +
      (uint64_t{1} << 20);
  {
    ScopedStageTimer t(&times, "lossless");
    zlite::inflate_into(body, payload, 0, static_cast<size_t>(payload_cap));
  }
  times.add_bytes("lossless", body.size(), payload.size());
  SZSEC_CHECK_FORMAT(
      crc32(BytesView(payload),
            crc32(BytesView(header_semantic_bytes(h)))) == h.payload_crc,
      "payload CRC mismatch (corruption or wrong key)");
  const PayloadView p = parse_payload(h.scheme, BytesView(payload));

  // Stage-3 inputs: the plaintext views, or the decrypted splice.
  BytesView tree = p.tree_or_cipher;
  BytesView codewords = p.codewords;
  Bytes plain;
  if (h.scheme == Scheme::kEncrQuant) {
    plain = decrypt(cfg, h, p.tree_or_cipher, times);
    ByteReader qr{BytesView(plain)};
    tree = qr.get_blob();
    codewords = qr.get_blob();
    SZSEC_CHECK_FORMAT(qr.done(), "trailing bytes in quant section");
  } else if (h.scheme == Scheme::kEncrHuffman) {
    plain = decrypt(cfg, h, p.tree_or_cipher, times);
    tree = BytesView(plain);
  }

  // Stage 3.
  const std::vector<uint32_t> codes =
      sz::huffman_decode_codes(tree, codewords, p.symbol_count, &times);
  times.add_bytes("huffman", tree.size() + codewords.size(),
                  codes.size() * sizeof(uint32_t));

  // Stages 1+2.  The reconstructor requires one quantization code per
  // element; enforce that here, before the dims-sized resize below, so a
  // forged header with huge dims and a short symbol stream fails cleanly
  // instead of committing the allocation first.
  out.dtype = h.dtype;
  out.dims = h.dims;
  SZSEC_CHECK_FORMAT(codes.size() == h.dims.count(),
                     "quantization code count does not match dims");
  const auto reconstruct = [&](auto dst, auto& owned) {
    if (dst.empty()) {
      owned.resize(h.dims.count());
      dst = owned;
    }
    SZSEC_REQUIRE(dst.size() == h.dims.count(),
                  "destination span does not match container dims");
    sz::reconstruct(h.params, h.dims, codes, p.unpredictable, p.side_info,
                    dst, &times);
  };
  if (h.dtype == sz::DType::kFloat32) {
    reconstruct(opts.into_f32, out.f32);
  } else {
    reconstruct(opts.into_f64, out.f64);
  }
  times.add_bytes("reconstruct",
                  codes.size() * sizeof(uint32_t) + p.unpredictable.size() +
                      p.side_info.size(),
                  h.dims.count() * elem_size);
  return out;
}

}  // namespace codec
}  // namespace szsec::core
