#include "core/codec.h"

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

namespace {

uint64_t quantized_bytes(const sz::QuantizedField& q) {
  return q.codes.size() * sizeof(uint32_t) + q.unpredictable.size() +
         q.side_info.size();
}

/// Stages 1+2 (fused): field -> quantization codes + side channels.
class PredictQuantizeStage final : public Stage {
 public:
  StageId id() const override { return StageId::kPredictQuantize; }
  const char* name() const override { return "predict+quantize"; }
  const char* inverse_name() const override { return "reconstruct"; }

  void forward(EncodeContext& ctx) const override {
    // predict_quantize records its own "predict+quantize" duration.
    if (!ctx.f64.empty()) {
      ctx.q = sz::predict_quantize(ctx.f64, ctx.dims, ctx.cfg->params,
                                   ctx.metrics);
    } else {
      ctx.q = sz::predict_quantize(ctx.f32, ctx.dims, ctx.cfg->params,
                                   ctx.metrics);
    }
    const uint64_t raw = !ctx.f64.empty() ? ctx.f64.size_bytes()
                                          : ctx.f32.size_bytes();
    ctx.metrics->add_bytes(name(), raw, quantized_bytes(ctx.q));

    CompressStats& st = *ctx.stats;
    st.raw_bytes = raw;
    st.element_count = ctx.q.codes.size();
    st.unpredictable_bytes = ctx.q.unpredictable.size();
    st.unpredictable_count = ctx.q.unpredictable_count;
    st.predictable_fraction = sz::predictable_fraction(ctx.q);

    // The header carries the pipeline's resolved parameters (a REL
    // bound becomes ABS here) so decompression never needs the original
    // data's range.
    ctx.header.dtype = ctx.q.dtype;
    ctx.header.dims = ctx.dims;
    ctx.header.params = ctx.q.params;

    ctx.payload.unpredictable = BytesView(ctx.q.unpredictable);
    ctx.payload.unpredictable_count = ctx.q.unpredictable_count;
    ctx.payload.side_info = BytesView(ctx.q.side_info);
  }

  void inverse(DecodeContext& ctx) const override {
    const Header& h = ctx.header;
    ctx.out->dtype = h.dtype;
    ctx.out->dims = h.dims;
    // The reconstructor requires one quantization code per element;
    // enforce that here, before the dims-sized resize below, so a
    // forged header with huge dims and a short symbol stream fails
    // cleanly instead of committing the allocation first.
    SZSEC_CHECK_FORMAT(ctx.codes.size() == h.dims.count(),
                       "quantization code count does not match dims");
    const uint64_t in_bytes = ctx.codes.size() * sizeof(uint32_t) +
                              ctx.payload.unpredictable.size() +
                              ctx.payload.side_info.size();
    if (h.dtype == sz::DType::kFloat32) {
      std::span<float> dst = ctx.into_f32;
      if (dst.empty()) {
        ctx.out->f32.resize(h.dims.count());
        dst = std::span<float>(ctx.out->f32);
      }
      SZSEC_REQUIRE(dst.size() == h.dims.count(),
                    "destination span does not match container dims");
      sz::reconstruct(h.params, h.dims, ctx.codes, ctx.payload.unpredictable,
                      ctx.payload.side_info, dst, ctx.metrics);
    } else {
      std::span<double> dst = ctx.into_f64;
      if (dst.empty()) {
        ctx.out->f64.resize(h.dims.count());
        dst = std::span<double>(ctx.out->f64);
      }
      SZSEC_REQUIRE(dst.size() == h.dims.count(),
                    "destination span does not match container dims");
      sz::reconstruct(h.params, h.dims, ctx.codes, ctx.payload.unpredictable,
                      ctx.payload.side_info, dst, ctx.metrics);
    }
    ctx.metrics->add_bytes(
        inverse_name(), in_bytes,
        h.dims.count() * (h.dtype == sz::DType::kFloat32 ? 4 : 8));
  }
};

/// Stage 3: quantization codes <-> Huffman tree + codeword stream.
class HuffmanStage final : public Stage {
 public:
  StageId id() const override { return StageId::kHuffman; }
  const char* name() const override { return "huffman"; }
  const char* inverse_name() const override { return "huffman"; }

  void forward(EncodeContext& ctx) const override {
    ctx.enc = sz::huffman_encode_codes(ctx.q, ctx.metrics);
    ctx.metrics->add_bytes(name(), ctx.q.codes.size() * sizeof(uint32_t),
                           ctx.enc.tree.size() + ctx.enc.codewords.size());
    ctx.stats->tree_bytes = ctx.enc.tree.size();
    ctx.stats->codeword_bytes = ctx.enc.codewords.size();
    ctx.payload.tree_or_cipher = BytesView(ctx.enc.tree);
    ctx.payload.codewords = BytesView(ctx.enc.codewords);
    ctx.payload.symbol_count = ctx.enc.symbol_count;
  }

  void inverse(DecodeContext& ctx) const override {
    ctx.codes = sz::huffman_decode_codes(
        ctx.tree, ctx.codewords, ctx.payload.symbol_count, ctx.metrics);
    ctx.metrics->add_bytes(inverse_name(),
                           ctx.tree.size() + ctx.codewords.size(),
                           ctx.codes.size() * sizeof(uint32_t));
  }
};

/// Encr-Quant splice: the whole quantization array (tree + codewords)
/// becomes one ciphertext blob.
class CipherQuantStage final : public Stage {
 public:
  StageId id() const override { return StageId::kCipherQuant; }
  const char* name() const override { return "encrypt"; }
  const char* inverse_name() const override { return "decrypt"; }

  void forward(EncodeContext& ctx) const override {
    ByteWriter qa(ctx.enc.tree.size() + ctx.enc.codewords.size() + 16);
    qa.put_blob(BytesView(ctx.enc.tree));
    qa.put_blob(BytesView(ctx.enc.codewords));
    const Bytes quant_plain = qa.take();
    ctx.stats->encrypted_bytes = quant_plain.size();
    {
      ScopedStageTimer t(ctx.metrics, name());
      ctx.cipher_buf = ctx.cfg->cipher->encrypt(
          ctx.header.cipher_mode, ctx.header.iv, BytesView(quant_plain));
    }
    ctx.metrics->add_bytes(name(), quant_plain.size(),
                           ctx.cipher_buf.size());
    ctx.payload.tree_or_cipher = BytesView(ctx.cipher_buf);
    ctx.payload.codewords = BytesView();
  }

  void inverse(DecodeContext& ctx) const override {
    {
      ScopedStageTimer t(ctx.metrics, inverse_name());
      ctx.quant_plain = ctx.cfg->cipher->decrypt(
          ctx.header.cipher_mode, ctx.header.iv, ctx.payload.tree_or_cipher);
    }
    ctx.metrics->add_bytes(inverse_name(), ctx.payload.tree_or_cipher.size(),
                           ctx.quant_plain.size());
    ByteReader qr{BytesView(ctx.quant_plain)};
    ctx.tree = qr.get_blob();
    ctx.codewords = qr.get_blob();
    SZSEC_CHECK_FORMAT(qr.done(), "trailing bytes in quant section");
  }
};

/// Encr-Huffman splice: only the serialized tree becomes ciphertext.
class CipherTreeStage final : public Stage {
 public:
  StageId id() const override { return StageId::kCipherTree; }
  const char* name() const override { return "encrypt"; }
  const char* inverse_name() const override { return "decrypt"; }

  void forward(EncodeContext& ctx) const override {
    ctx.stats->encrypted_bytes = ctx.enc.tree.size();
    {
      ScopedStageTimer t(ctx.metrics, name());
      ctx.cipher_buf = ctx.cfg->cipher->encrypt(
          ctx.header.cipher_mode, ctx.header.iv, BytesView(ctx.enc.tree));
    }
    ctx.metrics->add_bytes(name(), ctx.enc.tree.size(),
                           ctx.cipher_buf.size());
    ctx.payload.tree_or_cipher = BytesView(ctx.cipher_buf);
    // codewords stay the plaintext view set by HuffmanStage.
  }

  void inverse(DecodeContext& ctx) const override {
    {
      ScopedStageTimer t(ctx.metrics, inverse_name());
      ctx.tree_plain = ctx.cfg->cipher->decrypt(
          ctx.header.cipher_mode, ctx.header.iv, ctx.payload.tree_or_cipher);
    }
    ctx.metrics->add_bytes(inverse_name(), ctx.payload.tree_or_cipher.size(),
                           ctx.tree_plain.size());
    ctx.tree = BytesView(ctx.tree_plain);
  }
};

/// Stage 4: payload assembly + CRC framing + DEFLATE (zlite).
class LosslessStage final : public Stage {
 public:
  StageId id() const override { return StageId::kLossless; }
  const char* name() const override { return "lossless"; }
  const char* inverse_name() const override { return "lossless"; }

  void forward(EncodeContext& ctx) const override {
    ctx.payload_bytes = assemble_payload(ctx.cfg->scheme, ctx.payload);
    ctx.stats->payload_bytes = ctx.payload_bytes.size();
    if (ctx.cfg->spec.authenticate) ctx.header.flags |= kFlagAuthenticated;
    const BytesView payload(ctx.payload_bytes);
    {
      ScopedStageTimer t(ctx.metrics, name());
      // The header records the level applied, as it records a REL bound
      // resolved to ABS: no container carries kAuto.
      ctx.header.params.lossless_level =
          zlite::resolve_level(payload, ctx.cfg->params.lossless_level);
      ctx.body = zlite::deflate(payload, ctx.header.params.lossless_level);
    }
    ctx.metrics->add_bytes(name(), payload.size(), ctx.body.size());
    // The CRC covers the semantic header fields (as seed) + the payload.
    ctx.header.payload_crc =
        crc32(payload, crc32(BytesView(header_semantic_bytes(ctx.header))));
  }

  void inverse(DecodeContext& ctx) const override {
    const Header& h = ctx.header;
    // Decompression-bomb guard: the legitimate payload is linear in the
    // element count (codewords + unpredictable values) plus the Huffman
    // table (bounded by quant_bins) plus cipher padding, so cap inflate
    // at a generous multiple of that.  A tampered body that tries to
    // inflate unboundedly throws CorruptError instead of exhausting
    // memory.
    const uint64_t elem_size = h.dtype == sz::DType::kFloat32 ? 4 : 8;
    const uint64_t payload_cap =
        2 * (static_cast<uint64_t>(h.dims.count()) * (elem_size + 9) +
             static_cast<uint64_t>(h.params.quant_bins) * 16 +
             h.payload_size) +
        (uint64_t{1} << 20);
    {
      ScopedStageTimer t(ctx.metrics, inverse_name());
      zlite::inflate_into(ctx.body, *ctx.payload_buf, 0,
                          static_cast<size_t>(payload_cap));
    }
    ctx.metrics->add_bytes(inverse_name(), ctx.body.size(),
                           ctx.payload_buf->size());
    SZSEC_CHECK_FORMAT(
        crc32(BytesView(*ctx.payload_buf),
              crc32(BytesView(header_semantic_bytes(h)))) == h.payload_crc,
        "payload CRC mismatch (corruption or wrong key)");
    ctx.payload = parse_payload(h.scheme, BytesView(*ctx.payload_buf));
    // Default stage-3 inputs are the plaintext views; a splice stage's
    // inverse (running after this one) overrides them with decrypted
    // scratch.
    ctx.tree = ctx.payload.tree_or_cipher;
    ctx.codewords = ctx.payload.codewords;
  }
};

/// Cmpr-Encr splice: the compressor's final output stream is encrypted.
class CipherStreamStage final : public Stage {
 public:
  StageId id() const override { return StageId::kCipherStream; }
  const char* name() const override { return "encrypt"; }
  const char* inverse_name() const override { return "decrypt"; }

  void forward(EncodeContext& ctx) const override {
    ctx.stats->encrypted_bytes = ctx.body.size();
    const uint64_t plain_size = ctx.body.size();
    {
      ScopedStageTimer t(ctx.metrics, name());
      ctx.body = ctx.cfg->cipher->encrypt(ctx.header.cipher_mode,
                                          ctx.header.iv, BytesView(ctx.body));
    }
    ctx.metrics->add_bytes(name(), plain_size, ctx.body.size());
  }

  void inverse(DecodeContext& ctx) const override {
    {
      ScopedStageTimer t(ctx.metrics, inverse_name());
      ctx.decrypted_body = ctx.cfg->cipher->decrypt(ctx.header.cipher_mode,
                                                    ctx.header.iv, ctx.body);
    }
    ctx.metrics->add_bytes(inverse_name(), ctx.body.size(),
                           ctx.decrypted_body.size());
    ctx.body = BytesView(ctx.decrypted_body);
  }
};

}  // namespace

const Stage& stage(StageId id) {
  static const PredictQuantizeStage predict_quantize;
  static const HuffmanStage huffman;
  static const CipherQuantStage cipher_quant;
  static const CipherTreeStage cipher_tree;
  static const LosslessStage lossless;
  static const CipherStreamStage cipher_stream;
  switch (id) {
    case StageId::kPredictQuantize:
      return predict_quantize;
    case StageId::kHuffman:
      return huffman;
    case StageId::kCipherQuant:
      return cipher_quant;
    case StageId::kCipherTree:
      return cipher_tree;
    case StageId::kLossless:
      return lossless;
    default:
      return cipher_stream;
  }
}

const PipelineSpec& PipelineSpec::for_scheme(Scheme scheme) {
  using S = StageId;
  static const PipelineSpec kNoneSpec{
      {S::kPredictQuantize, S::kHuffman, S::kLossless}, 3};
  static const PipelineSpec kCmprEncrSpec{
      {S::kPredictQuantize, S::kHuffman, S::kLossless, S::kCipherStream}, 4};
  static const PipelineSpec kEncrQuantSpec{
      {S::kPredictQuantize, S::kHuffman, S::kCipherQuant, S::kLossless}, 4};
  static const PipelineSpec kEncrHuffmanSpec{
      {S::kPredictQuantize, S::kHuffman, S::kCipherTree, S::kLossless}, 4};
  switch (scheme) {
    case Scheme::kNone:
      return kNoneSpec;
    case Scheme::kCmprEncr:
      return kCmprEncrSpec;
    case Scheme::kEncrQuant:
      return kEncrQuantSpec;
    default:
      return kEncrHuffmanSpec;
  }
}

Bytes derive_auth_key(BytesView key) {
  SZSEC_REQUIRE(!key.empty(), "authentication requires a key");
  static const char kInfo[] = "szsec-auth-v1";
  return crypto::hkdf_sha256(
      key, /*salt=*/{},
      BytesView(reinterpret_cast<const uint8_t*>(kInfo), sizeof(kInfo)), 32);
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
CompressResult encode_impl(const CodecConfig& cfg, std::span<const T> data,
                           const Dims& dims, crypto::CtrDrbg* drbg,
                           ByteSink* sink) {
  CompressResult result;
  EncodeContext ctx;
  ctx.cfg = &cfg;
  if constexpr (std::is_same_v<T, float>) {
    ctx.f32 = data;
  } else {
    ctx.f64 = data;
  }
  ctx.dims = dims;
  ctx.stats = &result.stats;
  ctx.metrics = &result.times;

  Header& h = ctx.header;
  h.scheme = cfg.scheme;
  h.cipher_kind = cfg.spec.kind;
  h.cipher_mode = cfg.spec.mode;
  if (cfg.scheme != Scheme::kNone) {
    crypto::CtrDrbg& iv_source = drbg ? *drbg : crypto::global_drbg();
    h.iv = iv_source.generate_iv();
  }

  for (StageId id : PipelineSpec::for_scheme(cfg.scheme).chain()) {
    stage(id).forward(ctx);
  }

  h.payload_size = ctx.body.size();
  if (sink != nullptr) {
    CountingSink counted(sink);
    write_container(cfg, h, BytesView(ctx.body), counted);
    result.stats.container_bytes = counted.count();
  } else {
    MemorySink mem;
    write_container(cfg, h, BytesView(ctx.body), mem);
    result.container = mem.take();
    result.stats.container_bytes = result.container.size();
  }
  return result;
}

}  // namespace

CompressResult encode_payload(const CodecConfig& cfg,
                              std::span<const float> data, const Dims& dims,
                              crypto::CtrDrbg* drbg) {
  return encode_impl(cfg, data, dims, drbg, nullptr);
}

CompressResult encode_payload(const CodecConfig& cfg,
                              std::span<const double> data, const Dims& dims,
                              crypto::CtrDrbg* drbg) {
  return encode_impl(cfg, data, dims, drbg, nullptr);
}

CompressResult encode_payload_to(const CodecConfig& cfg, ByteSink& out,
                                 std::span<const float> data,
                                 const Dims& dims, crypto::CtrDrbg* drbg) {
  return encode_impl(cfg, data, dims, drbg, &out);
}

CompressResult encode_payload_to(const CodecConfig& cfg, ByteSink& out,
                                 std::span<const double> data,
                                 const Dims& dims, crypto::CtrDrbg* drbg) {
  return encode_impl(cfg, data, dims, drbg, &out);
}

DecompressResult decode_payload(const CodecConfig& cfg, BytesView container,
                                const DecodeOptions& opts) {
  DecompressResult out;
  DecodeContext ctx;
  ctx.cfg = &cfg;
  ctx.out = &out;
  ctx.into_f32 = opts.into_f32;
  ctx.into_f64 = opts.into_f64;
  ctx.metrics = &out.times;

  ByteReader r(container);
  ctx.header = read_header(r);
  const Header& h = ctx.header;
  if (h.flags & kFlagAuthenticated) {
    // Verify the tag before touching any other byte (encrypt-then-MAC).
    if (cfg.auth_key.empty()) {
      throw CryptoError(
          "container is authenticated but this compressor has no MAC key");
    }
    constexpr size_t kTag = crypto::Sha256::kDigestSize;
    SZSEC_CHECK_FORMAT(container.size() >= kTag + r.pos(),
                       "authenticated container too short");
    const BytesView signed_part =
        container.subspan(0, container.size() - kTag);
    const BytesView tag = container.subspan(container.size() - kTag);
    const crypto::Sha256::Digest expect =
        crypto::hmac_sha256(cfg.auth_key, signed_part);
    if (!crypto::constant_time_equal(BytesView(expect), tag)) {
      throw CryptoError("authentication tag mismatch: container tampered "
                        "with or wrong key");
    }
    r = ByteReader(signed_part);
    (void)read_header(r);  // reposition past the header
  }
  SZSEC_REQUIRE(h.scheme == Scheme::kNone || cfg.cipher != nullptr,
                "container is encrypted but no key was supplied");
  SZSEC_REQUIRE(h.scheme == Scheme::kNone ||
                    cfg.cipher->kind() == h.cipher_kind,
                "container was encrypted with a different cipher");
  ctx.body = r.get_bytes(static_cast<size_t>(h.payload_size));

  // The inflated-payload scratch comes from the shared pool when the
  // caller supplied one (chunked decodes reuse it across chunks).
  PooledBytes payload_lease(opts.pool);
  ctx.payload_buf = &payload_lease.bytes();

  const std::span<const StageId> chain =
      PipelineSpec::for_scheme(h.scheme).chain();
  for (size_t i = chain.size(); i > 0; --i) {
    stage(chain[i - 1]).inverse(ctx);
  }
  return out;
}

}  // namespace codec
}  // namespace szsec::core
