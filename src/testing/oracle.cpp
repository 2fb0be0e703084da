#include "testing/oracle.h"

#include <bit>
#include <cmath>
#include <sstream>

#include "archive/chunked.h"
#include "archive/slab.h"
#include "core/container.h"
#include "core/sansio.h"
#include "core/secure_compressor.h"

namespace szsec::testing {

namespace {

/// Collects violations with printf-convenience.
class Check {
 public:
  void fail(const std::string& what) { violations_.push_back(what); }

  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }

  std::vector<std::string> take() { return std::move(violations_); }

 private:
  std::vector<std::string> violations_;
};

template <typename T>
uint64_t to_bits(T v) {
  if constexpr (sizeof(T) == 4) {
    return std::bit_cast<uint32_t>(v);
  } else {
    return std::bit_cast<uint64_t>(v);
  }
}

/// Error-bound invariant over a whole field: finite values within eb,
/// non-finite values bit-identical.
template <typename T>
void check_bound(Check& c, std::span<const T> original,
                 std::span<const T> round, double eb, const char* path) {
  if (original.size() != round.size()) {
    c.fail(std::string(path) + ": size mismatch (decompressed-size "
           "exactness violated)");
    return;
  }
  for (size_t i = 0; i < original.size(); ++i) {
    const double x = static_cast<double>(original[i]);
    if (!std::isfinite(x)) {
      if (to_bits(original[i]) != to_bits(round[i])) {
        std::ostringstream os;
        os << path << ": non-finite value at " << i
           << " not bit-identical after round trip";
        c.fail(os.str());
        return;  // one report per field is enough
      }
      continue;
    }
    const double err = std::abs(x - static_cast<double>(round[i]));
    if (!(err <= eb)) {
      std::ostringstream os;
      os << path << ": |x-x'| = " << err << " > eb = " << eb << " at index "
         << i << " (x = " << x << ", x' = " << static_cast<double>(round[i])
         << ")";
      c.fail(os.str());
      return;
    }
  }
}

template <typename T>
bool bits_equal(std::span<const T> a, std::span<const T> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (to_bits(a[i]) != to_bits(b[i])) return false;
  }
  return true;
}

template <typename T>
const std::vector<T>& pick_vec(const core::DecompressResult& r) {
  if constexpr (sizeof(T) == 4) {
    return r.f32;
  } else {
    return r.f64;
  }
}

template <typename T>
std::vector<T> synthesize(const SampledConfig& cfg) {
  if constexpr (sizeof(T) == 4) {
    return synthesize_f32(cfg);
  } else {
    return synthesize_f64(cfg);
  }
}

/// Header + layout + accounting consistency for one v2 container.
template <typename T>
void check_container_consistency(Check& c, const SampledConfig& cfg,
                                 const core::CompressResult& r,
                                 size_t element_count) {
  const core::Header h = core::peek_header(BytesView(r.container));
  c.expect(h.scheme == cfg.scheme, "header scheme != configured scheme");
  c.expect(h.dtype == cfg.dtype, "header dtype != configured dtype");
  c.expect(h.dims == cfg.dims, "header dims != input dims");
  if (cfg.scheme != core::Scheme::kNone) {
    c.expect(h.cipher_kind == cfg.spec.kind, "header cipher kind mismatch");
    c.expect(h.cipher_mode == cfg.spec.mode, "header cipher mode mismatch");
    c.expect(((h.flags & core::kFlagAuthenticated) != 0) ==
                 cfg.spec.authenticate,
             "header auth flag mismatch");
  }
  if (cfg.params.eb_mode == sz::ErrorBoundMode::kAbs) {
    c.expect(h.params.abs_error_bound == cfg.params.abs_error_bound,
             "header error bound != configured absolute bound");
  } else {
    c.expect(h.params.abs_error_bound > 0,
             "resolved REL bound not positive in header");
  }
  c.expect(h.params.quant_bins == cfg.params.quant_bins,
           "header quant_bins mismatch");
  // The header records the level applied: kAuto resolves per payload.
  if (cfg.params.lossless_level == zlite::Level::kAuto) {
    c.expect(h.params.lossless_level == zlite::Level::kStored ||
                 h.params.lossless_level == zlite::Level::kDefault,
             "header level is neither kStored nor kDefault under kAuto");
  } else {
    c.expect(h.params.lossless_level == cfg.params.lossless_level,
             "header lossless level != configured level");
  }

  // Byte layout: header + payload (+ 32-byte HMAC tag) == container.
  const size_t header_size = core::write_header(h).size();
  const size_t tag = cfg.spec.authenticate &&
                             cfg.scheme != core::Scheme::kNone
                         ? 32
                         : 0;
  c.expect(header_size + h.payload_size + tag == r.container.size(),
           "container size != header + payload_size (+ tag)");

  // Stats accounting.
  c.expect(r.stats.raw_bytes == element_count * sz::dtype_size(cfg.dtype),
           "stats.raw_bytes != element_count * dtype size");
  c.expect(r.stats.container_bytes == r.container.size(),
           "stats.container_bytes != container size");
  c.expect(r.stats.element_count == element_count,
           "stats.element_count != input element count");

  // Metrics: every forward stage of the scheme's chain reported, and the
  // stage-1 byte flow saw the whole raw field.
  const auto& all = r.times.all();
  for (const char* stage : {"predict+quantize", "huffman", "lossless"}) {
    c.expect(all.find(stage) != all.end(),
             std::string("metrics missing stage ") + stage);
  }
  c.expect((all.find("encrypt") != all.end()) ==
               (cfg.scheme != core::Scheme::kNone),
           "metrics 'encrypt' presence != scheme encrypts");
  c.expect(r.times.metric("predict+quantize").bytes_in == r.stats.raw_bytes,
           "predict+quantize bytes_in != raw bytes");
  c.expect(r.times.metric("lossless").bytes_out > 0,
           "lossless stage recorded no output bytes");
}

template <typename T>
std::vector<std::string> check_roundtrip_impl(const SampledConfig& cfg) {
  Check c;
  const std::vector<T> field = synthesize<T>(cfg);
  const std::span<const T> in(field);
  const BytesView key(cfg.key);

  // --- v2 single container: encode twice with identically seeded DRBGs;
  // a deterministic codec must produce identical bytes.
  crypto::CtrDrbg d1(cfg.seed + 1), d2(cfg.seed + 1);
  const core::SecureCompressor comp(cfg.params, cfg.scheme, key, cfg.spec,
                                    &d1);
  const core::SecureCompressor comp2(cfg.params, cfg.scheme, key, cfg.spec,
                                     &d2);
  const core::CompressResult r = comp.compress(in, cfg.dims);
  const core::CompressResult r2 = comp2.compress(in, cfg.dims);
  c.expect(r.container == r2.container,
           "v2 encode not deterministic for a fixed DRBG seed");

  check_container_consistency<T>(c, cfg, r, field.size());
  const double eb =
      core::peek_header(BytesView(r.container)).params.abs_error_bound;

  const core::DecompressResult out = comp.decompress(BytesView(r.container));
  c.expect(out.dtype == cfg.dtype, "decode dtype mismatch");
  c.expect(out.dims == cfg.dims, "decode dims mismatch");
  const std::vector<T>& v2_plain = pick_vec<T>(out);
  check_bound<T>(c, in, v2_plain, eb, "v2 decode");

  // --- zero-copy differential: decoding into a caller span must yield
  // bit-identical elements to the owned-vector decode.
  {
    core::codec::CodecRuntime rt(cfg.params, cfg.scheme, key, cfg.spec);
    std::vector<T> dst(field.size());
    core::codec::DecodeOptions opts;
    if constexpr (sizeof(T) == 4) {
      opts.into_f32 = std::span<float>(dst);
    } else {
      opts.into_f64 = std::span<double>(dst);
    }
    const core::DecompressResult span_out =
        core::codec::decode_payload(rt.config(), BytesView(r.container),
                                    opts);
    c.expect(pick_vec<T>(span_out).empty(),
             "span decode also populated the owned vector");
    c.expect(bits_equal<T>(std::span<const T>(dst), v2_plain),
             "into-span decode != owned-vector decode");
  }

  // --- authenticated containers must reject a wrong key outright.
  if (cfg.scheme != core::Scheme::kNone && cfg.spec.authenticate) {
    Bytes bad_key = cfg.key;
    bad_key.back() ^= 0x01;
    const core::SecureCompressor wrong(cfg.params, cfg.scheme,
                                       BytesView(bad_key), cfg.spec);
    try {
      (void)wrong.decompress(BytesView(r.container));
      c.fail("authenticated container decoded under a wrong key");
    } catch (const Error&) {
    }
  }

  // --- v3 chunked archive: serial and parallel runs must emit identical
  // archive bytes and recover identical plaintext.
  archive::ChunkedConfig serial_cfg;
  serial_cfg.threads = 1;
  serial_cfg.chunks = cfg.chunks;
  archive::ChunkedConfig par_cfg = serial_cfg;
  par_cfg.threads = cfg.threads;

  crypto::CtrDrbg d3(cfg.seed + 2), d4(cfg.seed + 2);
  const archive::ChunkedCompressResult a1 = archive::compress_chunked(
      in, cfg.dims, cfg.params, cfg.scheme, key, cfg.spec, serial_cfg, &d3);
  const archive::ChunkedCompressResult a2 = archive::compress_chunked(
      in, cfg.dims, cfg.params, cfg.scheme, key, cfg.spec, par_cfg, &d4);
  c.expect(a1.archive == a2.archive,
           "v3 archive bytes differ between 1 thread and " +
               std::to_string(cfg.threads) + " threads");
  c.expect(a1.chunk_count == cfg.chunks, "v3 chunk count != requested");

  std::vector<T> v3_serial, v3_parallel;
  if constexpr (sizeof(T) == 4) {
    v3_serial =
        archive::decompress_chunked_f32(BytesView(a1.archive), key,
                                        serial_cfg);
    v3_parallel =
        archive::decompress_chunked_f32(BytesView(a1.archive), key, par_cfg);
  } else {
    v3_serial =
        archive::decompress_chunked_f64(BytesView(a1.archive), key,
                                        serial_cfg);
    v3_parallel =
        archive::decompress_chunked_f64(BytesView(a1.archive), key, par_cfg);
  }
  c.expect(bits_equal<T>(std::span<const T>(v3_serial),
                         std::span<const T>(v3_parallel)),
           "v3 strict decode differs between 1 thread and " +
               std::to_string(cfg.threads) + " threads");
  // Per-chunk REL resolution uses the chunk's own range, which is <= the
  // field's range, so the v2-resolved bound is valid for every chunk.
  check_bound<T>(c, in, v3_serial, eb, "v3 strict decode");

  // Chunking changes prediction context at slab boundaries, so v3 == v2
  // plaintext only holds when one chunk spans the whole field.
  if (cfg.chunks == 1) {
    c.expect(bits_equal<T>(std::span<const T>(v3_serial), v2_plain),
             "single-chunk v3 plaintext != v2 plaintext");
  }

  // --- streaming differential: the streaming compressor fed the same
  // elements under the same DRBG seed must emit the in-memory archive
  // byte for byte (temp-file spool and thread fan-out included), and the
  // streaming decoder must survive a worst-case 1-byte read schedule.
  {
    const BytesView field_bytes(reinterpret_cast<const uint8_t*>(in.data()),
                                in.size() * sizeof(T));
    crypto::CtrDrbg d6(cfg.seed + 2);
    MemorySource src(field_bytes);
    MemorySink dst;
    archive::ChunkedConfig stream_cfg = par_cfg;
    stream_cfg.spool = FrameSpool::Backing::kTempFile;
    const archive::ChunkedStreamResult sres =
        archive::compress_chunked_stream(src, dst, cfg.dtype, cfg.dims,
                                         cfg.params, cfg.scheme, key,
                                         cfg.spec, stream_cfg, &d6);
    c.expect(dst.bytes() == a1.archive,
             "streamed v3 archive != in-memory archive bytes");
    c.expect(sres.archive_bytes == a1.archive.size(),
             "streamed archive_bytes != emitted size");

    MemorySource raw(BytesView(a1.archive));
    ChokedSource dribble(raw, 1);
    MemorySink plain;
    const archive::ChunkedStreamDecodeResult dres =
        archive::decompress_chunked_stream(dribble, plain, key, par_cfg);
    c.expect(dres.dims == cfg.dims, "streamed decode dims mismatch");
    c.expect(dres.dtype == cfg.dtype, "streamed decode dtype mismatch");
    const std::span<const T> streamed(
        reinterpret_cast<const T*>(plain.bytes().data()),
        plain.bytes().size() / sizeof(T));
    c.expect(bits_equal<T>(streamed, std::span<const T>(v3_serial)),
             "streamed v3 decode != in-memory strict decode");
  }

  // --- v1 slab archive with the same split must reconstruct the exact
  // same plaintext as the v3 archive (identical slab planning).
  {
    archive::ChunkedConfig scfg;
    scfg.threads = cfg.threads;
    scfg.chunks = cfg.chunks;
    crypto::CtrDrbg d5(cfg.seed + 3);
    const archive::ChunkedCompressResult sa = archive::compress_slabs(
        in, cfg.dims, cfg.params, cfg.scheme, key, cfg.spec, scfg, &d5);
    {
      // The streaming v1 writer (a sans-io encoder, fed in odd-sized
      // pieces) must match the in-memory archive too.
      sansio::EncoderConfig ec;
      ec.params = cfg.params;
      ec.scheme = cfg.scheme;
      ec.spec = cfg.spec;
      ec.key = Bytes(key.begin(), key.end());
      ec.dtype = cfg.dtype;
      ec.dims = cfg.dims;
      ec.container = sansio::Container::kV1Slab;
      ec.chunks = cfg.chunks;
      ec.threads = cfg.threads;
      ec.drbg_seed = cfg.seed + 3;
      const auto ctx = sansio::Context::encoder(ec);
      const BytesView raw(reinterpret_cast<const uint8_t*>(in.data()),
                          in.size() * sizeof(T));
      Bytes streamed;
      uint8_t buf[4096];
      size_t fed = 0;
      for (sansio::Status st = ctx->status(); st != sansio::Status::kDone;
           st = ctx->status()) {
        size_t n = 0;
        if (st == sansio::Status::kHaveOutput) {
          ctx->pull(buf, n);
          streamed.insert(streamed.end(), buf, buf + n);
        } else if (fed < raw.size()) {
          ctx->feed(raw.subspan(fed, std::min<size_t>(4093, raw.size() - fed)),
                    n);
          fed += n;
        } else {
          ctx->finish();
        }
      }
      c.expect(streamed == sa.archive,
               "streamed v1 slab archive != in-memory archive bytes");
    }
    std::vector<T> slab_plain;
    if constexpr (sizeof(T) == 4) {
      slab_plain =
          archive::decompress_slabs_f32(BytesView(sa.archive), key, scfg);
    } else {
      slab_plain =
          archive::decompress_slabs_f64(BytesView(sa.archive), key, scfg);
    }
    c.expect(bits_equal<T>(std::span<const T>(slab_plain),
                           std::span<const T>(v3_serial)),
             "v1 slab plaintext != v3 chunked plaintext for the same split");
  }

  // --- salvage of an undamaged archive is lossless and says so.
  {
    archive::SalvageOptions sopts;
    sopts.threads = cfg.threads;
    const archive::SalvageResult sr =
        sizeof(T) == 4
            ? archive::decompress_salvage(BytesView(a1.archive), key, sopts)
            : archive::decompress_salvage_f64(BytesView(a1.archive), key,
                                              sopts);
    c.expect(sr.report.index_intact, "salvage: intact archive index flagged");
    c.expect(sr.report.complete(),
             "salvage: intact archive not fully recovered");
    c.expect(sr.report.elements_recovered == field.size(),
             "salvage: elements_recovered != field size on intact archive");
    const std::vector<T>& salvaged = [&]() -> const std::vector<T>& {
      if constexpr (sizeof(T) == 4) {
        return sr.f32;
      } else {
        return sr.f64;
      }
    }();
    c.expect(bits_equal<T>(std::span<const T>(salvaged),
                           std::span<const T>(v3_serial)),
             "salvage of intact archive != strict decode");
  }

  return c.take();
}

}  // namespace

std::vector<std::string> check_roundtrip(const SampledConfig& cfg) {
  try {
    if (cfg.dtype == sz::DType::kFloat32) {
      return check_roundtrip_impl<float>(cfg);
    }
    return check_roundtrip_impl<double>(cfg);
  } catch (const std::exception& e) {
    return {std::string("unexpected exception: ") + e.what()};
  }
}

}  // namespace szsec::testing
