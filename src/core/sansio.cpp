#include "core/sansio.h"

#include <cstring>
#include <deque>

#include "archive/chunk_machine.h"
#include "archive/slab.h"
#include "core/container.h"

namespace szsec::sansio {
namespace {

/// Output bytes waiting to be pulled, in the order they were written.
class OutputQueue final : public ByteSink {
 public:
  void write(BytesView data) override {
    if (!data.empty()) blocks_.emplace_back(data.begin(), data.end());
  }

  bool empty() const { return blocks_.empty(); }

  /// Moves up to out.size() queued bytes into `out`; returns the count.
  size_t read(std::span<uint8_t> out) {
    size_t n = 0;
    while (n < out.size() && !blocks_.empty()) {
      const Bytes& front = blocks_.front();
      const size_t take = std::min(out.size() - n, front.size() - pos_);
      std::memcpy(out.data() + n, front.data() + pos_, take);
      n += take;
      pos_ += take;
      if (pos_ == front.size()) {
        blocks_.pop_front();
        pos_ = 0;
      }
    }
    return n;
  }

 private:
  std::deque<Bytes> blocks_;
  size_t pos_ = 0;  ///< bytes of the front block already pulled
};

}  // namespace

// The machine runs on the caller: every call does its work before it
// returns.  A v3 Context, and a v1 encoder, drive the archive's
// push-driven chunk machines (archive/chunk_machine.h), feeding caller
// bytes only while no output is pending, so they hold at most one
// commit's output.  v2 and v1 decode are one-shot: the Context buffers
// the field (v2 encode) or container (decode) and runs the codec once
// the field is complete or at finish().
struct Context::Impl {
  bool is_encoder = false;
  EncoderConfig enc;
  DecoderConfig dec;

  OutputQueue out;
  /// Context-private IV generator (encode with drbg_seed).
  std::optional<crypto::CtrDrbg> drbg;
  /// v2 encode: the codec runtime, built (and the config validated) at
  /// construction.
  std::optional<core::codec::CodecRuntime> runtime;
  /// The buffered field (v2 encode) or container (one-shot decode).
  Bytes buf;
  uint64_t expected_in = 0;  ///< encoder: declared field byte count
  std::unique_ptr<archive::StreamRowSink> salvage_rows;  ///< v3 salvage
  std::unique_ptr<archive::ChunkMachine> machine;  ///< v3, v1 encode
  archive::ChunkedEncoder* encoder = nullptr;
  archive::ChunkedDecoder* decoder = nullptr;
  archive::ChunkedSalvager* salvager = nullptr;

  bool finished = false;  ///< finish() was called
  bool ran = false;       ///< the one-shot codec ran
  bool dead = false;      ///< an error already surfaced
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  Result result;

  void check_alive() const {
    if (dead) {
      throw StateError(
          "context already failed or was misused; create a new one");
    }
  }

  bool done() const { return machine ? machine->done() : ran; }

  Status status_now() const {
    if (!out.empty()) return Status::kHaveOutput;
    if (done()) return Status::kDone;
    return Status::kNeedInput;
  }

  /// Runs pending machine work until output is waiting, the machine
  /// needs input, or it is done — the stable states a caller sees.
  void settle() {
    while (machine && out.empty() && machine->step()) {
    }
  }

  size_t accept(BytesView in);
  void start_decoder();
  void encode_oneshot();
  void decode_oneshot();
  void collect();
};

/// Takes what it can of `in` while no output is pending.
size_t Context::Impl::accept(BytesView in) {
  size_t taken = 0;
  while (taken < in.size() && out.empty()) {
    if (machine) {
      if (machine->step()) continue;
      const std::span<uint8_t> span = machine->want();
      if (span.empty()) return in.size();  // bytes after a v3 archive
      const size_t n = std::min(span.size(), in.size() - taken);
      std::memcpy(span.data(), in.data() + taken, n);
      machine->filled(n);
      taken += n;
      continue;
    }
    // One-shot formats, or a decoder still sniffing the magic: buffer.
    size_t n = in.size() - taken;
    if (!is_encoder && buf.size() < sizeof(uint32_t)) {
      n = std::min(n, sizeof(uint32_t) - buf.size());
    }
    buf.insert(buf.end(), in.begin() + taken, in.begin() + taken + n);
    taken += n;
    if (is_encoder && buf.size() == expected_in) encode_oneshot();
    if (!is_encoder && buf.size() == sizeof(uint32_t)) start_decoder();
  }
  return taken;
}

/// Switches a decoder to the v3 chunk machine once the magic says so.
void Context::Impl::start_decoder() {
  uint32_t magic = 0;
  std::memcpy(&magic, buf.data(), sizeof(magic));
  if (magic != archive::kChunkedMagic) return;
  result.container = Container::kV3Chunked;
  if (dec.salvage) {
    archive::SalvageOptions so;
    so.fill = dec.fill;
    so.threads = dec.threads;
    salvage_rows = std::make_unique<archive::StreamRowSink>(out, so.fill);
    auto m = std::make_unique<archive::ChunkedSalvager>(*salvage_rows,
                                                        dec.key, so);
    salvager = m.get();
    machine = std::move(m);
  } else {
    archive::ChunkedConfig cc;
    cc.threads = dec.threads;
    cc.metrics = &result.times;
    auto m = std::make_unique<archive::ChunkedDecoder>(out, dec.key, cc);
    decoder = m.get();
    machine = std::move(m);
  }
  machine->feed(BytesView(buf));
  buf = Bytes();
}

void Context::Impl::encode_oneshot() {
  crypto::CtrDrbg* iv = drbg ? &*drbg : nullptr;
  const size_t n = enc.dims.count();
  const core::CompressResult res =
      enc.dtype == sz::DType::kFloat32
          ? core::codec::encode_payload_to(
                runtime->config(), out,
                std::span<const float>(
                    reinterpret_cast<const float*>(buf.data()), n),
                enc.dims, iv)
          : core::codec::encode_payload_to(
                runtime->config(), out,
                std::span<const double>(
                    reinterpret_cast<const double*>(buf.data()), n),
                enc.dims, iv);
  result.stats = res.stats;
  result.times = res.times;
  buf = Bytes();
  ran = true;
}

void Context::Impl::decode_oneshot() {
  SZSEC_CHECK_FORMAT(buf.size() >= sizeof(uint32_t),
                     "input too short for a container magic");
  uint32_t magic = 0;
  std::memcpy(&magic, buf.data(), sizeof(magic));
  if (magic == core::kMagic) {
    const core::Header h = core::peek_header(buf);
    const core::CipherSpec spec{
        h.cipher_kind, h.cipher_mode,
        (h.flags & core::kFlagAuthenticated) != 0};
    const core::codec::CodecRuntime rt(h.params, h.scheme, dec.key, spec);
    const core::DecompressResult res =
        core::codec::decode_payload(rt.config(), buf);
    result.container = Container::kV2Single;
    result.dims = res.dims;
    result.dtype = res.dtype;
    result.elements = res.dims.count();
    result.times = res.times;
    out.write(archive::element_bytes(res));
  } else if (magic == archive::kSlabMagic) {
    archive::ChunkedConfig cc;
    cc.threads = dec.threads;
    cc.metrics = &result.times;
    const archive::ChunkedStreamDecodeResult r =
        archive::decompress_slabs_to(buf, out, dec.key, cc);
    result.container = Container::kV1Slab;
    result.dims = r.dims;
    result.dtype = r.dtype;
    result.elements = r.elements;
    result.chunk_count = r.chunk_count;
  } else {
    throw CorruptError("unknown container magic");
  }
  buf = Bytes();
  ran = true;
}

/// Copies the v3 machine's outcome into the result once it is done.
void Context::Impl::collect() {
  if (encoder != nullptr) {
    const archive::ChunkedStreamResult& r = encoder->result();
    result.chunk_count = r.chunk_count;
    result.stats = r.stats;
    result.times = r.times;
  } else if (decoder != nullptr) {
    const archive::ChunkedStreamDecodeResult& r = decoder->result();
    result.dims = r.dims;
    result.dtype = r.dtype;
    result.elements = r.elements;
    result.chunk_count = r.chunk_count;
  } else if (salvager != nullptr) {
    const archive::ChunkedStreamSalvageResult& r = salvager->result();
    result.dims = r.dims;
    result.dtype = r.dtype;
    result.elements = r.dims.rank() > 0 ? r.dims.count() : 0;
    result.chunk_count = r.report.chunks_expected;
    result.salvage = r.report;
  }
}

Context::Context(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Context::~Context() = default;

std::unique_ptr<Context> Context::encoder(EncoderConfig config) {
  SZSEC_REQUIRE(config.dims.rank() >= 1, "encoder requires field dims");
  auto impl = std::make_unique<Impl>();
  Impl& s = *impl;
  s.is_encoder = true;
  s.enc = std::move(config);
  s.expected_in = s.enc.dims.count() * sz::dtype_size(s.enc.dtype);
  if (s.enc.drbg_seed) s.drbg.emplace(*s.enc.drbg_seed);
  s.result.container = s.enc.container;
  s.result.dtype = s.enc.dtype;
  s.result.dims = s.enc.dims;
  s.result.elements = s.enc.dims.count();
  // Building the codec (runtime or chunk machine) validates the key,
  // scheme and spec: a misconfigured context never accepts a byte.
  if (s.enc.container != Container::kV2Single) {
    archive::ChunkedConfig cc;
    cc.threads = s.enc.threads;
    cc.chunks = s.enc.chunks;
    // A temp-file spool would be a library-initiated syscall; the
    // sans-io contract forbids it, so frames stage in memory.
    cc.spool = FrameSpool::Backing::kMemory;
    cc.seek_table = s.enc.seek_table;
    auto m = std::make_unique<archive::ChunkedEncoder>(
        s.out, s.enc.dtype, s.enc.dims, s.enc.params, s.enc.scheme,
        s.enc.key, s.enc.spec, cc, s.drbg ? &*s.drbg : nullptr,
        s.enc.container == Container::kV1Slab ? archive::Framing::kV1Slab
                                              : archive::Framing::kV3Chunked);
    s.encoder = m.get();
    s.machine = std::move(m);
  } else {
    s.runtime.emplace(s.enc.params, s.enc.scheme, s.enc.key, s.enc.spec);
  }
  return std::unique_ptr<Context>(new Context(std::move(impl)));
}

std::unique_ptr<Context> Context::decoder(DecoderConfig config) {
  SZSEC_REQUIRE(
      !(config.salvage && config.fill == archive::FallbackFill::kMean),
      "streaming salvage cannot use the mean fill; use zeros or NaN");
  auto impl = std::make_unique<Impl>();
  impl->dec = std::move(config);
  return std::unique_ptr<Context>(new Context(std::move(impl)));
}

Status Context::feed(BytesView in, size_t& consumed) {
  Impl& s = *impl_;
  consumed = 0;
  s.check_alive();
  if (s.finished) throw StateError("feed after finish()");
  try {
    // Encoder surplus input is a caller bug flagged here, at the feed
    // that crosses the declared field length.  Decoders instead
    // tolerate trailing bytes (a v3 seek footer is legitimate trailing
    // input to the strict decoder, exactly as with the streaming CLI).
    if (s.is_encoder && s.bytes_in + in.size() > s.expected_in) {
      throw Error("trailing input: " +
                  std::to_string(s.bytes_in + in.size() - s.expected_in) +
                  " bytes fed beyond the declared field");
    }
    consumed = s.accept(in);
    s.bytes_in += consumed;
    s.settle();
  } catch (...) {
    s.dead = true;
    throw;
  }
  return s.status_now();
}

Status Context::pull(std::span<uint8_t> out, size_t& produced) {
  Impl& s = *impl_;
  produced = 0;
  s.check_alive();
  try {
    produced = s.out.read(out);
    s.bytes_out += produced;
    s.settle();
  } catch (...) {
    s.dead = true;
    throw;
  }
  return s.status_now();
}

Status Context::finish() {
  Impl& s = *impl_;
  s.check_alive();
  if (s.finished) throw StateError("finish() called twice");
  s.finished = true;
  try {
    if (s.machine) {
      s.machine->finish();
    } else if (s.is_encoder) {
      if (!s.ran) {
        throw IoError("input ended after " + std::to_string(s.buf.size()) +
                      " of " + std::to_string(s.expected_in) +
                      " field bytes");
      }
    } else {
      s.decode_oneshot();
    }
    s.settle();
  } catch (...) {
    s.dead = true;
    throw;
  }
  return s.status_now();
}

Status Context::status() {
  Impl& s = *impl_;
  s.check_alive();
  try {
    s.settle();
  } catch (...) {
    s.dead = true;
    throw;
  }
  return s.status_now();
}

const Result& Context::result() const {
  Impl& s = *impl_;
  if (s.dead) throw StateError("context failed; no result");
  if (!s.done() || !s.out.empty()) {
    throw StateError("result() before the context is done");
  }
  s.collect();
  s.result.bytes_in = s.bytes_in;
  s.result.bytes_out = s.bytes_out;
  return s.result;
}

}  // namespace szsec::sansio
