// Sans-io codec contexts: the whole szsec codec behind an explicit
// feed/pull/finish state machine that performs zero I/O of its own.
//
// A Context is fed input spans and drained into caller-provided output
// spans; the library never touches a file descriptor, socket, or any
// other transport.  The caller owns every byte in flight, so the same
// Context serves a file loop, an event loop, a language binding (the C
// ABI in include/szsec.h wraps exactly this class), or a test harness
// dribbling one byte at a time:
//
//   auto ctx = sansio::Context::encoder(cfg);
//   while (true) {
//     switch (ctx->status()) {
//       case sansio::Status::kNeedInput: {
//         size_t consumed = 0;
//         ...read bytes from anywhere into `buf`...
//         if (no more bytes) { ctx->finish(); break; }
//         ctx->feed(BytesView(buf, n), consumed);
//         break;
//       }
//       case sansio::Status::kHaveOutput: {
//         size_t produced = 0;
//         ctx->pull(std::span<uint8_t>(out, sizeof out), produced);
//         ...write `produced` bytes anywhere...
//         break;
//       }
//       case sansio::Status::kDone:
//         ...ctx->result() has stats/dims/metrics...
//     }
//   }
//
// Every path runs the library's one implementation of its format: a v3
// Context pushes bytes through the same chunk machines the streaming
// and in-memory archive APIs drive (archive/chunk_machine.h), and v2/v1
// run the one-shot codec (codec::encode_payload_to / decode_payload,
// compress_slabs_to / decompress_slabs_*) — so every byte a Context
// emits is identical to the in-memory and streaming APIs (the
// golden-container pins hold by construction).  Decoding sniffs the
// container kind from the first four bytes: v1 slab, v2 single, and v3
// chunked archives all decode through one Context.
//
// Memory: feed() takes no input while un-pulled output is pending, so a
// v3 decode holds at most one chunk commit's output plus the
// scheduler's in-flight window; a salvage decode writes fill rows in
// bounded blocks.  A v3 encode stages its frames in memory until the
// index is written (the index precedes the frames and the context has
// no temp file to spool through), then hands them out one at a time as
// they are pulled, freeing each — it never holds the archive twice.
// v2/v1 are one-shot formats and buffer one whole field/container.
//
// Concurrency: there is no driver thread.  feed/pull/finish/status do
// their work on the calling thread before they return, so the machine
// is a plain state machine with no timing-dependent behaviour.  With
// threads > 1 the chunked paths run chunk work on pool workers, exactly
// as the streaming APIs do (commits still happen on the caller); with
// threads = 1 no thread is started at all.  The caller-facing API is not
// thread-safe: use one Context per thread, like SecureCompressor.
//
// Error model: codec failures (CorruptError, CryptoError, Error) and
// transport-free IoErrors (truncated input) propagate out of
// feed/pull/finish exactly once; afterwards the Context is dead and
// every further call throws StateError.  Misusing the machine itself —
// feeding after finish(), finishing twice — is StateError immediately,
// never UB.
#pragma once

#include <memory>
#include <optional>

#include "archive/chunked.h"
#include "core/codec.h"

namespace szsec::sansio {

/// Thrown on misuse of the Context state machine (feed after finish,
/// double finish, any call after a prior error).  Distinct from Error
/// so the C ABI can surface it as SZSEC_E_STATE.
class StateError : public Error {
 public:
  explicit StateError(const std::string& what) : Error(what) {}
};

/// The three stable states a caller can observe.
enum class Status : uint8_t {
  kNeedInput,   ///< the machine consumed everything fed and wants more
  kHaveOutput,  ///< bytes are ready to pull
  kDone,        ///< all output drained; result() is valid
};

/// Container families a Context can produce or consume.
enum class Container : uint8_t {
  kV2Single = 0,   ///< one szsec container (core/container.h)
  kV3Chunked = 1,  ///< fault-tolerant chunked archive (archive/chunked.h)
  kV1Slab = 2,     ///< slab archive (parallel/slab.h)
};

/// Everything an encoding Context needs.  The input stream is raw
/// little-endian element bytes, row-major, exactly dims.count()
/// elements of `dtype`; the output stream is the finished container.
struct EncoderConfig {
  sz::Params params;
  core::Scheme scheme = core::Scheme::kNone;
  core::CipherSpec spec;
  /// Cipher key (empty for Scheme::kNone); must match
  /// crypto::cipher_key_size(spec.kind) for encrypting schemes.
  Bytes key;
  sz::DType dtype = sz::DType::kFloat32;
  Dims dims;
  Container container = Container::kV2Single;
  /// v3: chunk count (0 = scheduler default — pin it for reproducible
  /// bytes across machines).  v1: slab count.
  size_t chunks = 0;
  /// Codec worker threads for the chunked/slab paths (0 = library
  /// default honoring SZSEC_THREADS; output bytes never depend on it).
  unsigned threads = 1;
  /// v3 only: append the seek-table footer (archive/chunked.h).
  bool seek_table = true;
  /// Seed for a context-private IV DRBG.  Unset uses the process-global
  /// generator (fresh random IVs); set makes output fully deterministic
  /// — the golden-container replays and the ABI round-trip tests live
  /// on this.
  std::optional<uint64_t> drbg_seed;
};

/// Everything a decoding Context needs.  The container kind, scheme,
/// dtype, and dims all come from the input bytes themselves.
struct DecoderConfig {
  /// Key for encrypted containers (empty is fine for Scheme::kNone).
  Bytes key;
  /// Worker threads for v3 strict and salvage decode (0 = library
  /// default); output bytes never depend on it.
  unsigned threads = 1;
  /// Best-effort salvage decode for damaged v3 archives (see
  /// archive::salvage_chunked_stream; v1/v2 inputs always decode
  /// strictly).  Streaming salvage cannot use FallbackFill::kMean.
  bool salvage = false;
  archive::FallbackFill fill = archive::FallbackFill::kZeros;
};

/// Final outcome of one Context run, valid once status() == kDone.
struct Result {
  Container container = Container::kV2Single;
  sz::DType dtype = sz::DType::kFloat32;
  Dims dims;
  uint64_t elements = 0;   ///< field elements consumed (encode) / emitted
  uint64_t bytes_in = 0;   ///< bytes accepted via feed()
  uint64_t bytes_out = 0;  ///< bytes drained via pull()
  /// v1 slabs / v3 chunks (0 for a v2 container).
  size_t chunk_count = 0;
  core::CompressStats stats;  ///< encode only
  PipelineMetrics times;
  /// Salvage decode only: what was recovered.
  std::optional<archive::SalvageReport> salvage;
};

/// The sans-io state machine.  Construct via encoder()/decoder(); both
/// validate the configuration eagerly (bad key sizes, zero-rank dims,
/// unsupported fill) and throw before any input is accepted.
class Context {
 public:
  static std::unique_ptr<Context> encoder(EncoderConfig config);
  static std::unique_ptr<Context> decoder(DecoderConfig config);

  /// Destruction abandons an unfinished run (queued chunk work is
  /// skipped; running work finishes first).
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Offers `in` to the machine; `consumed` receives how many leading
  /// bytes were accepted (possibly fewer than in.size() when output is
  /// backed up — pull first, then re-offer the rest).  Returns the
  /// stable status after the machine has digested the bytes.  Throws
  /// StateError after finish() or after a prior error.
  Status feed(BytesView in, size_t& consumed);

  /// Drains up to out.size() ready bytes into `out`; `produced`
  /// receives the count (0 is normal when the machine needs input).
  /// Never blocks for input — pulling before feeding simply reports
  /// kNeedInput.
  Status pull(std::span<uint8_t> out, size_t& produced);

  /// Declares end of input.  The machine finishes processing; remaining
  /// output stays pullable.  Throws StateError on a second call and
  /// propagates codec errors (e.g. input ended mid-field).
  Status finish();

  /// The current stable status (runs pending work until the machine
  /// settles; never consumes input or hands out output).
  Status status();

  /// Outcome of the run; throws StateError before status() == kDone.
  const Result& result() const;

 private:
  struct Impl;
  explicit Context(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace szsec::sansio
