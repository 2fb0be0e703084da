// szsec_cli: a small command-line front end for the library, in the
// spirit of the `sz` executable.
//
//   szsec_cli compress   <in.bin> <out.szs> --dims Z,Y,X --eb 1e-4
//             [--scheme none|cmpr-encr|encr-quant|encr-huffman]
//             [--key <hex 16/24/32 bytes> | --password <string>]
//             [--mode cbc|ctr] [--chunks N] [--threads N]
//             [--drbg-seed S]
//   szsec_cli decompress <in.szs> <out.bin> [--key <hex> | --password <s>]
//             [--threads N]
//   szsec_cli extract    <in.szs> <out.bin> --range A:B | --roi o0,o1[,o2]:n0,n1[,n2]
//             [--key <hex> | --password <s>] [--threads N]
//   szsec_cli info       <in.szs> [--json]
//   szsec_cli verify     <in.szs> [--key <hex> | --password <s>]
//   szsec_cli serve      <socket> --tenant name=<hex master key> ...
//             [--threads N] [--budget-mb N] [--chunks N]
//   szsec_cli client     <socket> <op> [in] [out] [--tenant name]
//             [--key-id N] [--dims Z,Y,X] [--eb 1e-4] [--scheme S]
//             [--mode cbc|ctr] [--auth] [--chunks N]
//
// `serve` runs the multi-tenant archive service daemon (src/service):
// concurrent compress/decompress/verify/salvage jobs over a Unix-domain
// socket, one shared thread pool with round-robin tenant fairness,
// admission control by in-flight payload bytes, per-tenant HKDF-derived
// data keys, and graceful drain on SIGTERM/SIGINT (in-flight jobs
// finish and respond; new requests get a typed "draining" status).
// `client` submits one job: op is ping|compress|decompress|verify|
// salvage; in/out are files or '-'.  A daemon that is not running
// surfaces as exit 2 with the connect errno text.  See docs/SERVICE.md.
//
// `-` in place of a path means stdin (inputs) or stdout (outputs), so
// the CLI composes in pipelines:
//
//   cat field.bin | szsec_cli compress - - --dims 512,512 --eb 1e-4
//       --chunks 64 --key ... | ssh host 'cat > field.szs'
//
// When stdout carries data, every human-readable report moves to
// stderr.  Chunked (--chunks) compression and chunked decompression
// stream: chunks are pulled from the input, coded across --threads
// workers, and committed to the output in index order.  Decompression
// holds only the in-flight window; compression holds the window plus
// the compressed archive, whose frames wait in memory until the v3
// index (which precedes them) can be written.
//
// --chunks N writes a fault-tolerant v3 chunked archive (N independent
// chunks) instead of a single v2 container; --threads N fans the
// per-chunk codec work across N workers (chunked archives only — output
// bytes are identical for every thread count).  decompress and info
// detect the container kind from the magic (on pipes, by sniffing the
// first four bytes and replaying them).
//
// --password derives an AES-128 key via PBKDF2-HMAC-SHA256 (100k
// iterations, fixed application salt) — convenient for interactive use;
// supply a random --key for production.
//
// compress and decompress run through the sans-io context
// (core/sansio.h): the codec sees only byte spans, and the CLI owns
// every transport concern — retry, pipes, atomic file commit.
// --drbg-seed S seeds the IV generator, making compressed output a
// pure function of (flags, key, field bytes) — the CI golden-container
// replays pin exact archive SHA-256s through this flag.
//
// Input .bin files are raw little-endian float32 (SDRBench layout).
//
// `extract` is random access: it opens a v3 chunked archive through
// SeekableReader and decodes ONLY the chunks covering the requested
// element range (--range A:B, half-open) or hyperslab ROI (--roi
// origin:extent, one comma list per axis), writing raw little-endian
// element bytes.  The input must be seekable — a real file, not a pipe
// (exit 2 with the ESPIPE text otherwise); stream `decompress` instead.
//
// `verify` is a read-only integrity scan (no decode, no key required):
// header/index parse, per-chunk CRC, and MAC when a key is supplied.
// Exit 0 = clean, 1 = damage found, 2 = operational failure.
//
// Durability: file outputs are written through an AtomicFileSink —
// bytes stage in a same-directory temp file and are fsync+renamed over
// the target only on success, so a crash or error mid-write leaves the
// complete old file (or no file), never a torn archive.
//
// Exit codes: 0 success, 1 data error (szsec::Error: corrupt
// containers, wrong keys, verify found damage), 2 usage or operational
// I/O error (IoError: unreadable/unwritable files, broken pipes — the
// errno text is printed).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "archive/chunked.h"
#include "archive/seekable.h"
#include "archive/verify.h"
#include "common/bytestream.h"
#include "common/crc32.h"
#include "common/hex.h"
#include "common/io.h"
#include "core/sansio.h"
#include "crypto/sha256.h"
#include "data/io.h"
#include "service/client.h"
#include "service/daemon.h"

namespace {

using namespace szsec;

struct Options {
  std::string command, input, output;
  Dims dims;
  bool have_dims = false;
  double eb = 1e-4;
  core::Scheme scheme = core::Scheme::kEncrHuffman;
  crypto::Mode mode = crypto::Mode::kCbc;
  Bytes key;
  bool auth = false;     // append an HMAC-SHA256 tag to each container
  size_t chunks = 0;     // >0: write a v3 chunked archive
  unsigned threads = 1;  // chunked codec workers (1 = serial)
  std::optional<uint64_t> drbg_seed;  // --drbg-seed: reproducible IVs
  bool json = false;     // info: machine-readable output
  bool have_range = false;
  uint64_t range_lo = 0, range_hi = 0;   // extract --range (half-open)
  std::vector<size_t> roi_origin, roi_extent;  // extract --roi
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(
      stderr,
      "usage:\n"
      "  szsec_cli compress <in.bin> <out.szs> --dims Z,Y,X --eb 1e-4\n"
      "            [--scheme none|cmpr-encr|encr-quant|encr-huffman]\n"
      "            [--key <hex>] [--mode cbc|ctr] [--auth]\n"
      "            [--chunks N] [--threads N] [--drbg-seed S]\n"
      "  szsec_cli decompress <in.szs> <out.bin> [--key <hex>]\n"
      "            [--threads N]\n"
      "  szsec_cli extract <in.szs> <out.bin> --range A:B |\n"
      "            --roi o0,o1[,o2]:n0,n1[,n2] [--key <hex>] [--threads N]\n"
      "  szsec_cli info <in.szs> [--json]\n"
      "  szsec_cli verify <in.szs> [--key <hex>]\n"
      "  szsec_cli serve <socket> --tenant name=<hexkey> ...\n"
      "            [--threads N] [--budget-mb N] [--chunks N]\n"
      "  szsec_cli client <socket> ping|compress|decompress|verify|salvage\n"
      "            [in] [out] [--tenant name] [--key-id N] [--dims Z,Y,X]\n"
      "            [--eb 1e-4] [--scheme S] [--mode cbc|ctr] [--auth]\n"
      "            [--chunks N]\n"
      "  ('-' as a path reads stdin / writes stdout)\n"
      "(see docs/CLI.md for the full reference)\n");
  std::exit(2);
}

Dims parse_dims(const std::string& s) {
  std::vector<size_t> extents;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    extents.push_back(std::stoull(tok));
  }
  switch (extents.size()) {
    case 1:
      return Dims{extents[0]};
    case 2:
      return Dims{extents[0], extents[1]};
    case 3:
      return Dims{extents[0], extents[1], extents[2]};
    case 4:
      return Dims{extents[0], extents[1], extents[2], extents[3]};
    default:
      usage("--dims takes 1..4 comma-separated extents");
  }
}

/// Comma-separated non-negative integers ("12,4,0"), for --roi halves.
std::vector<size_t> parse_size_list(const std::string& s) {
  std::vector<size_t> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    out.push_back(static_cast<size_t>(std::stoull(tok)));
  }
  return out;
}

Options parse(int argc, char** argv) {
  if (argc < 3) usage("missing command/arguments");
  Options o;
  o.command = argv[1];
  o.input = argv[2];
  int i = 3;
  if (o.command != "info" && o.command != "verify") {
    if (argc < 4) usage("missing output path");
    o.output = argv[3];
    i = 4;
  }
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--dims") {
      o.dims = parse_dims(next());
      o.have_dims = true;
    } else if (arg == "--eb") {
      o.eb = std::stod(next());
    } else if (arg == "--key") {
      o.key = from_hex(next());
    } else if (arg == "--password") {
      const std::string pw = next();
      static const std::string kSalt = "szsec-cli-v1";
      o.key = crypto::pbkdf2_hmac_sha256(
          BytesView(reinterpret_cast<const uint8_t*>(pw.data()), pw.size()),
          BytesView(reinterpret_cast<const uint8_t*>(kSalt.data()),
                    kSalt.size()),
          100000, 16);
    } else if (arg == "--mode") {
      const std::string m = next();
      if (m == "cbc") {
        o.mode = crypto::Mode::kCbc;
      } else if (m == "ctr") {
        o.mode = crypto::Mode::kCtr;
      } else {
        usage("unknown --mode");
      }
    } else if (arg == "--auth") {
      o.auth = true;
    } else if (arg == "--json") {
      o.json = true;
    } else if (arg == "--range") {
      const std::string v = next();
      const size_t colon = v.find(':');
      if (colon == std::string::npos) usage("--range takes A:B");
      try {
        o.range_lo = std::stoull(v.substr(0, colon));
        o.range_hi = std::stoull(v.substr(colon + 1));
      } catch (const std::exception&) {
        usage("--range takes A:B (non-negative integers)");
      }
      if (o.range_lo >= o.range_hi) usage("--range needs A < B");
      o.have_range = true;
    } else if (arg == "--roi") {
      const std::string v = next();
      const size_t colon = v.find(':');
      if (colon == std::string::npos) usage("--roi takes origin:extent");
      try {
        o.roi_origin = parse_size_list(v.substr(0, colon));
        o.roi_extent = parse_size_list(v.substr(colon + 1));
      } catch (const std::exception&) {
        usage("--roi takes comma lists (o0,o1:n0,n1)");
      }
      if (o.roi_origin.empty() ||
          o.roi_origin.size() != o.roi_extent.size()) {
        usage("--roi origin and extent need the same 1..4 axes");
      }
      for (size_t n : o.roi_extent) {
        if (n == 0) usage("--roi extents must be >= 1");
      }
    } else if (arg == "--chunks") {
      o.chunks = std::stoull(next());
      if (o.chunks == 0) usage("--chunks must be >= 1");
    } else if (arg == "--drbg-seed") {
      try {
        o.drbg_seed = std::stoull(next(), nullptr, 0);
      } catch (const std::exception&) {
        usage("--drbg-seed takes an unsigned integer (decimal or 0x hex)");
      }
    } else if (arg == "--threads") {
      const long t = std::stol(next());
      if (t < 1) usage("--threads must be >= 1");
      o.threads = static_cast<unsigned>(t);
    } else if (arg == "--scheme") {
      const std::string s = next();
      if (s == "none") {
        o.scheme = core::Scheme::kNone;
      } else if (s == "cmpr-encr") {
        o.scheme = core::Scheme::kCmprEncr;
      } else if (s == "encr-quant") {
        o.scheme = core::Scheme::kEncrQuant;
      } else if (s == "encr-huffman") {
        o.scheme = core::Scheme::kEncrHuffman;
      } else {
        usage("unknown --scheme");
      }
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  return o;
}

// Per-stage breakdown from the codec's PipelineMetrics: wall time plus
// the byte volume through each stage (and the resulting stage ratio).
// Reports go to `to`: stdout normally, stderr when stdout carries data.
void print_stage_metrics(std::FILE* to, const char* title,
                         const PipelineMetrics& times) {
  std::fprintf(to, "%s\n", title);
  std::fprintf(to, "  %-18s %10s %12s %12s %8s\n", "stage", "ms",
               "bytes in", "bytes out", "ratio");
  for (const auto& [stage, m] : times.all()) {
    std::fprintf(to, "  %-18s %10.3f", stage.c_str(), m.seconds * 1e3);
    if (m.bytes_in > 0 || m.bytes_out > 0) {
      std::fprintf(to, " %12llu %12llu %8.3f",
                   static_cast<unsigned long long>(m.bytes_in),
                   static_cast<unsigned long long>(m.bytes_out), m.ratio());
    }
    std::fprintf(to, "\n");
  }
  std::fprintf(to, "  %-18s %10.3f\n", "total", times.total() * 1e3);
}

bool is_chunked_magic(BytesView bytes) {
  if (bytes.size() < sizeof(uint32_t)) return false;
  uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  return magic == archive::kChunkedMagic;
}

/// Transient OS hiccups (EINTR/EAGAIN/short writes) retry with bounded
/// backoff on every CLI endpoint; permanent errors surface immediately.
RetryPolicy cli_retry() { return RetryPolicy::standard(); }

/// Input bytes for decompress/info: a pipe for "-", else the file (a
/// missing file is a usage error, matching the historical contract).
std::unique_ptr<ByteSource> open_input(const std::string& path) {
  if (path == "-") return std::make_unique<FdSource>(0, cli_retry());
  try {
    return std::make_unique<FileSource>(path, cli_retry());
  } catch (const IoError&) {
    usage(("cannot open " + path).c_str());
  }
}

/// Output plumbing: stdout for "-", an AtomicFileSink otherwise.  File
/// bytes stage in a temp file until commit() publishes them under the
/// final name (fsync + rename + directory fsync) — on any failure the
/// sink's destructor discards the temp file and a pre-existing target
/// survives untouched, so a torn archive is never observable.
struct Output {
  std::unique_ptr<ByteSink> sink;
  AtomicFileSink* atomic = nullptr;  ///< borrowed view of `sink`, or null

  void commit() {
    if (atomic != nullptr) {
      atomic->commit();
    } else {
      sink->flush();
    }
  }
};

Output open_output(const std::string& path) {
  Output o;
  if (path == "-") {
    o.sink = std::make_unique<FdSink>(1, cli_retry());
  } else {
    auto atomic = std::make_unique<AtomicFileSink>(path, cli_retry());
    o.atomic = atomic.get();
    o.sink = std::move(atomic);
  }
  return o;
}

/// Drains a source to memory (the v2 codec and `info` need the whole
/// container; fields and v3 archives stream instead).
Bytes slurp(ByteSource& src) {
  Bytes out;
  uint8_t buf[1 << 16];
  for (size_t n;
       (n = src.read(std::span<uint8_t>(buf, sizeof(buf)))) > 0;) {
    out.insert(out.end(), buf, buf + n);
  }
  return out;
}

/// Pumps a sans-io Context between a ByteSource and a ByteSink.  The
/// Context never sees a file descriptor: the CLI reads, feeds, pulls,
/// and writes, so every transport concern (retry, atomic commit,
/// pipes) stays on this side of the API.
sansio::Result run_context(sansio::Context& ctx, ByteSource& in,
                           ByteSink& out) {
  Bytes ibuf(size_t{1} << 16), obuf(size_t{1} << 16);
  size_t have = 0, off = 0;
  bool in_eof = false, finished = false;
  for (;;) {
    switch (ctx.status()) {
      case sansio::Status::kHaveOutput: {
        size_t produced = 0;
        ctx.pull(std::span<uint8_t>(obuf.data(), obuf.size()), produced);
        out.write(BytesView(obuf.data(), produced));
        break;
      }
      case sansio::Status::kNeedInput: {
        if (off == have && !in_eof) {
          have = in.read(std::span<uint8_t>(ibuf.data(), ibuf.size()));
          off = 0;
          if (have == 0) in_eof = true;
        }
        if (in_eof) {
          if (!finished) {
            finished = true;
            ctx.finish();
          }
        } else {
          size_t consumed = 0;
          ctx.feed(BytesView(ibuf.data() + off, have - off), consumed);
          off += consumed;
        }
        break;
      }
      case sansio::Status::kDone:
        return ctx.result();
    }
  }
}

int cmd_compress(const Options& o) {
  if (!o.have_dims) usage("compress requires --dims");
  if (o.scheme != core::Scheme::kNone && o.key.empty()) {
    usage("encrypting schemes require --key");
  }
  const bool to_stdout = o.output == "-";
  std::FILE* report = to_stdout ? stderr : stdout;

  // A regular file's size is checked up front so a wrong --dims fails
  // before any work (pipes cannot be sized; a short pipe surfaces as
  // an IoError from the context instead).
  if (o.input != "-") {
    std::ifstream f(o.input, std::ios::binary | std::ios::ate);
    if (f.good()) {
      const auto bytes = static_cast<uint64_t>(f.tellg());
      if (bytes != o.dims.count() * sizeof(float)) {
        std::fprintf(stderr,
                     "error: file has %llu floats but dims %s = %zu\n",
                     static_cast<unsigned long long>(bytes / 4),
                     o.dims.to_string().c_str(), o.dims.count());
        return 1;
      }
    }
  }

  sansio::EncoderConfig ec;
  ec.params.abs_error_bound = o.eb;
  ec.scheme = o.scheme;
  ec.spec = core::CipherSpec{crypto::CipherKind::kAes128, o.mode, o.auth};
  ec.key = o.key;
  ec.dims = o.dims;
  ec.drbg_seed = o.drbg_seed;
  if (o.chunks > 0) {
    ec.container = sansio::Container::kV3Chunked;
    ec.chunks = o.chunks;
    ec.threads = o.threads;
  }
  auto ctx = sansio::Context::encoder(std::move(ec));

  sansio::Result r;
  if (o.chunks > 0) {
    // Streaming path: chunks flow input -> context -> output.  The
    // context holds the in-flight window plus every finished frame
    // until the v3 index can be written (it has no temp file to spool
    // through), so memory grows with the compressed archive.
    std::unique_ptr<ByteSource> in;
    if (o.input == "-") {
      in = std::make_unique<FdSource>(0, cli_retry());
    } else {
      in = std::make_unique<FileSource>(o.input, cli_retry());
    }
    Output out = open_output(o.output);
    r = run_context(*ctx, *in, *out.sink);
    out.commit();
  } else {
    // v2 single container: one-shot format, so the field is loaded and
    // size-checked first (stdin included — the historical exit-1
    // contract for a --dims mismatch predates the sans-io core).
    Bytes raw;
    if (o.input == "-") {
      FdSource src(0);
      raw = slurp(src);
    } else {
      FileSource src(o.input, cli_retry());
      raw = slurp(src);
    }
    if (raw.size() % sizeof(float) != 0) {
      std::fprintf(stderr,
                   "error: stdin carried %zu bytes, not a multiple of 4\n",
                   raw.size());
      return 1;
    }
    if (raw.size() / sizeof(float) != o.dims.count()) {
      std::fprintf(stderr, "error: file has %zu floats but dims %s = %zu\n",
                   raw.size() / sizeof(float), o.dims.to_string().c_str(),
                   o.dims.count());
      return 1;
    }
    MemorySource src{BytesView(raw)};
    Output out = open_output(o.output);
    r = run_context(*ctx, src, *out.sink);
    out.commit();
  }

  if (o.chunks > 0) {
    std::fprintf(report,
                 "%s: %llu -> %llu bytes (%.2fx), scheme %s, eb %g, "
                 "%zu chunks, %u threads\n",
                 o.output.c_str(),
                 static_cast<unsigned long long>(r.stats.raw_bytes),
                 static_cast<unsigned long long>(r.bytes_out),
                 r.stats.compression_ratio(), core::scheme_name(o.scheme),
                 o.eb, r.chunk_count, o.threads);
    print_stage_metrics(report, "stages (summed over chunks):", r.times);
  } else {
    std::fprintf(report, "%s: %llu -> %llu bytes (%.2fx), scheme %s, eb %g\n",
                 o.output.c_str(),
                 static_cast<unsigned long long>(r.bytes_in),
                 static_cast<unsigned long long>(r.bytes_out),
                 r.stats.compression_ratio(), core::scheme_name(o.scheme),
                 o.eb);
    print_stage_metrics(report, "stages:", r.times);
  }
  return 0;
}

int cmd_decompress(const Options& o) {
  const bool to_stdout = o.output == "-";
  std::FILE* report = to_stdout ? stderr : stdout;
  const std::unique_ptr<ByteSource> in = open_input(o.input);

  // Sniff the magic, then replay it in front of the remaining stream —
  // pipes cannot seek back.  (The sans-io decoder sniffs again itself;
  // the CLI only needs the kind for the "supply --key" usage check and
  // the report wording.)
  uint8_t head[sizeof(uint32_t)] = {};
  const size_t head_len = read_full(*in, std::span<uint8_t>(head));
  SZSEC_CHECK_FORMAT(head_len == sizeof(head),
                     "input too short for any container");

  sansio::DecoderConfig dc;
  dc.key = o.key;
  dc.threads = o.threads;

  sansio::Result r;
  const bool chunked = is_chunked_magic(BytesView(head, sizeof(head)));
  if (chunked) {
    // v3 chunked archives stream: frames in, elements out, in index
    // order, with memory bounded by the in-flight window.
    auto ctx = sansio::Context::decoder(std::move(dc));
    ConcatSource full(BytesView(head, sizeof(head)), *in);
    Output out = open_output(o.output);
    r = run_context(*ctx, full, *out.sink);
    out.commit();
    std::fprintf(report, "%s: restored %llu float%d elements "
                         "(dims %s, %u threads)\n",
                 o.output.c_str(),
                 static_cast<unsigned long long>(r.elements),
                 r.dtype == sz::DType::kFloat32 ? 32 : 64,
                 r.dims.to_string().c_str(), o.threads);
    print_stage_metrics(report, "stages (summed over chunks):", r.times);
    return 0;
  }

  // v2 single containers and v1 slab archives are one-shot formats:
  // load the container, honor the historical "supply --key" usage exit
  // for v2, then decode through the same sans-io machine.
  Bytes container(head, head + sizeof(head));
  {
    const Bytes rest = slurp(*in);
    container.insert(container.end(), rest.begin(), rest.end());
  }
  uint32_t magic = 0;
  std::memcpy(&magic, head, sizeof(magic));
  if (magic == core::kMagic) {
    const core::Header h = core::peek_header(BytesView(container));
    if (h.scheme != core::Scheme::kNone && o.key.empty()) {
      usage("this container is encrypted; supply --key");
    }
  }
  auto ctx = sansio::Context::decoder(std::move(dc));
  {
    MemorySource src{BytesView(container)};
    Output out = open_output(o.output);
    r = run_context(*ctx, src, *out.sink);
    out.commit();
  }
  if (r.dtype == sz::DType::kFloat32) {
    std::fprintf(report, "%s: restored %llu floats (dims %s)\n",
                 o.output.c_str(),
                 static_cast<unsigned long long>(r.elements),
                 r.dims.to_string().c_str());
  } else {
    std::fprintf(report, "%s: restored %llu float64 elements (dims %s)\n",
                 o.output.c_str(),
                 static_cast<unsigned long long>(r.elements),
                 r.dims.to_string().c_str());
  }
  print_stage_metrics(report, "stages:", r.times);
  return 0;
}

int cmd_extract(const Options& o) {
  const bool want_roi = !o.roi_origin.empty();
  if (o.have_range == want_roi) {
    usage("extract takes exactly one of --range or --roi");
  }
  const bool to_stdout = o.output == "-";
  std::FILE* report = to_stdout ? stderr : stdout;

  // A pipe input fails inside open with the typed ESPIPE IoError (exit
  // 2): random access needs a real file.
  archive::SeekableOptions sopt;
  sopt.threads = o.threads;
  const auto reader = archive::SeekableReader::open(
      open_input(o.input), BytesView(o.key), sopt);

  uint64_t count = 0;
  if (o.have_range) {
    count = o.range_hi - o.range_lo;
  } else {
    count = 1;
    for (size_t n : o.roi_extent) count *= n;
  }
  const std::span<const size_t> origin(o.roi_origin);
  const std::span<const size_t> extent(o.roi_extent);
  Output out = open_output(o.output);
  if (reader->dtype() == sz::DType::kFloat32) {
    std::vector<float> vals(static_cast<size_t>(count));
    if (o.have_range) {
      reader->read_range(o.range_lo, o.range_hi, std::span<float>(vals));
    } else {
      reader->read_roi(origin, extent, std::span<float>(vals));
    }
    out.sink->write(BytesView(
        reinterpret_cast<const uint8_t*>(vals.data()),
        vals.size() * sizeof(float)));
  } else {
    std::vector<double> vals(static_cast<size_t>(count));
    if (o.have_range) {
      reader->read_range(o.range_lo, o.range_hi, std::span<double>(vals));
    } else {
      reader->read_roi(origin, extent, std::span<double>(vals));
    }
    out.sink->write(BytesView(
        reinterpret_cast<const uint8_t*>(vals.data()),
        vals.size() * sizeof(double)));
  }
  out.commit();
  std::fprintf(
      report,
      "%s: %llu of %llu elements (float%d), touched %llu of %llu "
      "archive bytes (%.1f%%), table from %s\n",
      o.output.c_str(), static_cast<unsigned long long>(count),
      static_cast<unsigned long long>(reader->elements()),
      reader->dtype() == sz::DType::kFloat32 ? 32 : 64,
      static_cast<unsigned long long>(reader->bytes_read()),
      static_cast<unsigned long long>(reader->archive_size()),
      100.0 * static_cast<double>(reader->bytes_read()) /
          static_cast<double>(reader->archive_size()),
      reader->from_footer() ? "footer" : "prelude index");
  return 0;
}

int cmd_info(const Options& o) {
  const std::unique_ptr<ByteSource> in = open_input(o.input);
  const Bytes container = slurp(*in);
  if (is_chunked_magic(BytesView(container))) {
    const archive::SeekTable table =
        archive::read_seek_table(BytesView(container));
    // Per-chunk scheme/cipher details come from the first chunk's own
    // container header (all chunks agree in an undamaged archive).
    const archive::SeekEntry& first = table.entries.front();
    ByteReader r(BytesView(container).subspan(
        static_cast<size_t>(first.offset)));
    r.get_u64();                     // resync marker
    r.get_varint();                  // chunk id
    r.get_varint();                  // row start
    r.get_varint();                  // row extent
    const uint64_t len = r.get_varint();
    r.get_u32();                     // container CRC
    const core::Header h =
        core::peek_header(r.get_bytes(static_cast<size_t>(len)));
    const int bits = h.dtype == sz::DType::kFloat32 ? 32 : 64;
    if (o.json) {
      std::printf("{\n");
      std::printf("  \"container\": \"v3-chunked\",\n");
      std::printf("  \"seekable\": true,\n");
      std::printf("  \"seek_table\": \"%s\",\n",
                  table.from_footer ? "footer" : "prelude-index");
      std::printf("  \"dims\": [");
      for (size_t i = 0; i < table.dims.rank(); ++i) {
        std::printf("%s%zu", i ? ", " : "", table.dims[i]);
      }
      std::printf("],\n");
      std::printf("  \"elements\": %zu,\n", table.dims.count());
      std::printf("  \"dtype\": \"float%d\",\n", bits);
      std::printf("  \"scheme\": \"%s\",\n", core::scheme_name(h.scheme));
      std::printf("  \"cipher_mode\": \"%s\",\n",
                  crypto::mode_name(h.cipher_mode));
      std::printf("  \"error_bound\": %g,\n", h.params.abs_error_bound);
      std::printf("  \"archive_bytes\": %zu,\n", container.size());
      std::printf("  \"chunks\": [\n");
      for (size_t i = 0; i < table.entries.size(); ++i) {
        const archive::SeekEntry& e = table.entries[i];
        std::printf(
            "    {\"id\": %zu, \"offset\": %llu, \"bytes\": %llu, "
            "\"row_start\": %llu, \"rows\": %llu, "
            "\"elem_start\": %llu, \"elems\": %llu}%s\n",
            i, static_cast<unsigned long long>(e.offset),
            static_cast<unsigned long long>(e.frame_len),
            static_cast<unsigned long long>(e.row_start),
            static_cast<unsigned long long>(e.row_extent),
            static_cast<unsigned long long>(e.elem_start),
            static_cast<unsigned long long>(e.elem_count),
            i + 1 < table.entries.size() ? "," : "");
      }
      std::printf("  ]\n}\n");
      return 0;
    }
    std::printf("container:     v3 chunked archive\n");
    std::printf("seekable:      yes (%s)\n",
                table.from_footer ? "seek-table footer"
                                  : "prelude index fallback");
    std::printf("dims:          %s (%zu elements)\n",
                table.dims.to_string().c_str(), table.dims.count());
    std::printf("dtype:         float%d\n", bits);
    std::printf("chunks:        %zu\n", table.entries.size());
    std::printf("  %6s %12s %12s %10s %10s %12s %10s\n", "chunk", "offset",
                "bytes", "row start", "rows", "elem start", "elems");
    for (size_t i = 0; i < table.entries.size(); ++i) {
      const archive::SeekEntry& e = table.entries[i];
      std::printf("  %6zu %12llu %12llu %10llu %10llu %12llu %10llu\n", i,
                  static_cast<unsigned long long>(e.offset),
                  static_cast<unsigned long long>(e.frame_len),
                  static_cast<unsigned long long>(e.row_start),
                  static_cast<unsigned long long>(e.row_extent),
                  static_cast<unsigned long long>(e.elem_start),
                  static_cast<unsigned long long>(e.elem_count));
    }
    std::printf("scheme:        %s\n", core::scheme_name(h.scheme));
    std::printf("cipher mode:   %s\n", crypto::mode_name(h.cipher_mode));
    std::printf("error bound:   %g (absolute)\n", h.params.abs_error_bound);
    return 0;
  }
  const core::Header h = core::peek_header(BytesView(container));
  const int bits = h.dtype == sz::DType::kFloat32 ? 32 : 64;
  const double cr = static_cast<double>(h.dims.count()) *
                    dtype_size(h.dtype) / container.size();
  if (o.json) {
    std::printf("{\n");
    std::printf("  \"container\": \"v2-single\",\n");
    std::printf("  \"seekable\": false,\n");
    std::printf("  \"dims\": [");
    for (size_t i = 0; i < h.dims.rank(); ++i) {
      std::printf("%s%zu", i ? ", " : "", h.dims[i]);
    }
    std::printf("],\n");
    std::printf("  \"elements\": %zu,\n", h.dims.count());
    std::printf("  \"dtype\": \"float%d\",\n", bits);
    std::printf("  \"scheme\": \"%s\",\n", core::scheme_name(h.scheme));
    std::printf("  \"cipher_mode\": \"%s\",\n",
                crypto::mode_name(h.cipher_mode));
    std::printf("  \"error_bound\": %g,\n", h.params.abs_error_bound);
    std::printf("  \"quant_bins\": %u,\n", h.params.quant_bins);
    std::printf("  \"payload_bytes\": %llu,\n",
                static_cast<unsigned long long>(h.payload_size));
    std::printf("  \"archive_bytes\": %zu,\n", container.size());
    std::printf("  \"ratio\": %.3f\n}\n", cr);
    return 0;
  }
  std::printf("container:     v2 single container\n");
  std::printf("seekable:      no (single container; use --chunks)\n");
  std::printf("scheme:        %s\n", core::scheme_name(h.scheme));
  std::printf("cipher mode:   %s\n", crypto::mode_name(h.cipher_mode));
  std::printf("dtype:         float%d\n", bits);
  std::printf("dims:          %s (%zu elements)\n",
              h.dims.to_string().c_str(), h.dims.count());
  std::printf("error bound:   %g (absolute)\n", h.params.abs_error_bound);
  std::printf("quant bins:    %u\n", h.params.quant_bins);
  std::printf("payload:       %llu bytes, crc32 %08x\n",
              static_cast<unsigned long long>(h.payload_size),
              h.payload_crc);
  std::printf("ratio:         %.3fx\n", cr);
  return 0;
}

int cmd_verify(const Options& o) {
  const std::unique_ptr<ByteSource> in = open_input(o.input);
  const Bytes archive = slurp(*in);
  const archive::VerifyReport rep =
      archive::verify_archive(BytesView(archive), BytesView(o.key));

  std::printf("container:     %s\n",
              rep.chunked ? "v3 chunked archive" : "v2 single container");
  if (!rep.prelude_ok) {
    std::printf("prelude:       FAILED (%s)\n", rep.prelude_detail.c_str());
    std::printf("result:        DAMAGED\n");
    return 1;
  }
  std::printf("dims:          %s (%zu elements)\n",
              rep.dims.to_string().c_str(), rep.dims.count());
  if (rep.chunked) {
    std::printf("chunks:        %llu of %zu intact\n",
                static_cast<unsigned long long>(rep.chunks_ok),
                rep.chunks.size());
    std::printf("  %6s %12s %12s %10s  %-22s %s\n", "chunk", "offset",
                "bytes", "rows", "mac", "status");
    for (const archive::VerifyChunk& c : rep.chunks) {
      std::printf("  %6llu %12llu %12llu %10llu  %-22s %s%s%s\n",
                  static_cast<unsigned long long>(c.chunk_id),
                  static_cast<unsigned long long>(c.offset),
                  static_cast<unsigned long long>(c.frame_len),
                  static_cast<unsigned long long>(c.row_extent),
                  archive::to_string(c.mac), c.ok ? "ok" : "DAMAGED",
                  c.detail.empty() ? "" : ": ", c.detail.c_str());
    }
  } else {
    const archive::VerifyChunk& c = rep.chunks.front();
    std::printf("mac:           %s\n", archive::to_string(c.mac));
    if (!c.ok) std::printf("damage:        %s\n", c.detail.c_str());
  }
  if (rep.trailing_bytes > 0) {
    std::printf("trailing:      %llu bytes past the last frame "
                "(ignored by decode)\n",
                static_cast<unsigned long long>(rep.trailing_bytes));
  }
  std::printf("result:        %s\n", rep.clean() ? "clean" : "DAMAGED");
  return rep.clean() ? 0 : 1;
}

// ---------------------------------------------------------------------
// Archive service: serve / client (src/service; docs/SERVICE.md)

/// The running daemon, for the signal handlers.  request_drain() is
/// async-signal-safe by contract, so the handler may call it directly.
std::atomic<service::ServiceDaemon*> g_daemon{nullptr};

extern "C" void handle_drain_signal(int) {
  if (service::ServiceDaemon* d = g_daemon.load()) d->request_drain();
}

int cmd_serve(int argc, char** argv) {
  if (argc < 3) usage("serve requires a socket path");
  service::ServiceConfig config;
  config.socket_path = argv[2];
  service::TenantKeyring keyring;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--tenant") {
      const std::string v = next();
      const size_t eq = v.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= v.size()) {
        usage("--tenant takes name=<hex master key>");
      }
      keyring.add_key(v.substr(0, eq), BytesView(from_hex(v.substr(eq + 1))));
    } else if (arg == "--threads") {
      const long t = std::stol(next());
      if (t < 1) usage("--threads must be >= 1");
      config.threads = static_cast<unsigned>(t);
    } else if (arg == "--budget-mb") {
      const unsigned long long mb = std::stoull(next());
      if (mb < 1) usage("--budget-mb must be >= 1");
      config.admission_budget_bytes = mb << 20;
    } else if (arg == "--chunks") {
      config.default_chunks = std::stoull(next());
      if (config.default_chunks == 0) usage("--chunks must be >= 1");
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }

  service::ServiceDaemon daemon(config, std::move(keyring));
  daemon.start();
  g_daemon.store(&daemon);
  std::signal(SIGTERM, handle_drain_signal);
  std::signal(SIGINT, handle_drain_signal);
  std::printf("listening on %s (%u threads, %llu MB budget)\n",
              config.socket_path.c_str(),
              config.threads == 0 ? parallel::default_thread_count()
                                  : config.threads,
              static_cast<unsigned long long>(
                  config.admission_budget_bytes >> 20));
  std::fflush(stdout);  // tests poll for this line to learn "ready"
  daemon.wait();
  g_daemon.store(nullptr);
  const service::ServiceStats s = daemon.stats();
  std::printf("drained: %llu connections, %llu jobs (%llu rejected), "
              "peak in-flight %llu bytes\n",
              static_cast<unsigned long long>(s.connections_accepted),
              static_cast<unsigned long long>(s.jobs_completed),
              static_cast<unsigned long long>(s.jobs_rejected),
              static_cast<unsigned long long>(s.peak_in_flight_bytes));
  return 0;
}

int cmd_client(int argc, char** argv) {
  if (argc < 4) usage("client requires <socket> <op>");
  const std::string socket_path = argv[2];
  const std::string op_name = argv[3];

  service::JobRequest req;
  bool needs_input = true;
  bool has_output = true;
  if (op_name == "ping") {
    req.op = service::JobOp::kPing;
    needs_input = false;
    has_output = false;
  } else if (op_name == "compress") {
    req.op = service::JobOp::kCompress;
  } else if (op_name == "decompress") {
    req.op = service::JobOp::kDecompress;
  } else if (op_name == "verify") {
    req.op = service::JobOp::kVerify;
    has_output = false;
  } else if (op_name == "salvage") {
    req.op = service::JobOp::kSalvage;
  } else {
    usage("client op must be ping|compress|decompress|verify|salvage");
  }

  int i = 4;
  std::string input, output;
  if (needs_input) {
    if (argc < 5) usage("this op requires an input path");
    input = argv[4];
    i = 5;
    if (has_output) {
      if (argc < 6) usage("this op requires an output path");
      output = argv[5];
      i = 6;
    }
  }
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--tenant") {
      req.tenant = next();
    } else if (arg == "--key-id") {
      req.key_id = std::stoull(next());
    } else if (arg == "--dims") {
      req.dims = parse_dims(next());
      req.have_dims = true;
    } else if (arg == "--eb") {
      req.error_bound = std::stod(next());
    } else if (arg == "--chunks") {
      req.chunks = std::stoull(next());
    } else if (arg == "--auth") {
      req.authenticate = true;
    } else if (arg == "--mode") {
      const std::string m = next();
      if (m == "cbc") {
        req.mode = crypto::Mode::kCbc;
      } else if (m == "ctr") {
        req.mode = crypto::Mode::kCtr;
      } else {
        usage("unknown --mode");
      }
    } else if (arg == "--scheme") {
      const std::string s = next();
      if (s == "none") {
        req.scheme = core::Scheme::kNone;
      } else if (s == "cmpr-encr") {
        req.scheme = core::Scheme::kCmprEncr;
      } else if (s == "encr-quant") {
        req.scheme = core::Scheme::kEncrQuant;
      } else if (s == "encr-huffman") {
        req.scheme = core::Scheme::kEncrHuffman;
      } else {
        usage("unknown --scheme");
      }
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }

  if (needs_input) {
    const std::unique_ptr<ByteSource> in = open_input(input);
    req.payload = slurp(*in);
  }

  // connect_unix failures (ENOENT: no daemon ever bound the path;
  // ECONNREFUSED: one did but is gone) throw IoError with the errno
  // text — main() turns that into the exit-2 operational contract.
  service::ServiceClient client(socket_path);
  const service::JobResponse resp = client.submit(req);

  const bool to_stdout = has_output && output == "-";
  std::FILE* report = to_stdout ? stderr : stdout;
  std::fprintf(report, "%s: %s", service::to_string(req.op),
               service::to_string(resp.status));
  if (!resp.detail.empty()) std::fprintf(report, " (%s)", resp.detail.c_str());
  if (resp.key_id != 0) {
    std::fprintf(report, ", key id %llu",
                 static_cast<unsigned long long>(resp.key_id));
  }
  std::fprintf(report, ", %llu raw / %llu archive bytes\n",
               static_cast<unsigned long long>(resp.raw_bytes),
               static_cast<unsigned long long>(resp.archive_bytes));

  if (resp.ok() && has_output) {
    Output out = open_output(output);
    out.sink->write(BytesView(resp.payload));
    out.commit();
  }

  // Exit contract mirrors the local commands: 0 success, 1 data/key
  // failures, 2 operational (retry-able or caller-side) failures.
  switch (resp.status) {
    case service::Status::kOk:
      return 0;
    case service::Status::kDataError:
    case service::Status::kCryptoError:
    case service::Status::kUnknownTenant:
      return 1;
    case service::Status::kBadRequest:
    case service::Status::kOverloaded:
    case service::Status::kDraining:
    case service::Status::kInternalError:
      return 2;
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A reader hanging up mid-pipe must surface as EPIPE from write() (an
  // IoError, exit 2), not a silent SIGPIPE death — the exit-code
  // contract is part of the CLI's interface.
#ifndef _WIN32
  std::signal(SIGPIPE, SIG_IGN);
#endif
  try {
    if (argc >= 2 && std::string(argv[1]) == "serve") {
      return cmd_serve(argc, argv);
    }
    if (argc >= 2 && std::string(argv[1]) == "client") {
      return cmd_client(argc, argv);
    }
    const Options o = parse(argc, argv);
    if (o.command == "compress") return cmd_compress(o);
    if (o.command == "decompress") return cmd_decompress(o);
    if (o.command == "extract") return cmd_extract(o);
    if (o.command == "info") return cmd_info(o);
    if (o.command == "verify") return cmd_verify(o);
    usage("unknown command");
  } catch (const IoError& e) {
    // Operational failure (unwritable output, broken pipe, disk full):
    // the message carries the errno text from the failing call.
    std::fprintf(stderr, "i/o error: %s\n", e.what());
    return 2;
  } catch (const szsec::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
