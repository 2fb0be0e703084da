// archive-hard and archive-easy: one big 3-D field, streamed from a raw
// file into a v3 chunked archive file, decoded back to a raw file, and
// read in thin ROIs through a SeekableReader.
//
// Each round runs, in this order: one compress pass, one decompress
// pass, and kRoisPerRound ROI reads.  Interleaving every timed operation
// in rounds spreads the machine's speed drift over all of them alike.
// ROI origin rows follow the data (see make_roi_plan), and every round
// reads the same mix of them (see round_rois), so the ROI latency
// percentiles compare across seeds and runs.
//
// The benchmark holds no copy of the field: it is generated in a child
// process into the raw input file, and every check streams the files in
// blocks.  The run's peak resident set is then the program's own, on top
// of a small harness baseline printed as rss_baseline_mib.
//
// The traced run alternates untraced and traced rounds; a traced round
// also samples /proc/self/io around the passes, turns the codec's stage
// metrics into stage spans, and runs the ladder: the same chunks through
// codec::encode_payload/decode_payload directly, and a fresh reader open.
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>

#include "archive/chunked.h"
#include "archive/seekable.h"
#include "bench.h"
#include "common/io.h"
#include "core/codec.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "fields.h"
#include "procio.h"
#include "stats.h"

namespace perfbench {
namespace {

using szsec::Bytes;
using szsec::BytesView;
using szsec::Dims;
namespace archive = szsec::archive;
namespace core = szsec::core;
namespace crypto = szsec::crypto;

constexpr unsigned kWorkers = 2;
constexpr size_t kInFlight = 2 * kWorkers;
constexpr size_t kSetups = 3;
constexpr size_t kRoisPerRound = 10;
/// "A few rows x a 64 x 64 window": with 4-row chunks, a ROI lies in one
/// chunk or straddles two.
constexpr size_t kRoiExtent[3] = {3, 64, 64};
/// Rounds whose ROIs the traced run's ROI geometry metrics describe.
constexpr size_t kGeometryRounds = 16;
/// Block size of the streamed output checks.
constexpr size_t kBlockBytes = size_t{1} << 20;

struct Workload {
  Dims dims;
  size_t chunks = 0;  ///< ~1 MiB each
  double eb = 0;
  core::Scheme scheme = core::Scheme::kNone;
  core::CipherSpec spec;
  std::vector<float> (*make)(const Dims&, uint64_t) = nullptr;
};

Workload workload_for(const std::string& name) {
  Workload w;
  if (name == "archive-hard") {
    // 24 MiB Nyx-like field; Encr-Huffman with AES-128-CBC, the paper's
    // configuration.  Ratio ~4: zlite finds few matches.
    w.dims = Dims{96, 256, 256};
    w.chunks = 24;
    w.eb = 1e-2;
    w.scheme = core::Scheme::kEncrHuffman;
    w.spec = {crypto::CipherKind::kAes128, crypto::Mode::kCbc, false};
    w.make = nyx_like;
  } else {
    // 48 MiB CLOUDf48-like plume field; Cmpr-Encr with AES-128-CTR and
    // HMAC, so the whole stream is encrypted and MACed.
    w.dims = Dims{192, 256, 256};
    w.chunks = 48;
    w.eb = 1e-6;
    w.scheme = core::Scheme::kCmprEncr;
    w.spec = {crypto::CipherKind::kAes128, crypto::Mode::kCtr, true};
    w.make = cloud_like;
  }
  return w;
}

/// A file read by position, closed with the object.
class InFile {
 public:
  explicit InFile(const std::string& path)
      : path_(path), fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) throw std::runtime_error("cannot open " + path);
  }
  ~InFile() { ::close(fd_); }
  InFile(const InFile&) = delete;
  InFile& operator=(const InFile&) = delete;

  uint64_t size() const {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      throw std::runtime_error("cannot stat " + path_);
    }
    return static_cast<uint64_t>(st.st_size);
  }

  /// Fills out[0, n) from byte `offset`; throws unless all n were read.
  void read_at(uint64_t offset, void* out, size_t n) const {
    auto* p = static_cast<char*>(out);
    while (n > 0) {
      const ssize_t got = ::pread(fd_, p, n, static_cast<off_t>(offset));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) throw std::runtime_error("short read of " + path_);
      p += got;
      n -= static_cast<size_t>(got);
      offset += static_cast<uint64_t>(got);
    }
  }

  /// Elements [first, first + count) of a file of f32 values.
  std::vector<float> floats(uint64_t first, size_t count) const {
    std::vector<float> v(count);
    read_at(first * sizeof(float), v.data(), count * sizeof(float));
    return v;
  }

 private:
  std::string path_;
  int fd_;
};

crypto::Sha256::Digest file_digest(const std::string& path) {
  const InFile f(path);
  const uint64_t size = f.size();
  Bytes block(kBlockBytes);
  crypto::Sha256 h;
  for (uint64_t off = 0; off < size; off += kBlockBytes) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(kBlockBytes, size - off));
    f.read_at(off, block.data(), n);
    h.update(BytesView(block.data(), n));
  }
  return h.finish();
}

/// Runs `fn` in a forked child and waits for it; throws unless it
/// succeeded.  What the child allocates never shows in this process's
/// peak resident set.
void run_in_child(const std::function<void()>& fn) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int rc = 0;
    try {
      fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      rc = 1;
    }
    ::_exit(rc);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("making the input failed");
  }
}

struct Roi {
  size_t origin[3] = {};
};

/// What one untraced round measured.
struct RoundSample {
  double c_mbps = 0, d_mbps = 0;
  std::vector<double> roi_ms;
  double roi_per_s = 0;     ///< reads / reading seconds
  double steal_share = 0;  ///< share of CPU time the host stole
};

/// What one traced round measured.
struct TracedRound {
  double pq_s = 0, recon_s = 0, huff_e_s = 0, huff_d_s = 0;
  double deflate_s = 0, inflate_s = 0, enc_s = 0, dec_s = 0;
  double busy_c = 0, busy_d = 0, glue_c = 0, glue_d = 0;
  double core_e_s = 0, core_d_s = 0, core_stages_s = 0;
  double open_ms = 0;
  double wchar_per_byte = 0;
  uint64_t syscw = 0, syscr = 0;
  double roi_bytes = 0;  ///< mean bytes_read() delta per ROI read
};

class ArchiveBench {
 public:
  ArchiveBench(Run& run, Workload w)
      : run_(run),
        w_(std::move(w)),
        raw_path_(run.opt.workdir + "/field.raw"),
        pass_path_(run.opt.workdir + "/pass.szs3"),
        roi_path_(run.opt.workdir + "/roi.szs3"),
        out_path_(run.opt.workdir + "/decoded.raw"),
        ref_path_(run.opt.workdir + "/first-decoded.raw") {
    params_.abs_error_bound = w_.eb;
    cfg_.threads = kWorkers;
    cfg_.chunks = w_.chunks;
    cfg_.max_in_flight = kInFlight;
    cfg_.seek_table = true;
    ropts_.threads = kWorkers;
    ropts_.max_in_flight = kInFlight;
    key_ = crypto::CtrDrbg(mix_seed(run.opt.seed, 50)).generate(16);
    iv_seed_ = mix_seed(run.opt.seed, 51);
  }

  int main();

 private:
  // --- the timed operations -------------------------------------------
  // Each pass writes a new file.  Truncating and rewriting one instead
  // makes ext4 (auto_da_alloc) push the data to disk at close, and the
  // passes would time the virtual disk.
  double compress(archive::ChunkedStreamResult& res) {
    std::remove(pass_path_.c_str());
    const double t0 = now_s();
    {
      szsec::FileSource in(raw_path_);
      szsec::FileSink out(pass_path_);
      crypto::CtrDrbg drbg(iv_seed_);
      res = archive::compress_chunked_stream(
          in, out, szsec::sz::DType::kFloat32, w_.dims, params_, w_.scheme,
          key_, w_.spec, cfg_, &drbg);
      out.flush();
    }
    return now_s() - t0;
  }

  double decompress(szsec::PipelineMetrics* metrics) {
    archive::ChunkedConfig cfg = cfg_;
    cfg.metrics = metrics;
    std::remove(out_path_.c_str());
    const double t0 = now_s();
    {
      szsec::FileSource in(pass_path_);
      szsec::FileSink out(out_path_);
      archive::decompress_chunked_stream(in, out, key_, cfg);
      out.flush();
    }
    return now_s() - t0;
  }

  /// One ROI read; +inf when it throws.  `bytes` receives the reader's
  /// bytes_read() delta.
  double read_roi(const Roi& roi, std::vector<float>& out, uint64_t& bytes) {
    out.assign(kRoiExtent[0] * kRoiExtent[1] * kRoiExtent[2], 0.0f);
    const uint64_t before = reader_->bytes_read();
    const double t0 = now_s();
    try {
      reader_->read_roi(std::span<const size_t>(roi.origin, 3),
                        std::span<const size_t>(kRoiExtent, 3), out);
    } catch (const std::exception& e) {
      run_.error(std::string("read_roi: ") + e.what());
      out.clear();
      return kInf;
    }
    const double ms = (now_s() - t0) * 1e3;
    bytes = reader_->bytes_read() - before;
    return ms;
  }

  // --- output checks (untimed) ------------------------------------------
  // A check that fails reports the output as wrong and returns false; the
  // caller then counts the operation as infinitely slow.

  /// Checks one pass's outputs: the archive hashes like the first pass's,
  /// and the decoded file is within the error bound of the input and
  /// byte-identical to the first decode, which is kept as ref_path_ for
  /// the ROI checks.
  bool check_pass(const std::string& archive_path) {
    bool ok = true;
    const crypto::Sha256::Digest digest = file_digest(archive_path);
    if (!ref_archive_digest_) {
      ref_archive_digest_ = digest;
    } else if (digest != *ref_archive_digest_) {
      run_.wrong("archive bytes differ between passes");
      ok = false;
    }
    if (ref_decoded_ == nullptr) {
      std::rename(out_path_.c_str(), ref_path_.c_str());
      ref_decoded_ = std::make_unique<InFile>(ref_path_);
      return check_decoded(*ref_decoded_, nullptr) && ok;
    }
    return check_decoded(InFile(out_path_), ref_decoded_.get()) && ok;
  }

  /// Streams the input, `got` and (when given) `first` in blocks: every
  /// element of `got` within the error bound, and `got` equal to `first`.
  bool check_decoded(const InFile& got, const InFile* first) {
    const uint64_t bytes = raw_bytes();
    if (got.size() != bytes) {
      run_.wrong("decoded file has " + std::to_string(got.size()) +
                 " bytes, not " + std::to_string(bytes));
      return false;
    }
    const size_t block = kBlockBytes / sizeof(float);
    std::vector<float> want(block), have(block), ref(block);
    for (uint64_t off = 0; off < bytes; off += kBlockBytes) {
      const size_t n =
          static_cast<size_t>(std::min<uint64_t>(kBlockBytes, bytes - off));
      const size_t count = n / sizeof(float);
      raw_->read_at(off, want.data(), n);
      got.read_at(off, have.data(), n);
      const long bad =
          first_out_of_bound(std::span<const float>(want.data(), count),
                             std::span<const float>(have.data(), count), w_.eb);
      if (bad >= 0) {
        const uint64_t at = off / sizeof(float) + static_cast<uint64_t>(bad);
        run_.wrong("decoded element " + std::to_string(at) +
                   " is outside the error bound");
        return false;
      }
      if (first != nullptr) {
        first->read_at(off, ref.data(), n);
        if (std::memcmp(ref.data(), have.data(), n) != 0) {
          run_.wrong("decoded field differs between passes");
          return false;
        }
      }
    }
    return true;
  }

  /// `got` against the matching rows of the first strict decode.
  bool check_roi(const Roi& roi, const std::vector<float>& got) {
    const size_t ny = w_.dims[1], nx = w_.dims[2];
    for (size_t z = 0; z < kRoiExtent[0]; ++z) {
      const std::vector<float> rows = ref_decoded_->floats(
          ((roi.origin[0] + z) * ny + roi.origin[1]) * nx, kRoiExtent[1] * nx);
      for (size_t y = 0; y < kRoiExtent[1]; ++y) {
        if (std::memcmp(rows.data() + y * nx + roi.origin[2],
                        got.data() + (z * kRoiExtent[1] + y) * kRoiExtent[2],
                        kRoiExtent[2] * sizeof(float)) != 0) {
          run_.wrong("ROI differs from the strict decode");
          return false;
        }
      }
    }
    return true;
  }

  uint64_t raw_bytes() const { return w_.dims.count() * sizeof(float); }

  // --- setup, rounds, metrics -------------------------------------------
  void make_inputs();
  void make_roi_plan();
  std::vector<Roi> round_rois(size_t round);
  double setup();
  void round(bool traced);
  TracedRound traced_extras(uint64_t c_span, uint64_t d_span,
                            const archive::ChunkedStreamResult& res,
                            const szsec::PipelineMetrics& dm);
  void report_untraced();
  void report_traced();

  Run& run_;
  Workload w_;
  std::string raw_path_, pass_path_, roi_path_, out_path_, ref_path_;
  szsec::sz::Params params_;
  archive::ChunkedConfig cfg_;
  archive::SeekableOptions ropts_;
  Bytes key_;
  uint64_t iv_seed_ = 0;

  std::unique_ptr<InFile> raw_;          ///< the input field
  std::unique_ptr<InFile> ref_decoded_;  ///< the first strict decode
  std::optional<crypto::Sha256::Digest> ref_archive_digest_;
  std::unique_ptr<archive::SeekableReader> reader_;
  std::vector<double> row_cdf_;  ///< cumulative ROI origin row weights
  double nonzero_frac_ = 0;
  size_t roi_round_ = 0;

  // Measurement samples.
  std::vector<double> setup_s_;
  std::vector<RoundSample> rounds_;  ///< untraced rounds
  size_t roi_samples_ = 0;
  std::vector<double> e2e_untraced_s_, e2e_traced_s_;
  std::vector<TracedRound> traced_;
  uint64_t archive_bytes_ = 0;
  core::CompressStats stats_;
  szsec::StageMetric lossless_;
};

void ArchiveBench::make_inputs() {
  run_in_child([this] {
    const std::vector<float> field = w_.make(w_.dims, run_.opt.seed);
    szsec::FileSink out(raw_path_);
    out.write(BytesView(reinterpret_cast<const uint8_t*>(field.data()),
                        field.size() * sizeof(float)));
    out.flush();
  });
  raw_ = std::make_unique<InFile>(raw_path_);
  if (raw_->size() != raw_bytes()) throw std::runtime_error("short input");
}

/// ROI origin rows are drawn in proportion to the non-zero elements of
/// the rows a ROI covers, so the reads follow the data: uniform over the
/// Nyx-like field, which has no zeros, and on the plume of the sparse
/// CLOUDf48-like one.
void ArchiveBench::make_roi_plan() {
  const size_t nz = w_.dims[0], plane = w_.dims[1] * w_.dims[2];
  std::vector<double> nonzero(nz);
  double total = 0;
  for (size_t z = 0; z < nz; ++z) {
    for (const float v : raw_->floats(z * plane, plane)) nonzero[z] += v != 0;
    total += nonzero[z];
  }
  nonzero_frac_ = total / static_cast<double>(w_.dims.count());
  double acc = 0;
  for (size_t z = 0; z + kRoiExtent[0] <= nz; ++z) {
    for (size_t k = 0; k < kRoiExtent[0]; ++k) acc += nonzero[z + k];
    row_cdf_.push_back(acc);
  }
  if (!(acc > 0)) throw std::runtime_error("the field is all zeros");
}

/// The ROIs of round `round`: origin rows by systematic sampling of
/// row_cdf_ (kRoisPerRound evenly spaced quantiles from a seeded phase),
/// so every round reads the same mix and the rounds together follow the
/// weights.  Window positions within the plane are seeded per round.
std::vector<Roi> ArchiveBench::round_rois(size_t round) {
  std::mt19937_64 rng(mix_seed(run_.opt.seed, 1000 + round));
  const double phase = static_cast<double>(rng() >> 11) * 0x1p-53;
  std::vector<Roi> rois(kRoisPerRound);
  for (size_t j = 0; j < kRoisPerRound; ++j) {
    Roi& roi = rois[j];
    const double u = (static_cast<double>(j) + phase) / kRoisPerRound *
                     row_cdf_.back();
    roi.origin[0] = static_cast<size_t>(
        std::upper_bound(row_cdf_.begin(), row_cdf_.end(), u) -
        row_cdf_.begin());
    roi.origin[1] = rng() % (w_.dims[1] - kRoiExtent[1] + 1);
    roi.origin[2] = rng() % (w_.dims[2] - kRoiExtent[2] + 1);
  }
  return rois;
}

double ArchiveBench::setup() {
  reader_.reset();
  const double t0 = now_s();
  archive::ChunkedStreamResult res;
  compress(res);
  decompress(nullptr);
  std::remove(roi_path_.c_str());
  std::rename(pass_path_.c_str(), roi_path_.c_str());
  reader_ = archive::SeekableReader::open(roi_path_, key_, ropts_);
  const std::vector<Roi> rois = round_rois(roi_round_++);
  std::vector<std::vector<float>> outs(rois.size());
  for (size_t i = 0; i < rois.size(); ++i) {
    uint64_t bytes = 0;
    read_roi(rois[i], outs[i], bytes);
  }
  const double elapsed = now_s() - t0;
  run_.attempted += 2 + rois.size();
  check_pass(roi_path_);
  for (size_t i = 0; i < rois.size(); ++i) {
    if (!outs[i].empty()) check_roi(rois[i], outs[i]);
  }
  archive_bytes_ = res.archive_bytes;
  stats_ = res.stats;
  lossless_ = res.times.metric("lossless");
  return elapsed;
}

void ArchiveBench::round(bool traced) {
  const double raw_mb = static_cast<double>(raw_bytes()) / 1e6;
  Tracer& tr = run_.tracer;
  archive::ChunkedStreamResult res;
  szsec::PipelineMetrics dm;
  double c_s = kInf, d_s = kInf;

  const CpuTicks cpu0 = cpu_ticks();
  IoCounters io0, io1, io2;
  if (traced) io0 = read_proc_io();
  run_.attempted += 2;
  const double c0 = tr.now();
  try {
    c_s = compress(res);
  } catch (const std::exception& e) {
    run_.error(std::string("compress: ") + e.what());
    run_.error("decompress: skipped after the failed compress");
  }
  const double c1 = tr.now();
  if (traced) io1 = read_proc_io();
  const double d0 = tr.now();
  try {
    if (c_s < kInf) d_s = decompress(traced ? &dm : nullptr);
  } catch (const std::exception& e) {
    run_.error(std::string("decompress: ") + e.what());
  }
  const double d1 = tr.now();
  if (traced) io2 = read_proc_io();
  if (!(c_s < kInf && d_s < kInf && check_pass(pass_path_))) {
    c_s = d_s = kInf;  // a pass without a correct round trip
  }

  std::vector<double> roi_ms;
  uint64_t roi_bytes = 0;
  const uint64_t round_id = traced_.size() + e2e_untraced_s_.size() + 1;
  std::vector<float> out;
  for (const Roi& roi : round_rois(roi_round_++)) {
    uint64_t bytes = 0;
    const double r0 = tr.now();
    double ms = read_roi(roi, out, bytes);
    const double r1 = tr.now();
    ++run_.attempted;
    if (ms < kInf && !check_roi(roi, out)) ms = kInf;
    roi_ms.push_back(ms);
    roi_bytes += bytes;
    if (traced) {
      tr.record("archive.read_roi", 0, round_id, r0, r1, 1, bytes,
                out.size() * sizeof(float));
    }
  }

  const double e2e = c_s + d_s + sum(roi_ms) / 1e3;
  if (!traced) {
    RoundSample s;
    s.c_mbps = raw_mb / c_s;
    s.d_mbps = raw_mb / d_s;
    s.roi_per_s = static_cast<double>(roi_ms.size()) / (sum(roi_ms) / 1e3);
    roi_samples_ += roi_ms.size();
    s.roi_ms = std::move(roi_ms);
    s.steal_share = steal_share(cpu_ticks(), cpu0);
    rounds_.push_back(std::move(s));
    e2e_untraced_s_.push_back(e2e);
    return;
  }
  e2e_traced_s_.push_back(e2e);
  if (!(e2e < kInf)) return;  // a failed pass leaves nothing to attribute

  const uint64_t c_span =
      tr.record("archive.compress_stream", 0, round_id, c0, c1, kWorkers,
                raw_bytes(), res.archive_bytes);
  const uint64_t d_span =
      tr.record("archive.decompress_stream", 0, round_id, d0, d1, kWorkers,
                res.archive_bytes, raw_bytes());
  tr.record_stages(c_span, res.times, kEncodeStages);
  tr.record_stages(d_span, dm, kDecodeStages);
  TracedRound t = traced_extras(c_span, d_span, res, dm);
  const IoCounters dc = delta(io1, io0), dp = delta(io2, io0);
  t.wchar_per_byte = static_cast<double>(dc.wchar) /
                     static_cast<double>(res.archive_bytes);
  t.syscw = dp.syscw;
  t.syscr = dp.syscr;
  t.roi_bytes = static_cast<double>(roi_bytes) / kRoisPerRound;
  run_.report.meta("io_pass_" + std::to_string(traced_.size()),
                   "{\"wchar\": " + std::to_string(dp.wchar) +
                       ", \"rchar\": " + std::to_string(dp.rchar) +
                       ", \"syscw\": " + std::to_string(dp.syscw) +
                       ", \"syscr\": " + std::to_string(dp.syscr) +
                       ", \"compress_wchar\": " + std::to_string(dc.wchar) +
                       "}");
  traced_.push_back(t);
}

TracedRound ArchiveBench::traced_extras(uint64_t c_span, uint64_t d_span,
                                        const archive::ChunkedStreamResult& res,
                                        const szsec::PipelineMetrics& dm) {
  Tracer& tr = run_.tracer;
  TracedRound t;
  t.pq_s = res.times.get("predict+quantize");
  t.huff_e_s = res.times.get("huffman");
  t.enc_s = res.times.get("encrypt");
  t.deflate_s = res.times.get("lossless");
  t.recon_s = dm.get("reconstruct");
  t.huff_d_s = dm.get("huffman");
  t.dec_s = dm.get("decrypt");
  t.inflate_s = dm.get("lossless");
  t.glue_c = checked_glue(tr, c_span);
  t.glue_d = checked_glue(tr, d_span);
  t.busy_c = tr.stage_sum(c_span) / tr.span(c_span).busy_s();
  t.busy_d = tr.stage_sum(d_span) / tr.span(d_span).busy_s();

  // Ladder 1: a fresh reader open (the set-up cost of random access).
  double t0 = tr.now();
  auto reader = archive::SeekableReader::open(roi_path_, key_, ropts_);
  double t1 = tr.now();
  tr.record("archive.open", 0, tr.span(c_span).request, t0, t1);
  t.open_ms = (t1 - t0) * 1e3;

  // Ladder 2: every chunk through the codec directly, serially, with the
  // archive's own codec configuration.
  const core::codec::CodecRuntime rt(params_, w_.scheme, key_, w_.spec);
  crypto::CtrDrbg drbg(iv_seed_);
  for (const archive::SeekEntry& e : reader->table().entries) {
    const std::vector<float> slab = raw_->floats(e.elem_start, e.elem_count);
    const Dims cd{static_cast<size_t>(e.row_extent), w_.dims[1], w_.dims[2]};
    t0 = tr.now();
    const core::CompressResult cr =
        core::codec::encode_payload(rt.config(), slab, cd, &drbg);
    t1 = tr.now();
    const uint64_t es = tr.record("core.encode_payload", c_span,
                                  tr.span(c_span).request, t0, t1, 1,
                                  e.elem_count * sizeof(float),
                                  cr.container.size());
    t0 = tr.now();
    const core::DecompressResult dr =
        core::codec::decode_payload(rt.config(), cr.container);
    t1 = tr.now();
    const uint64_t ds = tr.record("core.decode_payload", d_span,
                                  tr.span(d_span).request, t0, t1, 1,
                                  cr.container.size(),
                                  e.elem_count * sizeof(float));
    tr.record_stages(es, cr.times, kEncodeStages);
    tr.record_stages(ds, dr.times, kDecodeStages);
    t.core_e_s += tr.span(es).busy_s();
    t.core_d_s += tr.span(ds).busy_s();
    t.core_stages_s += tr.stage_sum(es) + tr.stage_sum(ds);
    checked_glue(tr, es);
    checked_glue(tr, ds);
    if (first_out_of_bound(slab, dr.f32, w_.eb) >= 0) {
      run_.wrong("direct decode_payload output outside the error bound");
    }
  }
  return t;
}

void ArchiveBench::report_untraced() {
  Report& rep = run_.report;
  std::vector<double> steal;
  for (const RoundSample& s : rounds_) steal.push_back(s.steal_share);
  const std::vector<size_t> keep = quiet_rounds(steal);
  std::vector<double> c_mbps, d_mbps, roi_ms, roi_per_s;
  for (const size_t i : keep) {
    const RoundSample& s = rounds_[i];
    c_mbps.push_back(s.c_mbps);
    d_mbps.push_back(s.d_mbps);
    roi_ms.insert(roi_ms.end(), s.roi_ms.begin(), s.roi_ms.end());
    roi_per_s.push_back(s.roi_per_s);
  }
  rep.set("compress_mbps", median(c_mbps));
  rep.set("decompress_mbps", median(d_mbps));
  rep.set("ratio", static_cast<double>(raw_bytes()) /
                       static_cast<double>(archive_bytes_));
  rep.set("req_p50_ms", block_percentile(roi_ms, 50));
  rep.set("req_per_s", median(roi_per_s));
  rep.set("setup_s", median(setup_s_));
  rep.meta("samples", "{\"rounds\": " + std::to_string(rounds_.size()) +
                          ", \"quiet_rounds\": " +
                          std::to_string(keep.size()) +
                          ", \"passes\": " + std::to_string(c_mbps.size()) +
                          ", \"req\": " + std::to_string(roi_ms.size()) +
                          ", \"setups\": " + std::to_string(setup_s_.size()) +
                          "}");
  rep.meta("steal_share", json_list(steal));
  rep.meta("req_p90_ms", block_percentile(roi_ms, 90));
  rep.meta("req_pooled_p90_ms", percentile(roi_ms, 90));
}

void ArchiveBench::report_traced() {
  if (traced_.empty()) throw std::runtime_error("no traced round finished");
  Report& rep = run_.report;
  const auto med = [this](double TracedRound::*f) {
    std::vector<double> v;
    for (const TracedRound& t : traced_) v.push_back(t.*f);
    return median(v);
  };
  rep.set("sz.predict_quantize_s", med(&TracedRound::pq_s));
  rep.set("sz.reconstruct_s", med(&TracedRound::recon_s));
  rep.set("sz.predictable_frac", stats_.predictable_fraction);
  rep.set("huffman.encode_s", med(&TracedRound::huff_e_s));
  rep.set("huffman.decode_s", med(&TracedRound::huff_d_s));
  rep.set("zlite.deflate_s", med(&TracedRound::deflate_s));
  rep.set("zlite.inflate_s", med(&TracedRound::inflate_s));
  rep.set("zlite.gain", lossless_.ratio());
  rep.set("crypto.encrypt_s", med(&TracedRound::enc_s));
  rep.set("crypto.decrypt_s", med(&TracedRound::dec_s));
  rep.set("crypto.bytes", static_cast<double>(stats_.encrypted_bytes));
  rep.set("core.encode_ms", 1e3 * med(&TracedRound::core_e_s));
  rep.set("core.decode_ms", 1e3 * med(&TracedRound::core_d_s));
  double stages = 0, core_s = 0;
  for (const TracedRound& t : traced_) {
    stages += t.core_stages_s;
    core_s += t.core_e_s + t.core_d_s;
  }
  rep.set("core.stage_cover", core_s > 0 ? stages / core_s : 0);
  rep.set("parallel.busy_frac_c", med(&TracedRound::busy_c));
  rep.set("parallel.busy_frac_d", med(&TracedRound::busy_d));
  rep.set("archive.glue_c_s", med(&TracedRound::glue_c));
  rep.set("archive.glue_d_s", med(&TracedRound::glue_d));
  rep.set("archive.open_ms", med(&TracedRound::open_ms));
  rep.set("archive.roi_bytes_read", med(&TracedRound::roi_bytes));
  rep.set("io.wchar_per_archive_byte", med(&TracedRound::wchar_per_byte));
  std::vector<double> syscw, syscr;
  for (const TracedRound& t : traced_) {
    syscw.push_back(static_cast<double>(t.syscw));
    syscr.push_back(static_cast<double>(t.syscr));
  }
  rep.set("io.syscw", median(syscw));
  rep.set("io.syscr", median(syscr));

  // Geometry of the ROIs of the first kGeometryRounds rounds against the
  // seek table: a fixed set of reads, so this is exact for a seed.
  double reads = 0, chunks = 0, decoded = 0, returned = 0;
  for (size_t round = 0; round < kGeometryRounds; ++round) {
    for (const Roi& r : round_rois(round)) {
      const size_t lo = r.origin[0], hi = r.origin[0] + kRoiExtent[0];
      for (const archive::SeekEntry& e : reader_->table().entries) {
        if (e.row_start < hi && e.row_start + e.row_extent > lo) {
          chunks += 1;
          decoded += static_cast<double>(e.elem_count);
        }
      }
      reads += 1;
      returned += static_cast<double>(kRoiExtent[0] * kRoiExtent[1] *
                                      kRoiExtent[2]);
    }
  }
  rep.set("archive.roi_chunks", chunks / reads);
  rep.set("archive.roi_amplification", decoded / returned);

  const std::vector<double> stage_s = {
      med(&TracedRound::pq_s), med(&TracedRound::huff_e_s),
      med(&TracedRound::enc_s), med(&TracedRound::deflate_s)};
  rep.meta("largest_compress_stage",
           json_string(kEncodeStages[std::max_element(stage_s.begin(),
                                                      stage_s.end()) -
                                     stage_s.begin()]));
  rep.meta("traced_rounds", static_cast<double>(traced_.size()));
  rep.set("trace.overhead_frac",
          median(e2e_traced_s_) / median(e2e_untraced_s_) - 1);

  for (const char* name :
       {"sansio.glue_ms", "capi.glue_ms", "service.ping_ms",
        "service.codec_ms", "service.queue_ms", "service.rejected"}) {
    rep.set(name, 0);  // layers this workload does not drive
  }
}

int ArchiveBench::main() {
  make_inputs();
  make_roi_plan();
  run_.report.meta("rss_baseline_mib", peak_rss_mib());
  const size_t setups = run_.opt.trace ? 1 : kSetups;
  for (size_t i = 0; i < setups; ++i) setup_s_.push_back(setup());

  const double t0 = now_s();
  size_t rounds = 0;
  // The quiet half of the rounds must still hold a p90's samples; a
  // traced run needs a traced round.
  while (run_.opt.trace
             ? run_.keep_going(t0, traced_.size(), 1)
             : run_.keep_going(t0, roi_samples_, 2 * min_samples(90))) {
    round(run_.opt.trace && rounds % 2 == 1);
    ++rounds;
  }
  run_.report.meta("measured_s", now_s() - t0);
  run_.report.meta("raw_mb", static_cast<double>(raw_bytes()) / 1e6);
  run_.report.meta("nonzero_frac", nonzero_frac_);
  std::vector<double> rows;
  for (const Roi& r : round_rois(0)) {
    rows.push_back(static_cast<double>(r.origin[0]));
  }
  run_.report.meta("roi_rows_round_0", json_list(rows));
  if (run_.opt.trace) {
    report_traced();
  } else {
    report_untraced();
  }
  reader_.reset();
  return 0;
}

}  // namespace

int run_archive(Run& run) {
  ArchiveBench bench(run, workload_for(run.opt.workload));
  return bench.main();
}

}  // namespace perfbench
