// small-fields: many small 3-D fields, where fixed per-call costs take a
// large share of the work.
//
// Each round has two phases.  (a) On the calling thread, every field
// makes a C-ABI round trip: szsec_compress to a v2 container
// (Encr-Huffman, AES-128-CTR, HMAC, one thread, seeded IVs), then
// szsec_decompress.  (b) An in-process ServiceDaemon (2 pool threads, 2
// tenants) serves kConnections ServiceClient connections in a closed
// loop: each connection submits a compress job for one of its fields,
// waits, submits the decompress job for the archive it got back, waits,
// and moves to its next field.  submit() blocks, so each caller waits
// for its reply.
//
// A traced round adds the ladder: each field again through a directly
// driven sansio::Context and through codec::encode_payload/decode_payload
// with a prebuilt runtime, and each job again as a ping with a payload
// of the request's size and as the same codec work through
// archive::compress_chunked/decompress_chunked_f32 with the daemon's job
// configuration.  The differences between adjacent rungs are the glue of
// the layer between them.
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "archive/chunked.h"
#include "bench.h"
#include "core/codec.h"
#include "core/sansio.h"
#include "crypto/drbg.h"
#include "fields.h"
#include "procio.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/keyring.h"
#include "stats.h"
#include "szsec.h"

namespace perfbench {
namespace {

using szsec::Bytes;
using szsec::BytesView;
using szsec::Dims;
namespace archive = szsec::archive;
namespace core = szsec::core;
namespace crypto = szsec::crypto;
namespace sansio = szsec::sansio;
namespace service = szsec::service;

constexpr size_t kFields = 32;
constexpr unsigned kPoolThreads = 2;
constexpr size_t kConnections = 4;
constexpr size_t kSetups = 3;
const char* const kTenants[2] = {"tenant-a", "tenant-b"};

struct Field {
  Dims dims;
  double eb = 0;
  uint64_t iv_seed = 0;
  std::vector<float> values;
  BytesView raw() const {
    return BytesView(reinterpret_cast<const uint8_t*>(values.data()),
                     values.size() * sizeof(float));
  }
};

std::span<const float> as_floats(BytesView b) {
  return std::span<const float>(reinterpret_cast<const float*>(b.data()),
                                b.size() / sizeof(float));
}

/// One service job as the closed loop saw it.
struct Job {
  size_t field = 0;
  bool compress = true;
  double start_s = 0;  ///< now_s() at submit
  double ms = kInf;    ///< +inf when the job failed or was refused
  Bytes archive;       ///< the archive the job produced or decoded
};

/// A failed job as a connection saw it.
struct JobError {
  bool wrong_output = false;
  std::string what;
};

/// What one untraced round measured.
struct RoundSample {
  double c_mbps = 0, d_mbps = 0;  ///< the C-ABI phase
  std::vector<double> field_ms;   ///< C-ABI round trips
  std::vector<double> job_ms;     ///< service jobs
  double jobs_per_s = 0;          ///< jobs done / service phase wall
  double steal_share = 0;         ///< share of CPU time the host stole
};

/// Per-field sums of one traced C-ABI phase and its ladder.
struct TracedRound {
  double stage[2][4] = {};  ///< [encode, decode][stage]
  double core_e_s = 0, core_d_s = 0, core_stage_s = 0;
  double lossless_in = 0, lossless_out = 0, encrypted = 0;
  double predictable = 0, elements = 0;
  IoCounters io;
  uint64_t container_bytes = 0;
};

/// Runs a sans-io context to completion over `input`, the way the C
/// ABI's one-shot calls do (feed all, pull into 64 KiB, finish).
Bytes drive(sansio::Context& ctx, BytesView input) {
  Bytes out;
  uint8_t scratch[1 << 16];
  size_t off = 0;
  bool finished = false;
  sansio::Status st = ctx.status();
  while (st != sansio::Status::kDone) {
    if (st == sansio::Status::kHaveOutput) {
      size_t n = 0;
      st = ctx.pull(scratch, n);
      out.insert(out.end(), scratch, scratch + n);
    } else if (off < input.size()) {
      size_t n = 0;
      st = ctx.feed(input.subspan(off), n);
      off += n;
    } else if (!finished) {
      finished = true;
      st = ctx.finish();
    } else {
      throw std::runtime_error("context wants input after finish");
    }
  }
  return out;
}

class SmallFieldsBench {
 public:
  explicit SmallFieldsBench(Run& run)
      : run_(run), socket_path_(run.opt.workdir + "/svc.sock") {
    crypto::CtrDrbg keys(mix_seed(run.opt.seed, 300));
    key_ = keys.generate(16);
    for (const char* t : kTenants) {
      const Bytes master = keys.generate(32);
      daemon_masters_.emplace_back(t, master);
      ladder_keys_.add_key(t, master);
    }
    spec_ = {crypto::CipherKind::kAes128, crypto::Mode::kCtr, true};
  }

  int main();

 private:
  void make_fields();
  double setup(bool keep);
  void start_service();
  void stop_service();
  void capi_phase(bool traced, uint64_t round_id);
  void service_phase(bool traced, uint64_t round_id);
  void capi_ladder(const Field& f, uint64_t capi_span, TracedRound& t);
  void service_ladder(const std::vector<Job>& jobs, uint64_t round_id);
  void report_untraced();
  void report_traced();

  Run& run_;
  std::string socket_path_;
  Bytes key_;
  core::CipherSpec spec_;
  std::vector<std::pair<std::string, Bytes>> daemon_masters_;
  service::TenantKeyring ladder_keys_;
  std::vector<Field> fields_;
  std::unique_ptr<service::ServiceDaemon> daemon_;
  std::vector<std::unique_ptr<service::ServiceClient>> clients_;

  // Untraced samples.
  std::vector<double> setup_s_;
  RoundSample round_;                ///< the round being measured
  std::vector<RoundSample> rounds_;  ///< finished untraced rounds
  size_t samples_ = 0;  ///< fewest of field and job samples so far
  uint64_t container_bytes_ = 0;  ///< C-ABI containers, one batch
  // Traced samples.
  std::vector<double> e2e_untraced_s_, e2e_traced_s_;
  std::vector<double> capi_glue_ms_, sansio_glue_ms_;
  std::vector<double> ping_ms_, codec_ms_, queue_ms_;
  std::vector<TracedRound> traced_;
  TracedRound* current_ = nullptr;
  double capi_s_ = 0;  ///< C-ABI round-trip time of the last phase
  double svc_s_ = 0;   ///< wall of the last service phase
  std::vector<Job> last_jobs_;
};

void SmallFieldsBench::make_fields() {
  // Sizes log-uniform over 4 KiB..256 KiB: one field at the middle of
  // each 1/kFields slice of the log range, so every seed has the same
  // size mix and only the values differ.  Even fields follow the Nyx
  // recipe, odd ones the CLOUDf48 one.
  for (size_t i = 0; i < kFields; ++i) {
    const double u = 10 + 6 * (static_cast<double>(i) + 0.5) / kFields;
    const size_t side =
        static_cast<size_t>(std::lround(std::cbrt(std::exp2(u))));
    Field f;
    f.dims = Dims{side, side, side};
    const uint64_t s = mix_seed(run_.opt.seed, 500 + i);
    f.values = i % 2 == 0 ? nyx_like(f.dims, s) : cloud_like(f.dims, s);
    f.eb = i % 2 == 0 ? 1e-2 : 1e-6;
    f.iv_seed = mix_seed(run_.opt.seed, 600 + i);
    fields_.push_back(std::move(f));
  }
}

void SmallFieldsBench::start_service() {
  service::TenantKeyring keyring;
  for (const auto& [tenant, master] : daemon_masters_) {
    keyring.add_key(tenant, master);
  }
  service::ServiceConfig cfg;
  cfg.socket_path = socket_path_;
  cfg.threads = kPoolThreads;
  cfg.default_chunks = 1;
  daemon_ = std::make_unique<service::ServiceDaemon>(cfg, std::move(keyring));
  daemon_->start();
  for (size_t c = 0; c < kConnections; ++c) {
    clients_.push_back(std::make_unique<service::ServiceClient>(socket_path_));
  }
}

void SmallFieldsBench::stop_service() {
  clients_.clear();
  if (daemon_) daemon_->stop();
  daemon_.reset();
}

void SmallFieldsBench::capi_phase(bool traced, uint64_t round_id) {
  double raw = 0, c_s = 0, d_s = 0;
  uint64_t container_bytes = 0;
  bool all_ok = true;
  IoCounters io0;
  if (traced) io0 = read_proc_io();
  capi_s_ = 0;
  for (size_t i = 0; i < fields_.size(); ++i) {
    const Field& f = fields_[i];
    szsec_options o;
    szsec_options_init(&o);
    o.scheme = SZSEC_SCHEME_ENCR_HUFFMAN;
    o.cipher_kind = SZSEC_CIPHER_AES128;
    o.cipher_mode = SZSEC_MODE_CTR;
    o.authenticate = 1;
    o.dtype = SZSEC_DTYPE_F32;
    o.container = SZSEC_CONTAINER_V2_SINGLE;
    o.rank = 3;
    for (int a = 0; a < 3; ++a) o.dims[a] = f.dims[static_cast<size_t>(a)];
    o.abs_error_bound = f.eb;
    o.chunks = 1;
    o.threads = 1;
    o.has_drbg_seed = 1;
    o.drbg_seed = f.iv_seed;
    szsec_options d;
    szsec_options_init(&d);
    d.threads = 1;

    const BytesView in = f.raw();
    uint8_t* container = nullptr;
    size_t container_len = 0;
    uint8_t* decoded = nullptr;
    size_t decoded_len = 0;
    const double t0 = now_s();
    const int rc = szsec_compress(&o, key_.data(), key_.size(), in.data(),
                                  in.size(), &container, &container_len);
    const double t1 = now_s();
    const int rd =
        rc != SZSEC_OK
            ? rc
            : szsec_decompress(&d, key_.data(), key_.size(), container,
                               container_len, &decoded, &decoded_len, nullptr);
    const double t2 = now_s();
    capi_s_ += t2 - t0;
    run_.attempted += 2;
    bool ok = rc == SZSEC_OK && rd == SZSEC_OK;
    if (!ok) {
      run_.error(std::string("C ABI: ") + szsec_error_name(rc) + " " +
                 szsec_error_name(rd) + ": " + szsec_last_error_message());
      run_.failed += rc != SZSEC_OK;  // the skipped decompress failed too
    } else if (first_out_of_bound(f.values,
                                  as_floats(BytesView(decoded, decoded_len)),
                                  f.eb) >= 0) {
      run_.wrong("C-ABI round trip outside the error bound");
      ok = false;
    }
    all_ok &= ok;
    if (!traced) round_.field_ms.push_back(ok ? (t2 - t0) * 1e3 : kInf);
    if (ok) {
      raw += static_cast<double>(in.size());
      c_s += t1 - t0;
      d_s += t2 - t1;
      container_bytes += container_len;
      if (traced) {
        Tracer& tr = run_.tracer;
        const uint64_t span =
            tr.record("capi.round_trip", 0, round_id * 1000 + i, tr.at(t0),
                      tr.at(t2), 1, in.size(), container_len);
        capi_ladder(f, span, *current_);
      }
    }
    szsec_buffer_free(container);
    szsec_buffer_free(decoded);
  }
  if (traced) {
    current_->io = delta(read_proc_io(), io0);
    current_->container_bytes = container_bytes;
    return;
  }
  // A pass with a failed or wrong field is infinitely slow.
  round_.c_mbps = all_ok ? raw / 1e6 / c_s : 0;
  round_.d_mbps = all_ok ? raw / 1e6 / d_s : 0;
  if (all_ok) container_bytes_ = container_bytes;
}

void SmallFieldsBench::capi_ladder(const Field& f, uint64_t capi_span,
                                   TracedRound& t) {
  Tracer& tr = run_.tracer;
  const uint64_t request = tr.span(capi_span).request;
  szsec::sz::Params params;
  params.abs_error_bound = f.eb;

  // Rung 1: the same round trip through a directly driven Context.
  sansio::EncoderConfig ec;
  ec.params = params;
  ec.scheme = core::Scheme::kEncrHuffman;
  ec.spec = spec_;
  ec.key = key_;
  ec.dtype = szsec::sz::DType::kFloat32;
  ec.dims = f.dims;
  ec.container = sansio::Container::kV2Single;
  ec.chunks = 1;
  ec.threads = 1;
  ec.drbg_seed = f.iv_seed;
  sansio::DecoderConfig dc;
  dc.key = key_;
  dc.threads = 1;
  const double c0 = tr.now();
  auto enc = sansio::Context::encoder(ec);
  const Bytes container = drive(*enc, f.raw());
  auto dec = sansio::Context::decoder(dc);
  const Bytes decoded = drive(*dec, container);
  const double c1 = tr.now();
  const uint64_t ctx_span = tr.record("sansio.round_trip", capi_span, request,
                                      c0, c1, 1, f.raw().size(),
                                      container.size());
  const sansio::Result& er = enc->result();
  const sansio::Result& dr = dec->result();
  tr.record_stages(ctx_span, er.times, kEncodeStages);
  tr.record_stages(ctx_span, dr.times, kDecodeStages);
  for (size_t s = 0; s < 4; ++s) {
    t.stage[0][s] += er.times.get(kEncodeStages[s]);
    t.stage[1][s] += dr.times.get(kDecodeStages[s]);
  }
  const szsec::StageMetric lossless = er.times.metric("lossless");
  t.lossless_in += static_cast<double>(lossless.bytes_in);
  t.lossless_out += static_cast<double>(lossless.bytes_out);
  t.encrypted += static_cast<double>(er.stats.encrypted_bytes);
  t.predictable += er.stats.predictable_fraction *
                   static_cast<double>(f.values.size());
  t.elements += static_cast<double>(f.values.size());
  checked_glue(tr, ctx_span);
  if (first_out_of_bound(f.values, as_floats(decoded), f.eb) >= 0) {
    run_.wrong("sans-io round trip outside the error bound");
  }

  // Rung 2: the codec alone, with a runtime built outside the timing.
  const core::codec::CodecRuntime rt(params, core::Scheme::kEncrHuffman, key_,
                                     spec_);
  crypto::CtrDrbg drbg(f.iv_seed);
  const double k0 = tr.now();
  const core::CompressResult cr =
      core::codec::encode_payload(rt.config(), f.values, f.dims, &drbg);
  const double k1 = tr.now();
  const core::DecompressResult kr =
      core::codec::decode_payload(rt.config(), cr.container);
  const double k2 = tr.now();
  const uint64_t core_span = tr.record("core.round_trip", capi_span, request,
                                       k0, k2, 1, f.raw().size(),
                                       cr.container.size());
  tr.record_stages(core_span, cr.times, kEncodeStages);
  tr.record_stages(core_span, kr.times, kDecodeStages);
  t.core_e_s += k1 - k0;
  t.core_d_s += k2 - k1;
  t.core_stage_s += tr.stage_sum(core_span);
  checked_glue(tr, core_span);
  if (first_out_of_bound(f.values, kr.f32, f.eb) >= 0) {
    run_.wrong("direct codec round trip outside the error bound");
  }

  const double capi_ms = tr.span(capi_span).busy_s() * 1e3;
  const double ctx_ms = (c1 - c0) * 1e3;
  capi_glue_ms_.push_back(capi_ms - ctx_ms);
  sansio_glue_ms_.push_back(ctx_ms - (k2 - k0) * 1e3);
}

void SmallFieldsBench::service_phase(bool traced, uint64_t round_id) {
  std::vector<std::vector<Job>> per_conn(kConnections);
  std::vector<std::vector<JobError>> errors(kConnections);
  const auto serve = [&](size_t c) {
    service::ServiceClient& client = *clients_[c];
    for (size_t i = c; i < fields_.size(); i += kConnections) {
      const Field& f = fields_[i];
      service::JobRequest req;
      req.op = service::JobOp::kCompress;
      req.tenant = kTenants[c % 2];
      req.scheme = core::Scheme::kEncrHuffman;
      req.mode = spec_.mode;
      req.authenticate = spec_.authenticate;
      req.dtype = szsec::sz::DType::kFloat32;
      req.dims = f.dims;
      req.have_dims = true;
      req.error_bound = f.eb;
      req.chunks = 1;
      const BytesView raw = f.raw();
      req.payload.assign(raw.begin(), raw.end());
      Job cj{i, true, 0, kInf, {}};
      Job dj{i, false, 0, kInf, {}};
      try {
        cj.start_s = now_s();
        service::JobResponse resp = client.submit(req);
        const double t1 = now_s();
        if (!resp.ok()) {
          errors[c].push_back({false, std::string("compress job: ") +
                                          service::to_string(resp.status) +
                                          " " + resp.detail});
        } else {
          cj.ms = (t1 - cj.start_s) * 1e3;
          cj.archive = resp.payload;
          service::JobRequest dreq;
          dreq.op = service::JobOp::kDecompress;
          dreq.tenant = req.tenant;
          dreq.key_id = resp.key_id;
          dreq.payload = std::move(resp.payload);
          dj.start_s = now_s();
          const service::JobResponse dresp = client.submit(dreq);
          const double t3 = now_s();
          dj.archive = cj.archive;
          if (!dresp.ok()) {
            errors[c].push_back({false, std::string("decompress job: ") +
                                            service::to_string(dresp.status) +
                                            " " + dresp.detail});
          } else if (first_out_of_bound(f.values, as_floats(dresp.payload),
                                        f.eb) >= 0) {
            errors[c].push_back({true, "service output outside the bound"});
          } else {
            dj.ms = (t3 - dj.start_s) * 1e3;
          }
        }
      } catch (const std::exception& e) {
        errors[c].push_back({false, std::string("service: ") + e.what()});
      }
      if (cj.ms == kInf) {
        // The decompress job never ran: it failed with its compress job.
        errors[c].push_back({false, "decompress job skipped"});
      }
      per_conn[c].push_back(std::move(cj));
      per_conn[c].push_back(std::move(dj));
    }
  };
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) threads.emplace_back(serve, c);
  for (std::thread& t : threads) t.join();
  svc_s_ = now_s() - t0;

  std::vector<Job> jobs;
  for (size_t c = 0; c < kConnections; ++c) {
    for (const JobError& e : errors[c]) {
      if (e.wrong_output) {
        run_.wrong(e.what);
      } else {
        run_.error(e.what);
      }
    }
    for (Job& j : per_conn[c]) jobs.push_back(std::move(j));
  }
  run_.attempted += jobs.size();
  if (!traced) {
    size_t done = 0;
    for (const Job& j : jobs) {
      round_.job_ms.push_back(j.ms);
      done += j.ms < kInf;
    }
    round_.jobs_per_s = static_cast<double>(done) / svc_s_;
    return;
  }
  Tracer& tr = run_.tracer;
  for (const Job& j : jobs) {
    if (j.ms < kInf) {
      tr.record(j.compress ? "service.compress_job" : "service.decompress_job",
                0, round_id * 1000 + j.field, tr.at(j.start_s),
                tr.at(j.start_s) + j.ms / 1e3, 1,
                j.compress ? fields_[j.field].raw().size() : j.archive.size(),
                j.compress ? j.archive.size() : fields_[j.field].raw().size());
    }
  }
  last_jobs_ = std::move(jobs);
}

void SmallFieldsBench::service_ladder(const std::vector<Job>& jobs,
                                      uint64_t round_id) {
  Tracer& tr = run_.tracer;
  service::ServiceClient& client = *clients_[0];
  archive::ChunkedConfig cfg;  // the daemon's job configuration
  cfg.threads = 1;
  cfg.chunks = 1;
  cfg.max_in_flight = 2;  // the daemon's 0, resolved for one thread
  for (const Job& j : jobs) {
    if (!(j.ms < kInf)) continue;
    const Field& f = fields_[j.field];
    const std::string tenant = kTenants[(j.field % kConnections) % 2];
    const Bytes key = ladder_keys_.derive_data_key(tenant, 0, 16).value().key;
    const Bytes& archive_bytes = j.archive;
    const size_t payload = j.compress ? f.raw().size() : archive_bytes.size();

    const Bytes echo(payload, 0x5A);
    const double p0 = tr.now();
    const service::JobResponse pong = client.ping(echo);
    const double p1 = tr.now();
    if (!pong.ok() || pong.payload != echo) run_.wrong("ping echo differs");

    szsec::sz::Params params;
    params.abs_error_bound = f.eb;
    const double k0 = tr.now();
    if (j.compress) {
      crypto::CtrDrbg drbg(f.iv_seed);
      archive::compress_chunked(std::span<const float>(f.values), f.dims,
                                params, core::Scheme::kEncrHuffman, key,
                                spec_, cfg, &drbg);
    } else {
      const std::vector<float> out =
          archive::decompress_chunked_f32(archive_bytes, key, cfg);
      if (first_out_of_bound(f.values, out, f.eb) >= 0) {
        run_.wrong("direct archive decode outside the error bound");
      }
    }
    const double k1 = tr.now();
    const uint64_t request = round_id * 1000 + j.field;
    tr.record("service.ping", 0, request, p0, p1, 1, payload, payload);
    tr.record(j.compress ? "archive.compress_chunked"
                         : "archive.decompress_chunked",
              0, request, k0, k1);
    const double ping = (p1 - p0) * 1e3, codec = (k1 - k0) * 1e3;
    ping_ms_.push_back(ping);
    codec_ms_.push_back(codec);
    queue_ms_.push_back(j.ms - ping - codec);
  }
}

double SmallFieldsBench::setup(bool keep) {
  const double t0 = now_s();
  start_service();
  capi_phase(false, 0);
  service_phase(false, 0);
  const double elapsed = now_s() - t0;
  if (!keep) stop_service();
  // Set-up passes are warm-up: their samples are not measurements.
  round_ = RoundSample{};
  return elapsed;
}

void SmallFieldsBench::report_untraced() {
  Report& rep = run_.report;
  double raw = 0;
  for (const Field& f : fields_) raw += static_cast<double>(f.raw().size());
  std::vector<double> steal;
  for (const RoundSample& s : rounds_) steal.push_back(s.steal_share);
  const std::vector<size_t> keep = quiet_rounds(steal);
  std::vector<double> c_mbps, d_mbps, field_ms, job_ms, jobs_per_s;
  for (const size_t i : keep) {
    const RoundSample& s = rounds_[i];
    c_mbps.push_back(s.c_mbps);
    d_mbps.push_back(s.d_mbps);
    field_ms.insert(field_ms.end(), s.field_ms.begin(), s.field_ms.end());
    job_ms.insert(job_ms.end(), s.job_ms.begin(), s.job_ms.end());
    jobs_per_s.push_back(s.jobs_per_s);
  }
  rep.set("compress_mbps", median(c_mbps));
  rep.set("decompress_mbps", median(d_mbps));
  rep.set("ratio", container_bytes_ == 0
                       ? 0.0
                       : raw / static_cast<double>(container_bytes_));
  rep.set("req_p50_ms", block_percentile(job_ms, 50));
  rep.set("req_per_s", median(jobs_per_s));
  rep.set("setup_s", median(setup_s_));
  rep.meta("samples", "{\"rounds\": " + std::to_string(rounds_.size()) +
                          ", \"quiet_rounds\": " +
                          std::to_string(keep.size()) +
                          ", \"passes\": " + std::to_string(c_mbps.size()) +
                          ", \"req\": " + std::to_string(job_ms.size()) +
                          ", \"field\": " + std::to_string(field_ms.size()) +
                          ", \"setups\": " + std::to_string(setup_s_.size()) +
                          "}");
  rep.meta("steal_share", json_list(steal));
  rep.meta("req_p90_ms", block_percentile(job_ms, 90));
  rep.meta("req_pooled_p90_ms", percentile(job_ms, 90));
  rep.meta("field_p50_ms", block_percentile(field_ms, 50));
  rep.meta("field_p90_ms", block_percentile(field_ms, 90));
  rep.meta("small_fields_mib", raw / (1 << 20));
}

void SmallFieldsBench::report_traced() {
  Report& rep = run_.report;
  const auto med_stage = [this](size_t dir, size_t s) {
    std::vector<double> v;
    for (const TracedRound& t : traced_) v.push_back(t.stage[dir][s]);
    return median(v);
  };
  const auto med = [this](double TracedRound::*f, double scale) {
    std::vector<double> v;
    for (const TracedRound& t : traced_) v.push_back(t.*f * scale);
    return median(v);
  };
  if (traced_.empty()) throw std::runtime_error("no traced round finished");
  const TracedRound& first = traced_.front();
  rep.set("sz.predict_quantize_s", med_stage(0, 0));
  rep.set("sz.reconstruct_s", med_stage(1, 0));
  rep.set("sz.predictable_frac", first.predictable / first.elements);
  rep.set("huffman.encode_s", med_stage(0, 1));
  rep.set("huffman.decode_s", med_stage(1, 1));
  rep.set("crypto.encrypt_s", med_stage(0, 2));
  rep.set("crypto.decrypt_s", med_stage(1, 2));
  rep.set("zlite.deflate_s", med_stage(0, 3));
  rep.set("zlite.inflate_s", med_stage(1, 3));
  rep.set("zlite.gain", first.lossless_in / first.lossless_out);
  rep.set("crypto.bytes", first.encrypted);
  rep.set("core.encode_ms", med(&TracedRound::core_e_s, 1e3));
  rep.set("core.decode_ms", med(&TracedRound::core_d_s, 1e3));
  double stages = 0, core_s = 0;
  for (const TracedRound& t : traced_) {
    stages += t.core_stage_s;
    core_s += t.core_e_s + t.core_d_s;
  }
  rep.set("core.stage_cover", stages / core_s);
  std::vector<double> wchar, syscw, syscr;
  for (const TracedRound& t : traced_) {
    wchar.push_back(static_cast<double>(t.io.wchar) /
                    static_cast<double>(t.container_bytes));
    syscw.push_back(static_cast<double>(t.io.syscw));
    syscr.push_back(static_cast<double>(t.io.syscr));
  }
  rep.set("io.wchar_per_archive_byte", median(wchar));
  rep.set("io.syscw", median(syscw));
  rep.set("io.syscr", median(syscr));
  rep.set("sansio.glue_ms", median(sansio_glue_ms_));
  rep.set("capi.glue_ms", median(capi_glue_ms_));
  rep.set("service.ping_ms", median(ping_ms_));
  rep.set("service.codec_ms", median(codec_ms_));
  rep.set("service.queue_ms", median(queue_ms_));
  rep.set("service.rejected",
          static_cast<double>(daemon_->stats().jobs_rejected));
  rep.set("trace.overhead_frac",
          median(e2e_traced_s_) / median(e2e_untraced_s_) - 1);
  for (const char* name :
       {"parallel.busy_frac_c", "parallel.busy_frac_d", "archive.glue_c_s",
        "archive.glue_d_s", "archive.roi_chunks", "archive.roi_amplification",
        "archive.roi_bytes_read", "archive.open_ms"}) {
    rep.set(name, 0);  // layers this workload does not drive
  }
  rep.meta("traced_rounds", static_cast<double>(traced_.size()));
  rep.meta("ladder_jobs", static_cast<double>(ping_ms_.size()));
}

int SmallFieldsBench::main() {
  make_fields();
  run_.report.meta("rss_baseline_mib", peak_rss_mib());
  const size_t setups = run_.opt.trace ? 1 : kSetups;
  for (size_t i = 0; i < setups; ++i) {
    setup_s_.push_back(setup(i + 1 == setups));
  }
  const double t0 = now_s();
  size_t rounds = 0;
  // The quiet half of the rounds must still hold a p90's samples; a
  // traced run needs a traced round.
  while (run_.opt.trace
             ? run_.keep_going(t0, traced_.size(), 1)
             : run_.keep_going(t0, samples_, 2 * min_samples(90))) {
    const bool traced = run_.opt.trace && rounds % 2 == 1;
    const uint64_t round_id = rounds + 1;
    if (traced) {
      traced_.emplace_back();
      current_ = &traced_.back();
    }
    const CpuTicks cpu0 = cpu_ticks();
    capi_phase(traced, round_id);
    service_phase(traced, round_id);
    (traced ? e2e_traced_s_ : e2e_untraced_s_).push_back(capi_s_ + svc_s_);
    if (traced) {
      service_ladder(last_jobs_, round_id);
    } else {
      round_.steal_share = steal_share(cpu_ticks(), cpu0);
      rounds_.push_back(std::move(round_));
      round_ = RoundSample{};
      size_t fields = 0, jobs = 0;
      for (const RoundSample& s : rounds_) {
        fields += s.field_ms.size();
        jobs += s.job_ms.size();
      }
      samples_ = std::min(fields, jobs);
    }
    ++rounds;
  }
  run_.report.meta("measured_s", now_s() - t0);
  if (run_.opt.trace) {
    report_traced();
  } else {
    report_untraced();
  }
  stop_service();
  return 0;
}

}  // namespace

int run_small_fields(Run& run) {
  SmallFieldsBench bench(run);
  return bench.main();
}

}  // namespace perfbench
