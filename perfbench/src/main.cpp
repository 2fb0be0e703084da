// perfbench: the end-to-end benchmark of szsec.
//
//   perfbench --workload <archive-hard|archive-easy|small-fields>
//             --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--spans <dir>]
//   perfbench --schema
//
// Makes the workload's inputs from the seed, sets the program up several
// times, then measures rounds of interleaved operations for --seconds
// (longer if a p90 still lacks its 100 samples) while checking every
// output.  It prints one metadata line and then, as the last line, the
// result: {"correct", "attempted", "failed", "metrics"} with every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
// The traced run also writes its spans to <spans>/<workload>-<seed>.json.
// Exit status: 0 when every output was correct, 1 when one was not, 2
// when the run could not be made.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"
#include "common/cpu.h"
#include "crypto/aes.h"
#include "probe.h"
#include "procio.h"
#include "sz/kernels.h"

namespace {

std::string g_spool_dir = ".";
std::atomic<uint64_t> g_spool_files{0};

}  // namespace

// The v3 encoder stages frames in an unlinked temporary file made by
// std::tmpfile().  glibc puts those in /tmp and ignores TMPDIR; this
// definition takes precedence at link time and makes them, just as
// unlinked, in the run's work directory, so a run writes only inside
// its own tree.  The count shows in the metadata as spool_files.
extern "C" FILE* tmpfile(void) {
  std::string path = g_spool_dir + "/spool.XXXXXX";
  const int fd = ::mkstemp(path.data());
  if (fd < 0) return nullptr;
  ::unlink(path.c_str());
  FILE* f = ::fdopen(fd, "w+b");
  if (f == nullptr) {
    ::close(fd);
    return nullptr;
  }
  g_spool_files.fetch_add(1, std::memory_order_relaxed);
  return f;
}

namespace perfbench {
namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> [--spans <dir>]\n"
               "       perfbench --schema\n",
               why);
  return 2;
}

std::string io_json(const IoCounters& c) {
  return "{\"rchar\": " + std::to_string(c.rchar) +
         ", \"wchar\": " + std::to_string(c.wchar) +
         ", \"syscr\": " + std::to_string(c.syscr) +
         ", \"syscw\": " + std::to_string(c.syscw) +
         ", \"read_bytes\": " + std::to_string(c.read_bytes) +
         ", \"write_bytes\": " + std::to_string(c.write_bytes) + "}";
}

std::string probe_json(const ProbeResult& p) {
  return "{\"alu_ms\": " + json_number(p.alu_ms) +
         ", \"mem_ms\": " + json_number(p.mem_ms) + "}";
}

int run_main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--schema") {
      std::cout << schema_json() << "\n";
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::stoull(v);
    } else if (a == "--seconds") {
      opt.seconds = std::stod(v);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--workdir") {
      opt.workdir = v;
    } else if (a == "--spans") {
      opt.spans_dir = v;
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }
  if (!have_workload || opt.workdir.empty()) return usage("missing option");
  bool known = false;
  for (const std::string& w : workload_names()) known |= w == opt.workload;
  if (!known) return usage(("unknown workload " + opt.workload).c_str());
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  // Timings are only comparable at full dispatch.
  const char* features = std::getenv("SZSEC_CPU_FEATURES");
  if (features != nullptr && *features != '\0' &&
      std::string(features) != "auto" && std::string(features) != "all") {
    std::fprintf(stderr,
                 "perfbench: SZSEC_CPU_FEATURES=%s restricts kernel dispatch; "
                 "unset it to benchmark\n",
                 features);
    return 2;
  }

  // The work directory is this run's own: made here, removed at the end.
  if (std::filesystem::exists(opt.workdir)) {
    return usage("--workdir must not exist yet");
  }
  std::filesystem::create_directories(opt.workdir);
  g_spool_dir = opt.workdir;

  Run run;
  run.opt = opt;
  const double wall0 = now_s();
  const IoCounters io0 = read_proc_io();
  const ProbeResult probe0 = host_probe();

  const int rc = opt.workload == "small-fields" ? run_small_fields(run)
                                                : run_archive(run);
  if (rc != 0) return rc;

  const double peak_rss = peak_rss_mib();
  const ProbeResult probe1 = host_probe();
  const IoCounters io1 = read_proc_io();

  Report& rep = run.report;
  if (!opt.trace) {
    rep.set("ok_frac", run.attempted == 0
                           ? 0.0
                           : 1.0 - static_cast<double>(run.failed) /
                                       static_cast<double>(run.attempted));
    rep.set("peak_rss_mb", peak_rss);
  }
  rep.meta("workload", json_string(opt.workload));
  rep.meta("seed", static_cast<double>(opt.seed));
  rep.meta("trace", opt.trace ? "true" : "false");
  rep.meta("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  rep.meta("wall_s", now_s() - wall0);
  const szsec::Bytes probe_key(16, 0);
  rep.meta("aes_backend",
           json_string(szsec::crypto::Aes(probe_key).backend_name()));
  rep.meta("sz_backend", json_string(szsec::sz::kernels::active_backend()));
  rep.meta("cpu_features",
           json_string(szsec::cpu::feature_string(
               szsec::cpu::enabled_features())));
  rep.meta("probe_start", probe_json(probe0));
  rep.meta("probe_end", probe_json(probe1));
  rep.meta("io_run", io_json(delta(io1, io0)));
  rep.meta("spool_files", static_cast<double>(g_spool_files.load()));
  rep.meta("peak_rss_mib", peak_rss);
  std::string notes = "[";
  for (size_t i = 0; i < run.notes.size(); ++i) {
    notes += (i ? ", " : "") + json_string(run.notes[i]);
  }
  rep.meta("failures", notes + "]");

  if (opt.trace) {
    const std::string dir = opt.spans_dir.empty() ? "." : opt.spans_dir;
    std::filesystem::create_directories(dir);
    const std::string path =
        dir + "/" + opt.workload + "-" + std::to_string(opt.seed) + ".json";
    run.tracer.write_json(path, "\"workload\": " + json_string(opt.workload) +
                                    ", \"seed\": " +
                                    std::to_string(opt.seed));
    rep.meta("span_file", json_string(path));
  }

  std::cout << "meta " << rep.meta_json() << "\n"
            << rep.result_json(opt.trace ? Kind::kPerLayer : Kind::kEndToEnd,
                               run.correct, run.attempted, run.failed)
            << std::endl;
  std::error_code ec;
  std::filesystem::remove_all(opt.workdir, ec);
  return run.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
