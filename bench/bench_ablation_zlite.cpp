// Ablation: lossless-stage effort (stored / greedy / lazy, and auto,
// which picks stored or lazy per payload from its byte histogram) for
// plain SZ and Encr-Huffman.  The Encr-Huffman "faster than SZ" effect
// of Table V lives in this stage: encrypting the tree removes
// compressible bytes from the match search.
#include <cstdio>

#include "bench_util.h"

using namespace szsec;
using namespace szsec::bench;

int main() {
  std::printf("Ablation: lossless effort level (runs=%d)\n", bench_runs());
  const double eb = 1e-5;
  const char* level_names[] = {"stored", "greedy", "lazy", "auto"};
  for (const std::string& name : {"CLOUDf48", "Q2"}) {
    const data::Dataset& d = dataset(name);
    std::printf("\n=== %s @ eb=%.0e ===\n", name.c_str(), eb);
    std::printf("%-14s %-8s %12s %12s %14s\n", "scheme", "level", "CR",
                "MB/s", "lossless s");
    for (core::Scheme scheme :
         {core::Scheme::kNone, core::Scheme::kEncrHuffman}) {
      for (zlite::Level level : {zlite::Level::kStored, zlite::Level::kFast,
                                 zlite::Level::kDefault, zlite::Level::kAuto}) {
        const core::SecureCompressor c = make_compressor(
            scheme, eb, crypto::Mode::kCbc, 65536, level);
        Measurement m;
        m.raw_bytes = d.bytes();
        core::CompressResult last;
        for (int r = 0; r < bench_runs(); ++r) {
          CpuTimer t;
          last = c.compress(std::span<const float>(d.values), d.dims);
          m.compress_seconds += t.elapsed_s();
        }
        m.compress_seconds /= bench_runs();
        std::printf("%-14s %-8s %12.3f %12.2f %14.4f\n",
                    core::scheme_name(scheme),
                    level_names[static_cast<int>(level)],
                    last.stats.compression_ratio(), m.compress_mbps(),
                    last.times.get("lossless"));
      }
    }
  }
  std::printf(
      "\nExpected: the lossless stage is a large share of total time at\n"
      "lazy effort; Encr-Huffman's lossless time never exceeds SZ's at\n"
      "the same level.\n");
  return 0;
}
