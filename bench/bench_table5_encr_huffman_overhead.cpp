// Table V: compression-time overhead of Encr-Huffman relative to plain SZ.
//
// Paper reference: 89.6-99.5% — *below* 100% everywhere: encrypting only
// the small Huffman tree costs almost nothing, and the randomized tree
// bytes let the lossless pass skip futile match searching, saving up to
// 6.5% (best case Q2@1e-5 at 89.6%).
#include <cstdio>

#include "bench_util.h"

using namespace szsec;
using namespace szsec::bench;

int main() {
  std::printf(
      "Table V: Time overhead for Encr-Huffman when compressing (%%)\n");
  std::printf("(runs=%d)\n", bench_runs());
  print_table_header("Overhead vs original SZ (100% = equal)",
                     {"1e-7", "1e-6", "1e-5", "1e-4", "1e-3"}, 10, 10);
  double worst = 0;
  for (const std::string& name : table_datasets()) {
    const data::Dataset& d = dataset(name);
    std::vector<double> row;
    for (double eb : error_bounds()) {
      const double pct = overhead_percent(d, core::Scheme::kEncrHuffman, eb);
      row.push_back(pct);
      worst = std::max(worst, pct);
    }
    print_row(name, row, 10, 10, 3);
  }
  std::printf(
      "\nExpected shape: at or below ~100%% everywhere (paper: 89.6-99.5%%);"
      "\nworst observed cell here: %.3f%%\n",
      worst);
  return 0;
}
