// Table III: compression-time overhead of Cmpr-Encr relative to plain SZ
// (percent; >100 means slower than SZ).
//
// Paper reference: 100.0-105.9% everywhere — encryption of the full
// compressed stream costs a few percent, more at tight bounds where the
// stream is large (Nyx@1e-7 worst at 105.9%).
#include <cstdio>

#include "bench_util.h"

using namespace szsec;
using namespace szsec::bench;

int main() {
  std::printf("Table III: Time overhead for Cmpr-Encr when compressing (%%)\n");
  std::printf("(runs=%d)\n", bench_runs());
  print_table_header("Overhead vs original SZ (100% = equal)",
                     {"1e-7", "1e-6", "1e-5", "1e-4", "1e-3"}, 10, 10);
  for (const std::string& name : table_datasets()) {
    const data::Dataset& d = dataset(name);
    std::vector<double> row;
    for (double eb : error_bounds()) {
      row.push_back(overhead_percent(d, core::Scheme::kCmprEncr, eb));
    }
    print_row(name, row, 10, 10, 3);
  }
  std::printf(
      "\nExpected shape: always > 100%%; overhead shrinks as the error\n"
      "bound loosens (less compressed data to encrypt).\n");
  return 0;
}
