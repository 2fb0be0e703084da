// Table IV: compression-time overhead of Encr-Quant relative to plain SZ.
//
// Paper reference: 100.1-133.5%.  Worst on easy-to-compress datasets
// (QI up to 133%, CLOUDf48 to 123%) whose large encrypted codeword
// arrays also slow the subsequent lossless pass; cheapest on Nyx (~104%)
// where little data is predictable.
//
// The first table is the paper's pipeline (stage 4 always deflates at
// kDefault).  The second runs both sides at zlite::Level::kAuto, the
// library default, which stores payloads deflate cannot shrink (the
// Encr-Quant ciphertext among them); the third gives what that costs in
// Encr-Quant compression ratio.
#include <cstdio>

#include "bench_util.h"

using namespace szsec;
using namespace szsec::bench;

namespace {

// One row per dataset, one column per error bound.
template <typename Cell>
void print_sweep(const char* title, Cell cell) {
  print_table_header(title, {"1e-7", "1e-6", "1e-5", "1e-4", "1e-3"}, 10,
                     10);
  for (const std::string& name : table_datasets()) {
    const data::Dataset& d = dataset(name);
    std::vector<double> row;
    for (double eb : error_bounds()) row.push_back(cell(d, eb));
    print_row(name, row, 10, 10, 3);
  }
}

double encr_quant_ratio(const data::Dataset& d, double eb,
                        zlite::Level level) {
  const core::SecureCompressor c = make_compressor(
      core::Scheme::kEncrQuant, eb, crypto::Mode::kCbc, 65536, level);
  return c.compress(std::span<const float>(d.values), d.dims)
      .stats.compression_ratio();
}

}  // namespace

int main() {
  std::printf("Table IV: Time overhead for Encr-Quant when compressing (%%)\n");
  std::printf("(runs=%d)\n", bench_runs());
  print_sweep("Overhead vs original SZ (100% = equal)",
              [](const data::Dataset& d, double eb) {
                return overhead_percent(d, core::Scheme::kEncrQuant, eb);
              });
  std::printf(
      "\nExpected shape: larger overhead than Cmpr-Encr on compressible\n"
      "datasets (QI, CLOUDf48); comparable or lower on Nyx.\n");

  print_sweep("Both sides at kAuto (100% = equal)",
              [](const data::Dataset& d, double eb) {
                return overhead_percent(d, core::Scheme::kEncrQuant, eb,
                                        zlite::Level::kAuto);
              });
  print_sweep("Encr-Quant CR at kAuto vs kDefault (%)",
              [](const data::Dataset& d, double eb) {
                return 100.0 * encr_quant_ratio(d, eb, zlite::Level::kAuto) /
                       encr_quant_ratio(d, eb, zlite::Level::kDefault);
              });
  std::printf(
      "\nExpected shape: well below 100%% where plain SZ's payload still\n"
      "deflates and Encr-Quant's ciphertext is stored (CLOUDf48, QI); near\n"
      "or above 100%% where both sides store, as encryption is then the\n"
      "only difference.  CR a few percent lower where kDefault shrank the\n"
      "side info and unpredictable values a little.\n");
  return 0;
}
