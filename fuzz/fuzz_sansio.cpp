// libFuzzer harness for the sans-io Context: fuzzer bytes choose the
// direction, container, strict or salvage decode, an optional input
// mutation, and the feed/pull schedule; see src/testing/replay.cpp for
// the shared body and its oracle.
#include <cstddef>
#include <cstdint>

#include "testing/replay.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  szsec::testing::replay_sansio(szsec::BytesView(data, size));
  return 0;
}
