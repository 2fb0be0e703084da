// libFuzzer harness for the DEFLATE decoder: a differential against the
// reference inflater (equal bytes or an equal typed error) plus the
// inflate/deflate/inflate round-trip property; see
// src/testing/replay.cpp for the shared body.
#include <cstddef>
#include <cstdint>

#include "testing/replay.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  szsec::testing::replay_zlite(szsec::BytesView(data, size));
  return 0;
}
