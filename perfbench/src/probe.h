// Host probe: a fixed ALU loop and a fixed memory-streaming loop, timed
// at the start and the end of a run.  When a run is slow and the probe
// is slow too, the machine was slow; when only the run is slow, the code
// was.  The probe runs in a forked child so its 128 MiB buffer never
// shows in the run's peak RSS; call it only while the process has a
// single thread.
#pragma once

namespace perfbench {

struct ProbeResult {
  double alu_ms = 0;  ///< 2^26 dependent xorshift steps
  double mem_ms = 0;  ///< two read passes over 128 MiB
};

/// Throws std::runtime_error when the child cannot be run.
ProbeResult host_probe();

}  // namespace perfbench
