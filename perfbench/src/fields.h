// Seeded synthetic fields for the workloads.
//
// The recipes are those of data::make_nyx and data::make_cloudf48, built
// from the same primitives (data::smooth_noise, data::white_noise), but
// every noise array is seeded from the workload seed instead of the
// datasets' fixed constants, so each benchmark seed is a new draw of the
// same statistical regime.
#pragma once

#include <cstdint>
#include <vector>

#include "common/dims.h"

namespace perfbench {

/// A 64-bit seed derived from (seed, salt) by a SplitMix64 step; distinct
/// salts give independent-looking streams.
uint64_t mix_seed(uint64_t seed, uint64_t salt);

/// Nyx-like dark-matter density: log-normal clustering times
/// multiplicative white noise (hard to compress).
std::vector<float> nyx_like(const szsec::Dims& dims, uint64_t seed);

/// CLOUDf48-like moisture: sparse smooth plumes over exact zeros (easy).
std::vector<float> cloud_like(const szsec::Dims& dims, uint64_t seed);

}  // namespace perfbench
