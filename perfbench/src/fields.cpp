#include "fields.h"

#include <cmath>

#include "data/fieldgen.h"

namespace perfbench {

uint64_t mix_seed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<float> nyx_like(const szsec::Dims& dims, uint64_t seed) {
  namespace data = szsec::data;
  const std::vector<float> coarse =
      data::smooth_noise(dims, mix_seed(seed, 1), 8);
  const std::vector<float> fine =
      data::smooth_noise(dims, mix_seed(seed, 2), 2);
  const std::vector<float> white = data::white_noise(dims, mix_seed(seed, 3));
  std::vector<float> v(dims.count());
  for (size_t i = 0; i < v.size(); ++i) {
    const double rho = std::exp(1.8 * coarse[i] + 0.7 * fine[i]);
    v[i] = static_cast<float>(rho * (1.0 + 0.25 * white[i]));
  }
  return v;
}

std::vector<float> cloud_like(const szsec::Dims& dims, uint64_t seed) {
  namespace data = szsec::data;
  const std::vector<float> s = data::smooth_noise(dims, mix_seed(seed, 1), 6);
  const std::vector<float> detail =
      data::smooth_noise(dims, mix_seed(seed, 2), 2);
  std::vector<float> v(dims.count());
  for (size_t i = 0; i < v.size(); ++i) {
    const float x = s[i] - 0.9f;
    v[i] = x <= 0 ? 0.0f : 1.5e-3f * x * x * (1.0f + 0.08f * detail[i]);
  }
  return v;
}

}  // namespace perfbench
