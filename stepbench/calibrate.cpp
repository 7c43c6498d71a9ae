// Host-speed calibration: a fixed vector multiply-add over an L1-resident
// buffer, built once per ISA level and dispatched at load time.
//
// The host's speed for vector code swings by up to 1.8x over minutes while
// scalar code barely moves (README, "Host noise"), which fits another
// guest's vector work on the sibling hardware thread.  This kernel slows
// with it, and it is the benchmark's own code: no change to src/ moves it.
#include "bench.hpp"

namespace easyscale::stepbench {

namespace {

constexpr int kCalibrationElems = 4096;  // 16 KiB of float: stays in L1
constexpr int kCalibrationPasses = 5000;

__attribute__((target_clones("avx512f", "avx2", "default"), noinline)) void
calibration_passes(float* y, const float* x, int n, int passes) {
  for (int p = 0; p < passes; ++p) {
    for (int i = 0; i < n; ++i) y[i] = y[i] * 0.999f + x[i];
  }
}

}  // namespace

double calibration_ms() {
  static std::vector<float> x(kCalibrationElems, 1.0f);
  std::vector<float> y(kCalibrationElems, 0.5f);
  const auto t0 = Clock::now();
  calibration_passes(y.data(), x.data(), kCalibrationElems,
                     kCalibrationPasses);
  const double ms = ms_between(t0, Clock::now());
  // Keep the result observable so the passes are not optimised away.
  volatile float sink = y[kCalibrationElems / 2];
  (void)sink;
  return ms;
}

}  // namespace easyscale::stepbench
