// Fig 13: gradient copy & synchronization overhead of the EST abstraction.
// EasyScale runs 8 ESTs on one GPU (ESTs 0-6 copy gradients out, EST 7
// additionally triggers the virtual-rank ring all-reduce); DDP runs 8
// one-EST workers.  Reported: per-mini-batch time normalized to DDP, plus
// the gradient bytes each EST swaps per step.
#include <cstdio>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "parallel/trainer.hpp"
#include "models/datasets.hpp"

namespace {

using namespace easyscale;

constexpr std::int64_t kSteps = 10;
constexpr std::int64_t kEsts = 8;

}  // namespace

int main() {
  bench::banner("Fig 13",
                "per-mini-batch time of 8 ESTs on 1 GPU vs DDP on 8 GPUs "
                "(normalized to DDP)");
  std::printf("%-18s %12s %12s %10s %14s\n", "workload", "ddp_ms/mb",
              "est_ms/mb", "ratio", "grad_KB/EST");
  for (const auto& name : models::workload_names()) {
    auto wd = models::make_dataset_for(name, 256, 32, 42);

    parallel::TrainerConfig dcfg;
    dcfg.workload = name;
    dcfg.world_size = kEsts;
    dcfg.batch_per_worker = 2;
    parallel::Trainer ddp(dcfg, *wd.train, wd.augment);
    ddp.run_steps(2);
    const double ddp_s = bench::time_seconds([&] { ddp.run_steps(kSteps); });

    core::EasyScaleConfig ecfg;
    ecfg.workload = name;
    ecfg.num_ests = kEsts;
    ecfg.batch_per_est = 2;
    core::EasyScaleEngine engine(ecfg, *wd.train, wd.augment);
    engine.configure_workers({core::WorkerSpec{}});
    engine.run_steps(2);
    const auto swapped_before = engine.switch_stats().gradient_bytes_swapped;
    const double est_s = bench::time_seconds([&] { engine.run_steps(kSteps); });
    const auto grad_bytes =
        (engine.switch_stats().gradient_bytes_swapped - swapped_before) /
        (kSteps * kEsts);

    const double ddp_mb = 1000.0 * ddp_s / static_cast<double>(kSteps * kEsts);
    const double est_mb = 1000.0 * est_s / static_cast<double>(kSteps * kEsts);
    std::printf("%-18s %12.2f %12.2f %9.2fx %14.1f\n", name.c_str(), ddp_mb,
                est_mb, est_mb / ddp_mb,
                static_cast<double>(grad_bytes) / 1024.0);
  }
  bench::note(
      "expected: ratio ~<= 1 (paper: EasyScale superior or competitive — "
      "gradient copies overlap with compute on real GPUs; serial CPU "
      "execution makes the copy visible here).");
  return 0;
}
