// DDP baseline behaviour: reproducible at a fixed DoP, bitwise-different
// across DoPs — the gap EasyScale closes.
#include <gtest/gtest.h>

#include "parallel/trainer.hpp"
#include "models/datasets.hpp"

namespace easyscale::parallel {
namespace {

TrainerConfig config(std::int64_t world, std::int64_t batch = 4) {
  TrainerConfig cfg;
  cfg.workload = "ResNet18";
  cfg.world_size = world;
  cfg.batch_per_worker = batch;
  cfg.seed = 42;
  return cfg;
}

std::uint64_t digest_after(const TrainerConfig& cfg, std::int64_t steps) {
  auto wd = models::make_dataset_for(cfg.workload, 128, 16, cfg.seed);
  Trainer trainer(cfg, *wd.train, wd.augment);
  trainer.run_steps(steps);
  return trainer.params_digest();
}

TEST(DDP, ReproducibleAtFixedDoP) {
  EXPECT_EQ(digest_after(config(4), 5), digest_after(config(4), 5));
  EXPECT_EQ(digest_after(config(2), 5), digest_after(config(2), 5));
}

TEST(DDP, DifferentDoPDivergesBitwise) {
  // Same global batch (16): 4x4 vs 2x8 — still different bits, the §2.2
  // motivation for EasyScale.
  EXPECT_NE(digest_after(config(4, 4), 5), digest_after(config(2, 8), 5));
}

TEST(DDP, SeedChangesResult) {
  auto cfg = config(4);
  const auto a = digest_after(cfg, 3);
  cfg.seed = 43;
  EXPECT_NE(a, digest_after(cfg, 3));
}

TEST(DDP, BucketRebuildHappensAfterFirstStep) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  Trainer trainer(config(4), *wd.train, wd.augment);
  const auto initial = trainer.current_layout();
  trainer.run_steps(1);
  const auto rebuilt = trainer.current_layout();
  EXPECT_NE(initial, rebuilt) << "ResNet ready order must differ from "
                                 "reverse registration order";
  trainer.run_steps(1);
  EXPECT_EQ(trainer.current_layout(), rebuilt) << "rebuild happens once";
}

TEST(DDP, OutOfRangeRanksThrow) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  Trainer trainer(config(2), *wd.train, wd.augment);
  EXPECT_THROW((void)trainer.model(2), Error);
  EXPECT_THROW((void)trainer.model(-1), Error);
  EXPECT_THROW((void)trainer.scheduler(2), Error);
  EXPECT_THROW((void)trainer.scheduler(-1), Error);
  EXPECT_THROW(trainer.set_post_op_hook(2, nullptr), Error);
  EXPECT_NO_THROW((void)trainer.model(1));
  EXPECT_NO_THROW((void)trainer.scheduler(1));
}

TEST(DDP, DisablingRebuildKeepsInitialLayout) {
  auto cfg = config(4);
  cfg.rebuild_buckets = false;
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  Trainer trainer(cfg, *wd.train, wd.augment);
  const auto initial = trainer.current_layout();
  trainer.run_steps(2);
  EXPECT_EQ(trainer.current_layout(), initial);
}

TEST(DDP, RebuildAffectsTrainingBits) {
  auto with = config(4);
  auto without = config(4);
  without.rebuild_buckets = false;
  EXPECT_NE(digest_after(with, 5), digest_after(without, 5));
}

TEST(DDP, HeterogeneousKernelPolicyChangesBits) {
  auto homo = config(4);
  auto heter = config(4);
  heter.policy = kernels::KernelPolicy::kHardwareAgnostic;
  EXPECT_NE(digest_after(homo, 3), digest_after(heter, 3));
}

TEST(DDP, MixedDevicesDivergeWithoutD2) {
  auto mixed = config(4);
  mixed.devices = {kernels::DeviceType::kV100, kernels::DeviceType::kV100,
                   kernels::DeviceType::kP100, kernels::DeviceType::kT4};
  EXPECT_NE(digest_after(config(4), 3), digest_after(mixed, 3));
  // ... but with hardware-agnostic kernels the mix does not matter.
  auto mixed_d2 = mixed;
  mixed_d2.policy = kernels::KernelPolicy::kHardwareAgnostic;
  auto homo_d2 = config(4);
  homo_d2.policy = kernels::KernelPolicy::kHardwareAgnostic;
  EXPECT_EQ(digest_after(homo_d2, 3), digest_after(mixed_d2, 3));
}

TEST(DDP, LossHistoryLengthTracksSteps) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  Trainer trainer(config(2), *wd.train, wd.augment);
  trainer.run_steps(7);
  EXPECT_EQ(trainer.loss_history().size(), 7u);
  EXPECT_EQ(trainer.global_step(), 7);
}

TEST(DDP, ParallelRanksAreBitwiseIdenticalToSequential) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  Trainer seq(config(4), *wd.train, wd.augment);
  seq.run_steps(4);
  auto pcfg = config(4);
  pcfg.parallel_workers = true;
  Trainer par(pcfg, *wd.train, wd.augment);
  par.run_steps(4);
  EXPECT_EQ(seq.params_digest(), par.params_digest());
  for (std::size_t i = 0; i < seq.loss_history().size(); ++i) {
    EXPECT_EQ(seq.loss_history()[i], par.loss_history()[i]);
  }
}

TEST(DDP, EpochsApplyLRSchedule) {
  auto cfg = config(2);
  cfg.lr_step_epochs = 1;
  cfg.gamma = 0.1f;
  auto wd = models::make_dataset_for("ResNet18", 64, 16, 42);
  Trainer trainer(cfg, *wd.train, wd.augment);
  trainer.run_epochs(3);
  // After 3 epochs the schedule has applied epoch=2 -> lr = 0.1 * 0.1^2.
  EXPECT_EQ(trainer.scheduler().last_epoch(), 2);
}

TEST(DDP, ResilientCommCleanAndFaultedRunsMatchPlainBitwise) {
  const auto plain = digest_after(config(3), 5);

  // Clean resilient run: same bucketed ring routed through the fabric.
  auto clean_cfg = config(3);
  clean_cfg.resilient_comm = true;
  EXPECT_EQ(digest_after(clean_cfg, 5), plain);

  // Faulted resilient run: a dropped chunk and a hard stall mid-training
  // are absorbed by abort + re-execution — identical bits, extra attempts.
  auto faulted_cfg = config(3);
  faulted_cfg.resilient_comm = true;
  comm::CommFaultEvent drop;
  drop.kind = comm::LinkFaultKind::kDropChunk;
  drop.collective = 1;
  drop.rank = 0;
  comm::CommFaultEvent stall;
  stall.kind = comm::LinkFaultKind::kStallLink;
  stall.collective = 3;
  stall.rank = 2;
  stall.stall_s = 5.0;  // beyond recv_deadline_s: forces a retry
  faulted_cfg.comm_faults = {drop, stall};
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  Trainer trainer(faulted_cfg, *wd.train, wd.augment);
  trainer.run_steps(5);
  EXPECT_EQ(trainer.params_digest(), plain);
  EXPECT_GT(trainer.transport_stats().drops, 0);
  EXPECT_GT(trainer.transport_stats().timeouts, 0);
}

TEST(DDP, ResilientCommRankDeathThrows) {
  auto cfg = config(3);
  cfg.resilient_comm = true;
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  Trainer trainer(cfg, *wd.train, wd.augment);
  trainer.run_steps(2);
  comm::CommFaultEvent death;
  death.kind = comm::LinkFaultKind::kRankDeath;
  death.rank = 1;
  trainer.inject_comm_fault(death);
  // DDP has no EST remapping: a dead rank's shard is gone, so the sync
  // layer must abort loudly rather than publish a partial average.
  EXPECT_THROW(trainer.run_steps(1), comm::RankDeathError);
}

}  // namespace
}  // namespace easyscale::parallel
