// Absolute bit pins for the attention models.  Every other Bert/Electra
// check compares two runs of the same build, so a change that moves the
// bits of MultiheadSelfAttention, GELU or LayerNorm identically in both
// runs passes them; these pins fail instead.  Each test trains a fixed-seed
// model for three steps and pins params_digest().  The bits are invariant
// under EASYSCALE_THREADS and EASYSCALE_SIMD like every digest the suite
// pins, so the same constants hold on every backend and thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace easyscale {
namespace {

/// Three engine steps of `workload`: 4 ESTs on 2 workers.  D1 runs on two
/// V100s; D2 runs on a V100 and a T4, which it must make invisible.
std::uint64_t engine_digest(const std::string& workload, bool d2) {
  auto wd = models::make_dataset_for(workload, 128, 16, 42);
  core::EasyScaleConfig cfg;
  cfg.workload = workload;
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  cfg.determinism.d2 = d2;
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  std::vector<core::WorkerSpec> workers(2);
  if (d2) workers[1].device = kernels::DeviceType::kT4;
  engine.configure_workers(workers);
  engine.run_steps(3);
  return engine.params_digest();
}

TEST(TransformerGolden, BertD1) {
  EXPECT_EQ(engine_digest("Bert", false), 0x0c42ced4ff60870aull);
}

TEST(TransformerGolden, BertD2) {
  EXPECT_EQ(engine_digest("Bert", true), 0x9246b35d562a4015ull);
}

TEST(TransformerGolden, ElectraD1) {
  EXPECT_EQ(engine_digest("Electra", false), 0xe7be0db9fd5894a6ull);
}

TEST(TransformerGolden, ElectraD2) {
  EXPECT_EQ(engine_digest("Electra", true), 0xa300f8054de55f3dull);
}

TEST(TransformerGolden, SwinD1) {
  EXPECT_EQ(engine_digest("SwinTransformer", false), 0x490091f57423d074ull);
}

TEST(TransformerGolden, SwinD2) {
  EXPECT_EQ(engine_digest("SwinTransformer", true), 0x731eb757ff580938ull);
}

// Four workers with one sample stream each are the four ESTs of ElectraD1,
// so the ZeRO-1 trainer pins the same bits: EasyScale is DDP.
TEST(TransformerGolden, ElectraTrainerShardDegree2) {
  auto wd = models::make_dataset_for("Electra", 128, 16, 42);
  parallel::TrainerConfig cfg;
  cfg.workload = "Electra";
  cfg.world_size = 4;
  cfg.batch_per_worker = 4;
  cfg.seed = 42;
  cfg.shard_degree = 2;
  parallel::Trainer trainer(cfg, *wd.train, wd.augment);
  trainer.run_steps(3);
  EXPECT_EQ(trainer.params_digest(), 0xe7be0db9fd5894a6ull);
}

}  // namespace
}  // namespace easyscale
