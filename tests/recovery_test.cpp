// Peer-quorum-first recovery through the FaultSupervisor (the tentpole's
// integration layer) and the trainer-level snapshot/restore primitives.
//
// The keystone properties:
//  - a supervised run that recovers from peer snapshots any number of times
//    ends BITWISE equal to the undisturbed run (EasyScale's consistent-
//    accuracy claim extends to in-fabric recovery);
//  - peer recovery loses strictly fewer steps than disk-only recovery on
//    the same fault schedule (snapshots every step vs every N);
//  - parallel::Trainer round-trips through checkpoint_bytes at every shard
//    degree, including reshard-on-recover (snapshot at degree N, restore at
//    degree M, continue bitwise).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint_manager.hpp"
#include "core/engine.hpp"
#include "fault/injector.hpp"
#include "fault/supervisor.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"
#include "sim/recovery_model.hpp"
#include "trace/generators.hpp"

namespace easyscale::fault {
namespace {

using core::CheckpointManager;
using core::EasyScaleConfig;
using core::EasyScaleEngine;
using core::WorkerSpec;

std::string temp_prefix(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

EasyScaleConfig small_config() {
  EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  return cfg;
}

models::WorkloadData& shared_data() {
  static auto wd = models::make_dataset_for("NeuMF", 128, 16, 42);
  return wd;
}

std::uint64_t fault_free_digest(std::int64_t workers, std::int64_t steps) {
  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  engine.configure_workers(
      std::vector<WorkerSpec>(static_cast<std::size_t>(workers)));
  engine.run_steps(steps);
  return engine.params_digest();
}

FaultPlanConfig crash_plan(std::int64_t steps) {
  FaultPlanConfig pcfg;
  pcfg.seed = 0x9EEC;
  pcfg.horizon_steps = steps;
  pcfg.crash_rate = 0.15;
  return pcfg;
}

GoodputStats run_supervised(int peer_replicas, std::int64_t steps,
                            std::uint64_t* digest_out,
                            const FaultSupervisor** sup_out = nullptr) {
  static std::unique_ptr<FaultSupervisor> last_sup;  // keep alive for peek
  auto& wd = shared_data();
  static std::unique_ptr<EasyScaleEngine> engine;
  engine = std::make_unique<EasyScaleEngine>(small_config(), *wd.train,
                                             wd.augment);
  static std::unique_ptr<CheckpointManager> mgr;
  // Prefix on the test name: ctest runs each test as its own process, so a
  // shared prefix would let parallel tests clobber each other's files.
  const std::string prefix =
      std::string("recovery_sup_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  mgr = std::make_unique<CheckpointManager>(temp_prefix(prefix.c_str()), 3);
  mgr->clear();
  SupervisorConfig scfg;
  scfg.policy = RecoveryPolicy::kElasticScaleIn;
  scfg.checkpoint_every = 4;
  scfg.regrow_after_clean_steps = 0;  // keep worker counts comparable
  scfg.peer_replicas = peer_replicas;
  last_sup = std::make_unique<FaultSupervisor>(
      *engine, *mgr, FaultInjector::from_config(crash_plan(steps)), scfg);
  const auto stats = last_sup->run_to(steps, 4);
  if (digest_out != nullptr) *digest_out = engine->params_digest();
  if (sup_out != nullptr) *sup_out = last_sup.get();
  mgr->clear();
  return stats;
}

TEST(Recovery, PeerQuorumRecoveryIsBitwiseExact) {
  constexpr std::int64_t kSteps = 24;
  const std::uint64_t clean = fault_free_digest(4, kSteps);
  std::uint64_t digest = 0;
  const FaultSupervisor* sup = nullptr;
  const auto stats = run_supervised(/*peer_replicas=*/2, kSteps, &digest,
                                    &sup);
  ASSERT_FALSE(stats.failed);
  EXPECT_GT(stats.recoveries, 0) << "schedule must actually crash the job";
  EXPECT_GT(stats.peer_recoveries, 0)
      << "every recovery should be served from the peer quorum";
  EXPECT_EQ(stats.disk_recoveries, 0)
      << "with intact replicas the disk walk-back must not be touched";
  EXPECT_EQ(digest, clean)
      << "a peer-recovered run must end bitwise equal to the clean run";
  ASSERT_NE(sup, nullptr);
  ASSERT_NE(sup->peer_service(), nullptr);
  EXPECT_GT(sup->peer_service()->stats().epochs_committed, 0);
}

TEST(Recovery, PeerLosesStrictlyFewerStepsThanDiskOnly) {
  constexpr std::int64_t kSteps = 24;
  const auto disk_only = run_supervised(/*peer_replicas=*/0, kSteps, nullptr);
  const auto peered = run_supervised(/*peer_replicas=*/2, kSteps, nullptr);
  ASSERT_FALSE(disk_only.failed);
  ASSERT_FALSE(peered.failed);
  ASSERT_GT(disk_only.recoveries, 0);
  EXPECT_GT(disk_only.lost_steps, 0)
      << "disk cadence of 4 must lose mid-interval progress";
  EXPECT_LT(peered.lost_steps, disk_only.lost_steps)
      << "per-step peer snapshots must strictly beat the disk cadence";
  EXPECT_EQ(peered.lost_steps, 0)
      << "peer_snapshot_every=1 means a crash rolls back zero steps";
}

TEST(Recovery, DisabledPeerPipelineKeepsLegacyBehaviour) {
  constexpr std::int64_t kSteps = 16;
  const std::uint64_t clean = fault_free_digest(4, kSteps);
  std::uint64_t digest = 0;
  const FaultSupervisor* sup = nullptr;
  const auto stats = run_supervised(/*peer_replicas=*/0, kSteps, &digest,
                                    &sup);
  ASSERT_FALSE(stats.failed);
  EXPECT_EQ(stats.peer_snapshots, 0);
  EXPECT_EQ(stats.peer_recoveries, 0);
  EXPECT_EQ(stats.peer_wall_s, 0.0);
  EXPECT_EQ(sup->peer_service(), nullptr);
  EXPECT_EQ(digest, clean);
}

TEST(Recovery, WallClockBreakdownIncludesPeerStaging) {
  constexpr std::int64_t kSteps = 16;
  const auto stats = run_supervised(/*peer_replicas=*/2, kSteps, nullptr);
  ASSERT_FALSE(stats.failed);
  EXPECT_GT(stats.peer_wall_s, 0.0);
  // The wall model stays a partition: every charged second is attributed
  // to exactly one bucket (comm/witness are zero on this schedule).
  EXPECT_NEAR(stats.step_wall_s + stats.checkpoint_wall_s +
                  stats.recovery_wall_s + stats.reconfig_wall_s +
                  stats.peer_wall_s,
              stats.total_wall_s, 1e-9);
  // Replication time exists but is off the critical path by design.
  EXPECT_GT(stats.peer_background_s, 0.0);
  EXPECT_LT(stats.peer_background_s, stats.total_wall_s);
}

TEST(Recovery, ReplicaLossEventsDegradeToDiskFallback) {
  // A schedule that composes crashes with aggressive replica loss: the
  // peer path may lose quorum, but the run must still finish bitwise via
  // the disk fallback.
  constexpr std::int64_t kSteps = 24;
  const std::uint64_t clean = fault_free_digest(4, kSteps);
  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  CheckpointManager mgr(temp_prefix("recovery_replica_loss"), 3);
  mgr.clear();
  FaultPlanConfig pcfg = crash_plan(kSteps);
  pcfg.peer_replica_loss_rate = 0.8;
  SupervisorConfig scfg;
  scfg.policy = RecoveryPolicy::kElasticScaleIn;
  scfg.checkpoint_every = 4;
  scfg.peer_replicas = 1;
  scfg.peer_keep_epochs = 1;  // one committed epoch: losses bite harder
  FaultSupervisor sup(engine, mgr, FaultInjector::from_config(pcfg), scfg);
  const auto stats = sup.run_to(kSteps, 4);
  ASSERT_FALSE(stats.failed);
  EXPECT_GT(stats.peer_replicas_lost, 0) << "the loss events must land";
  EXPECT_EQ(engine.params_digest(), clean);
  mgr.clear();
}

TEST(Recovery, SdcDefenseComposesWithPeerRecovery) {
  constexpr std::int64_t kSteps = 16;
  const std::uint64_t clean = fault_free_digest(4, kSteps);
  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  CheckpointManager mgr(temp_prefix("recovery_sdc_peer"), 4);
  mgr.clear();
  FaultPlanConfig pcfg;
  pcfg.seed = 0x5DCE;
  pcfg.horizon_steps = kSteps;
  pcfg.sdc_bitflip_rate = 0.08;
  SupervisorConfig scfg;
  scfg.policy = RecoveryPolicy::kElasticScaleIn;
  scfg.checkpoint_every = 4;
  scfg.sdc_defense = true;
  scfg.witness_every = 1;
  scfg.peer_replicas = 2;
  FaultSupervisor sup(engine, mgr, FaultInjector::from_config(pcfg), scfg);
  const auto stats = sup.run_to(kSteps, 4);
  ASSERT_FALSE(stats.failed);
  EXPECT_GT(stats.sdc_detections, 0) << "the schedule must trigger the "
                                        "witness";
  // SDC recoveries restore through the peer quorum (witness-certified
  // epochs) and the run still ends bitwise clean on the survivors.
  EXPECT_GT(stats.peer_recoveries, 0);
  EXPECT_EQ(engine.params_digest(), clean);
  mgr.clear();
}

TEST(Recovery, GangRestartIsUnchangedByPeerKnob) {
  // The gang baseline keeps its semantics with the pipeline on: recoveries
  // still happen (served by whichever lattice level), the job still runs at
  // full strength, and the digest still matches the clean run.
  constexpr std::int64_t kSteps = 16;
  const std::uint64_t clean = fault_free_digest(4, kSteps);
  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  CheckpointManager mgr(temp_prefix("recovery_gang"), 3);
  mgr.clear();
  FaultPlanConfig pcfg = crash_plan(kSteps);
  pcfg.crash_rate = 0.08;
  SupervisorConfig scfg;
  scfg.policy = RecoveryPolicy::kGangRestart;
  scfg.checkpoint_every = 4;
  scfg.peer_replicas = 2;
  FaultSupervisor sup(engine, mgr, FaultInjector::from_config(pcfg), scfg);
  const auto stats = sup.run_to(kSteps, 4);
  if (!stats.failed) {
    EXPECT_EQ(sup.current_workers(), 4);
    EXPECT_EQ(engine.params_digest(), clean);
  }
  mgr.clear();
}

// --- Trainer byte-level snapshot/restore (the peer pipeline's payload) ---

parallel::TrainerConfig trainer_config(int shard_degree) {
  parallel::TrainerConfig cfg;
  cfg.workload = "ResNet18";
  cfg.world_size = 4;
  cfg.batch_per_worker = 4;
  cfg.seed = 42;
  cfg.shard_degree = shard_degree;
  return cfg;
}

models::WorkloadData& trainer_data() {
  static auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  return wd;
}

std::uint64_t trainer_clean_digest(int shard_degree, std::int64_t steps) {
  auto& wd = trainer_data();
  parallel::Trainer t(trainer_config(shard_degree), *wd.train, wd.augment);
  t.run_steps(steps);
  return t.params_digest();
}

TEST(Recovery, TrainerSnapshotRoundTripsAtEveryShardDegree) {
  auto& wd = trainer_data();
  for (const int degree : {1, 4}) {
    parallel::Trainer t(trainer_config(degree), *wd.train, wd.augment);
    t.run_steps(3);
    const auto snapshot = t.checkpoint_bytes();
    t.run_steps(5);  // diverge past the snapshot
    parallel::Trainer back(trainer_config(degree), *wd.train, wd.augment);
    back.restore_checkpoint_bytes(snapshot);
    back.run_steps(5);
    EXPECT_EQ(back.params_digest(), t.params_digest())
        << "degree " << degree;
  }
}

TEST(Recovery, TrainerSnapshotRestoresAcrossShardDegrees) {
  // Snapshot at degree 4, recover at degree 1 (and back): the canonical
  // image is degree-independent, so both continuations are bitwise equal to
  // the straight-through run.
  auto& wd = trainer_data();
  const std::uint64_t clean = trainer_clean_digest(1, 8);
  for (const auto& [save_deg, restore_deg] : {std::pair{4, 1},
                                              std::pair{1, 4}}) {
    parallel::Trainer saver(trainer_config(save_deg), *wd.train, wd.augment);
    saver.run_steps(4);
    const auto snapshot = saver.checkpoint_bytes();
    parallel::Trainer restorer(trainer_config(restore_deg), *wd.train,
                               wd.augment);
    restorer.restore_checkpoint_bytes(snapshot);
    restorer.run_steps(4);
    EXPECT_EQ(restorer.params_digest(), clean)
        << "save at degree " << save_deg << ", restore at " << restore_deg;
  }
}

TEST(Recovery, TrainerReshardOnRecoverIsBitwise) {
  // The mid-run reshard-on-recover shape: train sharded, snapshot, crash,
  // recover into a trainer that reshards to a smaller degree, continue —
  // the whole braid must land on the straight-through digest.
  auto& wd = trainer_data();
  const std::uint64_t clean = trainer_clean_digest(4, 8);
  parallel::Trainer t(trainer_config(4), *wd.train, wd.augment);
  t.run_steps(4);
  const auto snapshot = t.checkpoint_bytes();
  parallel::Trainer recovered(trainer_config(4), *wd.train, wd.augment);
  recovered.restore_checkpoint_bytes(snapshot);
  recovered.reshard(2);  // recover into a degraded shard degree ...
  recovered.run_steps(2);
  recovered.reshard(4);  // ... then re-grow mid-run
  recovered.run_steps(2);
  EXPECT_EQ(recovered.params_digest(), clean);
}

TEST(Recovery, TrainerSnapshotRejectsTornBytes) {
  auto& wd = trainer_data();
  parallel::Trainer t(trainer_config(1), *wd.train, wd.augment);
  t.run_steps(1);
  const auto snapshot = t.checkpoint_bytes();
  // A sparse byte sweep (every 97th offset) keeps the test fast while still
  // probing header, chain, meta and payload sections.
  for (std::size_t i = 0; i < snapshot.size(); i += 97) {
    auto torn = snapshot;
    torn[i] ^= 0x20;
    parallel::Trainer victim(trainer_config(1), *wd.train, wd.augment);
    EXPECT_THROW(victim.restore_checkpoint_bytes(torn), Error)
        << "flipped byte " << i;
  }
}

// --- Recovery-latency / lost-steps model under the PR 1 MTBF trace ---

TEST(Recovery, ModelPeerBeatsDiskUnderMtbfTrace) {
  trace::FailureTraceConfig tcfg;
  tcfg.cluster = {32, 32, 64};
  const auto failures = trace::gpu_failure_trace(tcfg);
  ASSERT_GT(failures.size(), 10u) << "the MTBF trace must produce failures";
  sim::RecoveryModelConfig mcfg;
  mcfg.step_s = 0.3;
  const auto result = sim::model_recovery(failures, mcfg);
  EXPECT_EQ(result.failures, static_cast<std::int64_t>(failures.size()));
  EXPECT_LT(result.lost_steps_peer, result.lost_steps_disk)
      << "peer quorum must lose strictly fewer steps";
  EXPECT_LT(result.recovery_s_peer, result.recovery_s_disk)
      << "in-fabric fetch must be faster than the disk restore";
  EXPECT_GT(result.peer_recoveries, 0);
  EXPECT_GE(result.steps_done_peer, result.steps_done_disk);
}

TEST(Recovery, ModelIsDeterministicAndFallsBackWithoutReplicas) {
  trace::FailureTraceConfig tcfg;
  tcfg.cluster = {16, 16, 16};
  const auto failures = trace::gpu_failure_trace(tcfg);
  sim::RecoveryModelConfig mcfg;
  const auto a = sim::model_recovery(failures, mcfg);
  const auto b = sim::model_recovery(failures, mcfg);
  EXPECT_EQ(a.lost_steps_peer, b.lost_steps_peer);
  EXPECT_EQ(a.peer_recoveries, b.peer_recoveries);
  // Zero replicas: the owner copy dies with the rank, every failure walks
  // disk, and the two strategies converge.
  mcfg.peer_replicas = 0;
  const auto none = sim::model_recovery(failures, mcfg);
  EXPECT_EQ(none.peer_recoveries, 0);
  EXPECT_EQ(none.disk_fallbacks, none.failures);
  EXPECT_EQ(none.lost_steps_peer, none.lost_steps_disk);
}

}  // namespace
}  // namespace easyscale::fault
