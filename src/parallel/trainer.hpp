// Planner-driven data-parallel trainer: the generalization of the old
// fixed-DoP DDP baseline trainer from pure replicated data parallelism to a
// parallel::Plan of data_replicas × shard_degree.
//
// shard_degree == 1 is exactly the PyTorch-DDP fixed-DoP baseline: one
// model/optimizer replica per rank, bucketed ring all-reduce over the
// physical world, stock rebuild-after-first-iteration buckets.
//
// shard_degree > 1 adds ZeRO-1-style optimizer-state sharding: the
// gradient sync becomes a reduce-scatter (bitwise-identical reduction,
// each rank receives only its shard's averaged elements), the optimizer
// updates only owned chunks (optim::Optimizer::step_slices), and an
// all-gather publishes the owner-updated parameter chunks to every
// replica.  The resulting trajectory is BITWISE IDENTICAL to the
// unsharded run at every step (docs/PARALLELISM.md, proof sketch), and
// reshard() re-assigns chunk ownership mid-run without perturbing a bit.
// Checkpoints are canonical v3 frames (core/checkpoint_io): save at
// shard_degree N, restore at any degree dividing the same world.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/checkpoint_io.hpp"
#include "core/step_core.hpp"
#include "data/pipeline.hpp"
#include "parallel/plan.hpp"

namespace easyscale::parallel {

/// The trainer's config: the shared step-core fields (core::StepCoreConfig)
/// plus the plan- and rank-specific ones.  With resilient_comm, the fabric
/// has one transport rank per physical rank; a condemned rank throws
/// comm::RankDeathError out of run_steps (the caller then rolls back and,
/// when sharded, reshards).
struct TrainerConfig : core::StepCoreConfig {
  std::int64_t world_size = 4;
  std::int64_t batch_per_worker = 8;
  kernels::KernelPolicy policy = kernels::KernelPolicy::kDeterministic;
  std::vector<kernels::DeviceType> devices;  // per rank; default all V100
  bool rebuild_buckets = true;
  /// Pre-sampled comm fault schedule replayed by the transport.
  std::vector<comm::CommFaultEvent> comm_faults;
  /// Redundant-replica SDC voting (see the PR-5 integrity layer).  Mutually
  /// exclusive with shard_degree > 1: voting needs full gradient replicas.
  std::int64_t logical_world = 0;
  /// Optimizer-state shard degree: 1 = replicated (stock DDP), > 1 =
  /// ZeRO-1 sharding.  Must divide world_size and be <= plan_chunks.
  int shard_degree = 1;
  /// Chunk count of the plan's fixed partition over the flattened
  /// parameter space.  A pure function of the parameter count partitions
  /// the same way at every shard_degree — do not change mid-job.
  int plan_chunks = kDefaultPlanChunks;
};

/// Outcome of one gradient-digest vote (logical_world > 0 only).
struct VoteReport {
  std::int64_t buckets_checked = 0;
  std::int64_t digest_bytes_exchanged = 0;
  std::int64_t exchange_retransmits = 0;  // checksum/timeout-triggered
  /// Ranks whose per-bucket digests lost the majority vote.  When a group
  /// of two splits 1-1 there is no majority; both members are listed
  /// (detection without attribution).
  std::vector<std::int64_t> corrupt_ranks;
};

class Trainer : public core::StepCore {
 public:
  Trainer(TrainerConfig config, const data::Dataset& train,
          const data::AugmentConfig& augment);

  /// Rank-0 replica (e.g. for evaluation).
  [[nodiscard]] models::Workload& model(std::int64_t rank = 0) {
    return *replica(rank, "rank").model;
  }

  [[nodiscard]] optim::StepLR& scheduler(std::int64_t rank = 0) {
    return *replica(rank, "rank").scheduler;
  }

  /// Set the LR-schedule epoch on every rank (elastic baselines restart
  /// their world and must carry the schedule across rebuilds).
  void set_epoch_all(std::int64_t epoch) {
    for (auto& rep : replicas_) rep.scheduler->set_epoch(epoch);
  }

  [[nodiscard]] std::int64_t world_size() const { return config_.world_size; }

  // --- Parallelism-plan surface ---

  [[nodiscard]] const Plan& plan() const { return plan_; }
  [[nodiscard]] int shard_degree() const { return plan_.shard_degree; }

  /// Elastic reshard at a step boundary: re-assign chunk ownership to
  /// `new_shard_degree` (which must divide world_size), redistributing
  /// optimizer-state chunks from their canonical owners.  The chunk bounds
  /// are fixed by the plan, so no state is split or re-summed and the
  /// continued trajectory is bitwise unchanged.
  void reshard(int new_shard_degree);

  /// Save a canonical v3 checkpoint: replicated parameters, gathered
  /// canonical optimizer state, schedule, per-rank data/RNG state, bucket
  /// layout — plus the shard frame (plan layout + per-chunk digest chain,
  /// which is shard_degree-independent).
  void save_checkpoint(const std::string& path);

  /// Restore from a v3 checkpoint saved by any trainer with the same
  /// workload and world_size, at ANY shard degree — the canonical payload
  /// carries full optimizer state, re-partitioned here by this trainer's
  /// current plan.  Verifies the stored per-chunk digest chain against the
  /// restored parameters.
  void restore_checkpoint(const std::string& path);

  /// In-memory flavour of save_checkpoint: the same canonical payload,
  /// per-tensor digest chain and shard frame, framed into one byte vector
  /// (the peer-checkpoint pipeline's snapshot unit — no filesystem).
  [[nodiscard]] std::vector<std::uint8_t> checkpoint_bytes();

  /// Restore from checkpoint_bytes() output, with the same cross-degree
  /// guarantees and chunk-chain attestation as restore_checkpoint.
  void restore_checkpoint_bytes(const std::vector<std::uint8_t>& bytes);

  // --- Compute-integrity surface (logical_world > 0) ---

  /// Report of the most recent gradient-digest vote (empty before the
  /// first step or when voting is disabled).
  [[nodiscard]] const std::optional<VoteReport>& last_vote_report() const {
    return last_vote_report_;
  }

 private:
  void one_step() override;
  /// Digest vote + representative reduction (logical_world > 0).  Throws
  /// core::IntegrityError when a rank loses the vote.
  void vote_and_reduce(std::vector<comm::GradientSet>& sets);
  /// Recompute owned_slices_ / gather_map_ from plan_.
  void rebuild_shard_maps();
  /// Apply the optimizer update: full step when replicated, owned slices
  /// when sharded, then all-gather the published parameter chunks.
  void optimize_and_publish();
  /// Copy every chunk's optimizer-state slices from its canonical owner
  /// under `from` into rank `dst` (checkpoint save).
  void gather_canonical_state_into(const Plan& from, std::int64_t dst);
  /// Serialize the canonical payload, per-tensor chain and shard frame
  /// (the pieces both the file writer and checkpoint_bytes frame).
  void build_checkpoint_image(std::vector<std::uint8_t>* payload,
                              DigestChain* chain,
                              core::ShardFrameMeta* meta);
  /// Apply a verified canonical payload + shard frame to this trainer;
  /// `what` labels error messages (a path or "peer snapshot").
  void apply_checkpoint_image(std::span<const std::uint8_t> payload,
                              const core::ShardFrameMeta& meta,
                              const std::string& what);

  TrainerConfig config_;
  std::vector<data::RankDataPipeline> pipelines_;  // one per rank
  Plan plan_;
  /// Per rank: the flattened-space slices its shard owns (empty lists at
  /// shard_degree == 1 are replaced by full coverage — see ctor).
  std::vector<comm::ShardSlices> owned_slices_;
  GatherMap gather_map_;
  std::optional<VoteReport> last_vote_report_;
};

}  // namespace easyscale::parallel
