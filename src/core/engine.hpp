// The EasyScale engine: EasyScaleThreads time-sliced over elastic workers.
//
// The engine owns `num_ests` logical training workers (ESTs).  At any
// moment they are mapped onto 1..num_ests physical workers (simulated
// GPUs); each physical worker holds ONE model + optimizer replica and ONE
// "CUDA context", shared by all its ESTs (§3.2).  Per global step every
// EST runs one local step (context-switch in -> forward/backward -> swap
// gradients out -> context-switch out); gradients are then all-reduced in
// the exact ring order of `num_ests` *virtual* participants, so the result
// is bitwise independent of the physical mapping (D1).
//
// configure_workers() is the elasticity entry point: it takes an on-demand
// checkpoint (EST contexts + extra states + parameters) and rebuilds the
// worker set from it, exactly as the paper's scale in/out path does.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/digest.hpp"
#include "core/determinism.hpp"
#include "core/est_context.hpp"
#include "core/integrity.hpp"
#include "core/step_core.hpp"
#include "data/loader.hpp"
#include "data/pipeline.hpp"
#include "models/datasets.hpp"

namespace easyscale::core {

struct WorkerSpec {
  kernels::DeviceType device = kernels::DeviceType::kV100;
};

/// The engine's config: the shared step-core fields (StepCoreConfig) plus
/// the EST-specific ones.
struct EasyScaleConfig : StepCoreConfig {
  std::int64_t num_ests = 4;  // maxP: logical DoP fixed at model design time
  std::int64_t batch_per_est = 8;
  DeterminismConfig determinism;
  /// Route batches through the shared data-worker pool (async) instead of
  /// building them inline.  Bitwise identical either way.
  bool use_async_loader = false;
  data::LoaderConfig loader;
  /// Fig-11 ablation: disable EST context switching (requires exactly one
  /// EST per worker; drops the gradient D2H copy and context save/restore).
  bool context_switching = true;
  /// Periodic re-execution witness (core/integrity.hpp): replays one EST
  /// per worker on a clean replica and compares gradient digests.  A
  /// divergence throws IntegrityError out of run_steps().  Requires a
  /// deterministic kernel policy (the witness certifies bitwise replay).
  WitnessConfig witness;
};

/// Swap-traffic counters for the context-switching experiments.
struct SwitchStats {
  std::int64_t context_switches = 0;
  std::int64_t gradient_bytes_swapped = 0;
  std::int64_t context_bytes_swapped = 0;
};

class EasyScaleEngine : public StepCore {
 public:
  EasyScaleEngine(EasyScaleConfig config, const data::Dataset& train,
                  data::AugmentConfig augment);

  /// (Re)map ESTs onto a new physical worker set.  Contiguous balanced
  /// assignment by default; pass `assignment` (worker -> list of EST ranks,
  /// covering every EST exactly once) to control the mapping.  Clears
  /// every post-op hook (the installer re-arms) and resets the comm fabric.
  void configure_workers(
      const std::vector<WorkerSpec>& workers,
      std::optional<std::vector<std::vector<std::int64_t>>> assignment =
          std::nullopt);

  [[nodiscard]] std::int64_t num_workers() const {
    return static_cast<std::int64_t>(replicas_.size());
  }
  [[nodiscard]] std::int64_t num_ests() const { return config_.num_ests; }
  [[nodiscard]] const SwitchStats& switch_stats() const { return stats_; }

  /// Post-sync gradient buffer of one EST (identical across ESTs after the
  /// all-reduce); exposed for tests and the Fig-13 accounting.
  [[nodiscard]] const comm::GradientSet& grad_buffer(std::int64_t est) const;

  /// Tamper-evident per-parameter digest chain (store order), the payload
  /// of verified checkpoints and the determinism audit's comparison unit.
  [[nodiscard]] DigestChain params_digest_chain() const;

  // --- Compute-integrity surface (fault/integrity + core/integrity) ---

  [[nodiscard]] bool witness_enabled() const {
    return config_.witness.witness_every > 0;
  }

  /// Change the witness cadence (FaultSupervisor arms this when its SDC
  /// defense is enabled).  Takes effect at the next global step.
  void set_witness_every(std::int64_t every) {
    config_.witness.witness_every = every;
  }
  [[nodiscard]] const WitnessStats& witness_stats() const {
    return witness_stats_;
  }

  /// Highest global step whose engine state passed (or inductively
  /// precedes) a re-execution witness.  A checkpoint is only *verified*
  /// when taken exactly at this step; starts at 0 so the initial state
  /// anchors the chain.  Deliberately preserved across restore(): rolling
  /// back to a witness-clean step keeps its certification.
  [[nodiscard]] std::int64_t last_clean_witness_step() const {
    return last_clean_witness_step_;
  }

  /// Execution context of physical worker `i` (tests inspect its scratch
  /// arena to assert allocations stop growing after warm-up).
  [[nodiscard]] const kernels::ExecContext& worker_exec(std::int64_t i) const {
    return replica(i, "worker").exec;
  }

  /// Worker-0 replica with EST-`rank`'s context loaded (for evaluation).
  [[nodiscard]] models::Workload& model_for_eval(std::int64_t est_rank = 0);

  /// On-demand checkpoint: EST contexts + extra states + parameters.
  [[nodiscard]] std::vector<std::uint8_t> checkpoint() const;

  /// Restore from a checkpoint produced by an engine with the same config
  /// shape (worker set may differ; call configure_workers afterwards or
  /// before).
  void restore(std::span<const std::uint8_t> bytes);

  /// Per-physical-worker cumulative injected stall seconds — the straggler
  /// signal sched/intra_job re-balances ESTs on.  Empty when disabled.
  [[nodiscard]] std::vector<double> comm_stall_per_worker() const;

  /// Current worker -> EST-ranks mapping (for EST re-balancing).
  [[nodiscard]] std::vector<std::vector<std::int64_t>> current_assignment()
      const {
    return assignment_;
  }

  /// Specs of the current worker set (for re-applying a modified mapping).
  [[nodiscard]] std::vector<WorkerSpec> current_worker_specs() const {
    return specs_;
  }

 private:
  void one_step() override;
  void capture_context(Replica& worker, ESTContext& ctx);
  void restore_context(Replica& worker, const ESTContext& ctx);
  void rebuild_loader();
  void run_witness(const std::vector<std::int64_t>& witnessed_ests,
                   const std::vector<ESTContext>& pre_contexts,
                   const std::vector<data::Batch>& batches,
                   const std::vector<float>& live_losses);

  EasyScaleConfig config_;
  const data::Dataset* train_;
  data::AugmentConfig augment_;

  std::vector<data::RankDataPipeline> pipelines_;  // one per EST
  std::vector<ESTContext> contexts_;               // one per EST
  std::vector<comm::GradientSet> grad_buffers_;    // one per EST
  // Per physical worker, parallel to replicas_: its spec and its ESTs.
  std::vector<WorkerSpec> specs_;
  std::vector<std::vector<std::int64_t>> assignment_;
  std::unique_ptr<data::SharedDataWorkerPool> pool_;

  // Re-execution witness state.  The replica is lazy (first witness step)
  // and reused; its exec context is re-pointed at the witnessed worker's
  // device/policy per replay so variant selection matches the live run.
  std::unique_ptr<models::Workload> witness_replica_;
  rng::StreamSet witness_streams_;
  WitnessStats witness_stats_;
  std::int64_t last_clean_witness_step_ = 0;
  std::int64_t witness_round_ = 0;  // rotates which co-hosted EST is replayed

  SwitchStats stats_;
  std::mutex stats_mutex_;  // counters are shared across worker threads
};

}  // namespace easyscale::core
