// Time-stepped cluster simulator for the trace experiment (Figs 14-15).
//
// Three policies over the same trace and 64-GPU heterogeneous cluster:
//  - kYarnCS:         FIFO gang scheduling of fixed same-type GPU sets
//                     (Philly's capacity scheduler baseline);
//  - kEasyScaleHomo:  elastic jobs, intra-job plans restricted to one GPU
//                     type, inter-job greedy proposal acceptance;
//  - kEasyScaleHeter: same, but D2-eligible jobs may mix GPU types.
#pragma once

#include <vector>

#include "sched/companion.hpp"
#include "sim/job.hpp"

namespace easyscale::sim {

enum class SchedulerPolicy { kYarnCS, kEasyScaleHomo, kEasyScaleHeter };

/// One GPU of `device_type` is revoked/broken at `t_s` and unavailable for
/// `repair_s` seconds (spot reclamation or an MTBF failure process; see
/// trace::gpu_failure_trace).
struct ClusterFailureEvent {
  double t_s = 0.0;
  int device_type = 0;  // index into the GpuVector
  double repair_s = 600.0;
};

struct SimConfig {
  sched::GpuVector cluster{};  // GPUs per device type
  double tick_s = 10.0;
  double reschedule_period_s = 60.0;
  SchedulerPolicy policy = SchedulerPolicy::kEasyScaleHeter;
  double max_sim_s = 4.0e6;  // safety bound
  /// Per-GPU revocation/failure events applied to the cluster capacity.
  /// EasyScale policies react with an immediate scale-in reschedule and
  /// never fail a job; YARN-CS gang jobs hit by a revoked GPU are killed
  /// and gang-restarted (the §2.1 baseline).
  std::vector<ClusterFailureEvent> failures;
  /// Fraction of a killed gang job's progress retained on restart (models
  /// the job's own periodic checkpointing; 0 = restart from scratch).
  double gang_restart_progress_kept = 0.0;
  /// Comm-level degradation model: per running job per tick, probability
  /// that its gradient sync hits a link fault (drop/stall/silent rank).
  /// EasyScale's failure-aware collective absorbs it in `comm_recover_s`
  /// (abort + backoff + bitwise re-execution); a gang job must tear down
  /// and restart the ring, stalling for `comm_gang_restart_s`.  Draws are
  /// Philox-seeded on (seed, job id, tick), so runs replay exactly.
  double comm_fault_rate = 0.0;
  std::uint64_t comm_fault_seed = 0xC0FF;
  double comm_recover_s = 0.5;
  double comm_gang_restart_s = 60.0;
  /// Silent-data-corruption model: per running job per tick per device
  /// type, probability that one of the job's GPUs of that type turns
  /// sticky-corrupt (scaled by how many it holds — older fleets set higher
  /// rates).  Empty disables.  Draws are Philox-seeded on
  /// (sdc_seed, job id, tick, type), so runs replay exactly.
  std::vector<double> sdc_rate_per_type;
  std::uint64_t sdc_seed = 0x5DC;
  /// With the defense on, a hit is detected within `sdc_detect_s` of job
  /// time, the device is quarantined for the rest of the simulation
  /// (capacity loss — condemned hardware is never handed back), and the
  /// job replays `sdc_replay_s` of progress from its last verified
  /// checkpoint.  With it off the job trains on and finishes silently
  /// poisoned (`jobs_poisoned`).
  bool sdc_defense = true;
  double sdc_detect_s = 30.0;
  double sdc_replay_s = 120.0;
  /// Step-time decomposition for the comm/compute-overlap model: the share
  /// of a multi-GPU job's nominal step time spent in gradient sync.  With
  /// `comm_overlap_frac > 0` a GPU's comm stream hides that share of the
  /// bucket all-reduce under backward and the job's effective step time shrinks from
  /// `compute + comm` to overlapped_step_seconds(...) — at 0 the model
  /// degrades to the historical additive one exactly (unit-tested), so
  /// fig14/fig16 trace replays stay reproducible.  0 disables.
  double comm_fraction = 0.0;
  double comm_overlap_frac = 0.0;
};

/// Pipelined step-time model: the fraction `overlap_frac` of the comm term
/// runs concurrently with compute (max), the rest serializes (sum):
///   (1 - f) * (compute + comm) + f * max(compute, comm).
/// f = 0 reproduces the additive model bit for bit; f = 1 is full overlap.
[[nodiscard]] double overlapped_step_seconds(double compute_s, double comm_s,
                                             double overlap_frac);

struct TimelinePoint {
  double t = 0.0;
  std::int64_t allocated_gpus = 0;
};

struct SimResult {
  std::vector<JobOutcome> outcomes;
  std::vector<TimelinePoint> timeline;
  double makespan = 0.0;
  double avg_jct = 0.0;
  std::int64_t revocations = 0;   // GPUs taken away while in use
  std::int64_t failed_jobs = 0;   // gang kill events (0 for EasyScale)
  std::int64_t lost_progress = 0;  // global steps discarded by gang restarts
  std::int64_t comm_faults = 0;    // link faults hit by running jobs
  double comm_degraded_s = 0.0;    // job-time lost to comm recovery
  std::int64_t sdc_events = 0;     // devices turned sticky-corrupt
  std::int64_t devices_quarantined = 0;  // condemned by the defense
  double sdc_replay_s_total = 0.0;  // job-time spent re-executing
  std::int64_t jobs_poisoned = 0;  // finished with undetected corruption
};

[[nodiscard]] SimResult simulate_trace(const std::vector<JobSpec>& jobs,
                                       const SimConfig& config);

}  // namespace easyscale::sim
