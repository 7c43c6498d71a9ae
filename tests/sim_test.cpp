// Cluster simulator invariants for the trace and co-location experiments.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "sim/colocation.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace easyscale::sim {
namespace {

std::vector<JobSpec> small_trace(std::int64_t n = 20) {
  trace::TraceConfig cfg;
  cfg.num_jobs = n;
  cfg.mean_interarrival_s = 60.0;
  return trace::philly_like_trace(cfg);
}

SimConfig sim_config(SchedulerPolicy policy) {
  SimConfig cfg;
  cfg.cluster = {8, 4, 4};
  cfg.policy = policy;
  return cfg;
}

class PolicyTest : public ::testing::TestWithParam<SchedulerPolicy> {};

TEST_P(PolicyTest, AllJobsFinishWithValidTimestamps) {
  const auto jobs = small_trace();
  const auto r = simulate_trace(jobs, sim_config(GetParam()));
  ASSERT_EQ(r.outcomes.size(), jobs.size());
  for (const auto& o : r.outcomes) {
    EXPECT_GE(o.start_s, o.arrival_s);
    EXPECT_GT(o.finish_s, o.start_s);
    EXPECT_LE(o.finish_s, r.makespan);
  }
  EXPECT_GT(r.avg_jct, 0.0);
}

TEST_P(PolicyTest, AllocationNeverExceedsCluster) {
  const auto jobs = small_trace();
  const auto cfg = sim_config(GetParam());
  const auto r = simulate_trace(jobs, cfg);
  const std::int64_t total = sched::total(cfg.cluster);
  for (const auto& point : r.timeline) {
    EXPECT_LE(point.allocated_gpus, total);
    EXPECT_GE(point.allocated_gpus, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyTest,
                         ::testing::Values(SchedulerPolicy::kYarnCS,
                                           SchedulerPolicy::kEasyScaleHomo,
                                           SchedulerPolicy::kEasyScaleHeter));

TEST(Simulator, YarnIsFIFO) {
  const auto jobs = small_trace();
  const auto r = simulate_trace(jobs, sim_config(SchedulerPolicy::kYarnCS));
  // Start order must follow arrival order (strict FIFO admission).
  auto sorted = r.outcomes;
  std::sort(sorted.begin(), sorted.end(),
            [](const JobOutcome& a, const JobOutcome& b) {
              return a.arrival_s < b.arrival_s;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_GE(sorted[i].start_s, sorted[i - 1].start_s);
  }
}

TEST(Simulator, ElasticBeatsGangSchedulingOnJctAndMakespan) {
  const auto jobs = small_trace(30);
  const auto yarn = simulate_trace(jobs, sim_config(SchedulerPolicy::kYarnCS));
  const auto homo =
      simulate_trace(jobs, sim_config(SchedulerPolicy::kEasyScaleHomo));
  EXPECT_LT(homo.avg_jct, yarn.avg_jct);
  EXPECT_LE(homo.makespan, yarn.makespan);
}

TEST(Simulator, HeterUsesAtLeastAsManyGpusAsHomo) {
  const auto jobs = small_trace(30);
  const auto homo =
      simulate_trace(jobs, sim_config(SchedulerPolicy::kEasyScaleHomo));
  const auto heter =
      simulate_trace(jobs, sim_config(SchedulerPolicy::kEasyScaleHeter));
  double homo_mean = 0.0, heter_mean = 0.0;
  for (const auto& p : homo.timeline) homo_mean += static_cast<double>(p.allocated_gpus);
  for (const auto& p : heter.timeline) heter_mean += static_cast<double>(p.allocated_gpus);
  homo_mean /= static_cast<double>(homo.timeline.size());
  heter_mean /= static_cast<double>(heter.timeline.size());
  EXPECT_GE(heter_mean, homo_mean * 0.95);
}

TEST(Simulator, EmptyTraceThrows) {
  EXPECT_THROW(simulate_trace({}, sim_config(SchedulerPolicy::kYarnCS)),
               Error);
}

TEST(Colocation, ConservationAndBounds) {
  trace::ServingLoadConfig lcfg;
  lcfg.minutes = 2880;
  lcfg.total_gpus = 1000;
  const auto demand = trace::serving_load_curve(lcfg);
  ColocationConfig cfg;
  cfg.total_gpus = 1000;
  cfg.max_training_gpus = 300;
  const auto r = simulate_colocation(demand, cfg);
  ASSERT_EQ(r.day2.size(), 1440u);
  for (const auto& p : r.day2) {
    EXPECT_LE(p.serving_gpus + p.training_gpus, cfg.total_gpus);
    EXPECT_LE(p.training_gpus, cfg.max_training_gpus);
    EXPECT_GE(p.training_gpus, 0);
    EXPECT_GE(p.alloc_ratio, 0.0);
    EXPECT_LE(p.alloc_ratio, 1.0);
    EXPECT_LE(p.sm_util, 1.0);
  }
}

TEST(Colocation, Day2ImprovesAllocationAndUtilization) {
  trace::ServingLoadConfig lcfg;
  const auto demand = trace::serving_load_curve(lcfg);
  ColocationConfig cfg;
  cfg.total_gpus = lcfg.total_gpus;
  const auto r = simulate_colocation(demand, cfg);
  EXPECT_GT(r.day2_alloc_ratio, r.day1_alloc_ratio);
  EXPECT_GT(r.day2_util, r.day1_util);
  EXPECT_GT(r.avg_training_gpus_day2, 0.0);
  EXPECT_EQ(r.failed_jobs, 0);
}

TEST(Colocation, ScaleInIsImmediate) {
  // A demand spike must be absorbed within the same minute.
  std::vector<std::int64_t> demand(120, 100);  // 2 "days" of 60 min
  for (std::size_t m = 90; m < 120; ++m) demand[m] = 900;  // day-2 spike
  ColocationConfig cfg;
  cfg.total_gpus = 1000;
  cfg.max_training_gpus = 900;
  const auto r = simulate_colocation(demand, cfg);
  for (std::size_t m = 30; m < 60; ++m) {
    EXPECT_LE(r.day2[m].serving_gpus + r.day2[m].training_gpus, 1000);
  }
  EXPECT_GT(r.preemptions, 0);
}

TEST(Colocation, OddSizedDemandThrows) {
  std::vector<std::int64_t> demand(3, 10);
  EXPECT_THROW(simulate_colocation(demand, ColocationConfig{}), Error);
}

TEST(Colocation, GangModeFailsJobsWhereElasticPreempts) {
  // Same demand spike as ScaleInIsImmediate, but with gang-scheduled
  // training jobs (§2.1 baseline): every reclamation kills a job.
  std::vector<std::int64_t> demand(120, 100);
  for (std::size_t m = 90; m < 120; ++m) demand[m] = 900;
  ColocationConfig cfg;
  cfg.total_gpus = 1000;
  cfg.max_training_gpus = 900;
  const auto elastic = simulate_colocation(demand, cfg);
  cfg.elastic = false;
  const auto gang = simulate_colocation(demand, cfg);
  EXPECT_GT(elastic.preemptions, 0);
  EXPECT_EQ(elastic.failed_jobs, 0);
  EXPECT_EQ(gang.failed_jobs, gang.preemptions);
  EXPECT_GT(gang.failed_jobs, 0);
}

// ---------------------------------------------------------------------------
// Cluster failures / spot revocations in the trace simulator
// ---------------------------------------------------------------------------

std::vector<JobSpec> failure_trace_jobs() {
  // Two gang-sized jobs sharing one V100 partition; a revocation while
  // both run forces the gang baseline to kill one of them.
  std::vector<JobSpec> jobs(2);
  for (std::int64_t i = 0; i < 2; ++i) {
    jobs[static_cast<std::size_t>(i)].id = i;
    jobs[static_cast<std::size_t>(i)].workload = "ResNet50";
    jobs[static_cast<std::size_t>(i)].max_p = 4;
    jobs[static_cast<std::size_t>(i)].arrival_s = 0.0;
    jobs[static_cast<std::size_t>(i)].total_steps = 5000;
    jobs[static_cast<std::size_t>(i)].allow_heter = false;
    jobs[static_cast<std::size_t>(i)].preferred_type =
        kernels::DeviceType::kV100;
  }
  return jobs;
}

SimConfig failure_sim_config(SchedulerPolicy policy) {
  SimConfig cfg;
  cfg.cluster = {8, 0, 0};
  cfg.policy = policy;
  // Two V100s revoked at t=100s, repaired 500s later.
  cfg.failures = {{100.0, 0, 500.0}, {100.0, 0, 500.0}};
  return cfg;
}

TEST(SimulatorFailures, EasyScaleSurvivesRevocationsWithoutFailedJobs) {
  const auto r = simulate_trace(failure_trace_jobs(),
                                failure_sim_config(SchedulerPolicy::kEasyScaleHomo));
  EXPECT_EQ(r.outcomes.size(), 2u);
  EXPECT_GT(r.revocations, 0);
  EXPECT_EQ(r.failed_jobs, 0) << "elastic jobs scale in instead of dying";
  EXPECT_EQ(r.lost_progress, 0);
}

TEST(SimulatorFailures, GangBaselineKillsAndLosesProgress) {
  const auto r = simulate_trace(failure_trace_jobs(),
                                failure_sim_config(SchedulerPolicy::kYarnCS));
  EXPECT_EQ(r.outcomes.size(), 2u);  // killed jobs restart and still finish
  EXPECT_GT(r.revocations, 0);
  EXPECT_GT(r.failed_jobs, 0) << "gang jobs cannot shrink below strength";
  EXPECT_GT(r.lost_progress, 0) << "restart discards un-checkpointed steps";
}

TEST(SimulatorFailures, GangCheckpointKeepFractionBoundsLoss) {
  auto cfg = failure_sim_config(SchedulerPolicy::kYarnCS);
  cfg.gang_restart_progress_kept = 1.0;  // perfect per-step checkpointing
  const auto r = simulate_trace(failure_trace_jobs(), cfg);
  EXPECT_GT(r.failed_jobs, 0);
  EXPECT_EQ(r.lost_progress, 0);
}

TEST(SimulatorFailures, FailureFreeConfigMatchesBaselineBehaviour) {
  // With an empty failure list the new accounting fields stay zero and the
  // simulation is unchanged from the pre-failure path.
  const auto jobs = small_trace(10);
  const auto r = simulate_trace(jobs, sim_config(SchedulerPolicy::kYarnCS));
  EXPECT_EQ(r.revocations, 0);
  EXPECT_EQ(r.failed_jobs, 0);
  EXPECT_EQ(r.lost_progress, 0);
}

TEST(SimulatorFailures, CommFaultsDegradeGangJobsFarMoreThanElastic) {
  // Same trace, same seeded per-(job, tick) link-fault draws: the elastic
  // policy absorbs each fault in comm_recover_s while the gang baseline
  // stalls for a full restart — its degraded time must dominate.
  const auto jobs = small_trace(10);
  auto elastic_cfg = sim_config(SchedulerPolicy::kEasyScaleHomo);
  elastic_cfg.comm_fault_rate = 0.05;
  auto gang_cfg = sim_config(SchedulerPolicy::kYarnCS);
  gang_cfg.comm_fault_rate = 0.05;

  const auto elastic = simulate_trace(jobs, elastic_cfg);
  const auto gang = simulate_trace(jobs, gang_cfg);
  EXPECT_GT(elastic.comm_faults, 0);
  EXPECT_GT(gang.comm_faults, 0);
  EXPECT_GT(elastic.comm_degraded_s, 0.0);
  EXPECT_GT(gang.comm_degraded_s, elastic.comm_degraded_s)
      << "gang restarts must cost more job-time than in-collective recovery";

  // Deterministic: the same config replays the exact same fault draws.
  const auto replay = simulate_trace(jobs, elastic_cfg);
  EXPECT_EQ(replay.comm_faults, elastic.comm_faults);
  EXPECT_EQ(replay.comm_degraded_s, elastic.comm_degraded_s);

  // Rate zero keeps the pre-comm-fault accounting untouched.
  const auto off = simulate_trace(jobs, sim_config(SchedulerPolicy::kYarnCS));
  EXPECT_EQ(off.comm_faults, 0);
  EXPECT_EQ(off.comm_degraded_s, 0.0);
}

TEST(SimulatorOverlap, ZeroFracDegradesToAdditiveModelExactly) {
  // Bit-for-bit: at f = 0 the pipelined model IS the historical sum.
  for (const double c : {0.1, 1.0, 7.5}) {
    for (const double m : {0.0, 0.4, 12.0}) {
      EXPECT_EQ(overlapped_step_seconds(c, m, 0.0), c + m);
    }
  }
}

TEST(SimulatorOverlap, FullOverlapIsTheMaxAndPartialInterpolates) {
  EXPECT_EQ(overlapped_step_seconds(3.0, 2.0, 1.0), 3.0);
  EXPECT_EQ(overlapped_step_seconds(2.0, 5.0, 1.0), 5.0);
  const double half = overlapped_step_seconds(3.0, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(half, 0.5 * 5.0 + 0.5 * 3.0);
  EXPECT_THROW((void)overlapped_step_seconds(1.0, 1.0, 1.5), Error);
  EXPECT_THROW((void)overlapped_step_seconds(-1.0, 1.0, 0.5), Error);
}

TEST(SimulatorOverlap, ZeroFracTraceReplayMatchesNoCommModel) {
  // comm_fraction > 0 with overlap_frac = 0 multiplies step time by
  // (C + M) / (C + M) = 1: the fig14/fig16 replays stay reproducible.
  const auto jobs = small_trace(12);
  auto base = sim_config(SchedulerPolicy::kEasyScaleHeter);
  auto additive = base;
  additive.comm_fraction = 0.3;
  additive.comm_overlap_frac = 0.0;
  const auto r0 = simulate_trace(jobs, base);
  const auto r1 = simulate_trace(jobs, additive);
  ASSERT_EQ(r0.outcomes.size(), r1.outcomes.size());
  for (std::size_t i = 0; i < r0.outcomes.size(); ++i) {
    EXPECT_EQ(r0.outcomes[i].finish_s, r1.outcomes[i].finish_s);
  }
  EXPECT_EQ(r0.makespan, r1.makespan);
}

TEST(SimulatorOverlap, OverlapNeverFinishesLater) {
  const auto jobs = small_trace(12);
  auto additive = sim_config(SchedulerPolicy::kEasyScaleHeter);
  additive.comm_fraction = 0.3;
  auto overlapped = additive;
  overlapped.comm_overlap_frac = 0.8;
  const auto slow = simulate_trace(jobs, additive);
  const auto fast = simulate_trace(jobs, overlapped);
  EXPECT_LE(fast.makespan, slow.makespan);
  EXPECT_LE(fast.avg_jct, slow.avg_jct);
}

TEST(SimulatorFailures, MtbfTraceDrivenRunCompletes) {
  // End-to-end: a generated MTBF failure process feeding the simulator.
  const auto jobs = small_trace(10);
  auto cfg = sim_config(SchedulerPolicy::kEasyScaleHeter);
  trace::FailureTraceConfig fcfg;
  fcfg.cluster = cfg.cluster;
  fcfg.horizon_s = 1.0e5;
  fcfg.mtbf_per_gpu_s = 2.0e4;  // aggressive so failures actually land
  cfg.failures = trace::gpu_failure_trace(fcfg);
  ASSERT_FALSE(cfg.failures.empty());
  const auto r = simulate_trace(jobs, cfg);
  EXPECT_EQ(r.outcomes.size(), jobs.size());
  EXPECT_EQ(r.failed_jobs, 0);
}

}  // namespace
}  // namespace easyscale::sim
