// Multi-tenant cluster service: the calendar event core against the heap
// reference, fair-share/preemption properties, tenant traces, and the
// end-to-end service determinism contract (docs/SCHEDULER.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/allocator.hpp"
#include "cluster/calendar_queue.hpp"
#include "cluster/metrics.hpp"
#include "cluster/service.hpp"
#include "cluster/tenant.hpp"
#include "fault/quarantine_feed.hpp"
#include "rng/philox.hpp"

namespace easyscale::cluster {
namespace {

// --- calendar queue ---------------------------------------------------------

TEST(CalendarQueue, DrainsInTimeThenInsertionOrder) {
  CalendarQueue<int> q;
  q.push(5.0, 1);
  q.push(1.0, 2);
  q.push(5.0, 3);  // same time as payload 1, inserted later
  q.push(0.25, 4);
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop().payload);
  EXPECT_EQ(order, (std::vector<int>{4, 2, 1, 3}));
}

TEST(CalendarQueue, MatchesHeapReferenceOnRandomWorkload) {
  // Mixed pushes/pops with clustered timestamps, duplicates and bursts:
  // the calendar queue must drain in exactly the heap's order.
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    rng::Philox gen(seed);
    CalendarQueue<std::int64_t> cal(0.5);
    HeapEventQueue<std::int64_t> heap;
    double clock = 0.0;
    std::int64_t payload = 0;
    for (int round = 0; round < 4000; ++round) {
      const double u = gen.next_double();
      if (u < 0.6 || cal.empty()) {
        // Bursty forward pushes; 10% duplicates of the current clock.
        const double t =
            gen.next_double() < 0.1
                ? clock
                : clock + gen.next_double() * (gen.next_double() < 0.05
                                                   ? 5000.0  // far future
                                                   : 3.0);
        cal.push(t, payload);
        heap.push(t, payload);
        ++payload;
      } else {
        const auto a = cal.pop();
        const auto b = heap.pop();
        EXPECT_EQ(a.t, b.t);
        EXPECT_EQ(a.seq, b.seq);
        EXPECT_EQ(a.payload, b.payload);
        clock = a.t;
      }
    }
    while (!cal.empty()) {
      ASSERT_FALSE(heap.empty());
      const auto a = cal.pop();
      const auto b = heap.pop();
      EXPECT_EQ(a.t, b.t);
      EXPECT_EQ(a.payload, b.payload);
    }
    EXPECT_TRUE(heap.empty());
  }
}

TEST(CalendarQueue, ResizesUnderLoadAndStaysOrdered) {
  CalendarQueue<int> q(1.0);
  for (int i = 0; i < 5000; ++i) {
    q.push(static_cast<double>((i * 37) % 1000), i);
  }
  EXPECT_GT(q.resizes(), 0);
  double prev = -1.0;
  while (!q.empty()) {
    const auto e = q.pop();
    EXPECT_GE(e.t, prev);
    prev = e.t;
  }
}

// --- fair share -------------------------------------------------------------

TEST(FairShare, RespectsDemandAndCapacity) {
  std::vector<ShareRequest> reqs = {
      {0, SlaTier::kGuaranteed, 10, 1.0, 6},
      {1, SlaTier::kBurst, 4, 2.0, 20},
      {2, SlaTier::kSpot, 0, 1.0, 50},
  };
  const auto a = fair_share(reqs, 30);
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(a[i], reqs[i].demand);
    EXPECT_GE(a[i], 0);
    sum += a[i];
  }
  EXPECT_LE(sum, 30);
  EXPECT_EQ(sum, 30);  // demand exceeds capacity, so it all goes
}

TEST(FairShare, GuaranteedQuotaBeatsBurstAndSpotWhenOversubscribed) {
  std::vector<ShareRequest> reqs = {
      {0, SlaTier::kSpot, 0, 10.0, 64},
      {1, SlaTier::kGuaranteed, 16, 1.0, 64},
      {2, SlaTier::kBurst, 8, 10.0, 64},
  };
  const auto a = fair_share(reqs, 16);  // exactly the guaranteed quota
  EXPECT_EQ(a[1], 16);
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(a[2], 0);
}

TEST(FairShare, SurplusSplitsByWeight) {
  std::vector<ShareRequest> reqs = {
      {0, SlaTier::kSpot, 0, 3.0, 1000},
      {1, SlaTier::kSpot, 0, 1.0, 1000},
  };
  const auto a = fair_share(reqs, 100);
  EXPECT_EQ(a[0], 75);
  EXPECT_EQ(a[1], 25);
}

TEST(FairShare, SaturatedTenantReleasesSurplusToOthers) {
  std::vector<ShareRequest> reqs = {
      {0, SlaTier::kSpot, 0, 1.0, 5},  // saturates far below its share
      {1, SlaTier::kSpot, 0, 1.0, 1000},
  };
  const auto a = fair_share(reqs, 100);
  EXPECT_EQ(a[0], 5);
  EXPECT_EQ(a[1], 95);
}

TEST(FairShare, JainIndexBounds) {
  EXPECT_DOUBLE_EQ(jain_index({1.0, 1.0, 1.0}), 1.0);
  EXPECT_NEAR(jain_index({1.0, 0.0, 0.0}), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
}

// --- tenant traces ----------------------------------------------------------

TEST(TenantTrace, DeterministicAndThreadInvariant) {
  const auto tenants = make_tenants(12, 256, 23);
  TenantTraceConfig cfg;
  cfg.horizon_s = 2.0 * 86400.0;
  cfg.peak_jobs_per_tenant_day = 6.0;
  cfg.threads = 1;
  const auto a = tenant_trace(tenants, cfg);
  cfg.threads = 4;
  const auto b = tenant_trace(tenants, cfg);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.id, static_cast<std::int64_t>(i));
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].spec.workload, b[i].spec.workload);
    EXPECT_EQ(a[i].spec.arrival_s, b[i].spec.arrival_s);
    EXPECT_EQ(a[i].spec.total_steps, b[i].spec.total_steps);
    if (i > 0) {
      EXPECT_GE(a[i].spec.arrival_s, a[i - 1].spec.arrival_s);
    }
  }
}

TEST(TenantTrace, DiurnalIntensityFollowsTheServingCurve) {
  // Submissions must cluster where the Fig-1 curve peaks: compare the
  // busiest to the quietest hour-of-day over a long trace.  The curve's
  // overnight trough keeps ~40% of the peak rate, so expect roughly 2x
  // contrast; assert 1.5x to stay robust to sampling noise.
  const auto tenants = make_tenants(24, 256, 5);
  TenantTraceConfig cfg;
  cfg.horizon_s = 4.0 * 86400.0;
  cfg.peak_jobs_per_tenant_day = 24.0;
  const auto jobs = tenant_trace(tenants, cfg);
  std::vector<double> by_hour(24, 0.0);
  for (const auto& j : jobs) {
    const auto day_s = std::fmod(j.spec.arrival_s, 86400.0);
    by_hour[static_cast<std::size_t>(day_s / 3600.0)] += 1.0;
  }
  double lo = by_hour[0], hi = by_hour[0];
  for (auto v : by_hour) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi, 1.5 * lo);
}

TEST(TenantTrace, TsvRoundTrip) {
  const auto tenants = make_tenants(5, 64, 3);
  TenantTraceConfig cfg;
  cfg.horizon_s = 86400.0;
  const auto jobs = tenant_trace(tenants, cfg);
  const std::string path = ::testing::TempDir() + "cluster_trace.tsv";
  save_trace_tsv(path, tenants, jobs);
  std::vector<Tenant> tenants2;
  const auto jobs2 = load_trace_tsv(path, &tenants2);
  ASSERT_EQ(tenants2.size(), tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    EXPECT_EQ(tenants2[i].id, tenants[i].id);
    EXPECT_EQ(tenants2[i].tier, tenants[i].tier);
    EXPECT_EQ(tenants2[i].quota_gpus, tenants[i].quota_gpus);
  }
  ASSERT_EQ(jobs2.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs2[i].spec.id, jobs[i].spec.id);
    EXPECT_EQ(jobs2[i].tenant, jobs[i].tenant);
    EXPECT_EQ(jobs2[i].spec.workload, jobs[i].spec.workload);
    EXPECT_EQ(jobs2[i].spec.max_p, jobs[i].spec.max_p);
    EXPECT_EQ(jobs2[i].spec.total_steps, jobs[i].spec.total_steps);
    EXPECT_EQ(jobs2[i].spec.allow_heter, jobs[i].spec.allow_heter);
    EXPECT_NEAR(jobs2[i].spec.arrival_s, jobs[i].spec.arrival_s, 1e-6);
  }
  std::remove(path.c_str());
}

// --- the service ------------------------------------------------------------

struct ServiceFixture {
  std::vector<Tenant> tenants;
  std::vector<ClusterJob> jobs;
  ClusterServiceConfig cfg;

  explicit ServiceFixture(std::uint64_t seed = 23, std::int64_t gpus = 96,
                          double peak_jobs_per_day = 10.0,
                          std::int64_t max_steps = 4000) {
    tenants = make_tenants(9, gpus, seed);
    TenantTraceConfig tcfg;
    tcfg.seed = seed;
    tcfg.horizon_s = 86400.0;
    tcfg.peak_jobs_per_tenant_day = peak_jobs_per_day;
    tcfg.max_steps = max_steps;
    jobs = tenant_trace(tenants, tcfg);
    cfg.capacity = {gpus / 2, gpus / 4, gpus / 4};
  }

  [[nodiscard]] ClusterMetrics run() const {
    ClusterService service(tenants, jobs, cfg);
    return service.run();
  }
};

TEST(ClusterService, AllJobsFinishAndMetricsAreConsistent) {
  ServiceFixture fx;
  const auto m = fx.run();
  EXPECT_EQ(m.jobs_finished, static_cast<std::int64_t>(fx.jobs.size()));
  EXPECT_GT(m.makespan, 0.0);
  EXPECT_GT(m.events_processed, static_cast<std::int64_t>(fx.jobs.size()));
  EXPECT_GT(m.plan_cache_hits, 0);
  EXPECT_GT(m.fairness, 0.0);
  EXPECT_LE(m.fairness, 1.0 + 1e-12);
  std::int64_t finished = 0;
  for (int t = 0; t < 3; ++t) {
    finished += m.per_tier[t].finished;
    EXPECT_GE(m.per_tier[t].jct_p99, m.per_tier[t].jct_p90);
    EXPECT_GE(m.per_tier[t].jct_p90, m.per_tier[t].jct_p50);
  }
  EXPECT_EQ(finished, m.jobs_finished);
}

TEST(ClusterService, ReplayIsBitwiseIdentical) {
  ServiceFixture fx;
  const auto a = fx.run();
  const auto b = fx.run();
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(ClusterService, QueueKindDoesNotChangeTheSchedule) {
  // The calendar queue is a performance structure, not a policy: swapping
  // it for the heap must leave the schedule bitwise unchanged.
  ServiceFixture fx;
  ClusterServiceConfig heap_cfg = fx.cfg;
  heap_cfg.queue = QueueKind::kHeap;
  ClusterService cal(fx.tenants, fx.jobs, fx.cfg);
  ClusterService heap(fx.tenants, fx.jobs, heap_cfg);
  const auto a = cal.run();
  const auto b = heap.run();
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(ClusterService, CapacityFeedsPreemptElasticallyNeverKill) {
  // A small, hot cluster so that losing capacity genuinely forces shrinks.
  ServiceFixture fx(/*seed=*/23, /*gpus=*/16, /*peak_jobs_per_day=*/40.0,
                    /*max_steps=*/20000);
  // Yank a large slice of the cluster mid-trace: failures (repairable),
  // SDC quarantine (permanent) and a degraded fabric link.
  for (int i = 0; i < 8; ++i) {
    fx.cfg.failures.push_back({20000.0 + 500.0 * i, 0, 30000.0});
  }
  fx.cfg.quarantines.push_back({30000.0, 1});
  fx.cfg.quarantines.push_back({31000.0, 1});
  fx.cfg.link_degrades.push_back({25000.0, 40000.0, 2, 4, 0.5});
  const auto m = fx.run();
  // Elastic revocation: every job still finishes, and shrink events were
  // actually exercised.
  EXPECT_EQ(m.jobs_finished, static_cast<std::int64_t>(fx.jobs.size()));
  EXPECT_GT(m.preemptions, 0);
  // The feeds must change the schedule (they really bite).
  const auto clean = ServiceFixture(23, 16, 40.0, 20000).run();
  EXPECT_NE(m.schedule_digest, clean.schedule_digest);
  // And replay deterministically.
  const auto replay = fx.run();
  EXPECT_EQ(m.schedule_digest, replay.schedule_digest);
  EXPECT_EQ(m.to_json(), replay.to_json());
}

TEST(ClusterService, GuaranteedTierOutperformsSpotUnderContention) {
  // Small cluster, heavy load: the SLA machinery must give guaranteed
  // tenants shorter median JCTs than spot tenants.
  ServiceFixture fx(/*seed=*/7, /*gpus=*/48);
  const auto m = fx.run();
  const auto& g = m.per_tier[static_cast<int>(SlaTier::kGuaranteed)];
  const auto& s = m.per_tier[static_cast<int>(SlaTier::kSpot)];
  ASSERT_GT(g.finished, 0);
  ASSERT_GT(s.finished, 0);
  EXPECT_LT(g.jct_p50, s.jct_p50);
  EXPECT_GE(g.attainment(), s.attainment() - 1e-12);
}

TEST(ClusterService, ServingColocationLendsAndReturnsCapacity) {
  ServiceFixture fx(/*seed=*/23, /*gpus=*/16, /*peak_jobs_per_day=*/40.0,
                    /*max_steps=*/20000);
  fx.cfg.serving_colocation = true;
  fx.cfg.serving.minutes = 2880;
  fx.cfg.serving_peak_fraction = 0.6;
  const auto m = fx.run();
  EXPECT_EQ(m.jobs_finished, static_cast<std::int64_t>(fx.jobs.size()));
  EXPECT_GT(m.preemptions, 0);  // the serving peak must claw back GPUs
  const auto replay = fx.run();
  EXPECT_EQ(m.schedule_digest, replay.schedule_digest);
}

// --- quarantine feed --------------------------------------------------------

TEST(QuarantineFeed, TraceIsDeterministicSortedAndBounded) {
  fault::QuarantineTraceConfig cfg;
  cfg.cluster = {16, 8, 4};
  cfg.rate_per_gpu_s = {1e-5, 2e-5, 5e-5};
  cfg.horizon_s = 1e6;
  const auto a = fault::sdc_quarantine_trace(cfg);
  const auto b = fault::sdc_quarantine_trace(cfg);
  ASSERT_EQ(a.size(), b.size());
  std::array<std::int64_t, 3> per_type{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_s, b[i].t_s);
    EXPECT_EQ(a[i].device_type, b[i].device_type);
    if (i > 0) {
      EXPECT_GE(a[i].t_s, a[i - 1].t_s);
    }
    ++per_type[static_cast<std::size_t>(a[i].device_type)];
  }
  for (int t = 0; t < 3; ++t) {
    EXPECT_LE(per_type[static_cast<std::size_t>(t)],
              cfg.cluster[static_cast<std::size_t>(t)]);
  }
}

TEST(QuarantineFeed, LedgerCountsByType) {
  fault::QuarantineLedger ledger;
  ledger.record(1.0, 0);
  ledger.record(2.0, 2);
  ledger.record(3.0, 2);
  EXPECT_EQ(ledger.total(), 3);
  const auto by_type = ledger.by_type();
  EXPECT_EQ(by_type[0], 1);
  EXPECT_EQ(by_type[1], 0);
  EXPECT_EQ(by_type[2], 2);
}

}  // namespace
}  // namespace easyscale::cluster
