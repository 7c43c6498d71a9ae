#include "comm/resilient.hpp"

#include <algorithm>

namespace easyscale::comm {

namespace {

/// Flat element count of one bucket (parts are pre-validated, so part 0 is
/// representative).
std::int64_t bucket_numel(const BucketLayout& layout, std::size_t b,
                          const GradientSet& part) {
  std::int64_t n = 0;
  for (int id : layout.buckets[b]) {
    n += part.grads[static_cast<std::size_t>(id)].numel();
  }
  return n;
}

}  // namespace

void merge_collective_report(CollectiveReport& total,
                             const CollectiveReport& piece) {
  total.ok = (total.attempts == 0 ? true : total.ok) && piece.ok;
  total.attempts += piece.attempts;
  total.condemned.insert(total.condemned.end(), piece.condemned.begin(),
                         piece.condemned.end());
  total.survivors = piece.survivors;
  total.virtual_time_s += piece.virtual_time_s;
  total.backoff_wait_s += piece.backoff_wait_s;
  total.capped_backoffs += piece.capped_backoffs;
  total.incidents.insert(total.incidents.end(), piece.incidents.begin(),
                         piece.incidents.end());
}

CollectiveReport resilient_allreduce_average(
    const BucketLayout& layout, std::vector<GradientSet*>& parts,
    Transport& transport, MembershipMonitor& monitor,
    const ResilientConfig& cfg, const std::vector<int>* host_of_part) {
  validate_allreduce_inputs(layout, parts);
  ES_CHECK(cfg.max_attempts >= 1, "need at least one collective attempt");
  const int world = transport.world();
  std::vector<int> hosts;
  if (host_of_part != nullptr) {
    hosts = *host_of_part;
    ES_CHECK(hosts.size() == parts.size(),
             "host_of_part size " << hosts.size() << " != parts "
                                  << parts.size());
  } else {
    ES_CHECK(static_cast<int>(parts.size()) <= world,
             "identity mapping needs parts <= transport world");
    hosts.resize(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      hosts[i] = static_cast<int>(i);
    }
  }
  for (int h : hosts) {
    ES_CHECK(h >= 0 && h < world, "part host " << h << " out of range");
  }

  CollectiveReport report;
  const double t_base = transport.stats().virtual_time_s;
  transport.begin_collective();

  for (int attempt = 1; attempt <= cfg.max_attempts; ++attempt) {
    report.attempts = attempt;
    // Heartbeat round: live ranks report in before the transfers start.
    transport.advance(transport.config().heartbeat_period_s);
    const double hb_now = transport.stats().virtual_time_s;
    for (int r = 0; r < world; ++r) {
      if (transport.alive(r)) monitor.record_heartbeat(r, hb_now);
    }

    // Membership view for this attempt: parts whose host the monitor still
    // trusts.  Condemned hosts' parts are excluded (kShrink) — their
    // gradients stay untouched.
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (monitor.alive(hosts[i])) live.push_back(i);
    }
    if (live.empty()) {
      throw CollectiveAbortedError("all collective participants condemned");
    }
    const auto ring_w = static_cast<std::int64_t>(live.size());

    // Simulate the message timeline of the ring: per bucket, W-1
    // reduce-scatter steps then W-1 all-gather steps; within a step every
    // edge ships one chunk concurrently, so the step costs the slowest
    // transfer.  Any non-clean delivery aborts the in-flight operation —
    // partial reductions are never published.
    bool faulted = false;
    for (std::size_t b = 0; b < layout.buckets.size() && !faulted; ++b) {
      const std::int64_t flat = bucket_numel(layout, b, *parts[live[0]]);
      const std::int64_t chunk_bytes =
          ((flat + ring_w - 1) / ring_w) *
          static_cast<std::int64_t>(sizeof(float));
      for (std::int64_t step = 0; step < 2 * (ring_w - 1) && !faulted;
           ++step) {
        double step_s = 0.0;
        for (std::int64_t i = 0; i < ring_w; ++i) {
          const int src = hosts[live[static_cast<std::size_t>(i)]];
          const int dst =
              hosts[live[static_cast<std::size_t>((i + 1) % ring_w)]];
          if (src == dst) continue;  // co-hosted parts: local copy
          const Delivery d = transport.send(src, dst, chunk_bytes);
          step_s = std::max(step_s, d.elapsed_s);
          if (d.status == DeliveryStatus::kDelivered) continue;
          faulted = true;
          if (d.status == DeliveryStatus::kCorrupt) {
            report.incidents.push_back(
                {LinkFaultKind::kCorruptChunk, src, attempt});
          } else {  // timeout: a drop, an over-deadline stall, or death
            monitor.note_timeout(src);
            report.incidents.push_back(
                {LinkFaultKind::kDropChunk, src, attempt});
            transport.advance(d.elapsed_s);  // the receiver waited it out
            const double now = transport.stats().virtual_time_s;
            // Heartbeats are out-of-band and kept flowing during the wait:
            // live ranks stay fresh, a dead rank's last beat keeps aging —
            // so a single transient fault never condemns a live rank.
            for (int r = 0; r < world; ++r) {
              if (transport.alive(r)) monitor.record_heartbeat(r, now);
            }
            // Condemn EVERY rank whose deadline has expired, in ascending
            // rank order — when two deadlines expire at the same tick the
            // outcome must not depend on which send timed out first.
            const auto due = monitor.condemn_expired(now);
            if (!due.empty()) {
              for (const int dead : due) {
                report.condemned.push_back(dead);
                report.incidents.push_back(
                    {LinkFaultKind::kRankDeath, dead, attempt});
              }
              if (cfg.on_death == DeathPolicy::kAbort) {
                report.virtual_time_s =
                    transport.stats().virtual_time_s - t_base;
                throw RankDeathError(
                    due.front(),
                    "rank " + std::to_string(due.front()) +
                        " condemned mid-collective (heartbeat deadline "
                        "exceeded); in-flight all-reduce aborted");
              }
            }
          }
          break;  // abort the in-flight operation at the first fault
        }
        if (!faulted) transport.advance(step_s);
      }
    }

    if (!faulted) {
      // Deterministic (re-)execution: exactly the plain bucketed ring
      // all-reduce + average over the survivors' original gradients — the
      // same bits as a failure-free run at the survivor DoP.
      std::vector<GradientSet*> live_parts;
      live_parts.reserve(live.size());
      for (std::size_t i : live) live_parts.push_back(parts[i]);
      for (std::size_t b = 0; b < layout.buckets.size(); ++b) {
        allreduce_average_bucket(layout, b, live_parts);
      }
      for (std::size_t i : live) monitor.clear_timeouts(hosts[i]);
      report.ok = true;
      report.survivors.reserve(live.size());
      for (std::size_t i : live) {
        report.survivors.push_back(static_cast<int>(i));
      }
      report.virtual_time_s = transport.stats().virtual_time_s - t_base;
      return report;
    }

    // Transient fault (or a shrink): back off — bounded, jittered — and
    // re-execute from the untouched inputs.
    bool capped = false;
    const double wait = cfg.backoff.delay_s(attempt, &capped);
    report.backoff_wait_s += wait;
    if (capped) ++report.capped_backoffs;
    transport.advance(wait);
  }
  report.virtual_time_s = transport.stats().virtual_time_s - t_base;
  throw CollectiveAbortedError(
      "collective still faulting after " +
      std::to_string(cfg.max_attempts) + " attempts");
}

}  // namespace easyscale::comm
