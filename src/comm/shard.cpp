#include "comm/shard.hpp"

#include <algorithm>

#include "comm/ring.hpp"
#include "common/error.hpp"

namespace easyscale::comm {

namespace {

/// Flat offset of each gradient id inside bucket `b`'s flatten, or -1 for
/// gradients outside the bucket.
std::vector<std::int64_t> bucket_offsets(const BucketLayout& layout,
                                         std::size_t b,
                                         const GradientSet& part) {
  std::vector<std::int64_t> off(part.grads.size(), -1);
  std::int64_t cursor = 0;
  for (int id : layout.buckets[b]) {
    off[static_cast<std::size_t>(id)] = cursor;
    cursor += part.grads[static_cast<std::size_t>(id)].numel();
  }
  return off;
}

std::int64_t bucket_numel(const BucketLayout& layout, std::size_t b,
                          const GradientSet& part) {
  std::int64_t n = 0;
  for (int id : layout.buckets[b]) {
    n += part.grads[static_cast<std::size_t>(id)].numel();
  }
  return n;
}

/// Shared retry scaffold for the resilient sharded collectives: heartbeat
/// round, membership view, simulated transfer timeline (`steps_per_round`
/// ring steps shipping `chunk_bytes` per edge), abort on the first fault,
/// clean re-execution via `execute`.  Death always aborts (shard owners
/// cannot shrink away).
template <typename ExecuteFn>
CollectiveReport run_sharded_collective(std::size_t num_parts,
                                        std::int64_t total_numel,
                                        std::int64_t steps_per_round,
                                        Transport& transport,
                                        MembershipMonitor& monitor,
                                        const ResilientConfig& cfg,
                                        const std::vector<int>* host_of_part,
                                        ExecuteFn&& execute) {
  ES_CHECK(cfg.on_death == DeathPolicy::kAbort,
           "sharded collectives require cfg.on_death == DeathPolicy::kAbort: "
           "a shard owner's optimizer-state chunks have no live replica "
           "inside the collective, so death cannot shrink away");
  ES_CHECK(cfg.max_attempts >= 1, "need at least one collective attempt");
  const int world = transport.world();
  std::vector<int> hosts;
  if (host_of_part != nullptr) {
    hosts = *host_of_part;
    ES_CHECK(hosts.size() == num_parts, "host_of_part size "
                                            << hosts.size() << " != parts "
                                            << num_parts);
  } else {
    ES_CHECK(static_cast<int>(num_parts) <= world,
             "identity mapping needs parts <= transport world");
    hosts.resize(num_parts);
    for (std::size_t i = 0; i < num_parts; ++i) {
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
    transport.advance(transport.config().heartbeat_period_s);
    const double hb_now = transport.stats().virtual_time_s;
    for (int r = 0; r < world; ++r) {
      if (transport.alive(r)) monitor.record_heartbeat(r, hb_now);
    }

    // Under kAbort the collective needs every participant: a host the
    // monitor no longer trusts means the step must roll back and reshard.
    for (std::size_t i = 0; i < num_parts; ++i) {
      if (!monitor.alive(hosts[i])) {
        report.virtual_time_s = transport.stats().virtual_time_s - t_base;
        throw RankDeathError(
            hosts[i], "shard owner rank " + std::to_string(hosts[i]) +
                          " dead before sharded collective; step must roll "
                          "back and reshard");
      }
    }
    const auto ring_w = static_cast<std::int64_t>(num_parts);
    const std::int64_t chunk_bytes =
        ring_w == 0 ? 0
                    : ((total_numel + ring_w - 1) / ring_w) *
                          static_cast<std::int64_t>(sizeof(float));

    bool faulted = false;
    for (std::int64_t step = 0; step < steps_per_round && !faulted; ++step) {
      double step_s = 0.0;
      for (std::int64_t i = 0; i < ring_w; ++i) {
        const int src = hosts[static_cast<std::size_t>(i)];
        const int dst = hosts[static_cast<std::size_t>((i + 1) % ring_w)];
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
          report.incidents.push_back({LinkFaultKind::kDropChunk, src, attempt});
          transport.advance(d.elapsed_s);
          const double now = transport.stats().virtual_time_s;
          for (int r = 0; r < world; ++r) {
            if (transport.alive(r)) monitor.record_heartbeat(r, now);
          }
          // Rank-ordered batch condemnation: simultaneous deadline expiry
          // resolves by ascending rank, never by send order.
          const auto due = monitor.condemn_expired(now);
          if (!due.empty()) {
            for (const int dead : due) {
              report.condemned.push_back(dead);
              report.incidents.push_back(
                  {LinkFaultKind::kRankDeath, dead, attempt});
            }
            report.virtual_time_s = transport.stats().virtual_time_s - t_base;
            throw RankDeathError(
                due.front(),
                "rank " + std::to_string(due.front()) +
                    " condemned mid-collective (heartbeat deadline "
                    "exceeded); in-flight sharded collective aborted");
          }
        }
        break;  // abort the in-flight operation at the first fault
      }
      if (!faulted) transport.advance(step_s);
    }

    if (!faulted) {
      // Deterministic (re-)execution from the untouched inputs.
      execute();
      for (std::size_t i = 0; i < num_parts; ++i) {
        monitor.clear_timeouts(hosts[i]);
      }
      report.ok = true;
      report.survivors.reserve(num_parts);
      for (std::size_t i = 0; i < num_parts; ++i) {
        report.survivors.push_back(static_cast<int>(i));
      }
      report.virtual_time_s = transport.stats().virtual_time_s - t_base;
      return report;
    }

    bool capped = false;
    const double wait = cfg.backoff.delay_s(attempt, &capped);
    report.backoff_wait_s += wait;
    if (capped) ++report.capped_backoffs;
    transport.advance(wait);
  }
  report.virtual_time_s = transport.stats().virtual_time_s - t_base;
  throw CollectiveAbortedError("sharded collective still faulting after " +
                               std::to_string(cfg.max_attempts) +
                               " attempts");
}

}  // namespace

std::int64_t slices_numel(const std::vector<optim::ParamSlice>& slices) {
  std::int64_t n = 0;
  for (const auto& s : slices) n += s.end - s.begin;
  return n;
}

void validate_reduce_scatter_inputs(
    const BucketLayout& layout, const std::vector<GradientSet*>& parts,
    const std::vector<ShardSlices>& owned_of_part) {
  validate_allreduce_inputs(layout, parts);
  ES_CHECK(owned_of_part.size() == parts.size(),
           "owned_of_part has " << owned_of_part.size()
                                << " entries, parts has " << parts.size()
                                << " (one slice list per part required)");
  const auto num_grads = parts[0]->grads.size();
  for (std::size_t r = 0; r < owned_of_part.size(); ++r) {
    // Per (rank, param): collect intervals and reject overlap — one rank
    // updating an element twice would double-apply the optimizer step.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> by_param(
        num_grads);
    for (const auto& s : owned_of_part[r]) {
      ES_CHECK(s.param < num_grads,
               "owned_of_part[" << r << "] slice references parameter "
                                << s.param << " outside [0, " << num_grads
                                << ")");
      const std::int64_t n = parts[0]->grads[s.param].numel();
      ES_CHECK(s.begin >= 0 && s.begin <= s.end && s.end <= n,
               "owned_of_part[" << r << "] slice [" << s.begin << ", "
                                << s.end << ") out of range for parameter "
                                << s.param << " (numel " << n << ")");
      by_param[s.param].emplace_back(s.begin, s.end);
    }
    for (std::size_t p = 0; p < by_param.size(); ++p) {
      auto& iv = by_param[p];
      std::sort(iv.begin(), iv.end());
      for (std::size_t i = 1; i < iv.size(); ++i) {
        ES_CHECK(iv[i].first >= iv[i - 1].second,
                 "owned_of_part[" << r << "] slices overlap on parameter "
                                  << p << " ([" << iv[i - 1].first << ", "
                                  << iv[i - 1].second << ") and ["
                                  << iv[i].first << ", " << iv[i].second
                                  << "))");
      }
    }
  }
}

void validate_all_gather_inputs(
    const std::vector<autograd::ParameterStore*>& stores,
    const std::vector<optim::ParamSlice>& slices,
    const std::vector<int>& source_of_slice) {
  ES_CHECK(!stores.empty(), "all_gather over zero stores");
  for (std::size_t r = 0; r < stores.size(); ++r) {
    ES_CHECK(stores[r] != nullptr, "all_gather store " << r << " is null");
    ES_CHECK(stores[r]->size() == stores[0]->size(),
             "all_gather store " << r << " has " << stores[r]->size()
                                 << " parameters, store 0 has "
                                 << stores[0]->size());
  }
  ES_CHECK(source_of_slice.size() == slices.size(),
           "source_of_slice has " << source_of_slice.size()
                                  << " entries, slices has " << slices.size()
                                  << " (one source per slice required)");
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const auto& s = slices[i];
    ES_CHECK(s.param < stores[0]->size(),
             "slices[" << i << "] references parameter " << s.param
                       << " outside [0, " << stores[0]->size() << ")");
    const std::int64_t n = stores[0]->all()[s.param]->numel();
    ES_CHECK(s.begin >= 0 && s.begin <= s.end && s.end <= n,
             "slices[" << i << "] range [" << s.begin << ", " << s.end
                       << ") out of range for parameter " << s.param
                       << " (numel " << n << ")");
    const int src = source_of_slice[i];
    ES_CHECK(src >= 0 && src < static_cast<int>(stores.size()),
             "source_of_slice[" << i << "] = " << src << " outside [0, "
                                << stores.size() << ")");
    for (std::size_t r = 1; r < stores.size(); ++r) {
      ES_CHECK(stores[r]->all()[s.param]->numel() == n,
               "parameter " << s.param << " shape disagrees between store 0 "
                            << "and store " << r
                            << " (all_gather cannot apply)");
    }
  }
}

void reduce_scatter_average_bucket(
    const BucketLayout& layout, std::size_t b,
    const std::vector<GradientSet*>& parts,
    const std::vector<ShardSlices>& owned_of_part) {
  ES_CHECK(b < layout.buckets.size(), "bucket index out of range");
  const auto& bucket = layout.buckets[b];
  const float inv_world = 1.0f / static_cast<float>(parts.size());
  std::int64_t flat_len = 0;
  for (int id : bucket) {
    flat_len += parts[0]->grads[static_cast<std::size_t>(id)].numel();
  }
  // Identical flatten + full-world ring association + average as
  // allreduce_average_bucket: sharding must not change a single summed bit.
  std::vector<std::vector<float>> flats(parts.size());
  for (std::size_t r = 0; r < parts.size(); ++r) {
    flats[r].resize(static_cast<std::size_t>(flat_len));
    std::int64_t off = 0;
    for (int id : bucket) {
      const auto& g = parts[r]->grads[static_cast<std::size_t>(id)];
      std::copy(g.data().begin(), g.data().end(), flats[r].begin() + off);
      off += g.numel();
    }
  }
  std::vector<std::span<const float>> views;
  views.reserve(parts.size());
  for (const auto& f : flats) views.emplace_back(f);
  std::vector<float> reduced(static_cast<std::size_t>(flat_len));
  ring_allreduce_sum(views, reduced);
  for (auto& v : reduced) v *= inv_world;
  // Scatter: each part receives only the averaged elements it owns.
  const auto offsets = bucket_offsets(layout, b, *parts[0]);
  for (std::size_t r = 0; r < parts.size(); ++r) {
    for (const auto& s : owned_of_part[r]) {
      const std::int64_t base = offsets[s.param];
      if (base < 0) continue;  // parameter lives in another bucket
      auto& g = parts[r]->grads[s.param];
      std::copy(reduced.begin() + base + s.begin,
                reduced.begin() + base + s.end, g.data().begin() + s.begin);
    }
  }
}

void reduce_scatter_average(const BucketLayout& layout,
                            std::vector<GradientSet*>& parts,
                            const std::vector<ShardSlices>& owned_of_part) {
  validate_reduce_scatter_inputs(layout, parts, owned_of_part);
  for (std::size_t b = 0; b < layout.buckets.size(); ++b) {
    reduce_scatter_average_bucket(layout, b, parts, owned_of_part);
  }
}

void all_gather_params(const std::vector<autograd::ParameterStore*>& stores,
                       const std::vector<optim::ParamSlice>& slices,
                       const std::vector<int>& source_of_slice) {
  validate_all_gather_inputs(stores, slices, source_of_slice);
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const auto& s = slices[i];
    const auto src = static_cast<std::size_t>(source_of_slice[i]);
    const auto& from = stores[src]->all()[s.param]->value;
    for (std::size_t r = 0; r < stores.size(); ++r) {
      if (r == src) continue;
      auto& to = stores[r]->all()[s.param]->value;
      std::copy(from.data().begin() + s.begin, from.data().begin() + s.end,
                to.data().begin() + s.begin);
    }
  }
}

CollectiveReport resilient_reduce_scatter_average(
    const BucketLayout& layout, std::vector<GradientSet*>& parts,
    const std::vector<ShardSlices>& owned_of_part, Transport& transport,
    MembershipMonitor& monitor, const ResilientConfig& cfg,
    const std::vector<int>* host_of_part) {
  validate_reduce_scatter_inputs(layout, parts, owned_of_part);
  std::int64_t total = 0;
  for (std::size_t b = 0; b < layout.buckets.size(); ++b) {
    total += bucket_numel(layout, b, *parts[0]);
  }
  const auto ring_w = static_cast<std::int64_t>(parts.size());
  return run_sharded_collective(
      parts.size(), total, /*steps_per_round=*/ring_w - 1, transport, monitor,
      cfg, host_of_part, [&] {
        for (std::size_t b = 0; b < layout.buckets.size(); ++b) {
          reduce_scatter_average_bucket(layout, b, parts, owned_of_part);
        }
      });
}

CollectiveReport resilient_all_gather_params(
    const std::vector<autograd::ParameterStore*>& stores,
    const std::vector<optim::ParamSlice>& slices,
    const std::vector<int>& source_of_slice, Transport& transport,
    MembershipMonitor& monitor, const ResilientConfig& cfg,
    const std::vector<int>* host_of_store) {
  validate_all_gather_inputs(stores, slices, source_of_slice);
  const auto ring_w = static_cast<std::int64_t>(stores.size());
  return run_sharded_collective(
      stores.size(), slices_numel(slices), /*steps_per_round=*/ring_w - 1,
      transport, monitor, cfg, host_of_store,
      [&] { all_gather_params(stores, slices, source_of_slice); });
}

}  // namespace easyscale::comm
