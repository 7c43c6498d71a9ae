#include "fault/controller.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/digest.hpp"
#include "common/frame.hpp"
#include "rng/philox.hpp"

namespace easyscale::fault {
namespace {

/// Small control-message sizes for the fabric cost model: heartbeats,
/// promise requests and acks are header-sized, not payload-sized.
constexpr std::int64_t kHeartbeatBytes = 48;
constexpr std::int64_t kAckBytes = 16;

}  // namespace

const char* to_string(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::kMembershipEpoch:
      return "membership_epoch";
    case DecisionKind::kCondemnPropose:
      return "condemn_propose";
    case DecisionKind::kCondemnCommit:
      return "condemn_commit";
    case DecisionKind::kQuarantine:
      return "quarantine";
    case DecisionKind::kBlessCheckpoint:
      return "bless_checkpoint";
    case DecisionKind::kBlessPeerEpoch:
      return "bless_peer_epoch";
    case DecisionKind::kReshard:
      return "reshard";
    case DecisionKind::kRecoveryPoint:
      return "recovery_point";
    default:
      return "unknown";
  }
}

std::uint64_t DecisionRecord::content_digest() const {
  Digest d;
  d.update_u64(static_cast<std::uint64_t>(kind));
  d.update_u64(static_cast<std::uint64_t>(seq));
  d.update_u64(static_cast<std::uint64_t>(step));
  d.update_u64(static_cast<std::uint64_t>(arg0));
  d.update_u64(static_cast<std::uint64_t>(arg1));
  d.update_u64(static_cast<std::uint64_t>(arg2));
  return d.value();
}

std::uint64_t DecisionRecord::link_after(std::uint64_t prev_chain) const {
  Digest d;
  d.update_u64(prev_chain);
  d.update_u64(static_cast<std::uint64_t>(index));
  d.update_u64(static_cast<std::uint64_t>(epoch));
  d.update_u64(payload_digest);
  return d.value();
}

std::vector<std::uint8_t> DecisionRecord::serialize() const {
  ByteWriter w;
  w.write(kMagic);
  w.write(kVersion);
  w.write(static_cast<std::uint8_t>(kind));
  w.write(static_cast<std::uint8_t>(0));  // reserved
  w.write(index);
  w.write(epoch);
  w.write(seq);
  w.write(step);
  w.write(arg0);
  w.write(arg1);
  w.write(arg2);
  w.write(payload_digest);
  w.write(chain);
  // Sealed: any flipped byte above (or in the trailer itself) surfaces as
  // a parse error, never an applied entry.
  frame::seal(w);
  auto bytes = w.take();
  ES_CHECK(bytes.size() == kWireBytes,
           "decision record: serialized " << bytes.size() << " byte(s), want "
                                          << kWireBytes);
  return bytes;
}

DecisionRecord DecisionRecord::parse(std::span<const std::uint8_t> bytes) {
  ES_CHECK(bytes.size() == kWireBytes,
           "decision record: wire size " << bytes.size() << " byte(s), want "
                                         << kWireBytes);
  ByteReader r(frame::unseal(bytes, "decision record"));
  frame::expect_magic(r, kMagic, "decision record");
  frame::expect_version(r, kVersion, kVersion, "decision record");
  const auto kind_raw = r.read<std::uint8_t>();
  ES_CHECK(kind_raw < static_cast<std::uint8_t>(DecisionKind::kNumKinds),
           "decision record: unknown kind " << static_cast<int>(kind_raw));
  const auto reserved = r.read<std::uint8_t>();
  ES_CHECK(reserved == 0, "decision record: nonzero reserved byte");
  DecisionRecord rec;
  rec.kind = static_cast<DecisionKind>(kind_raw);
  rec.index = r.read<std::int64_t>();
  rec.epoch = r.read<std::int64_t>();
  rec.seq = r.read<std::int64_t>();
  rec.step = r.read<std::int64_t>();
  rec.arg0 = r.read<std::int64_t>();
  rec.arg1 = r.read<std::int64_t>();
  rec.arg2 = r.read<std::int64_t>();
  rec.payload_digest = r.read<std::uint64_t>();
  rec.chain = r.read<std::uint64_t>();
  r.require_exhausted("decision record");
  ES_CHECK(rec.index >= 0 && rec.epoch >= 0 && rec.seq >= 0,
           "decision record: negative index/epoch/seq");
  ES_CHECK(rec.payload_digest == rec.content_digest(),
           "decision record: payload digest mismatch");
  return rec;
}

std::string DecisionRecord::to_string() const {
  std::ostringstream os;
  os << fault::to_string(kind) << "#" << index << "@step" << step << "/epoch"
     << epoch << "(" << arg0 << "," << arg1 << "," << arg2 << ")";
  return os.str();
}

const DecisionRecord& DecisionLog::append_new(std::int64_t epoch,
                                              std::int64_t seq,
                                              DecisionKind kind,
                                              std::int64_t step,
                                              std::int64_t arg0,
                                              std::int64_t arg1,
                                              std::int64_t arg2) {
  DecisionRecord rec;
  rec.index = static_cast<std::int64_t>(records_.size());
  rec.epoch = epoch;
  rec.seq = seq;
  rec.kind = kind;
  rec.step = step;
  rec.arg0 = arg0;
  rec.arg1 = arg1;
  rec.arg2 = arg2;
  rec.payload_digest = rec.content_digest();
  rec.chain = rec.link_after(tail());
  return append(rec);
}

const DecisionRecord& DecisionLog::append(const DecisionRecord& rec) {
  ES_CHECK(rec.index == static_cast<std::int64_t>(records_.size()),
           "decision log: non-dense index "
               << rec.index << " at size " << records_.size()
               << " (duplicated or reordered entry)");
  ES_CHECK(rec.epoch >= last_epoch(),
           "decision log: epoch regressed from " << last_epoch() << " to "
                                                 << rec.epoch);
  ES_CHECK(rec.payload_digest == rec.content_digest(),
           "decision log: payload digest mismatch at index " << rec.index);
  ES_CHECK(rec.chain == rec.link_after(tail()),
           "decision log: broken chain link at index "
               << rec.index << " (reordered or tampered entry)");
  records_.push_back(rec);
  return records_.back();
}

std::uint64_t DecisionLog::tail() const {
  return records_.empty() ? 0 : records_.back().chain;
}

std::uint64_t DecisionLog::content_tail() const {
  Digest d;
  for (const auto& rec : records_) d.update_u64(rec.payload_digest);
  return d.value();
}

std::int64_t DecisionLog::last_epoch() const {
  return records_.empty() ? 0 : records_.back().epoch;
}

const DecisionRecord* DecisionLog::find_seq(std::int64_t seq) const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->seq == seq) return &*it;
    if (it->seq < seq) break;  // seqs are appended in increasing order
  }
  return nullptr;
}

std::vector<std::uint8_t> DecisionLog::serialize() const {
  ByteWriter w;
  w.write(kMagic);
  w.write<std::uint64_t>(records_.size());
  for (const auto& rec : records_) w.write_bytes(rec.serialize());
  w.write(tail());
  return w.take();
}

DecisionLog DecisionLog::parse(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  frame::expect_magic(r, kMagic, "decision log");
  const auto count =
      frame::read_count(r, DecisionRecord::kWireBytes, "decision log",
                        sizeof(std::uint64_t));
  DecisionLog log;
  for (std::uint64_t i = 0; i < count; ++i) {
    log.append(DecisionRecord::parse(r.read_bytes(DecisionRecord::kWireBytes)));
  }
  const auto trailer = r.read<std::uint64_t>();
  ES_CHECK(trailer == log.tail(),
           "decision log: tail digest mismatch (truncated or spliced log)");
  r.require_exhausted("decision log");
  return log;
}

double ControllerStats::decisions_per_second() const {
  if (virtual_time_s <= 0.0) return 0.0;
  return static_cast<double>(decisions_committed) / virtual_time_s;
}

ControlPlane::ControlPlane(ControllerConfig cfg)
    : cfg_(cfg),
      fabric_(cfg.replicas > 0 ? cfg.replicas : 1, cfg.fabric),
      lease_(cfg.replicas > 0 ? cfg.replicas : 1, cfg.lease) {
  ES_CHECK(cfg_.replicas >= 3 && cfg_.replicas % 2 == 1,
           "controller replicas must be odd and >= 3 (2f+1), got "
               << cfg_.replicas);
  ES_CHECK(cfg_.partition_heal_s > 0.0,
           "controller partition heal delay must be positive");
  ES_CHECK(cfg_.propose_attempts > 0,
           "controller propose attempts must be positive");
  replicas_.resize(static_cast<std::size_t>(cfg_.replicas));
  // Bootstrap election: rank 0 wins epoch 1 deterministically.
  ensure_leader();
}

bool ControlPlane::reach(int a, int b) const {
  const auto& ra = replicas_[static_cast<std::size_t>(a)];
  const auto& rb = replicas_[static_cast<std::size_t>(b)];
  return ra.alive && rb.alive && ra.group == rb.group;
}

std::vector<std::uint8_t> ControlPlane::alive_vec() const {
  std::vector<std::uint8_t> alive(replicas_.size(), 0);
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    alive[r] = replicas_[r].alive ? 1 : 0;
  }
  return alive;
}

int ControlPlane::live_replicas() const {
  int live = 0;
  for (const auto& r : replicas_) live += r.alive ? 1 : 0;
  return live;
}

bool ControlPlane::available() const {
  for (int c = 0; c < cfg_.replicas; ++c) {
    if (!replicas_[static_cast<std::size_t>(c)].alive) continue;
    int reached = 1;
    for (int r = 0; r < cfg_.replicas; ++r) {
      if (r != c && reach(c, r)) ++reached;
    }
    if (reached >= lease_.quorum()) return true;
  }
  return false;
}

const DecisionLog& ControlPlane::log() const {
  const int holder = lease_.state().holder;
  if (holder >= 0) return replicas_[static_cast<std::size_t>(holder)].log;
  std::size_t best = 0;
  for (std::size_t r = 1; r < replicas_.size(); ++r) {
    if (replicas_[r].log.size() > replicas_[best].log.size()) best = r;
  }
  return replicas_[best].log;
}

const DecisionLog& ControlPlane::replica_log(int r) const {
  ES_CHECK(r >= 0 && r < cfg_.replicas,
           "controller replica " << r << " out of range");
  return replicas_[static_cast<std::size_t>(r)].log;
}

void ControlPlane::crash_replica(std::int64_t pick) {
  const int r = static_cast<int>(((pick % cfg_.replicas) + cfg_.replicas) %
                                 cfg_.replicas);
  auto& rep = replicas_[static_cast<std::size_t>(r)];
  if (!rep.alive) return;
  rep.alive = false;
  fabric_.kill(r);
  ++stats_.replica_crashes;
  stats_.virtual_time_s = now();
}

void ControlPlane::partition(std::uint64_t seed) {
  heal_partitions();
  const int n = cfg_.replicas;
  const int f = (n - 1) / 2;
  if (f <= 0) return;
  // Seeded Fisher–Yates pick of a minority subset (1..f replicas) to
  // isolate: never a majority, so the main side always retains a quorum
  // of the replicas that are still alive.
  rng::Philox gen(seed);
  const int k = 1 + static_cast<int>(gen.next_below(
                        static_cast<std::uint64_t>(f)));
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(
        gen.next_below(static_cast<std::uint64_t>(i + 1)));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  for (int i = 0; i < k; ++i) {
    replicas_[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])]
        .group = 1;
  }
  heal_at_ = now() + cfg_.partition_heal_s;
  ++stats_.partitions;
}

void ControlPlane::heal_partitions() {
  for (auto& r : replicas_) r.group = 0;
  heal_at_ = -1.0;
}

void ControlPlane::heal_due() {
  if (heal_at_ >= 0.0 && now() >= heal_at_) heal_partitions();
}

void ControlPlane::charge_round(int src, std::int64_t bytes) {
  for (int r = 0; r < cfg_.replicas; ++r) {
    if (r == src || !replicas_[static_cast<std::size_t>(r)].alive) continue;
    if (!reach(src, r)) continue;
    const auto d = fabric_.send(src, r, bytes);
    fabric_.advance(d.elapsed_s);
    const auto ack = fabric_.send(r, src, kAckBytes);
    fabric_.advance(ack.elapsed_s);
  }
}

void ControlPlane::sync_leader(int new_leader) {
  auto& lead = replicas_[static_cast<std::size_t>(new_leader)];
  // Adopt the longest log among reachable replicas.  Every committed
  // entry is on a majority, and the new leader's grant quorum intersects
  // every majority, so the longest reachable log contains them all; an
  // uncommitted tail entry from a deposed leader is safe to adopt because
  // decision content is a deterministic function of training state — the
  // retry that follows would produce the identical bytes.
  int best = new_leader;
  for (int r = 0; r < cfg_.replicas; ++r) {
    if (r == new_leader || !reach(new_leader, r)) continue;
    const auto d = fabric_.send(r, new_leader, kHeartbeatBytes);
    fabric_.advance(d.elapsed_s);
    if (replicas_[static_cast<std::size_t>(r)].log.size() >
        replicas_[static_cast<std::size_t>(best)].log.size()) {
      best = r;
    }
  }
  if (best != new_leader) {
    auto pd = fabric_.send_payload(
        best, new_leader, replicas_[static_cast<std::size_t>(best)].log.serialize());
    fabric_.advance(pd.elapsed_s);
    if (pd.status == comm::DeliveryStatus::kDelivered) {
      lead.log = DecisionLog::parse(pd.bytes);
    }
  }
  // Re-replicate the adopted log to every reachable replica whose chain
  // diverges; that puts it on a majority and re-establishes the commit
  // watermark under the new epoch's fence.
  const auto adopted = lead.log.serialize();
  for (int r = 0; r < cfg_.replicas; ++r) {
    if (r == new_leader || !reach(new_leader, r)) continue;
    auto& rep = replicas_[static_cast<std::size_t>(r)];
    if (rep.log.size() == lead.log.size() &&
        rep.log.tail() == lead.log.tail()) {
      continue;
    }
    if (lease_.state().epoch < lease_.promised(r)) continue;  // fenced
    auto pd = fabric_.send_payload(new_leader, r, adopted);
    fabric_.advance(pd.elapsed_s);
    if (pd.status == comm::DeliveryStatus::kDelivered) {
      rep.log = DecisionLog::parse(pd.bytes);
    }
  }
  committed_ = static_cast<std::int64_t>(lead.log.size());
}

bool ControlPlane::ensure_leader() {
  heal_due();
  const auto reach_fn = [this](int a, int b) { return reach(a, b); };
  const comm::LeaseState before = lease_.state();
  if (before.holder >= 0 &&
      replicas_[static_cast<std::size_t>(before.holder)].alive &&
      lease_.renew(now(), alive_vec(), reach_fn)) {
    // Heartbeat-renewed: the holder still commands a majority.
    charge_round(before.holder, kHeartbeatBytes);
    stats_.virtual_time_s = now();
    return true;
  }
  // The holder crashed or lost its majority: wait out the old lease (no
  // new grant is safe while a deposed holder could still believe it
  // leads), then elect.  Detection itself costs a heartbeat deadline.
  const double t0 = now();
  const bool had_leader = before.holder >= 0;
  if (had_leader) {
    lease_.vacate();
    fabric_.advance(cfg_.fabric.heartbeat_deadline_s);
    fabric_.advance(std::max(0.0, before.expires_s - now()));
  }
  for (int round = 1; round <= cfg_.lease.max_election_rounds; ++round) {
    heal_due();
    const auto st = lease_.elect(now(), alive_vec(), reach_fn);
    if (st.holder >= 0) {
      ++stats_.elections;
      charge_round(st.holder, kHeartbeatBytes);  // promise round
      sync_leader(st.holder);
      if (had_leader) {
        ++stats_.failovers;
        stats_.last_failover_s = now() - t0;
        stats_.failover_wall_s += stats_.last_failover_s;
      }
      stats_.virtual_time_s = now();
      return true;
    }
    fabric_.advance(cfg_.lease.retry.delay_s(round));
  }
  stats_.virtual_time_s = now();
  return false;
}

DecisionRecord ControlPlane::propose(DecisionKind kind, std::int64_t step,
                                     std::int64_t arg0, std::int64_t arg1,
                                     std::int64_t arg2) {
  ++stats_.decisions_proposed;
  const std::int64_t seq = next_seq_++;
  for (int attempt = 1; attempt <= cfg_.propose_attempts; ++attempt) {
    heal_due();
    if (!ensure_leader()) {
      fabric_.advance(cfg_.lease.retry.delay_s(attempt));
      continue;
    }
    const int L = lease_.state().holder;
    auto& lead = replicas_[static_cast<std::size_t>(L)];
    // Idempotent retries: the entry may already have committed under a
    // previous leader and survived into the adopted log.
    if (const auto* ex = lead.log.find_seq(seq);
        ex != nullptr && ex->index < committed_) {
      ++stats_.decisions_committed;
      stats_.virtual_time_s = now();
      return *ex;
    }
    if (lead.log.find_seq(seq) == nullptr) {
      lead.log.append_new(lease_.state().epoch, seq, kind, step, arg0, arg1,
                          arg2);
    }
    const DecisionRecord rec = *lead.log.find_seq(seq);
    const auto wire = rec.serialize();
    int acks = 1;  // the leader's own log counts
    for (int r = 0; r < cfg_.replicas; ++r) {
      if (r == L || !replicas_[static_cast<std::size_t>(r)].alive) continue;
      if (!reach(L, r)) {
        // The append to an unreachable replica times out for real.
        fabric_.advance(cfg_.fabric.recv_deadline_s);
        continue;
      }
      auto pd = fabric_.send_payload(L, r, wire);
      fabric_.advance(pd.elapsed_s);
      if (pd.status != comm::DeliveryStatus::kDelivered) continue;
      bool acked = offer_to_replica(r, DecisionRecord::parse(pd.bytes));
      if (!acked && rec.epoch >= lease_.promised(r)) {
        // Lagging or divergent follower: backfill the whole leader log.
        auto fill = fabric_.send_payload(L, r, lead.log.serialize());
        fabric_.advance(fill.elapsed_s);
        if (fill.status == comm::DeliveryStatus::kDelivered) {
          replicas_[static_cast<std::size_t>(r)].log =
              DecisionLog::parse(fill.bytes);
          acked = true;
        }
      }
      if (acked) {
        ++acks;
        ++stats_.replica_acks;
        const auto ack = fabric_.send(r, L, kAckBytes);
        fabric_.advance(ack.elapsed_s);
      }
    }
    if (acks >= lease_.quorum()) {
      committed_ = rec.index + 1;
      ++stats_.decisions_committed;
      stats_.virtual_time_s = now();
      return rec;
    }
    ++stats_.commit_failures;
    fabric_.advance(cfg_.lease.retry.delay_s(attempt));
  }
  stats_.virtual_time_s = now();
  throw ControllerUnavailableError(
      "controller unavailable: no quorum among " +
      std::to_string(live_replicas()) + "/" + std::to_string(cfg_.replicas) +
      " live replicas for decision '" + std::string(to_string(kind)) +
      "' at step " + std::to_string(step));
}

bool ControlPlane::offer_to_replica(int r, const DecisionRecord& rec) {
  ES_CHECK(r >= 0 && r < cfg_.replicas,
           "controller replica " << r << " out of range");
  if (rec.epoch < lease_.promised(r)) {
    // Epoch fencing: a deposed leader's stale write is rejected, never
    // appended — the replica already promised a newer epoch.
    ++stats_.stale_rejections;
    return false;
  }
  auto& log = replicas_[static_cast<std::size_t>(r)].log;
  if (log.size() == static_cast<std::size_t>(rec.index)) {
    try {
      log.append(rec);
      return true;
    } catch (const Error&) {
      return false;  // divergent predecessor chain: needs backfill
    }
  }
  if (log.size() > static_cast<std::size_t>(rec.index)) {
    // Duplicate of an entry the replica already holds?
    return log.records()[static_cast<std::size_t>(rec.index)] == rec;
  }
  return false;  // lagging: needs backfill
}

}  // namespace easyscale::fault
