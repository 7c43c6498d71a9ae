#include "fault/injector.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/frame.hpp"
#include "fault/streams.hpp"
#include "rng/philox.hpp"

namespace easyscale::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kWorkerCrash:
      return "worker_crash";
    case FaultKind::kGpuRevocation:
      return "gpu_revocation";
    case FaultKind::kStraggler:
      return "straggler";
    case FaultKind::kTornCheckpoint:
      return "torn_checkpoint";
    case FaultKind::kCommDrop:
      return "comm_drop";
    case FaultKind::kCommChunkDrop:
      return "comm_chunk_drop";
    case FaultKind::kCommStalledLink:
      return "comm_stalled_link";
    case FaultKind::kCommRankDeath:
      return "comm_rank_death";
    case FaultKind::kSdcBitFlip:
      return "sdc_bit_flip";
    case FaultKind::kSdcPerturb:
      return "sdc_perturb";
    case FaultKind::kPeerReplicaLoss:
      return "peer_replica_loss";
    case FaultKind::kControllerCrash:
      return "controller_crash";
    case FaultKind::kControllerPartition:
      return "controller_partition";
    default:
      return "unknown";
  }
}

void FaultEvent::save(ByteWriter& w) const {
  w.write<std::uint8_t>(static_cast<std::uint8_t>(kind));
  w.write(step);
  w.write(worker);
  w.write(grace_s);
  w.write(slowdown);
  w.write(stall_s);
  w.write(payload_seed);
}

std::string FaultEvent::to_string() const {
  std::ostringstream os;
  os << fault::to_string(kind) << "@step" << step << "/worker" << worker;
  return os.str();
}

FaultInjector::FaultInjector(std::vector<FaultEvent> schedule)
    : schedule_(std::move(schedule)) {
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.step < b.step;
                   });
}

FaultInjector FaultInjector::from_config(const FaultPlanConfig& cfg) {
  ES_CHECK(cfg.num_workers > 0, "need at least one worker to injure");
  ES_CHECK(cfg.horizon_steps >= 1, "fault horizon must be positive");
  rng::Philox gen(cfg.seed);
  std::vector<FaultEvent> events;
  // One Bernoulli draw per (step, kind) in a fixed kind order keeps the
  // stream consumption — and therefore the schedule — seed-deterministic.
  const struct {
    FaultKind kind;
    double rate;
  } kinds[] = {
      {FaultKind::kWorkerCrash, cfg.crash_rate},
      {FaultKind::kGpuRevocation, cfg.revocation_rate},
      {FaultKind::kStraggler, cfg.straggler_rate},
      {FaultKind::kTornCheckpoint, cfg.torn_checkpoint_rate},
      {FaultKind::kCommDrop, cfg.comm_drop_rate},
  };
  for (std::int64_t step = 1; step < cfg.horizon_steps; ++step) {
    for (const auto& k : kinds) {
      const double u = gen.next_double();
      const auto worker = static_cast<std::int64_t>(
          gen.next_below(static_cast<std::uint64_t>(cfg.num_workers)));
      const std::uint64_t sub_seed = gen.next_u64();
      if (u >= k.rate) continue;
      FaultEvent e;
      e.kind = k.kind;
      e.step = step;
      e.worker = worker;
      e.payload_seed = sub_seed;
      if (k.kind == FaultKind::kGpuRevocation) e.grace_s = cfg.revocation_grace_s;
      if (k.kind == FaultKind::kStraggler) e.slowdown = cfg.straggler_slowdown;
      events.push_back(e);
    }
  }
  // Comm-level kinds draw from a salted second stream so a pre-existing
  // seed's classic schedule is bitwise unchanged when these rates are zero
  // (zero-rate draws below never consume from `gen`).
  rng::Philox comm_gen(cfg.seed ^ stream_salt(StreamId::kCommFaultPlan));
  const struct {
    FaultKind kind;
    double rate;
  } comm_kinds[] = {
      {FaultKind::kCommChunkDrop, cfg.chunk_drop_rate},
      {FaultKind::kCommStalledLink, cfg.stalled_link_rate},
      {FaultKind::kCommRankDeath, cfg.rank_death_rate},
  };
  for (std::int64_t step = 1; step < cfg.horizon_steps; ++step) {
    for (const auto& k : comm_kinds) {
      const double u = comm_gen.next_double();
      const auto worker = static_cast<std::int64_t>(
          comm_gen.next_below(static_cast<std::uint64_t>(cfg.num_workers)));
      const std::uint64_t sub_seed = comm_gen.next_u64();
      if (u >= k.rate) continue;
      FaultEvent e;
      e.kind = k.kind;
      e.step = step;
      e.worker = worker;
      e.payload_seed = sub_seed;
      if (k.kind == FaultKind::kCommStalledLink) e.stall_s = cfg.link_stall_s;
      events.push_back(e);
    }
  }
  // SDC kinds draw from a third dedicated stream (same triple-draw
  // discipline), so adding corruption to an experiment leaves both earlier
  // families' schedules for the same seed bitwise unchanged.
  rng::Philox sdc_gen(cfg.seed ^ stream_salt(StreamId::kSdcPlan));
  const struct {
    FaultKind kind;
    double rate;
  } sdc_kinds[] = {
      {FaultKind::kSdcBitFlip, cfg.sdc_bitflip_rate},
      {FaultKind::kSdcPerturb, cfg.sdc_perturb_rate},
  };
  for (std::int64_t step = 1; step < cfg.horizon_steps; ++step) {
    for (const auto& k : sdc_kinds) {
      const double u = sdc_gen.next_double();
      const auto worker = static_cast<std::int64_t>(
          sdc_gen.next_below(static_cast<std::uint64_t>(cfg.num_workers)));
      const std::uint64_t sub_seed = sdc_gen.next_u64();
      if (u >= k.rate) continue;
      FaultEvent e;
      e.kind = k.kind;
      e.step = step;
      e.worker = worker;
      e.payload_seed = sub_seed;
      events.push_back(e);
    }
  }
  // Peer-replica-loss events draw from a fourth dedicated stream with the
  // same triple-draw discipline: turning replica loss on (or off) leaves
  // the classic, comm and SDC schedules for the same seed bitwise intact.
  rng::Philox peer_gen(cfg.seed ^ stream_salt(StreamId::kPeerPlan));
  for (std::int64_t step = 1; step < cfg.horizon_steps; ++step) {
    const double u = peer_gen.next_double();
    const auto worker = static_cast<std::int64_t>(
        peer_gen.next_below(static_cast<std::uint64_t>(cfg.num_workers)));
    const std::uint64_t sub_seed = peer_gen.next_u64();
    if (u >= cfg.peer_replica_loss_rate) continue;
    FaultEvent e;
    e.kind = FaultKind::kPeerReplicaLoss;
    e.step = step;
    e.worker = worker;
    e.payload_seed = sub_seed;
    events.push_back(e);
  }
  // Control-plane kinds draw from a fifth dedicated stream with the same
  // triple-draw discipline: arming controller crashes/partitions leaves the
  // classic, comm, SDC and peer schedules for the same seed bitwise intact.
  rng::Philox ctrl_gen(cfg.seed ^ stream_salt(StreamId::kControllerPlan));
  const struct {
    FaultKind kind;
    double rate;
  } ctrl_kinds[] = {
      {FaultKind::kControllerCrash, cfg.controller_crash_rate},
      {FaultKind::kControllerPartition, cfg.controller_partition_rate},
  };
  for (std::int64_t step = 1; step < cfg.horizon_steps; ++step) {
    for (const auto& k : ctrl_kinds) {
      const double u = ctrl_gen.next_double();
      const auto worker = static_cast<std::int64_t>(
          ctrl_gen.next_below(static_cast<std::uint64_t>(cfg.num_workers)));
      const std::uint64_t sub_seed = ctrl_gen.next_u64();
      if (u >= k.rate) continue;
      FaultEvent e;
      e.kind = k.kind;
      e.step = step;
      e.worker = worker;
      e.payload_seed = sub_seed;
      events.push_back(e);
    }
  }
  return FaultInjector(std::move(events));
}

std::vector<FaultEvent> FaultInjector::take_due(std::int64_t step) {
  std::vector<FaultEvent> due;
  while (cursor_ < schedule_.size() && schedule_[cursor_].step <= step) {
    due.push_back(schedule_[cursor_]);
    fired_.push_back(schedule_[cursor_]);
    ++cursor_;
  }
  return due;
}

std::uint64_t FaultInjector::schedule_digest() const {
  ByteWriter w;
  for (const auto& e : schedule_) e.save(w);
  return digest_bytes(w.bytes());
}

void FaultInjector::tear_bytes(std::vector<std::uint8_t>& bytes,
                               std::uint64_t seed) {
  if (bytes.empty()) return;
  rng::Philox gen(seed);
  // A torn write leaves a prefix of garbage-sprinkled data: flip a handful
  // of bits, then chop a seeded fraction off the tail.
  const std::uint64_t flips = 1 + gen.next_below(8);
  for (std::uint64_t i = 0; i < flips; ++i) {
    const auto pos = gen.next_below(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1u << gen.next_below(8));
  }
  const auto keep =
      bytes.size() - gen.next_below(bytes.size() / 2 + 1);  // >= half kept
  bytes.resize(keep);
}

bool FaultInjector::tear_file(const std::string& path, std::uint64_t seed) {
  if (!std::filesystem::exists(path)) return false;
  std::vector<std::uint8_t> bytes = frame::read_file(path);
  tear_bytes(bytes, seed);
  frame::write_file(path, bytes);
  return true;
}

}  // namespace easyscale::fault
