// Deterministic fault injection (§2.1 motivation).
//
// The paper's premise is a cluster where GPUs are revoked and workers die
// mid-training; EasyScale's claim is that elastic jobs survive those events
// with *bitwise identical* results.  This injector produces the adversary:
// a Philox-seeded schedule of typed fault events — worker crashes, spot
// -style GPU revocations with a grace period, straggler slowdowns, torn
// checkpoint bytes, dropped all-reduce participants — each triggered at a
// reproducible (global step, worker) coordinate.  Same seed, same schedule,
// bit for bit; tests assert that so every recovery scenario is replayable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hpp"

namespace easyscale::fault {

enum class FaultKind : std::uint8_t {
  kWorkerCrash = 0,     // worker process dies; in-flight progress is lost
  kGpuRevocation = 1,   // spot revocation with a grace period to checkpoint
  kStraggler = 2,       // one worker slows down for one global step
  kTornCheckpoint = 3,  // newest on-disk checkpoint generation is mangled
  kCommDrop = 4,        // a participant drops out of the gradient all-reduce
  kCommChunkDrop = 5,   // one ring chunk is lost in flight (transient)
  kCommStalledLink = 6,  // one link slows down for one collective
  kCommRankDeath = 7,   // a rank goes silent mid-collective (fatal)
  kSdcBitFlip = 8,      // sticky device: mantissa bit-flips on kernel outputs
  kSdcPerturb = 9,      // sticky device: bounded relative perturbations
  kPeerReplicaLoss = 10,  // a rank's in-memory peer-checkpoint replica is lost
  kControllerCrash = 11,  // one control-plane replica dies (leader => failover)
  kControllerPartition = 12,  // controller fabric splits; heals after a delay
  kNumKinds = 13,
};

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kWorkerCrash;
  std::int64_t step = 0;    // global step at which the fault fires
  std::int64_t worker = 0;  // victim worker index (modulo live workers)
  double grace_s = 0.0;     // kGpuRevocation: notice before the GPU is gone
  double slowdown = 1.0;    // kStraggler: multiplier on the victim step time
  double stall_s = 0.0;     // kCommStalledLink: extra latency on the link
  std::uint64_t payload_seed = 0;  // kTornCheckpoint: corruption sub-seed

  void save(ByteWriter& w) const;
  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Poisson-like per-step fault rates over a bounded horizon.  Rates are
/// expected events per global step and may exceed 1 only for stress tests.
struct FaultPlanConfig {
  std::uint64_t seed = 0xFA017;
  std::int64_t horizon_steps = 64;  // events fire in steps [1, horizon)
  std::int64_t num_workers = 4;     // victim indices drawn below this
  double crash_rate = 0.0;
  double revocation_rate = 0.0;
  double straggler_rate = 0.0;
  double torn_checkpoint_rate = 0.0;
  double comm_drop_rate = 0.0;
  double revocation_grace_s = 30.0;
  double straggler_slowdown = 4.0;
  // Comm-level (in-collective) fault rates.  These are sampled from a
  // SEPARATE Philox stream (seed ^ kCommStreamSalt) appended after the
  // classic kinds, so enabling them never perturbs the schedule an existing
  // seed produces for crashes/revocations/stragglers/tears/drops.
  double chunk_drop_rate = 0.0;
  double stalled_link_rate = 0.0;
  double rank_death_rate = 0.0;
  double link_stall_s = 0.75;
  // Silent-data-corruption rates.  Like the comm kinds these draw from
  // their own salted stream (StreamId::kSdcPlan) appended after both
  // earlier families, so enabling SDC never reshuffles an existing seed's
  // crash or comm schedule.  The event's `worker` is the sticky corrupt
  // device slot; `payload_seed` keys the corruption pattern.
  double sdc_bitflip_rate = 0.0;
  double sdc_perturb_rate = 0.0;
  // Peer-checkpoint replica loss: one stored peer frame evaporates from a
  // rank's in-memory replica store (the event's `worker` picks the holder,
  // `payload_seed` picks which stored frame).  Drawn from a fourth salted
  // stream (StreamId::kPeerPlan) so enabling it reshuffles none of the
  // schedules above.
  double peer_replica_loss_rate = 0.0;
  // Control-plane faults: a controller replica crash or a controller-fabric
  // partition (the event's `worker` picks the replica / partition pivot,
  // `payload_seed` keys the isolated subset).  Drawn from a fifth salted
  // stream (StreamId::kControllerPlan) so arming them leaves every earlier
  // family's schedule for the same seed bitwise unchanged.
  double controller_crash_rate = 0.0;
  double controller_partition_rate = 0.0;
};

/// A fixed schedule of fault events plus a consume cursor.  Events fire at
/// most once: after a recovery rolls the engine's step counter back, the
/// replayed steps do NOT re-trigger already-fired events (a real cluster's
/// faults are wall-clock phenomena, not functions of training progress).
class FaultInjector {
 public:
  FaultInjector() = default;
  /// Takes an explicit schedule; events are stably sorted by step.
  explicit FaultInjector(std::vector<FaultEvent> schedule);

  /// Deterministically sample a schedule from per-step rates.
  [[nodiscard]] static FaultInjector from_config(const FaultPlanConfig& cfg);

  /// Pop every not-yet-fired event with `event.step <= step`, in schedule
  /// order, appending them to the fired log.
  std::vector<FaultEvent> take_due(std::int64_t step);

  [[nodiscard]] const std::vector<FaultEvent>& schedule() const {
    return schedule_;
  }
  [[nodiscard]] const std::vector<FaultEvent>& fired() const { return fired_; }
  [[nodiscard]] bool exhausted() const { return cursor_ == schedule_.size(); }

  /// FNV digest over the serialized schedule — the determinism witness
  /// (same seed => same digest, asserted in tests).
  [[nodiscard]] std::uint64_t schedule_digest() const;

  /// Deterministically mangle checkpoint bytes in memory: a few seeded bit
  /// flips plus a tail truncation.  Used for torn-write simulation.
  static void tear_bytes(std::vector<std::uint8_t>& bytes, std::uint64_t seed);

  /// Apply tear_bytes to a file on disk (a raw-bytes rewrite, bypassing
  /// the checkpoint writer so the stored digest no longer matches).  No-op
  /// when the file does not exist; returns whether it was torn.
  static bool tear_file(const std::string& path, std::uint64_t seed);

 private:
  std::vector<FaultEvent> schedule_;
  std::vector<FaultEvent> fired_;
  std::size_t cursor_ = 0;
};

}  // namespace easyscale::fault
