// Rotating checkpoint manager.
//
// Production elastic training checkpoints frequently (every scale event and
// periodically in between, §4).  A crash can tear the newest file, so the
// manager keeps the last `keep` generations (`<prefix>.0` newest ...
// `<prefix>.{keep-1}` oldest) and `load_latest_valid` walks back to the
// first generation whose digest verifies — the job never loses more than
// one checkpoint interval to corruption.
//
// Silent data corruption adds a second axis: a checkpoint can be perfectly
// well-formed on disk yet record *poisoned* parameters (the corruption
// happened in compute, before the bytes were written).  A generation is
// therefore only marked *verified* — via a `<path>.ok` sidecar recording
// the payload digest — after verify_generation() re-reads the file and
// revalidates its digest chain, and the caller (FaultSupervisor) only
// requests that when the engine's re-execution witness certified the
// checkpointed step.  SDC recovery restores through load_latest_verified.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/digest.hpp"

namespace easyscale::core {

class CheckpointManager {
 public:
  CheckpointManager(std::string prefix, int keep = 3);

  // --- Control-plane fencing (fault/controller.hpp) ---------------------
  //
  // When the supervisor's decisions are made by a replicated control
  // plane, every blessing and recovery carries the fencing epoch of the
  // leader that committed it.  The manager tracks the highest epoch it
  // has seen; a write or restore arriving with a LOWER epoch comes from a
  // deposed leader and is rejected with a named error — a stale blessing
  // can never overwrite or roll back a newer committed decision.

  /// Monotone: raising to an older epoch is a no-op.
  void raise_fence(std::int64_t epoch);
  [[nodiscard]] std::int64_t fence_epoch() const { return fence_epoch_; }

  /// Throws when `writer_epoch` sits below the fence — the caller is a
  /// deposed leader whose lease epoch was superseded.
  void check_fence(std::int64_t writer_epoch, const char* what) const;

  /// Fence-checked saves: identical to save() once the epoch clears the
  /// fence.  The replicated supervisor routes every blessing through
  /// these so a stale leader's checkpoint write is rejected, not applied.
  void save_fenced(std::int64_t writer_epoch,
                   const std::vector<std::uint8_t>& bytes,
                   const DigestChain& chain = {});

  /// Fence-checked phase-2 bless of an epoch-addressed checkpoint.
  bool bless_epoch_fenced(std::int64_t writer_epoch, std::int64_t epoch);

  /// Fence-checked recovery read: a deposed leader must not drive a
  /// restore decision either.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>>
  load_latest_valid_fenced(std::int64_t reader_epoch) const;

  // --- Epoch-addressed checkpoints (two-phase commit + retention GC) ----
  //
  // The peer-checkpoint pipeline (fault/peer_checkpoint.hpp) addresses
  // snapshots by EPOCH — the global step they capture — rather than by
  // rotation position, and needs the same two-phase discipline on disk:
  // phase 1 writes `<prefix>.epoch.<E>` (atomic tmp+rename, unblessed);
  // phase 2 re-reads the file, re-verifies its digest chain, and writes the
  // `.ok` sidecar (the bless).  A crash between the phases leaves an
  // unblessed file that load_latest_blessed_epoch() skips and gc_epochs()
  // deletes.  Retention keeps the newest `keep_blessed` blessed epochs plus
  // every pinned epoch, so soak runs stop accumulating snapshot files.

  /// Phase 1: persist epoch `E` unblessed (any existing file and sidecar
  /// for the epoch are replaced).
  void save_epoch(std::int64_t epoch, const std::vector<std::uint8_t>& bytes,
                  const DigestChain& chain);

  /// Phase 2: re-read, re-verify, bless.  Returns whether the epoch's file
  /// is intact (a torn phase-1 file stays unblessed).
  bool bless_epoch(std::int64_t epoch);

  /// Whether `epoch` carries a matching bless sidecar.
  [[nodiscard]] bool is_blessed(std::int64_t epoch) const;

  /// Newest blessed epoch whose file still verifies, with its digest
  /// chain.  Walks back across older blessed epochs when newer ones are
  /// torn; nullopt when none survives.
  [[nodiscard]] std::optional<
      std::tuple<std::int64_t, std::vector<std::uint8_t>, DigestChain>>
  load_latest_blessed_epoch() const;

  /// Pinned epochs survive gc_epochs() regardless of age (e.g. a milestone
  /// the operator wants to keep).
  void pin_epoch(std::int64_t epoch) { pinned_.insert(epoch); }
  void unpin_epoch(std::int64_t epoch) { pinned_.erase(epoch); }
  [[nodiscard]] const std::set<std::int64_t>& pinned_epochs() const {
    return pinned_;
  }

  /// Retention: delete every epoch file except the newest `keep_blessed`
  /// BLESSED epochs and all pinned epochs.  Unblessed epochs older than the
  /// newest blessed one are torn garbage and deleted too.  Returns the
  /// number of epoch files removed.
  int gc_epochs(int keep_blessed);

  /// Every epoch with a file on disk, ascending (scans the prefix's
  /// directory).
  [[nodiscard]] std::vector<std::int64_t> epochs_on_disk() const;

  [[nodiscard]] std::string epoch_path_for(std::int64_t epoch) const;
  [[nodiscard]] std::string epoch_sidecar_for(std::int64_t epoch) const;

  // --- Rotating generations (the original interface) --------------------

  /// Persist a new generation with an optional per-tensor digest chain
  /// (rotates older ones down, sidecars ride along).  The new generation
  /// starts UNVERIFIED.
  void save(const std::vector<std::uint8_t>& bytes,
            const DigestChain& chain = {});

  /// Re-read generation `g` from disk, revalidate its framing and digest
  /// chain, and on success write the `.ok` sidecar marking it restorable
  /// for SDC recovery.  Returns whether verification passed.
  bool verify_generation(int generation);

  /// Newest generation whose integrity checks pass, or nullopt when none.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> load_latest_valid()
      const;

  /// Newest generation that is both valid AND marked verified (sidecar
  /// present and matching the file's payload digest).  Returns the payload
  /// and its stored digest chain.
  [[nodiscard]] std::optional<
      std::pair<std::vector<std::uint8_t>, DigestChain>>
  load_latest_verified() const;

  /// Whether generation `g` carries a matching verification sidecar.
  [[nodiscard]] bool is_verified(int generation) const;

  /// Number of generations currently on disk (valid or not).
  [[nodiscard]] int generations_on_disk() const;

  [[nodiscard]] std::string path_for(int generation) const;
  [[nodiscard]] std::string sidecar_for(int generation) const;

  /// Delete every generation (and sidecar); epoch files are untouched
  /// (use gc_epochs(0) to drop unpinned epochs).
  void clear();

 private:
  std::string prefix_;
  int keep_;
  std::set<std::int64_t> pinned_;
  /// Highest controller fencing epoch seen; stale-writer rejection floor.
  std::int64_t fence_epoch_ = 0;
};

}  // namespace easyscale::core
