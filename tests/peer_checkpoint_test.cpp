// Peer-replicated checkpointing (fault/peer_checkpoint.hpp): frame
// round trips, replica placement rules, the two-phase epoch commit
// protocol, and the crash-point sweep — whatever state the pipeline dies in
// (staged-only, prepared-but-unblessed, aborted), recovery must never
// surface an unblessed epoch.  The frame's every-byte flip and truncation
// sweep runs with the other formats' in frame_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "comm/transport.hpp"
#include "common/error.hpp"
#include "core/checkpoint_manager.hpp"
#include "fault/injector.hpp"
#include "fault/peer_checkpoint.hpp"

namespace easyscale::fault {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xFF);
  }
  return out;
}

comm::TransportConfig fast_fabric() {
  comm::TransportConfig cfg;
  cfg.recv_deadline_s = 0.05;
  return cfg;
}

PeerFrame sample_frame(std::size_t payload_size) {
  PeerFrame frame;
  frame.epoch = 7;
  frame.owner = 1;
  frame.world = 4;
  frame.payload = pattern_bytes(payload_size, 0x5A);
  return frame;
}

TEST(PeerCheckpointFrame, SerializeParseRoundTrip) {
  const PeerFrame frame = sample_frame(10000);  // > 2 slabs
  const auto wire = frame.serialize();
  const PeerFrame back = PeerFrame::parse(wire);
  EXPECT_EQ(back.epoch, frame.epoch);
  EXPECT_EQ(back.owner, frame.owner);
  EXPECT_EQ(back.world, frame.world);
  EXPECT_EQ(back.payload, frame.payload);
}

TEST(PeerCheckpointFrame, EmptyPayloadRoundTrips) {
  PeerFrame frame;
  frame.epoch = 1;
  frame.owner = 0;
  frame.world = 2;
  const PeerFrame back = PeerFrame::parse(frame.serialize());
  EXPECT_TRUE(back.payload.empty());
}

TEST(PeerCheckpointPlacement, RingOrderSkipsOwnNodeAndExcluded) {
  // 8 ranks, 2 per node.  Owner 0's node holds {0,1}.
  EXPECT_EQ(choose_peers(0, 8, 2, 2, {}), (std::vector<int>{2, 3}));
  // Excluding 2 shifts to the next off-node candidates.
  EXPECT_EQ(choose_peers(0, 8, 2, 2, {2}), (std::vector<int>{3, 4}));
  // Wrap-around: owner 7's node holds {6,7}.
  EXPECT_EQ(choose_peers(7, 8, 2, 2, {}), (std::vector<int>{0, 1}));
  // One rank per node: only the owner itself is skipped.
  EXPECT_EQ(choose_peers(1, 4, 3, 1, {}), (std::vector<int>{2, 3, 0}));
}

TEST(PeerCheckpointPlacement, DegradesWhenClusterTooSmall) {
  // Everyone shares the owner's node: nowhere safe to place.
  EXPECT_TRUE(choose_peers(0, 4, 2, 4, {}).empty());
  // Exclusions can starve the set below `replicas`.
  EXPECT_EQ(choose_peers(0, 4, 3, 1, {2, 3}), (std::vector<int>{1}));
  EXPECT_TRUE(choose_peers(0, 2, 1, 1, {1}).empty());
}

TEST(PeerCheckpointStore, PutFindDropAndPinnedGc) {
  PeerReplicaStore store;
  store.put(0, 5, pattern_bytes(8, 1));
  store.put(1, 5, pattern_bytes(8, 2));
  store.put(0, 9, pattern_bytes(8, 3));
  ASSERT_NE(store.find(0, 5), nullptr);
  EXPECT_EQ(store.find(2, 5), nullptr);
  EXPECT_TRUE(store.drop(1, 5));
  EXPECT_FALSE(store.drop(1, 5));  // already gone
  store.put(1, 5, pattern_bytes(8, 2));
  store.gc_below(9, /*pinned=*/{5});
  // Epoch 5 was pinned through the GC; epoch 9 is above the floor.
  EXPECT_NE(store.find(0, 5), nullptr);
  EXPECT_NE(store.find(1, 5), nullptr);
  EXPECT_NE(store.find(0, 9), nullptr);
  store.gc_below(10, /*pinned=*/{});
  EXPECT_EQ(store.size(), 0u);
}

PeerCheckpointConfig service_config(int replicas) {
  PeerCheckpointConfig cfg;
  cfg.replicas = replicas;
  cfg.keep_epochs = 2;
  return cfg;
}

TEST(PeerCheckpointService, SnapshotRecoverRoundTrip) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(2));
  const auto snapshot = pattern_bytes(5000, 0x11);
  ASSERT_TRUE(svc.snapshot(1, snapshot, {}));
  EXPECT_EQ(svc.stats().epochs_committed, 1);
  // Every rank can reassemble, with or without fetches.
  for (int requester = 0; requester < 4; ++requester) {
    const auto rec = svc.recover(requester, {});
    ASSERT_TRUE(rec.has_value()) << "requester " << requester;
    EXPECT_EQ(rec->epoch, 1);
    EXPECT_EQ(rec->snapshot, snapshot);
  }
}

TEST(PeerCheckpointService, SurvivesOwnerDeath) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(2));
  const auto snapshot = pattern_bytes(4096, 0x22);
  ASSERT_TRUE(svc.snapshot(3, snapshot, {}));
  // Rank 2 dies; its owner copy and every replica it held are gone.
  svc.mark_dead(2);
  const auto rec = svc.recover(0, {});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->snapshot, snapshot);
  EXPECT_GT(rec->frames_fetched, 0);  // some frames were not requester-local
}

TEST(PeerCheckpointService, QuorumLossWalksBackOneEpoch) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointConfig cfg = service_config(1);  // one peer copy per frame
  PeerCheckpointService svc(fabric, cfg);
  const auto old_snapshot = pattern_bytes(2048, 0x33);
  const auto new_snapshot = pattern_bytes(2048, 0x44);
  ASSERT_TRUE(svc.snapshot(1, old_snapshot, {}));
  ASSERT_TRUE(svc.snapshot(2, new_snapshot, {}));
  // Wipe every copy of epoch 2's frame owned by rank 1 (owner + 1 peer).
  for (int holder = 0; holder < 4; ++holder) {
    auto& store = const_cast<PeerReplicaStore&>(svc.store(holder));
    store.drop(/*owner=*/1, /*epoch=*/2);
  }
  const auto rec = svc.recover(0, {});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->epoch, 1) << "must fall back to the older committed epoch";
  EXPECT_EQ(rec->snapshot, old_snapshot);
  EXPECT_GE(svc.stats().quorum_failures, 1);
}

// Crash-point sweep, protocol axis: kill the pipeline at each commit state
// and check recovery never sees the unfinished epoch.
TEST(PeerCheckpointCrashSweep, StagedOnlyEpochIsInvisible) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(2));
  ASSERT_TRUE(svc.snapshot(1, pattern_bytes(1024, 0x55), {}));
  svc.stage(2, pattern_bytes(1024, 0x66));  // crash before replicate
  EXPECT_TRUE(svc.has_staged());
  const auto rec = svc.recover(0, {});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->epoch, 1);  // epoch 2 never replicated, never visible
}

TEST(PeerCheckpointCrashSweep, PreparedButUnblessedEpochIsInvisible) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(2));
  ASSERT_TRUE(svc.snapshot(1, pattern_bytes(1024, 0x77), {}));
  svc.stage(2, pattern_bytes(1024, 0x88));
  ASSERT_TRUE(svc.replicate_staged({}));  // crash between phases 1 and 2
  EXPECT_TRUE(svc.has_prepared());
  const auto rec = svc.recover(0, {});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->epoch, 1) << "phase-1-complete epoch must stay invisible "
                              "until the bless";
  EXPECT_EQ(svc.commits().size(), 1u);
}

TEST(PeerCheckpointCrashSweep, AbortedEpochIsDrainedEverywhere) {
  comm::SimTransport fabric(2, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(1));
  ASSERT_TRUE(svc.snapshot(1, pattern_bytes(1024, 0x99), {}));
  // Drop every push attempt rank 1 will make for its epoch-2 frame: the
  // frame ends with zero peer copies while a peer was placeable → abort.
  for (int attempt = 0; attempt < 4; ++attempt) {
    comm::CommFaultEvent drop;
    drop.kind = comm::LinkFaultKind::kDropChunk;
    drop.rank = 1;
    fabric.inject(drop);
  }
  fabric.begin_collective();  // arm the injected events
  svc.stage(2, pattern_bytes(1024, 0xAA));
  EXPECT_FALSE(svc.replicate_staged({}));
  EXPECT_EQ(svc.stats().epochs_aborted, 1);
  EXPECT_FALSE(svc.has_prepared());
  // No store anywhere may hold a byte of the drained epoch — including the
  // owner copies that were stored before the abort was discovered.
  for (int holder = 0; holder < 2; ++holder) {
    for (int owner = 0; owner < 2; ++owner) {
      EXPECT_EQ(svc.store(holder).find(owner, 2), nullptr)
          << "holder " << holder << " kept owner " << owner
          << "'s frame of the aborted epoch";
    }
  }
  // The committed epoch is untouched by the abort.
  const auto rec = svc.recover(0, {});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->epoch, 1);
}

TEST(PeerCheckpointService, RetentionKeepsLastKeepEpochs) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(2));  // keep_epochs = 2
  for (std::int64_t e = 1; e <= 5; ++e) {
    ASSERT_TRUE(svc.snapshot(e, pattern_bytes(512, static_cast<std::uint8_t>(e)),
                             {}));
  }
  EXPECT_EQ(svc.commits().size(), 2u);
  EXPECT_EQ(svc.commits().front().epoch, 4);
  EXPECT_EQ(svc.commits().back().epoch, 5);
  for (int holder = 0; holder < 4; ++holder) {
    for (const auto& [owner, epoch] : svc.store(holder).entries()) {
      EXPECT_GE(epoch, 4) << "GC left epoch " << epoch << " at " << holder;
    }
  }
}

TEST(PeerCheckpointService, PinnedEpochSurvivesGc) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(2));
  ASSERT_TRUE(svc.snapshot(1, pattern_bytes(512, 0x01), {}));
  svc.pin_epoch(1);
  for (std::int64_t e = 2; e <= 5; ++e) {
    ASSERT_TRUE(svc.snapshot(e, pattern_bytes(512, static_cast<std::uint8_t>(e)),
                             {}));
  }
  const auto rec = svc.recover(0, {});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->epoch, 5);
  // The pinned epoch's record and frames are still reachable.
  bool pinned_committed = false;
  for (const auto& c : svc.commits()) pinned_committed |= c.epoch == 1;
  EXPECT_TRUE(pinned_committed);
}

TEST(PeerCheckpointService, DropRandomReplicaIsSeededAndCounted) {
  comm::SimTransport fabric_a(4, fast_fabric());
  comm::SimTransport fabric_b(4, fast_fabric());
  PeerCheckpointService a(fabric_a, service_config(2));
  PeerCheckpointService b(fabric_b, service_config(2));
  for (auto* svc : {&a, &b}) {
    ASSERT_TRUE(svc->snapshot(1, pattern_bytes(2048, 0xBC), {}));
  }
  ASSERT_TRUE(a.drop_random_replica(2, 0xDEAD));
  ASSERT_TRUE(b.drop_random_replica(2, 0xDEAD));
  EXPECT_EQ(a.store(2).entries(), b.store(2).entries())
      << "the same seed must evict the same frame";
  EXPECT_EQ(a.stats().replicas_dropped, 1);
  // An empty shelf and a dead rank both decline the drop.
  while (a.store(0).size() > 0) ASSERT_TRUE(a.drop_random_replica(0, 9));
  EXPECT_FALSE(a.drop_random_replica(0, 9));
  a.mark_dead(3);
  EXPECT_FALSE(a.drop_random_replica(3, 9));
}

TEST(PeerCheckpointService, ExcludedRanksHoldNothingAndServeNothing) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(2));
  const std::set<int> quarantined{2};
  ASSERT_TRUE(svc.snapshot(1, pattern_bytes(3000, 0xCD), quarantined));
  // Placement never handed rank 2 a replica (its own frame's owner copy is
  // also withheld — nothing an SDC-quarantined device holds is trusted).
  EXPECT_EQ(svc.store(2).size(), 0u);
  const auto rec = svc.recover(0, quarantined);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->snapshot, pattern_bytes(3000, 0xCD));
}

// --- CheckpointManager epoch API: the on-disk half of the commit protocol.

std::string temp_prefix(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

core::CheckpointManager fresh_manager(const char* name) {
  core::CheckpointManager mgr(temp_prefix(name), 3);
  mgr.gc_epochs(0);  // reap leftovers from earlier runs of this binary
  return mgr;
}

TEST(PeerCheckpointEpochDisk, TwoPhaseBlessRoundTrip) {
  auto mgr = fresh_manager("epoch_roundtrip");
  const auto bytes = pattern_bytes(256, 0x10);
  mgr.save_epoch(3, bytes, DigestChain());
  EXPECT_FALSE(mgr.is_blessed(3)) << "phase 1 must not bless";
  EXPECT_FALSE(mgr.load_latest_blessed_epoch().has_value());
  EXPECT_TRUE(mgr.bless_epoch(3));
  EXPECT_TRUE(mgr.is_blessed(3));
  const auto loaded = mgr.load_latest_blessed_epoch();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(std::get<0>(*loaded), 3);
  EXPECT_EQ(std::get<1>(*loaded), bytes);
  mgr.gc_epochs(0);
}

TEST(PeerCheckpointEpochDisk, TornEpochFileIsSkippedAndSurvivorsLoad) {
  auto mgr = fresh_manager("epoch_torn");
  mgr.save_epoch(1, pattern_bytes(256, 0x21), DigestChain());
  ASSERT_TRUE(mgr.bless_epoch(1));
  mgr.save_epoch(2, pattern_bytes(256, 0x22), DigestChain());
  ASSERT_TRUE(mgr.bless_epoch(2));
  // The torn-write sweep on a survivor: mangle the NEWEST blessed epoch at
  // a seeded offset; the walk-back must land on the older intact epoch.
  FaultInjector::tear_file(mgr.epoch_path_for(2), /*seed=*/7);
  const auto loaded = mgr.load_latest_blessed_epoch();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(std::get<0>(*loaded), 1);
  EXPECT_EQ(std::get<1>(*loaded), pattern_bytes(256, 0x21));
  mgr.gc_epochs(0);
}

TEST(PeerCheckpointEpochDisk, GcKeepsNewestBlessedPlusPinned) {
  auto mgr = fresh_manager("epoch_gc");
  for (std::int64_t e = 1; e <= 5; ++e) {
    mgr.save_epoch(e, pattern_bytes(64, static_cast<std::uint8_t>(e)),
                   DigestChain());
    ASSERT_TRUE(mgr.bless_epoch(e));
  }
  mgr.save_epoch(6, pattern_bytes(64, 6), DigestChain());  // unblessed
  mgr.pin_epoch(1);
  const int removed = mgr.gc_epochs(/*keep_blessed=*/2);
  EXPECT_EQ(removed, 3);  // epochs 2, 3 and the unblessed 6 go; 1 pinned
  EXPECT_EQ(mgr.epochs_on_disk(), (std::vector<std::int64_t>{1, 4, 5}));
  // The torn-write sweep still passes on the survivors.
  for (const auto e : mgr.epochs_on_disk()) {
    EXPECT_TRUE(mgr.is_blessed(e)) << "epoch " << e;
  }
  mgr.unpin_epoch(1);
  mgr.gc_epochs(0);
}

TEST(PeerCheckpointEpochDisk, CrashBetweenPhasesLeavesEpochInvisible) {
  auto mgr = fresh_manager("epoch_crash");
  mgr.save_epoch(1, pattern_bytes(64, 0x31), DigestChain());
  ASSERT_TRUE(mgr.bless_epoch(1));
  // Phase 1 of epoch 2 lands, then the process dies before the bless.
  mgr.save_epoch(2, pattern_bytes(64, 0x32), DigestChain());
  const auto loaded = mgr.load_latest_blessed_epoch();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(std::get<0>(*loaded), 1) << "unblessed epoch must be invisible";
  // ... and GC reaps the orphan rather than letting it shield anything.
  mgr.gc_epochs(1);
  EXPECT_EQ(mgr.epochs_on_disk(), (std::vector<std::int64_t>{1}));
  mgr.gc_epochs(0);
}

TEST(PeerCheckpointEpochDisk, StaleSidecarCannotBlessNewBytes) {
  auto mgr = fresh_manager("epoch_stale");
  mgr.save_epoch(4, pattern_bytes(64, 0x41), DigestChain());
  ASSERT_TRUE(mgr.bless_epoch(4));
  // The epoch number is reused with different bytes (a rollback replay).
  mgr.save_epoch(4, pattern_bytes(64, 0x42), DigestChain());
  EXPECT_FALSE(mgr.is_blessed(4))
      << "save_epoch must invalidate the previous life's sidecar";
  mgr.gc_epochs(0);
}

}  // namespace
}  // namespace easyscale::fault
