// The frame codec (common/frame.hpp) on its own, and the every-byte flip
// and every-offset truncation sweep over the formats built on it: a single
// flipped bit anywhere in an ESCK v2 file, an ESCK v3 trainer checkpoint, a
// trainer snapshot, a peer-checkpoint frame, a control-plane decision
// record or a decision log, or any proper prefix of one, must surface as
// easyscale::Error — never a silent restore, never bad_alloc.  For a peer
// frame this is what makes a frame torn in flight harmless: whatever byte
// the crash mangled, the frame cannot enter a recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/frame.hpp"
#include "core/checkpoint_io.hpp"
#include "fault/controller.hpp"
#include "fault/peer_checkpoint.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace easyscale {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Where a file-backed sweep target lands each damaged copy: one file per
/// running test, because ctest runs the tests as concurrent processes.
std::string sweep_path() {
  std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return temp_path("frame_sweep_") + name + ".ckpt";
}

TEST(Frame, MagicAndVersionMismatchesAreNamedErrors) {
  ByteWriter w;
  w.write<std::uint32_t>(0x1234);
  w.write<std::uint16_t>(9);
  ByteReader good(w.bytes());
  frame::expect_magic(good, 0x1234, "test frame");
  EXPECT_EQ(frame::expect_version<std::uint16_t>(good, 1, 9, "test"), 9);

  ByteReader bad_magic(w.bytes());
  try {
    frame::expect_magic(bad_magic, 0x4321, "test frame");
    FAIL() << "bad magic accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("test frame: bad magic"),
              std::string::npos)
        << e.what();
  }
  ByteReader old_version(w.bytes());
  (void)old_version.read<std::uint32_t>();
  EXPECT_THROW(
      (void)frame::expect_version<std::uint16_t>(old_version, 1, 8, "test"),
      Error);
  ByteReader soft(w.bytes());
  (void)soft.read<std::uint32_t>();
  EXPECT_FALSE(frame::read_version<std::uint16_t>(soft, 1, 8).has_value());
}

TEST(Frame, SealedFrameRejectsEveryFlipAndTruncation) {
  ByteWriter w;
  w.write<std::uint64_t>(42);
  w.write_string("payload");
  frame::seal(w);
  const auto sealed = w.take();
  const auto body = frame::unseal(sealed, "test frame");
  EXPECT_EQ(body.size(), sealed.size() - sizeof(std::uint64_t));
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    auto torn = sealed;
    torn[i] ^= 0x10;
    EXPECT_THROW((void)frame::unseal(torn, "test frame"), Error) << i;
  }
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    const std::span<const std::uint8_t> cut(sealed.data(), len);
    EXPECT_THROW((void)frame::unseal(cut, "test frame"), Error) << len;
  }
}

TEST(Frame, LengthsAreBoundedBeforeAllocation) {
  ByteWriter w;
  w.write<std::uint64_t>(~std::uint64_t{0});  // section claims 16 EiB
  w.write<std::uint32_t>(0);
  ByteReader section(w.bytes());
  EXPECT_THROW((void)frame::read_section(section, "test"), Error);
  ByteReader count(w.bytes());
  EXPECT_THROW((void)frame::read_count(count, 1, "test"), Error);

  ByteWriter ok;
  ok.write<std::uint64_t>(2);
  ok.write<std::uint32_t>(0);
  ok.write<std::uint64_t>(0);  // trailer
  ByteReader fits(ok.bytes());
  EXPECT_EQ(frame::read_count(fits, 2, "test", sizeof(std::uint64_t)), 2u);
  ByteReader no_room(ok.bytes());
  EXPECT_THROW((void)frame::read_count(no_room, 3, "test", 8), Error);
}

TEST(Frame, SlabChainHasOneRecordPerSlab) {
  EXPECT_TRUE(frame::slab_chain({}).empty());
  const std::vector<std::uint8_t> bytes(2 * frame::kSlabBytes + 1, 3);
  const DigestChain chain = frame::slab_chain(bytes);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain.records()[2].digest,
            digest_bytes(std::span<const std::uint8_t>(bytes).last(1)));
  EXPECT_TRUE(chain.verify());
}

TEST(Frame, FileWriteIsWholeAndReadable) {
  const auto path = temp_path("frame_file.bin");
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 0, 255};
  frame::write_file(path, bytes);
  EXPECT_EQ(frame::read_file(path), bytes);
  frame::write_file(path, {});
  EXPECT_TRUE(frame::read_file(path).empty());
  std::remove(path.c_str());
  EXPECT_THROW((void)frame::read_file(path), Error);
}

// --- Every-byte flip sweep -----------------------------------------------

parallel::TrainerConfig sweep_trainer_config() {
  parallel::TrainerConfig cfg;
  cfg.workload = "NeuMF";
  cfg.world_size = 4;
  cfg.batch_per_worker = 4;
  cfg.seed = 42;
  cfg.shard_degree = 2;
  return cfg;
}

models::WorkloadData& sweep_data() {
  static auto wd = models::make_dataset_for("NeuMF", 128, 16, 42);
  return wd;
}

/// One format under the sweep: its intact bytes and a reader that must
/// accept them and must throw Error for every damaged copy.
struct SweepTarget {
  std::string name;
  std::function<std::vector<std::uint8_t>()> make;
  std::function<void(const std::vector<std::uint8_t>&)> read;
};

void PrintTo(const SweepTarget& target, std::ostream* os) {
  *os << target.name;
}

SweepTarget esck_v2_target() {
  return {"EsckV2",
          [] {
            std::vector<std::uint8_t> payload(300);
            for (std::size_t i = 0; i < payload.size(); ++i) {
              payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
            }
            DigestChain chain;
            for (std::uint64_t i = 0; i < 2; ++i) chain.push(i, 0x77 + i);
            core::save_checkpoint_file(sweep_path(), payload, chain);
            return frame::read_file(sweep_path());
          },
          [](const std::vector<std::uint8_t>& bytes) {
            frame::write_file(sweep_path(), bytes);
            DigestChain chain;
            (void)core::load_checkpoint_file(sweep_path(), &chain);
          }};
}

SweepTarget esck_v3_trainer_target() {
  return {"EsckV3Trainer",
          [] {
            parallel::Trainer t(sweep_trainer_config(), *sweep_data().train,
                                sweep_data().augment);
            t.run_steps(1);
            t.save_checkpoint(sweep_path());
            return frame::read_file(sweep_path());
          },
          [](const std::vector<std::uint8_t>& bytes) {
            static parallel::Trainer victim(sweep_trainer_config(),
                                            *sweep_data().train,
                                            sweep_data().augment);
            frame::write_file(sweep_path(), bytes);
            victim.restore_checkpoint(sweep_path());
          }};
}

SweepTarget trainer_snapshot_target() {
  return {"TrainerSnapshot",
          [] {
            parallel::Trainer t(sweep_trainer_config(), *sweep_data().train,
                                sweep_data().augment);
            t.run_steps(1);
            return t.checkpoint_bytes();
          },
          [](const std::vector<std::uint8_t>& bytes) {
            static parallel::Trainer victim(sweep_trainer_config(),
                                            *sweep_data().train,
                                            sweep_data().augment);
            victim.restore_checkpoint_bytes(bytes);
          }};
}

SweepTarget peer_frame_target() {
  return {"PeerFrame",
          [] {
            fault::PeerFrame frame;
            frame.epoch = 7;
            frame.owner = 1;
            frame.world = 4;
            frame.payload.resize(700);
            for (std::size_t i = 0; i < frame.payload.size(); ++i) {
              frame.payload[i] = static_cast<std::uint8_t>(i * 131 + 0x5A);
            }
            return frame.serialize();
          },
          [](const std::vector<std::uint8_t>& bytes) {
            (void)fault::PeerFrame::parse(bytes);
          }};
}

fault::DecisionLog sweep_decision_log() {
  fault::DecisionLog log;
  log.append_new(1, 0, fault::DecisionKind::kMembershipEpoch, 0, 4, -1, 0);
  log.append_new(1, 1, fault::DecisionKind::kBlessCheckpoint, 0, 1);
  log.append_new(2, 2, fault::DecisionKind::kCondemnPropose, 3, 7);
  log.append_new(2, 3, fault::DecisionKind::kCondemnCommit, 3, 7);
  log.append_new(2, 4, fault::DecisionKind::kQuarantine, 3, 7, 1);
  return log;
}

SweepTarget decision_record_target() {
  return {"DecisionRecord",
          [] { return sweep_decision_log().records()[2].serialize(); },
          [](const std::vector<std::uint8_t>& bytes) {
            (void)fault::DecisionRecord::parse(bytes);
          }};
}

SweepTarget decision_log_target() {
  return {"DecisionLog", [] { return sweep_decision_log().serialize(); },
          [](const std::vector<std::uint8_t>& bytes) {
            (void)fault::DecisionLog::parse(bytes);
          }};
}

class FrameFlipSweep : public ::testing::TestWithParam<SweepTarget> {};

TEST_P(FrameFlipSweep, EveryByteFlipThrowsError) {
  const SweepTarget& target = GetParam();
  const std::vector<std::uint8_t> intact = target.make();
  ASSERT_NO_THROW(target.read(intact)) << "the intact frame must read";
  std::size_t failures = 0;
  for (std::size_t i = 0; i < intact.size() && failures < 8; ++i) {
    auto torn = intact;
    // Rotate the flipped bit with the offset, so low and high bits of
    // every field width get hit somewhere in the frame.
    torn[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    try {
      target.read(torn);
      ++failures;
      ADD_FAILURE() << "flipped byte " << i << " of " << intact.size()
                    << " was accepted";
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ++failures;
      ADD_FAILURE() << "flipped byte " << i << " escaped as " << e.what();
    }
  }
  std::remove(sweep_path().c_str());
}

TEST_P(FrameFlipSweep, EveryTruncationThrowsError) {
  const SweepTarget& target = GetParam();
  const std::vector<std::uint8_t> intact = target.make();
  std::size_t failures = 0;
  for (std::size_t len = 0; len < intact.size() && failures < 8; ++len) {
    const std::vector<std::uint8_t> cut(intact.begin(), intact.begin() + len);
    try {
      target.read(cut);
      ++failures;
      ADD_FAILURE() << "prefix of " << len << " byte(s) was accepted";
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ++failures;
      ADD_FAILURE() << "prefix of " << len << " escaped as " << e.what();
    }
  }
  std::remove(sweep_path().c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Formats, FrameFlipSweep,
    ::testing::Values(esck_v2_target(), esck_v3_trainer_target(),
                      trainer_snapshot_target(), peer_frame_target(),
                      decision_record_target(), decision_log_target()),
    [](const ::testing::TestParamInfo<SweepTarget>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace easyscale
