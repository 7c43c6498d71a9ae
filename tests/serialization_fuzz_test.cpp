// Serialization robustness: truncated or mangled checkpoint payloads must
// be rejected (thrown), never silently mis-restored.
#include <gtest/gtest.h>

#include <memory>

#include "common/digest.hpp"
#include "core/engine.hpp"
#include "fault/controller.hpp"
#include "models/datasets.hpp"
#include "rng/philox.hpp"

namespace easyscale::core {
namespace {

std::vector<std::uint8_t> make_checkpoint() {
  static auto wd = models::make_dataset_for("NeuMF", 64, 16, 5);
  EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = 2;
  cfg.batch_per_est = 4;
  cfg.seed = 5;
  EasyScaleEngine e(cfg, *wd.train, wd.augment);
  e.configure_workers({WorkerSpec{}});
  e.run_steps(1);
  return e.checkpoint();
}

std::unique_ptr<EasyScaleEngine> make_engine() {
  static auto wd = models::make_dataset_for("NeuMF", 64, 16, 5);
  EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = 2;
  cfg.batch_per_est = 4;
  cfg.seed = 5;
  auto e = std::make_unique<EasyScaleEngine>(cfg, *wd.train, wd.augment);
  e->configure_workers({WorkerSpec{}});
  return e;
}

class TruncationTest : public ::testing::TestWithParam<double> {};

TEST_P(TruncationTest, TruncatedCheckpointThrows) {
  const auto bytes = make_checkpoint();
  const auto keep = static_cast<std::size_t>(
      GetParam() * static_cast<double>(bytes.size()));
  const std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() + static_cast<long>(keep));
  auto engine = make_engine();
  EXPECT_THROW(engine->restore(cut), Error);
}

INSTANTIATE_TEST_SUITE_P(Points, TruncationTest,
                         ::testing::Values(0.0, 0.1, 0.35, 0.6, 0.9, 0.999));

TEST(SerializationFuzz, WrongMagicRejected) {
  auto bytes = make_checkpoint();
  bytes[0] ^= 0xFF;  // corrupt the magic word
  auto engine = make_engine();
  EXPECT_THROW(engine->restore(bytes), Error);
}

TEST(SerializationFuzz, RestoreFromForeignConfigShapeThrows) {
  // A checkpoint from a 2-EST NeuMF job must not load into a 4-EST
  // ResNet18 engine (parameter-count mismatch is detected).
  const auto bytes = make_checkpoint();
  auto wd = models::make_dataset_for("ResNet18", 64, 16, 5);
  EasyScaleConfig cfg;
  cfg.workload = "ResNet18";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 5;
  EasyScaleEngine other(cfg, *wd.train, wd.augment);
  other.configure_workers({WorkerSpec{}});
  EXPECT_THROW(other.restore(bytes), Error);
}

TEST(SerializationFuzz, IntactCheckpointRestores) {
  const auto bytes = make_checkpoint();
  auto engine = make_engine();
  EXPECT_NO_THROW(engine->restore(bytes));
  EXPECT_EQ(engine->global_step(), 1);
}

TEST(SerializationFuzz, OversizedPayloadRejected) {
  // The stream has no framing, so trailing garbage means writer/reader
  // disagreement — restore must reject it, not silently ignore it.
  auto bytes = make_checkpoint();
  bytes.push_back(0x00);
  auto engine = make_engine();
  EXPECT_THROW(engine->restore(bytes), Error);

  auto padded = make_checkpoint();
  const std::vector<std::uint8_t> junk(1024, 0xAB);
  padded.insert(padded.end(), junk.begin(), junk.end());
  EXPECT_THROW(engine->restore(padded), Error);
}

TEST(SerializationFuzz, VectorLengthOverflowIsStructuredError) {
  // An all-ones length field must fail the bounds check (which divides
  // rather than multiplies, so it cannot wrap) — never reach the allocator
  // or read out of bounds.
  ByteWriter w;
  w.write<std::uint64_t>(0xFFFFFFFFFFFFFFFFull);
  w.write<std::uint32_t>(7);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.read_vector<double>(), Error);
}

TEST(SerializationFuzz, StringLengthOverflowIsStructuredError) {
  ByteWriter w;
  w.write<std::uint64_t>(0xFFFFFFFFFFFFFF00ull);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.read_string(), Error);
}

TEST(SerializationFuzz, LengthFieldBlowupInsideCheckpointThrows) {
  // Overwrite 8-byte windows throughout a REAL engine checkpoint with an
  // enormous length: every position must produce a structured Error (the
  // pre-hardening reader could wrap its bounds check and read past the
  // end).
  const auto bytes = make_checkpoint();
  auto engine = make_engine();
  for (std::size_t offset = 4; offset + 8 <= bytes.size();
       offset += bytes.size() / 23 + 1) {
    auto mutated = bytes;
    for (std::size_t i = 0; i < 8; ++i) mutated[offset + i] = 0xFF;
    try {
      engine->restore(mutated);
    } catch (const Error&) {
      continue;  // structured rejection is the expected outcome
    }
    // A blowup that lands inside tensor payload bytes may still parse;
    // what matters is that no unstructured failure escaped.
  }
}

TEST(SerializationFuzz, RandomFullCheckpointMutationsNeverEscapeError) {
  // Philox-seeded byte/bit mutations over the full engine checkpoint.
  // Every restore must either succeed or throw easyscale::Error — any
  // other exception (bad_alloc, length_error) or a crash is a bug.
  const auto bytes = make_checkpoint();
  rng::Philox gen(0xF422);
  auto engine = make_engine();
  for (int iter = 0; iter < 48; ++iter) {
    auto mutated = bytes;
    const std::uint64_t flips = 1 + gen.next_below(16);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const auto pos = gen.next_below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1u << gen.next_below(8));
    }
    try {
      engine->restore(mutated);
    } catch (const Error&) {
    }
  }
}

// --- DigestChain framing (the verified-checkpoint payload) ---

std::vector<std::uint8_t> saved_chain_bytes(DigestChain& out) {
  for (std::uint64_t i = 0; i < 6; ++i) out.push(i, 0xFEED + i * 31);
  ByteWriter w;
  out.save(w);
  return w.take();
}

TEST(SerializationFuzz, DigestChainTruncationsAlwaysThrow) {
  DigestChain chain;
  const auto bytes = saved_chain_bytes(chain);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    const std::vector<std::uint8_t> cut(
        bytes.begin(), bytes.begin() + static_cast<long>(keep));
    ByteReader r(cut);
    EXPECT_THROW((void)DigestChain::load(r), Error) << "cut at " << keep;
  }
}

TEST(SerializationFuzz, DigestChainAnyRecordByteFlipThrows) {
  DigestChain chain;
  const auto bytes = saved_chain_bytes(chain);
  // Every byte past the count header belongs to some record's id/digest/
  // chain field; flipping ANY of them must break a link on load (a flipped
  // id or digest changes the recomputed link, a flipped chain value
  // disagrees with its recomputation).
  for (std::size_t pos = 8; pos < bytes.size(); ++pos) {
    auto mutated = bytes;
    mutated[pos] ^= 0x10;
    ByteReader r(mutated);
    EXPECT_THROW((void)DigestChain::load(r), Error) << "flip at " << pos;
  }
}

TEST(SerializationFuzz, DigestChainTrailingGarbageIsCallerVisible) {
  // Extra bytes after the declared records are not the chain's to judge —
  // the surrounding frame must call require_exhausted and reject them.
  DigestChain chain;
  auto bytes = saved_chain_bytes(chain);
  bytes.insert(bytes.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  ByteReader r(bytes);
  const auto loaded = DigestChain::load(r);
  EXPECT_EQ(loaded, chain);  // the declared records themselves are intact
  EXPECT_THROW(r.require_exhausted("digest chain frame"), Error);
}

TEST(SerializationFuzz, DigestChainExtensionMovesTheTail) {
  // An attacker CAN append correctly-linked records (the chain is not
  // keyed); what catches extension is comparison against the recorded
  // tail/chain held in the checkpoint frame, so the tail must move.
  DigestChain chain;
  (void)saved_chain_bytes(chain);
  DigestChain extended = chain;
  extended.push(99, 0x5117);
  EXPECT_TRUE(extended.verify());
  EXPECT_NE(extended.tail(), chain.tail());
  EXPECT_NE(extended, chain);
}

// --- Decision-log wire format (the replicated control plane) ---

fault::DecisionLog make_decision_log() {
  fault::DecisionLog log;
  log.append_new(1, 0, fault::DecisionKind::kMembershipEpoch, 0, 4, -1, 0);
  log.append_new(1, 1, fault::DecisionKind::kBlessCheckpoint, 0, 1);
  log.append_new(2, 2, fault::DecisionKind::kCondemnPropose, 3, 7);
  log.append_new(2, 3, fault::DecisionKind::kCondemnCommit, 3, 7);
  log.append_new(2, 4, fault::DecisionKind::kQuarantine, 3, 7, 1);
  return log;
}

TEST(SerializationFuzz, DecisionRecordEveryByteFlipRejected) {
  // The whole-record digest trailer covers every preceding byte and is
  // itself re-verified, so flipping ANY of the 88 wire bytes — header,
  // payload, digests or the trailer itself — must raise a named Error.
  const auto log = make_decision_log();
  const auto bytes = log.records()[2].serialize();
  ASSERT_EQ(bytes.size(), fault::DecisionRecord::kWireBytes);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (std::uint8_t flip : {0x01, 0x80, 0xFF}) {
      auto mutated = bytes;
      mutated[pos] ^= flip;
      EXPECT_THROW((void)fault::DecisionRecord::parse(mutated), Error)
          << "flip 0x" << std::hex << static_cast<int>(flip) << " at byte "
          << std::dec << pos;
    }
  }
  EXPECT_EQ(fault::DecisionRecord::parse(bytes), log.records()[2]);
}

TEST(SerializationFuzz, DecisionRecordTruncationAtEveryOffsetRejected) {
  const auto bytes = make_decision_log().records()[0].serialize();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    const std::span<const std::uint8_t> cut(bytes.data(), keep);
    EXPECT_THROW((void)fault::DecisionRecord::parse(cut), Error)
        << "cut at " << keep;
  }
  auto padded = bytes;
  padded.push_back(0x00);  // oversize is writer/reader disagreement too
  EXPECT_THROW((void)fault::DecisionRecord::parse(padded), Error);
}

TEST(SerializationFuzz, DecisionLogDuplicatedEntryRejectedNeverApplied) {
  const auto source = make_decision_log();
  fault::DecisionLog dst;
  dst.append(source.records()[0]);
  const auto size_before = dst.size();
  try {
    dst.append(source.records()[0]);  // replayed entry
    FAIL() << "duplicated entry was applied";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicated or reordered"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(dst.size(), size_before);  // rejected means NOT applied
  EXPECT_THROW(dst.append(source.records()[2]), Error);  // skips ahead
  EXPECT_EQ(dst.size(), size_before);
  dst.append(source.records()[1]);  // the dense successor still lands
  EXPECT_EQ(dst.tail(), source.records()[1].chain);
}

TEST(SerializationFuzz, DecisionLogReorderedWireRejected) {
  // Swap two adjacent records inside the serialized log, and separately
  // overwrite slot 1 with a copy of slot 0: both must be rejected by the
  // dense-index/chain validation during parse, never half-applied.
  const auto bytes = make_decision_log().serialize();
  const std::size_t header = sizeof(std::uint32_t) + sizeof(std::uint64_t);
  constexpr std::size_t kRec = fault::DecisionRecord::kWireBytes;

  auto swapped = bytes;
  for (std::size_t i = 0; i < kRec; ++i) {
    std::swap(swapped[header + kRec + i], swapped[header + 2 * kRec + i]);
  }
  EXPECT_THROW((void)fault::DecisionLog::parse(swapped), Error);

  auto duplicated = bytes;
  for (std::size_t i = 0; i < kRec; ++i) {
    duplicated[header + kRec + i] = duplicated[header + i];
  }
  EXPECT_THROW((void)fault::DecisionLog::parse(duplicated), Error);
}

TEST(SerializationFuzz, RandomTruncationsAlwaysThrow) {
  // Beyond the fixed truncation ratios above: seeded arbitrary cut points.
  const auto bytes = make_checkpoint();
  rng::Philox gen(0x7A12);
  auto engine = make_engine();
  for (int iter = 0; iter < 32; ++iter) {
    const auto keep = gen.next_below(bytes.size());  // strictly shorter
    const std::vector<std::uint8_t> cut(
        bytes.begin(), bytes.begin() + static_cast<long>(keep));
    EXPECT_THROW(engine->restore(cut), Error) << "cut at " << keep;
  }
}

}  // namespace
}  // namespace easyscale::core
