// Byte-for-byte pins of the seven self-verifying binary formats: the ESCK
// checkpoint file (v2 without and with a chain, v3 with a shard frame),
// the engine's ESV1 image, the trainer snapshot image, PeerFrame,
// DecisionRecord, DecisionLog and the PlanCache image.  Each test writes
// fixed inputs through the format's own writer and pins digest_bytes of
// the output, so any change to a layout, a section order, a length prefix
// or a trailer fails here.  The engine image and trainer snapshot come
// from a fixed-seed one-step run; their bits are thread-count and SIMD
// backend invariant like every other digest the suite pins.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "core/checkpoint_io.hpp"
#include "core/engine.hpp"
#include "fault/controller.hpp"
#include "fault/peer_checkpoint.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"
#include "sched/companion.hpp"

namespace easyscale {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xFF);
  }
  return out;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

DigestChain sample_chain() {
  DigestChain chain;
  for (std::uint64_t i = 0; i < 3; ++i) chain.push(i, 0x1000 + i * 7);
  return chain;
}

core::ShardFrameMeta sample_shard() {
  core::ShardFrameMeta meta;
  meta.world_size = 4;
  meta.shard_degree = 2;
  meta.total_numel = 100;
  meta.chunk_begin = {0, 50};
  meta.chunk_end = {50, 100};
  meta.chunk_chain.push(0, 0xAAAA);
  meta.chunk_chain.push(1, 0xBBBB);
  return meta;
}

std::uint64_t file_digest(const char* name,
                          const std::vector<std::uint8_t>& payload,
                          const DigestChain* chain,
                          const core::ShardFrameMeta* shard) {
  const auto path = temp_path(name);
  if (shard != nullptr) {
    core::save_checkpoint_file(path, payload, *chain, *shard);
  } else if (chain != nullptr) {
    core::save_checkpoint_file(path, payload, *chain);
  } else {
    core::save_checkpoint_file(path, payload);
  }
  const auto bytes = read_file(path);
  std::remove(path.c_str());
  return digest_bytes(bytes);
}

TEST(FrameGolden, CheckpointFileV2WithoutChain) {
  EXPECT_EQ(file_digest("golden_v2.ckpt", pattern_bytes(300, 0x11), nullptr,
                        nullptr),
            0xa03be457d8238be8ull);
}

TEST(FrameGolden, CheckpointFileV2WithChain) {
  const DigestChain chain = sample_chain();
  EXPECT_EQ(file_digest("golden_v2c.ckpt", pattern_bytes(300, 0x22), &chain,
                        nullptr),
            0xb3420439b164bae2ull);
}

TEST(FrameGolden, CheckpointFileV3WithShardFrame) {
  const DigestChain chain = sample_chain();
  const core::ShardFrameMeta shard = sample_shard();
  EXPECT_EQ(file_digest("golden_v3.ckpt", pattern_bytes(300, 0x33), &chain,
                        &shard),
            0xc10c85926791816full);
}

TEST(FrameGolden, CheckpointFileV1StillLoads) {
  // Version 1 has no writer left; pin its layout by loading a hand-built
  // file: magic, version, payload size, payload digest, payload.
  const auto payload = pattern_bytes(40, 0x44);
  ByteWriter w;
  w.write<std::uint32_t>(0x4553434Bu);
  w.write<std::uint32_t>(1);
  w.write<std::uint64_t>(payload.size());
  w.write<std::uint64_t>(digest_bytes(payload));
  for (const std::uint8_t b : payload) w.write(b);
  const auto path = temp_path("golden_v1.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(w.bytes().data()),
              static_cast<std::streamsize>(w.bytes().size()));
  }
  DigestChain chain = sample_chain();
  std::optional<core::ShardFrameMeta> shard = sample_shard();
  EXPECT_EQ(core::load_checkpoint_file(path, &chain, &shard), payload);
  EXPECT_TRUE(chain.empty());
  EXPECT_FALSE(shard.has_value());
  std::remove(path.c_str());
}

TEST(FrameGolden, EngineImageAfterOneStep) {
  core::EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  auto wd = models::make_dataset_for("NeuMF", 128, 16, 42);
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<core::WorkerSpec>(2));
  engine.run_steps(1);
  EXPECT_EQ(digest_bytes(engine.checkpoint()), 0xc3481f8eca2ca6b4ull);
}

TEST(FrameGolden, TrainerSnapshotAndFileAfterOneStep) {
  auto wd = models::make_dataset_for("NeuMF", 128, 16, 42);
  parallel::TrainerConfig cfg;
  cfg.workload = "NeuMF";
  cfg.world_size = 4;
  cfg.batch_per_worker = 4;
  cfg.seed = 42;
  cfg.shard_degree = 2;
  parallel::Trainer trainer(cfg, *wd.train, wd.augment);
  trainer.run_steps(1);
  EXPECT_EQ(digest_bytes(trainer.checkpoint_bytes()),
            0x4f86a4112700675bull);
  const auto path = temp_path("golden_trainer.ckpt");
  trainer.save_checkpoint(path);
  EXPECT_EQ(digest_bytes(read_file(path)), 0xa42ed32d8c2c09a6ull);
  std::remove(path.c_str());
}

TEST(FrameGolden, PeerFrame) {
  fault::PeerFrame frame;
  frame.epoch = 7;
  frame.owner = 1;
  frame.world = 4;
  frame.payload = pattern_bytes(10000, 0x5A);  // three slabs, one partial
  EXPECT_EQ(digest_bytes(frame.serialize()), 0xe3c1fccac11ddeb4ull);
}

fault::DecisionLog sample_log() {
  fault::DecisionLog log;
  log.append_new(1, 0, fault::DecisionKind::kMembershipEpoch, 0, 4);
  log.append_new(1, 1, fault::DecisionKind::kCondemnPropose, 3, 2, 9);
  log.append_new(2, 2, fault::DecisionKind::kReshard, 5, 4, 2, 1);
  return log;
}

TEST(FrameGolden, DecisionRecord) {
  EXPECT_EQ(digest_bytes(sample_log().records()[2].serialize()),
            0x2048d6dd74bfebe0ull);
}

TEST(FrameGolden, DecisionLog) {
  EXPECT_EQ(digest_bytes(sample_log().serialize()), 0xeb227ab58f6c07d6ull);
  EXPECT_EQ(digest_bytes(fault::DecisionLog().serialize()),
            0x283af989d2b2fe36ull);
}

TEST(FrameGolden, PlanCacheImage) {
  // One entry: the image iterates an unordered_map, so a single key keeps
  // the pin independent of the hash table's bucket order.
  sched::PlanCache cache;
  sched::Companion companion("Bert", 8);
  companion.set_plan_cache(&cache);
  (void)companion.make_plan(sched::GpuVector{2, 2, 0});
  ByteWriter w;
  cache.save(w);
  EXPECT_EQ(digest_bytes(w.bytes()), 0xfff9236e06181d14ull);
}

}  // namespace
}  // namespace easyscale
