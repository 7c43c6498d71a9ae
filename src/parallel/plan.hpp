// The parallelism plan: how a world of ranks factors into parallel
// dimensions, and how optimizer state is partitioned across them.
//
//   world_size = data_replicas × shard_degree
//
// Ranks interleave across shard indices — shard_index(r) = r % shard_degree
// — so each group of shard_degree consecutive ranks forms one complete
// shard set, and each shard index is redundantly owned by data_replicas
// ranks (its "shard column").  The optimizer-state partition is a fixed
// list of contiguous chunks over the FLATTENED parameter space (parameters
// concatenated in registration order).  Chunk boundaries are a pure
// function of (total_numel, num_chunks) — ring_chunks-style near-equal
// split — and therefore independent of world_size AND shard_degree: every
// degree partitions the same element space identically, which is what makes
// resharding a pure re-assignment of ownership (no state is ever split or
// re-summed) and checkpoint chunk digests comparable across degrees.
//
// Ownership: chunk c belongs to shard index c % shard_degree.  The
// *canonical rank* of a chunk — the replica everyone copies from during
// all-gather and checkpointing — is the lowest rank with that shard index,
// which under interleaved assignment is the shard index itself.
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/parameter.hpp"
#include "common/serialize.hpp"
#include "optim/optimizer.hpp"

namespace easyscale::parallel {

/// A contiguous [begin, end) range of the flattened parameter space.
struct ChunkBounds {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  friend bool operator==(const ChunkBounds&, const ChunkBounds&) = default;
};

/// Default chunk count: enough granularity for shard_degree up to 16 while
/// keeping slice lists short.
inline constexpr int kDefaultPlanChunks = 16;

/// Near-equal contiguous chunks of an n-element space, remainder spread
/// over the leading chunks (the ring_chunks convention).  Pure function of
/// (total_numel, num_chunks).
[[nodiscard]] std::vector<ChunkBounds> partition_chunks(
    std::int64_t total_numel, int num_chunks);

struct Plan {
  int world_size = 1;
  int shard_degree = 1;
  std::int64_t total_numel = 0;
  std::vector<ChunkBounds> chunks;

  [[nodiscard]] int data_replicas() const {
    return world_size / shard_degree;
  }
  [[nodiscard]] int shard_index(int rank) const {
    return rank % shard_degree;
  }
  [[nodiscard]] int chunk_owner(std::size_t chunk) const {
    return static_cast<int>(chunk) % shard_degree;
  }
  /// Lowest rank whose shard owns `chunk` — the canonical source replica.
  [[nodiscard]] int canonical_rank(std::size_t chunk) const {
    return chunk_owner(chunk);
  }
  [[nodiscard]] bool sharded() const { return shard_degree > 1; }

  friend bool operator==(const Plan&, const Plan&) = default;

  void save(ByteWriter& w) const;
  static Plan load(ByteReader& r);
};

/// Build the plan for a world over `params`.  Requires shard_degree >= 1,
/// shard_degree | world_size, shard_degree <= num_chunks (every shard must
/// own at least one chunk) and pipeline support is scaffold-only.
[[nodiscard]] Plan make_plan(int world_size, int shard_degree,
                             const autograd::ParameterStore& params,
                             int num_chunks = kDefaultPlanChunks);

/// Convert one chunk's global range into per-parameter slices, store order.
[[nodiscard]] std::vector<optim::ParamSlice> slices_for_chunk(
    const Plan& plan, const autograd::ParameterStore& params,
    std::size_t chunk);

/// All slices owned by shard index `shard` (chunks c with owner(c) ==
/// shard), in chunk order.
[[nodiscard]] std::vector<optim::ParamSlice> slices_for_shard(
    const Plan& plan, const autograd::ParameterStore& params, int shard);

/// The full publish map for all_gather_params: every chunk's slices plus,
/// aligned 1:1, the canonical source rank of each slice.
struct GatherMap {
  std::vector<optim::ParamSlice> slices;
  std::vector<int> source_of_slice;
};
[[nodiscard]] GatherMap gather_map(const Plan& plan,
                                   const autograd::ParameterStore& params);

}  // namespace easyscale::parallel
