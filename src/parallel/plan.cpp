#include "parallel/plan.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace easyscale::parallel {

std::vector<ChunkBounds> partition_chunks(std::int64_t total_numel,
                                          int num_chunks) {
  ES_CHECK(total_numel >= 0, "negative element count");
  ES_CHECK(num_chunks >= 1, "need at least one chunk");
  const auto k = static_cast<std::int64_t>(num_chunks);
  const std::int64_t base = total_numel / k;
  const std::int64_t rem = total_numel % k;
  std::vector<ChunkBounds> chunks;
  chunks.reserve(static_cast<std::size_t>(k));
  std::int64_t off = 0;
  for (std::int64_t c = 0; c < k; ++c) {
    const std::int64_t len = base + (c < rem ? 1 : 0);
    chunks.push_back(ChunkBounds{.begin = off, .end = off + len});
    off += len;
  }
  return chunks;
}

void Plan::save(ByteWriter& w) const {
  w.write(world_size);
  w.write(shard_degree);
  w.write(total_numel);
  w.write<std::uint64_t>(chunks.size());
  for (const auto& c : chunks) {
    w.write(c.begin);
    w.write(c.end);
  }
}

Plan Plan::load(ByteReader& r) {
  Plan plan;
  plan.world_size = r.read<int>();
  plan.shard_degree = r.read<int>();
  plan.total_numel = r.read<std::int64_t>();
  const auto n = r.read<std::uint64_t>();
  plan.chunks.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ChunkBounds c;
    c.begin = r.read<std::int64_t>();
    c.end = r.read<std::int64_t>();
    plan.chunks.push_back(c);
  }
  return plan;
}

Plan make_plan(int world_size, int shard_degree,
               const autograd::ParameterStore& params, int num_chunks) {
  ES_CHECK(world_size >= 1, "world_size must be >= 1, got " << world_size);
  ES_CHECK(shard_degree >= 1,
           "shard_degree must be >= 1, got " << shard_degree);
  ES_CHECK(world_size % shard_degree == 0,
           "shard_degree " << shard_degree << " must divide world_size "
                           << world_size);
  ES_CHECK(shard_degree <= num_chunks,
           "shard_degree " << shard_degree << " exceeds num_chunks "
                           << num_chunks
                           << " (every shard must own at least one chunk)");
  Plan plan;
  plan.world_size = world_size;
  plan.shard_degree = shard_degree;
  plan.total_numel = params.total_numel();
  plan.chunks = partition_chunks(plan.total_numel, num_chunks);
  return plan;
}

namespace {

/// Intersect a global flattened range with the per-parameter extents.
std::vector<optim::ParamSlice> slices_for_range(
    const autograd::ParameterStore& params, std::int64_t begin,
    std::int64_t end) {
  std::vector<optim::ParamSlice> slices;
  std::int64_t param_off = 0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::int64_t n = params.all()[i]->numel();
    const std::int64_t lo = std::max(begin, param_off);
    const std::int64_t hi = std::min(end, param_off + n);
    if (lo < hi) {
      slices.push_back(optim::ParamSlice{
          .param = i, .begin = lo - param_off, .end = hi - param_off});
    }
    param_off += n;
  }
  return slices;
}

}  // namespace

std::vector<optim::ParamSlice> slices_for_chunk(
    const Plan& plan, const autograd::ParameterStore& params,
    std::size_t chunk) {
  ES_CHECK(chunk < plan.chunks.size(), "chunk index out of range");
  ES_CHECK(params.total_numel() == plan.total_numel,
           "parameter store has " << params.total_numel()
                                  << " elements, plan expects "
                                  << plan.total_numel);
  return slices_for_range(params, plan.chunks[chunk].begin,
                          plan.chunks[chunk].end);
}

std::vector<optim::ParamSlice> slices_for_shard(
    const Plan& plan, const autograd::ParameterStore& params, int shard) {
  ES_CHECK(shard >= 0 && shard < plan.shard_degree,
           "shard " << shard << " outside [0, " << plan.shard_degree << ")");
  std::vector<optim::ParamSlice> slices;
  for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
    if (plan.chunk_owner(c) != shard) continue;
    auto chunk_slices = slices_for_chunk(plan, params, c);
    slices.insert(slices.end(), chunk_slices.begin(), chunk_slices.end());
  }
  return slices;
}

GatherMap gather_map(const Plan& plan,
                     const autograd::ParameterStore& params) {
  GatherMap map;
  for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
    auto chunk_slices = slices_for_chunk(plan, params, c);
    for (const auto& s : chunk_slices) {
      map.slices.push_back(s);
      map.source_of_slice.push_back(plan.canonical_rank(c));
    }
  }
  return map;
}

}  // namespace easyscale::parallel
