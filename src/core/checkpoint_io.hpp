// On-demand checkpoint persistence: the ESCK file around the engine's or
// trainer's checkpoint bytes — magic, version, payload size and digest, a
// per-tensor digest chain (v2) and a shard-layout frame (v3) — so crashes
// mid-write are detected on load and the parameter content is
// independently attestable.  docs/FAULT_TOLERANCE.md ("Frames") has the
// byte layout of each version; common/frame holds the codec.
//
// The v3 shard frame records the parallelism-plan layout the checkpoint was
// taken under plus a per-chunk digest chain over the CANONICAL parameter
// bytes.  Chunk bounds are a pure function of (total_numel, num_chunks),
// independent of shard_degree, so the chunk chain of a run saved at degree
// N is byte-comparable to one saved at any other degree.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/digest.hpp"

namespace easyscale::core {

/// Shard-layout metadata frame of a v3 checkpoint.
struct ShardFrameMeta {
  std::int32_t world_size = 1;
  std::int32_t shard_degree = 1;
  std::int64_t total_numel = 0;
  std::vector<std::int64_t> chunk_begin;  // fixed chunk bounds, flattened
  std::vector<std::int64_t> chunk_end;    // parameter space, aligned 1:1
  /// One record per chunk (id = chunk index), digest over the canonical
  /// parameter bytes of that chunk; hash-linked like the tensor chain.
  DigestChain chunk_chain;

  void save(ByteWriter& w) const;
  [[nodiscard]] static ShardFrameMeta load(ByteReader& r);
  friend bool operator==(const ShardFrameMeta&,
                         const ShardFrameMeta&) = default;
};

/// Write checkpoint bytes to `path` atomically (write temp + rename) with
/// a per-tensor digest chain (empty by default).  A shard frame makes the
/// file version 3; without one it is version 2.
void save_checkpoint_file(
    const std::string& path, const std::vector<std::uint8_t>& bytes,
    const DigestChain& chain = {},
    const std::optional<ShardFrameMeta>& shard = std::nullopt);

/// Read and verify a checkpoint file; throws on corruption or truncation
/// (payload digest mismatch, broken chain links, framing damage).  The
/// stored digest chain (empty for version 1) and shard frame (nullopt
/// before version 3) come back through the optional out-pointers.
[[nodiscard]] std::vector<std::uint8_t> load_checkpoint_file(
    const std::string& path, DigestChain* chain_out = nullptr,
    std::optional<ShardFrameMeta>* shard_out = nullptr);

}  // namespace easyscale::core
