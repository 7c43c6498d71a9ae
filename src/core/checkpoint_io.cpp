#include "core/checkpoint_io.hpp"

#include "common/error.hpp"
#include "common/frame.hpp"
#include "common/serialize.hpp"

namespace easyscale::core {

namespace {
constexpr std::uint32_t kFileMagic = 0x4553434Bu;  // "ESCK"
constexpr std::uint32_t kFileVersion = 2;
constexpr std::uint32_t kShardedFileVersion = 3;
}  // namespace

void ShardFrameMeta::save(ByteWriter& w) const {
  w.write(world_size);
  w.write(shard_degree);
  w.write(total_numel);
  w.write_vector(chunk_begin);
  w.write_vector(chunk_end);
  chunk_chain.save(w);
}

ShardFrameMeta ShardFrameMeta::load(ByteReader& r) {
  ShardFrameMeta meta;
  meta.world_size = r.read<std::int32_t>();
  meta.shard_degree = r.read<std::int32_t>();
  meta.total_numel = r.read<std::int64_t>();
  meta.chunk_begin = r.read_vector<std::int64_t>();
  meta.chunk_end = r.read_vector<std::int64_t>();
  ES_CHECK(meta.chunk_begin.size() == meta.chunk_end.size(),
           "shard frame chunk bound arrays disagree");
  ES_CHECK(meta.world_size >= 1 && meta.shard_degree >= 1 &&
               meta.world_size % meta.shard_degree == 0,
           "shard frame world/degree factorization invalid");
  meta.chunk_chain = DigestChain::load(r);  // verifies every link
  return meta;
}

void save_checkpoint_file(const std::string& path,
                          const std::vector<std::uint8_t>& bytes,
                          const DigestChain& chain,
                          const std::optional<ShardFrameMeta>& shard) {
  ByteWriter w;
  w.write(kFileMagic);
  w.write(shard.has_value() ? kShardedFileVersion : kFileVersion);
  w.write<std::uint64_t>(bytes.size());
  w.write<std::uint64_t>(digest_bytes(bytes));
  ByteWriter section;
  chain.save(section);
  frame::write_section(w, section.bytes());
  if (shard.has_value()) {
    section = ByteWriter();
    shard->save(section);
    frame::write_section(w, section.bytes());
  }
  w.write_bytes(bytes);
  frame::write_file(path, w.bytes());
}

std::vector<std::uint8_t> load_checkpoint_file(
    const std::string& path, DigestChain* chain_out,
    std::optional<ShardFrameMeta>* shard_out) {
  const std::string what = "checkpoint " + path;
  const std::vector<std::uint8_t> file = frame::read_file(path);
  ByteReader r(file);
  frame::expect_magic(r, kFileMagic, what.c_str());
  const auto version =
      frame::expect_version(r, 1u, kShardedFileVersion, what.c_str());
  const auto size = r.read<std::uint64_t>();
  const auto digest = r.read<std::uint64_t>();
  DigestChain chain;
  if (version >= 2) {
    ByteReader cr(frame::read_section(r, what.c_str()));
    chain = DigestChain::load(cr);  // verifies every link
    cr.require_exhausted("checkpoint digest chain");
  }
  std::optional<ShardFrameMeta> shard;
  if (version >= 3) {
    ByteReader sr(frame::read_section(r, what.c_str()));
    shard = ShardFrameMeta::load(sr);
    sr.require_exhausted("checkpoint shard frame");
  }
  // The payload is the rest of the file, exactly: a size field that
  // disagrees is damage, never an allocation request.
  ES_CHECK(size == r.remaining(), what << ": payload size field " << size
                                       << " != " << r.remaining()
                                       << " byte(s) left");
  const auto payload = r.read_bytes(r.remaining());
  ES_CHECK(digest_bytes(payload) == digest,
           what << ": payload digest mismatch (corrupt file)");
  if (chain_out != nullptr) *chain_out = std::move(chain);
  if (shard_out != nullptr) *shard_out = std::move(shard);
  return {payload.begin(), payload.end()};
}

}  // namespace easyscale::core
