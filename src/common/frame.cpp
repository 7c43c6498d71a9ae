#include "common/frame.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/error.hpp"

namespace easyscale::frame {

void expect_magic(ByteReader& r, std::uint32_t magic, const char* what) {
  const auto got = r.read<std::uint32_t>();
  ES_CHECK(got == magic, what << ": bad magic 0x" << std::hex << got
                              << ", want 0x" << magic
                              << " (torn or foreign bytes)");
}

template <typename V>
std::optional<V> read_version(ByteReader& r, V oldest, V newest) {
  const auto version = r.read<V>();
  if (version < oldest || version > newest) return std::nullopt;
  return version;
}

template <typename V>
V expect_version(ByteReader& r, V oldest, V newest, const char* what) {
  const auto version = r.read<V>();
  ES_CHECK(version >= oldest && version <= newest,
           what << ": unsupported version " << version << " (reads "
                << oldest << " to " << newest << ")");
  return version;
}

template std::optional<std::uint16_t> read_version(ByteReader&, std::uint16_t,
                                                   std::uint16_t);
template std::optional<std::uint32_t> read_version(ByteReader&, std::uint32_t,
                                                   std::uint32_t);
template std::uint16_t expect_version(ByteReader&, std::uint16_t,
                                      std::uint16_t, const char*);
template std::uint32_t expect_version(ByteReader&, std::uint32_t,
                                      std::uint32_t, const char*);

std::uint64_t read_count(ByteReader& r, std::size_t min_elem_bytes,
                         const char* what, std::size_t tail_bytes) {
  const auto count = r.read<std::uint64_t>();
  // Divide instead of multiplying: count * min_elem_bytes could wrap.
  ES_CHECK(r.remaining() >= tail_bytes &&
               count <= (r.remaining() - tail_bytes) / min_elem_bytes,
           what << ": truncated (claims " << count << " element(s), "
                << r.remaining() << " byte(s) left)");
  return count;
}

void write_section(ByteWriter& w, std::span<const std::uint8_t> bytes) {
  w.write_span(bytes);
}

std::span<const std::uint8_t> read_section(ByteReader& r, const char* what) {
  const auto size = r.read<std::uint64_t>();
  ES_CHECK(size <= r.remaining(), what << ": section of " << size
                                       << " byte(s), " << r.remaining()
                                       << " left (truncated)");
  return r.read_bytes(static_cast<std::size_t>(size));
}

DigestChain slab_chain(std::span<const std::uint8_t> payload) {
  DigestChain chain;
  std::uint64_t slab = 0;
  for (std::size_t off = 0; off < payload.size(); off += kSlabBytes) {
    const std::size_t len = std::min(kSlabBytes, payload.size() - off);
    chain.push(slab++, digest_bytes(payload.subspan(off, len)));
  }
  return chain;
}

void seal(ByteWriter& w) { w.write<std::uint64_t>(digest_bytes(w.bytes())); }

std::span<const std::uint8_t> unseal(std::span<const std::uint8_t> frame,
                                     const char* what) {
  ES_CHECK(frame.size() >= sizeof(std::uint64_t),
           what << ": " << frame.size() << " byte(s), too short for a trailer");
  const auto body = frame.first(frame.size() - sizeof(std::uint64_t));
  ByteReader trailer(frame.last(sizeof(std::uint64_t)));
  ES_CHECK(trailer.read<std::uint64_t>() == digest_bytes(body),
           what << ": frame digest mismatch (torn or corrupt bytes)");
  return body;
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ES_CHECK(out.flush(), "cannot write " << tmp);
  }
  ES_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
           "cannot move " << tmp << " into place at " << path);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ES_CHECK(in, "cannot open " << path);
  const std::streamoff size = in.tellg();
  ES_CHECK(size >= 0 && in.seekg(0), "cannot size " << path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  ES_CHECK(in.read(reinterpret_cast<char*>(bytes.data()),
                   static_cast<std::streamsize>(bytes.size())),
           "short read: " << path);
  return bytes;
}

}  // namespace easyscale::frame
