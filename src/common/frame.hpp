// Frame codec: the pieces the repo's self-verifying binary formats share
// (docs/FAULT_TOLERANCE.md, "Frames", tabulates which format uses which).
// The trust rules live here and nowhere else: a bad magic or version is a
// named Error; a length read from the wire is bounded by the bytes left
// before anything is allocated for it; a sealed frame's trailer is checked
// before any other field is parsed.  The codec adds no bytes beyond the
// ones each piece names, so a format moved onto it keeps its layout.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "common/serialize.hpp"

namespace easyscale::frame {

/// Read a u32 magic number; throws "<what>: bad magic ..." on mismatch.
void expect_magic(ByteReader& r, std::uint32_t magic, const char* what);

/// Read a version field of V's width; nullopt when it lies outside
/// [oldest, newest] (for formats that bypass a stale image instead of
/// failing).  Instantiated for std::uint16_t and std::uint32_t.
template <typename V>
[[nodiscard]] std::optional<V> read_version(ByteReader& r, V oldest, V newest);

/// Same, throwing "<what>: unsupported version ..." instead of nullopt.
template <typename V>
V expect_version(ByteReader& r, V oldest, V newest, const char* what);

/// Read a u64 element count and bound it by the bytes left: `count`
/// elements of at least `min_elem_bytes` each, followed by `tail_bytes`
/// that belong to a trailer.
[[nodiscard]] std::uint64_t read_count(ByteReader& r,
                                       std::size_t min_elem_bytes,
                                       const char* what,
                                       std::size_t tail_bytes = 0);

/// u64-length-prefixed byte section.
void write_section(ByteWriter& w, std::span<const std::uint8_t> bytes);
/// The section's bytes, a view into the reader's buffer.
[[nodiscard]] std::span<const std::uint8_t> read_section(ByteReader& r,
                                                         const char* what);

/// Fixed-width slabs an opaque payload is digest-chained over (one record
/// per slab, id = slab index, the last slab possibly short).
inline constexpr std::size_t kSlabBytes = 4096;
[[nodiscard]] DigestChain slab_chain(std::span<const std::uint8_t> payload);

/// Append the whole-frame trailer: digest_bytes of every byte written so
/// far, as a u64.
void seal(ByteWriter& w);
/// Verify a sealed frame's trailer and return the bytes it covers.
/// Throws "<what>: frame digest mismatch" on any flipped byte.
[[nodiscard]] std::span<const std::uint8_t> unseal(
    std::span<const std::uint8_t> frame, const char* what);

/// Write `bytes` to `path` atomically: a `.tmp` sibling, then rename.
void write_file(const std::string& path, std::span<const std::uint8_t> bytes);
/// The whole file; throws when it cannot be opened or read.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace easyscale::frame
