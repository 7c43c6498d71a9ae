#include "core/checkpoint_manager.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/frame.hpp"
#include "common/log.hpp"
#include "core/checkpoint_io.hpp"

namespace easyscale::core {

namespace {
bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

/// Sidecar payload: the checkpoint payload digest as 16 hex chars.  Tying
/// the sidecar to the digest (not just the filename) means a rotation or
/// partial rewrite can never leave a stale `.ok` blessing a different file.
std::string sidecar_payload(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buf);
}

void write_sidecar(const std::string& path, std::uint64_t digest) {
  const std::string hex = sidecar_payload(digest);
  frame::write_file(path, std::vector<std::uint8_t>(hex.begin(), hex.end()));
}

std::optional<std::string> read_sidecar(const std::string& path) {
  if (!file_exists(path)) return std::nullopt;
  const auto bytes = frame::read_file(path);
  return std::string(bytes.begin(), bytes.end());
}
}  // namespace

CheckpointManager::CheckpointManager(std::string prefix, int keep)
    : prefix_(std::move(prefix)), keep_(keep) {
  ES_CHECK(keep_ >= 1, "must keep at least one checkpoint generation");
}

// --- Control-plane fencing -----------------------------------------------

void CheckpointManager::raise_fence(std::int64_t epoch) {
  ES_CHECK(epoch >= 0, "fencing epoch must be non-negative, got " << epoch);
  fence_epoch_ = std::max(fence_epoch_, epoch);
}

void CheckpointManager::check_fence(std::int64_t writer_epoch,
                                    const char* what) const {
  if (writer_epoch < fence_epoch_) {
    ES_THROW("stale controller epoch "
             << writer_epoch << " below the checkpoint fence " << fence_epoch_
             << ": " << what
             << " rejected (a deposed leader must not mutate state)");
  }
}

void CheckpointManager::save_fenced(std::int64_t writer_epoch,
                                    const std::vector<std::uint8_t>& bytes,
                                    const DigestChain& chain) {
  check_fence(writer_epoch, "checkpoint save");
  raise_fence(writer_epoch);
  save(bytes, chain);
}

bool CheckpointManager::bless_epoch_fenced(std::int64_t writer_epoch,
                                           std::int64_t epoch) {
  check_fence(writer_epoch, "epoch bless");
  raise_fence(writer_epoch);
  return bless_epoch(epoch);
}

std::optional<std::vector<std::uint8_t>>
CheckpointManager::load_latest_valid_fenced(std::int64_t reader_epoch) const {
  check_fence(reader_epoch, "recovery restore");
  return load_latest_valid();
}

std::string CheckpointManager::path_for(int generation) const {
  return prefix_ + "." + std::to_string(generation);
}

std::string CheckpointManager::sidecar_for(int generation) const {
  return path_for(generation) + ".ok";
}

void CheckpointManager::save(const std::vector<std::uint8_t>& bytes,
                             const DigestChain& chain) {
  // Rotate: gen keep-2 -> keep-1, ..., gen 0 -> 1; then write gen 0.
  // Sidecars travel with their generation so verified status survives
  // rotation.
  std::remove(path_for(keep_ - 1).c_str());
  std::remove(sidecar_for(keep_ - 1).c_str());
  for (int g = keep_ - 2; g >= 0; --g) {
    if (file_exists(path_for(g))) {
      ES_CHECK(std::rename(path_for(g).c_str(), path_for(g + 1).c_str()) == 0,
               "checkpoint rotation failed for generation " << g);
    }
    if (file_exists(sidecar_for(g))) {
      ES_CHECK(std::rename(sidecar_for(g).c_str(),
                           sidecar_for(g + 1).c_str()) == 0,
               "checkpoint sidecar rotation failed for generation " << g);
    }
  }
  save_checkpoint_file(path_for(0), bytes, chain);
  // The fresh generation is unverified until verify_generation() blesses it.
  std::remove(sidecar_for(0).c_str());
}

bool CheckpointManager::verify_generation(int generation) {
  ES_CHECK(generation >= 0 && generation < keep_,
           "generation " << generation << " out of range");
  const std::string path = path_for(generation);
  if (!file_exists(path)) return false;
  try {
    DigestChain chain;
    const auto bytes = load_checkpoint_file(path, &chain);
    ES_CHECK(chain.verify(), "digest chain failed re-verification");
    write_sidecar(sidecar_for(generation), digest_bytes(bytes));
    return true;
  } catch (const Error& e) {
    ES_LOG_WARN("checkpoint generation " << generation
                                         << " failed verification: "
                                         << e.what());
    return false;
  }
}

bool CheckpointManager::is_verified(int generation) const {
  const auto recorded = read_sidecar(sidecar_for(generation));
  if (!recorded.has_value()) return false;
  try {
    const auto bytes = load_checkpoint_file(path_for(generation));
    return *recorded == sidecar_payload(digest_bytes(bytes));
  } catch (const Error&) {
    return false;
  }
}

std::optional<std::vector<std::uint8_t>> CheckpointManager::load_latest_valid()
    const {
  for (int g = 0; g < keep_; ++g) {
    if (!file_exists(path_for(g))) continue;
    try {
      return load_checkpoint_file(path_for(g));
    } catch (const Error& e) {
      ES_LOG_WARN("checkpoint generation " << g << " invalid: " << e.what());
    }
  }
  return std::nullopt;
}

std::optional<std::pair<std::vector<std::uint8_t>, DigestChain>>
CheckpointManager::load_latest_verified() const {
  for (int g = 0; g < keep_; ++g) {
    if (!file_exists(path_for(g))) continue;
    const auto recorded = read_sidecar(sidecar_for(g));
    if (!recorded.has_value()) continue;
    try {
      DigestChain chain;
      auto bytes = load_checkpoint_file(path_for(g), &chain);
      if (*recorded != sidecar_payload(digest_bytes(bytes))) {
        ES_LOG_WARN("checkpoint generation "
                    << g << " sidecar does not match the file; skipping");
        continue;
      }
      return std::make_pair(std::move(bytes), std::move(chain));
    } catch (const Error& e) {
      ES_LOG_WARN("checkpoint generation " << g << " invalid: " << e.what());
    }
  }
  return std::nullopt;
}

int CheckpointManager::generations_on_disk() const {
  int n = 0;
  for (int g = 0; g < keep_; ++g) {
    if (file_exists(path_for(g))) ++n;
  }
  return n;
}

void CheckpointManager::clear() {
  for (int g = 0; g < keep_; ++g) {
    std::remove(path_for(g).c_str());
    std::remove(sidecar_for(g).c_str());
  }
}

// --- Epoch-addressed checkpoints -----------------------------------------

std::string CheckpointManager::epoch_path_for(std::int64_t epoch) const {
  return prefix_ + ".epoch." + std::to_string(epoch);
}

std::string CheckpointManager::epoch_sidecar_for(std::int64_t epoch) const {
  return epoch_path_for(epoch) + ".ok";
}

void CheckpointManager::save_epoch(std::int64_t epoch,
                                   const std::vector<std::uint8_t>& bytes,
                                   const DigestChain& chain) {
  // Phase 1: the framed writer lands the file atomically (tmp + rename),
  // but the epoch stays UNBLESSED — a stale sidecar from a previous life of
  // this epoch number must not bless the new bytes.
  std::remove(epoch_sidecar_for(epoch).c_str());
  save_checkpoint_file(epoch_path_for(epoch), bytes, chain);
}

bool CheckpointManager::bless_epoch(std::int64_t epoch) {
  const std::string path = epoch_path_for(epoch);
  if (!file_exists(path)) return false;
  try {
    DigestChain chain;
    const auto bytes = load_checkpoint_file(path, &chain);
    ES_CHECK(chain.verify(), "digest chain failed re-verification");
    write_sidecar(epoch_sidecar_for(epoch), digest_bytes(bytes));
    return true;
  } catch (const Error& e) {
    ES_LOG_WARN("epoch " << epoch << " failed verification: " << e.what());
    return false;
  }
}

bool CheckpointManager::is_blessed(std::int64_t epoch) const {
  const auto recorded = read_sidecar(epoch_sidecar_for(epoch));
  if (!recorded.has_value()) return false;
  try {
    const auto bytes = load_checkpoint_file(epoch_path_for(epoch));
    return *recorded == sidecar_payload(digest_bytes(bytes));
  } catch (const Error&) {
    return false;
  }
}

std::vector<std::int64_t> CheckpointManager::epochs_on_disk() const {
  namespace fs = std::filesystem;
  const fs::path prefix_path(prefix_);
  fs::path dir = prefix_path.parent_path();
  if (dir.empty()) dir = ".";
  const std::string needle = prefix_path.filename().string() + ".epoch.";
  std::vector<std::int64_t> epochs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(needle, 0) != 0) continue;
    const std::string tail = name.substr(needle.size());
    if (tail.size() >= 3 && tail.substr(tail.size() - 3) == ".ok") continue;
    // Strict parse: "<epoch>" and nothing else — tmp files and foreign
    // suffixes are not epochs.
    const auto parsed = parse_int64_strict(tail);
    if (parsed.has_value()) epochs.push_back(*parsed);
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

std::optional<std::tuple<std::int64_t, std::vector<std::uint8_t>, DigestChain>>
CheckpointManager::load_latest_blessed_epoch() const {
  const auto epochs = epochs_on_disk();
  for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
    const auto recorded = read_sidecar(epoch_sidecar_for(*it));
    if (!recorded.has_value()) continue;  // unblessed (phase-2 never ran)
    try {
      DigestChain chain;
      auto bytes = load_checkpoint_file(epoch_path_for(*it), &chain);
      if (*recorded != sidecar_payload(digest_bytes(bytes))) {
        ES_LOG_WARN("epoch " << *it
                             << " sidecar does not match the file; skipping");
        continue;
      }
      return std::make_tuple(*it, std::move(bytes), std::move(chain));
    } catch (const Error& e) {
      ES_LOG_WARN("epoch " << *it << " invalid: " << e.what());
    }
  }
  return std::nullopt;
}

int CheckpointManager::gc_epochs(int keep_blessed) {
  ES_CHECK(keep_blessed >= 0, "cannot keep a negative number of epochs");
  const auto epochs = epochs_on_disk();
  // The newest `keep_blessed` blessed epochs survive; everything else goes
  // unless pinned.  Unblessed files are never counted as keepers — a torn
  // phase-1 write must not shield an older blessed epoch from retention
  // NOR survive itself.
  std::set<std::int64_t> keep(pinned_.begin(), pinned_.end());
  int blessed_kept = 0;
  for (auto it = epochs.rbegin();
       it != epochs.rend() && blessed_kept < keep_blessed; ++it) {
    if (is_blessed(*it)) {
      keep.insert(*it);
      ++blessed_kept;
    }
  }
  int removed = 0;
  for (const auto epoch : epochs) {
    if (keep.count(epoch) != 0) continue;
    if (std::remove(epoch_path_for(epoch).c_str()) == 0) ++removed;
    std::remove(epoch_sidecar_for(epoch).c_str());
  }
  return removed;
}

}  // namespace easyscale::core
