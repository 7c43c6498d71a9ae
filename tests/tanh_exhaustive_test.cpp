// All 2^32 float inputs through every vector backend's tanh_map, compared
// bit for bit with the scalar fdlibm port (kernels/tanh.hpp).  ctest label
// `exhaustive`: `ctest -L exhaustive` runs it alone.  The walk is split
// over up to four threads and takes a few seconds in an optimized build.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "kernels/simd.hpp"
#include "kernels/tanh.hpp"

namespace easyscale::kernels {
namespace {

TEST(TanhExhaustive, EveryFloatLanewiseEqualsPort) {
  std::vector<const SimdOps*> tables;
  for (SimdBackend backend : available_simd_backends()) {
    const SimdOps& ops = simd_ops(backend);
    if (ops.tanh_map != nullptr) tables.push_back(&ops);
  }
  if (tables.empty()) GTEST_SKIP() << "no vector backend on this host";

  constexpr std::uint64_t kTotal = std::uint64_t{1} << 32;
  constexpr std::uint64_t kBlock = 1 << 16;
  const int workers = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  std::atomic<std::uint64_t> next_block{0};
  std::vector<std::uint64_t> mismatches(tables.size(), 0);
  std::vector<std::uint32_t> first_bad(tables.size(), 0);
  std::mutex mu;

  auto work = [&] {
    std::vector<float> in(kBlock), ref(kBlock), got(kBlock);
    std::vector<std::uint64_t> local(tables.size(), 0);
    std::vector<std::uint32_t> local_first(tables.size(), 0);
    for (;;) {
      const std::uint64_t b0 = next_block.fetch_add(kBlock);
      if (b0 >= kTotal) break;
      for (std::uint64_t i = 0; i < kBlock; ++i) {
        in[i] = std::bit_cast<float>(static_cast<std::uint32_t>(b0 + i));
        ref[i] = tanh_fdlibm(in[i]);
      }
      for (std::size_t t = 0; t < tables.size(); ++t) {
        tables[t]->tanh_map(in.data(), got.data(),
                            static_cast<std::int64_t>(kBlock));
        if (std::memcmp(got.data(), ref.data(), kBlock * sizeof(float)) == 0) {
          continue;
        }
        for (std::uint64_t i = 0; i < kBlock; ++i) {
          if (std::bit_cast<std::uint32_t>(got[i]) !=
              std::bit_cast<std::uint32_t>(ref[i])) {
            if (local[t]++ == 0) {
              local_first[t] = static_cast<std::uint32_t>(b0 + i);
            }
          }
        }
      }
    }
    const std::lock_guard<std::mutex> lock(mu);
    for (std::size_t t = 0; t < tables.size(); ++t) {
      if (local[t] != 0 && mismatches[t] == 0) first_bad[t] = local_first[t];
      mismatches[t] += local[t];
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) threads.emplace_back(work);
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < tables.size(); ++t) {
    EXPECT_EQ(mismatches[t], 0u)
        << simd_backend_name(tables[t]->kind) << ": e.g. input bits 0x"
        << std::hex << first_bad[t];
  }
}

}  // namespace
}  // namespace easyscale::kernels
