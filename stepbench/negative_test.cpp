// Negative self-test of the benchmark's correctness check: a post-op hook
// that flips one output bit of one kernel call must turn the verdict to
// failed, raise the failed-operation count, and break the mirror-versus-
// driver digest match.  A clean run of the same shape is the control.
//
// Run: ctest in the benchmark's build directory, or
//   python3 stepbench/run.py --self-test
#include <cstdio>

#include "bench.hpp"
#include "bench_util.hpp"

namespace {

using namespace easyscale::stepbench;

int failures = 0;

void expect(bool ok, const char* what, const std::string& workload) {
  std::printf("%s %-12s %s\n", ok ? "ok  " : "FAIL", workload.c_str(), what);
  if (!ok) ++failures;
}

void check(const std::string& workload, bool trace, std::uint64_t seed) {
  BenchArgs args;
  args.workload = workload;
  args.seed = seed;
  args.seconds = trace ? 2.0 : 1.0;
  args.trace = trace;
  const BenchResult clean = run_benchmark(args);
  // Inside block 1, so block 0 passes and the failure is partial.
  args.flip_step = find_workload(workload).block_steps() + 5;
  const BenchResult flipped = run_benchmark(args);

  expect(clean.correct && clean.failed == 0, "clean run is correct", workload);
  expect(!flipped.correct, "flipped run fails the verdict", workload);
  expect(flipped.failed > 0 && flipped.failed < flipped.attempted,
         "flipped run raises fail_frac", workload);
  if (trace) {
    expect(clean.mirror_match == true, "clean mirror matches the driver",
           workload);
    expect(flipped.mirror_match == false,
           "flipped driver no longer matches the mirror", workload);
  }
}

}  // namespace

int main() {
  if (!easyscale::bench::guard_release_build("stepbench_negative_test")) {
    return 2;
  }
  // Seed 7 recomputes the reference; the default seed reads the pinned one.
  check("rescale-est", /*trace=*/true, 7);
  check("zero1-ddp", /*trace=*/true, 7);
  check("rescale-est", /*trace=*/false, kDefaultSeed);
  std::printf("%s\n", failures == 0 ? "PASS" : "FAILED");
  return failures == 0 ? 0 : 1;
}
