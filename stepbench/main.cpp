// stepbench: one workload, one run.
//
//   stepbench --workload conv-est --seed 42 --seconds 10 --trace 0
//
// Prints the run context, every metric with its unit, the verdict and, as
// the last line, one JSON object {correct, attempted, failed, metrics}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the spans to --trace-out).  Exit code 0 on a completed run
// (even an incorrect one: the verdict is in the JSON), 2 on bad arguments
// or a refused debug build.
//
//   stepbench --workload conv-est --print-reference N [--seed S]
//
// prints the fixed-mapping reference digests of the first N blocks (the
// source of pinned_digests.hpp).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/error.hpp"

namespace {

using namespace easyscale;
using namespace easyscale::stepbench;

int usage(const char* msg) {
  std::fprintf(stderr,
               "stepbench: %s\nusage: stepbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n"
               "       stepbench --workload NAME --print-reference BLOCKS "
               "[--seed N]\n",
               msg);
  return 2;
}

/// Strict integer flag value in [lo, hi]; throws naming the flag.
std::int64_t int_flag(const std::string& value, const std::string& flag,
                      std::int64_t lo, std::int64_t hi) {
  const std::optional<std::int64_t> v = parse_int64_strict(value);
  ES_CHECK(v.has_value() && *v >= lo && *v <= hi,
           flag << " must be an integer in [" << lo << ", " << hi
                << "], got '" << value << "'");
  return *v;
}

int print_reference(const BenchArgs& args, std::int64_t blocks) {
  const WorkloadSpec& spec = find_workload(args.workload);
  const models::WorkloadData inputs = make_inputs(spec, args.seed);
  Reference reference(spec, inputs, /*use_pinned=*/false);
  const auto ref = reference.digests(blocks);
  ES_CHECK(reference.error().empty(), reference.error());
  for (std::uint64_t d : ref) {
    std::printf("0x%016llxULL,\n", static_cast<unsigned long long>(d));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  std::int64_t reference_blocks = 0;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = static_cast<std::uint64_t>(
            int_flag(value, flag, 0, INT64_MAX));
      } else if (flag == "--seconds") {
        args.seconds = static_cast<double>(int_flag(value, flag, 1, 600));
      } else if (flag == "--trace") {
        args.trace = int_flag(value, flag, 0, 1) == 1;
      } else if (flag == "--trace-out") {
        args.trace_path = value;
      } else if (flag == "--print-reference") {
        reference_blocks = int_flag(value, flag, 1, 4096);
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
    if (!have_workload) return usage("--workload is required");
    (void)find_workload(args.workload);
  } catch (const Error& e) {
    return usage(e.what());
  }
  if (!bench::guard_release_build("stepbench")) return 2;
  if (reference_blocks > 0) return print_reference(args, reference_blocks);

  const BenchResult result = run_benchmark(args);
  std::printf("context %s\n", result.context_json.c_str());
  if (!result.sample_counts.empty()) {
    std::printf("samples %s\n", result.sample_counts.c_str());
    std::printf("host factor %.4f (times below are wall times divided by "
                "it, samples_per_s multiplied)\n",
                result.host_factor);
  }
  for (const Metric& m : result.metrics) {
    std::printf("%-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double fail_frac =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  std::printf("%-26s %16.6f ratio (%lld of %lld operations)\n", "fail_frac",
              fail_frac, static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  if (result.mirror_match.has_value()) {
    std::printf("mirror digest check: %s\n",
                *result.mirror_match ? "match" : "MISMATCH");
  }
  for (const std::string& p : result.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  std::printf("verdict: %s\n", result.correct ? "correct" : "FAILED");
  std::printf("%s\n", result_json(result).c_str());
  return 0;
}
