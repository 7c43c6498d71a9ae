// One benchmark run end to end: set-up, the measured driver run(s), the
// reference check, the mirror (traced runs) and the metric table.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "bench_util.hpp"
#include "kernels/simd.hpp"

namespace easyscale::stepbench {

namespace {

/// Set-up repetitions after each window block of an untraced run.
constexpr int kSetupRepsPerBlock = 5;
/// Calibration kernel calls after each window block of an untraced run.
constexpr int kCalibrationsPerBlock = 3;
/// Steps whose spans a traced run writes to its trace file.
constexpr std::int64_t kTraceFileSteps = 100;

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : quantile(v, 0.5);
}

/// Mean over the window's blocks of quantile `q` of each block's samples
/// in `v`, block b's samples ending at index `b.*end` (blocks without
/// samples skipped); NaN when no block has any.
double block_mean(const std::vector<double>& v,
                  const std::vector<BlockEnd>& blocks,
                  std::size_t BlockEnd::*end, double q) {
  double sum = 0.0;
  int n = 0;
  std::size_t begin = 0;
  for (const BlockEnd& b : blocks) {
    const std::size_t stop = b.*end;
    if (stop > begin) {
      sum += quantile({v.begin() + static_cast<std::ptrdiff_t>(begin),
                       v.begin() + static_cast<std::ptrdiff_t>(stop)},
                      q);
      ++n;
    }
    begin = stop;
  }
  return n > 0 ? sum / n : std::nan("");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string simd_backend() {
  kernels::SimdBackend b = kernels::parse_simd_backend_env();
  if (b == kernels::SimdBackend::kAuto) b = kernels::detected_simd_backend();
  return kernels::simd_backend_name(b);
}

std::string context_json(const BenchArgs& args) {
  std::ostringstream os;
  os << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
     << ",\"seconds\":" << args.seconds << ",\"trace\":" << (args.trace ? 1 : 0)
     << ",\"build_type\":\"" << bench::build_type() << "\",\"simd_backend\":\""
     << simd_backend() << "\",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"intra_op_threads\":" << kIntraOpThreads
     << ",\"parallel_workers\":false}";
  return os.str();
}

double samples_per_s(const DriverRun& r) {
  return r.window_s > 0.0 ? static_cast<double>(r.window_samples) / r.window_s
                          : 0.0;
}

void account(BenchResult& result, const DriverRun& run, const char* label) {
  result.attempted += total(run.group_ops);
  result.failed += total(run.group_failed);
  if (!run.error.empty()) {
    result.problems.push_back(std::string(label) + " run threw: " + run.error);
  }
  for (std::size_t g = 0; g < run.group_failed.size(); ++g) {
    if (run.group_failed[g] > 0) {
      result.problems.push_back(std::string(label) + " run: " +
                                std::to_string(run.group_failed[g]) + " of " +
                                std::to_string(run.group_ops[g]) +
                                " operations failed in group " +
                                std::to_string(g));
      break;  // the first failing group locates the fault
    }
  }
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? std::nan("") : sum / static_cast<double>(v.size());
}

// Timing metrics are per-block quantiles averaged over the window's blocks,
// divided by the host factor (README, "Host noise"): the host's speed has
// levels up to 1.8x apart, so a quantile pooled over the whole window jumps
// between them as the share of slow time crosses it, while a block mean
// moves in proportion to that share, as the calibration mean does.
void end_to_end(BenchResult& result, const DriverRun& run,
                const std::vector<double>& setup_s, double host_factor) {
  const auto& b = run.window_blocks;
  const double f = host_factor;
  result.metrics = {
      {"samples_per_s", samples_per_s(run) * f, "samples/s"},
      {"step_ms_p50", block_mean(run.step_ms, b, &BlockEnd::steps, 0.5) / f,
       "ms"},
      {"step_ms_p90", block_mean(run.step_ms, b, &BlockEnd::steps, 0.9) / f,
       "ms"},
      {"rescale_ms_p50",
       block_mean(run.rescale_ms, b, &BlockEnd::rescales, 0.5) / f, "ms"},
      {"snapshot_ms_p50",
       block_mean(run.snapshot_ms, b, &BlockEnd::snapshots, 0.5) / f, "ms"},
      {"setup_s", mean(setup_s) / f, "s"},
  };
}

void per_layer(BenchResult& result, const WorkloadSpec& spec,
               const DriverRun& untraced, const DriverRun& traced,
               const MirrorRun& mirror) {
  const double ws = static_cast<double>(std::max<std::int64_t>(mirror.window_steps, 1));
  auto layer = [&](const char* span) {
    return mirror.tracer.total_ms(span, mirror.window_first_step,
                                  traced.steps) /
           ws;
  };
  const double data = layer("data.next");
  const double ctx = layer("core.ctx_swap");
  const double grad = layer("core.grad_copy");
  const double train = layer("models.train_step");
  const double allreduce = layer("comm.allreduce");
  const double reduce_scatter = layer("comm.reduce_scatter");
  const double all_gather = layer("comm.all_gather");
  const double optim = layer("optim.step");
  const double driver_step =
      traced.window_steps > 0
          ? traced.window_step_ms_total / static_cast<double>(traced.window_steps)
          : 0.0;
  const double overhead = driver_step - (data + ctx + grad + train + allreduce +
                                         reduce_scatter + all_gather + optim);
  const double base = samples_per_s(untraced);
  const double overhead_pct =
      base > 0.0 ? (base - samples_per_s(traced)) / base * 100.0 : 0.0;
  const bool engine = spec.driver == DriverKind::kEngine;
  result.metrics = {
      {"data.next_ms", data, "ms"},
      {"core.ctx_swap_ms", ctx, "ms"},
      {"core.ctx_bytes", mirror.ctx_bytes, "B"},
      {"core.grad_copy_ms", grad, "ms"},
      {"core.grad_copy_bytes", mirror.grad_copy_bytes, "B"},
      {"core.driver_overhead_ms", overhead, "ms"},
      {"core.checkpoint_ms", median_or_zero(traced.checkpoint_ms), "ms"},
      {"core.restore_ms", engine ? median_or_zero(traced.restore_ms) : 0.0,
       "ms"},
      {"core.rebuild_ms", median_or_zero(traced.rebuild_ms), "ms"},
      {"core.checkpoint_bytes", static_cast<double>(traced.checkpoint_bytes),
       "B"},
      {"models.train_step_ms", train, "ms"},
  };
  for (std::size_t f = 0; f < kKernelFamilies; ++f) {
    const std::string family = kFamilyNames[f];
    result.metrics.push_back(
        {"kernels." + family + ".calls",
         static_cast<double>(traced.window_kernels.calls[f]) / ws, "count"});
    result.metrics.push_back(
        {"kernels." + family + ".out_elems",
         static_cast<double>(traced.window_kernels.out_elems[f]) / ws,
         "count"});
  }
  const std::vector<Metric> rest = {
      {"comm.allreduce_ms", allreduce, "ms"},
      {"comm.allreduce_bytes", mirror.allreduce_bytes, "B"},
      {"comm.buckets", mirror.buckets, "count"},
      {"comm.reduce_scatter_ms", reduce_scatter, "ms"},
      {"comm.all_gather_ms", all_gather, "ms"},
      {"comm.all_gather_bytes", mirror.all_gather_bytes, "B"},
      {"optim.step_ms", optim, "ms"},
      {"parallel.snapshot_bytes", static_cast<double>(traced.snapshot_bytes),
       "B"},
      {"parallel.restore_ms", engine ? 0.0 : median_or_zero(traced.restore_ms),
       "ms"},
      {"parallel.reshard_ms", median_or_zero(traced.reshard_ms), "ms"},
      {"trace.driver_step_ms", driver_step, "ms"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
  result.metrics.insert(result.metrics.end(), rest.begin(), rest.end());
}

/// Mirror versus traced driver: digests at every block end and at the end,
/// kernel counts, and (engine) the engine's own swap counters.
void check_mirror(BenchResult& result, const WorkloadSpec& spec,
                  const DriverRun& traced, const MirrorRun& mirror) {
  bool match = mirror.error.empty() &&
               mirror.final_digest == traced.final_digest &&
               mirror.block_digests == traced.block_digests;
  if (!mirror.error.empty()) {
    result.problems.push_back("mirror threw: " + mirror.error);
  } else if (!match) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "mirror digest %016llx != driver digest %016llx",
                  static_cast<unsigned long long>(mirror.final_digest),
                  static_cast<unsigned long long>(traced.final_digest));
    result.problems.emplace_back(buf);
  }
  if (mirror.window_kernels != traced.window_kernels) {
    match = false;
    result.problems.emplace_back("mirror kernel counts differ from the driver's");
  }
  if (spec.driver == DriverKind::kEngine) {
    const double ws = static_cast<double>(mirror.window_steps);
    if (std::llround(mirror.ctx_bytes * ws) != traced.ctx_bytes_window ||
        std::llround(mirror.grad_copy_bytes * ws) != traced.grad_bytes_window) {
      match = false;
      result.problems.emplace_back(
          "mirror swap bytes differ from the engine's SwitchStats");
    }
  }
  result.mirror_match = match;
}

}  // namespace

BenchResult run_benchmark(const BenchArgs& args) {
  const WorkloadSpec& spec = find_workload(args.workload);
  BenchResult result;
  result.context_json = context_json(args);
  if (!args.trace) {
    const models::WorkloadData inputs = make_inputs(spec, args.seed);
    RunOptions options;
    options.seconds = args.seconds;
    options.probes = true;
    options.flip_step = args.flip_step;
    Reference reference(spec, inputs, args.seed == kDefaultSeed);
    DriverSession session(spec, inputs, options);
    // Median set-up and median calibration per window block, spread over
    // the run like the steps.
    std::vector<double> setup_s;
    std::vector<double> calibration;
    for (bool more = true; more;) {
      const std::size_t window_blocks = session.run().window_blocks.size();
      more = session.run_block();
      if (session.run().window_blocks.size() > window_blocks) {
        setup_s.push_back(measure_setup(spec, args.seed, kSetupRepsPerBlock));
        std::vector<double> c;
        for (int i = 0; i < kCalibrationsPerBlock; ++i) {
          c.push_back(calibration_ms());
        }
        calibration.push_back(quantile(c, 0.5));
      }
      reference.keep_up(session.run().blocks);
    }
    DriverRun run = session.finish();
    apply_reference(run, reference.digests(run.blocks));
    if (!reference.error().empty()) result.problems.push_back(reference.error());
    account(result, run, "measured");
    result.host_factor = calibration.empty()
                             ? 1.0
                             : mean(calibration) / kReferenceCalibrationMs;
    end_to_end(result, run, setup_s, result.host_factor);
    result.sample_counts =
        std::to_string(run.window_blocks.size()) + " window blocks: " +
        std::to_string(run.step_ms.size()) + " steps, " +
        std::to_string(run.rescale_ms.size()) + " scale events, " +
        std::to_string(run.snapshot_ms.size()) + " snapshots, " +
        std::to_string(setup_s.size() * kSetupRepsPerBlock) + " set-ups";
    result.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    const models::WorkloadData inputs = make_inputs(spec, args.seed);
    RunOptions options;
    options.seconds = args.seconds / 2.0;
    options.flip_step = args.flip_step;
    DriverSession untraced_session(spec, inputs, options);
    options.traced = true;
    options.probes = true;
    DriverSession traced_session(spec, inputs, options);
    MirrorSession mirror_session(spec, inputs);
    Reference reference(spec, inputs, args.seed == kDefaultSeed);
    // Round-robin blocks, so drift in host speed hits the untraced driver,
    // the traced driver and the mirror alike: the overhead and the
    // per-layer accounting compare runs side by side.
    for (bool a = true, b = true; a || b;) {
      if (a) a = untraced_session.run_block();
      if (b) {
        b = traced_session.run_block();
        mirror_session.run_block();
      }
      reference.keep_up(std::max(untraced_session.run().blocks,
                                 traced_session.run().blocks));
    }
    DriverRun untraced = untraced_session.finish();
    DriverRun traced = traced_session.finish();
    const MirrorRun mirror = mirror_session.finish();
    const auto ref =
        reference.digests(std::max(untraced.blocks, traced.blocks));
    if (!reference.error().empty()) result.problems.push_back(reference.error());
    apply_reference(untraced, ref);
    apply_reference(traced, ref);
    account(result, untraced, "untraced");
    account(result, traced, "traced");
    check_mirror(result, spec, traced, mirror);
    per_layer(result, spec, untraced, traced, mirror);
    if (!args.trace_path.empty()) {
      std::filesystem::create_directories(
          std::filesystem::path(args.trace_path).parent_path());
      // The last kTraceFileSteps steps only: a whole rescale-est window is
      // about a million spans.
      mirror.tracer.write_chrome_json(args.trace_path,
                                      traced.steps - kTraceFileSteps,
                                      result.context_json);
    }
  }
  result.correct = result.failed == 0 && result.problems.empty() &&
                   result.mirror_match.value_or(true);
  return result;
}

std::string result_json(const BenchResult& result) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    // A failed run can leave a metric undefined; JSON has no NaN.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace easyscale::stepbench
