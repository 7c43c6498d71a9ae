// Step benchmark: four workloads through the real step drivers
// (core::EasyScaleEngine::run_steps, parallel::Trainer::run_steps), plus a
// bench-side mirror of each driver's step that calls the layers' public
// functions and times each call.  See stepbench/README.md.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "kernels/exec_context.hpp"
#include "models/datasets.hpp"
#include "optim/optimizer.hpp"
#include "parallel/trainer.hpp"

namespace easyscale::stepbench {

inline constexpr std::uint64_t kDefaultSeed = 42;
/// Every workload runs on one compute thread (README: "Why one thread").
inline constexpr int kIntraOpThreads = 1;

enum class DriverKind { kEngine, kTrainer };

struct WorkloadSpec {
  std::string name;
  std::string model;
  DriverKind driver = DriverKind::kEngine;
  /// Engine: number of ESTs.  Trainer: world size.
  std::int64_t ranks = 0;
  /// Samples per EST (engine) or per rank (trainer) per global step.
  std::int64_t batch = 0;
  /// Mapping per segment, cycled: physical workers (engine) or shard
  /// degree (trainer).  A scale event runs before every segment except the
  /// first of a run.  One entry = a fixed mapping, no scale events.
  std::vector<std::int64_t> cycle;
  std::int64_t segment_steps = 0;
  /// Segments per block.  A block is the unit of warm-up, of the digest
  /// check and of the measured window (whole blocks only).
  std::int64_t block_segments = 1;
  optim::OptimizerConfig optim;
  /// Trainer::checkpoint_bytes after every step (the supervisor's
  /// peer_snapshot_every = 1); each scale event restores the latest one.
  bool snapshot_every_step = false;
  std::int64_t train_size = 0;

  [[nodiscard]] std::int64_t block_steps() const {
    return segment_steps * block_segments;
  }
  [[nodiscard]] std::int64_t samples_per_step() const { return ranks * batch; }
  [[nodiscard]] bool rescales() const { return cycle.size() > 1; }
  /// Mapping of the reference run: one worker / shard degree 1.
  [[nodiscard]] static constexpr std::int64_t fixed_mapping() { return 1; }
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// Throws easyscale::Error for an unknown name.
[[nodiscard]] const WorkloadSpec& find_workload(const std::string& name);

/// Datasets generated from the benchmark seed.  The drivers receive only
/// these; their own config seed stays at its default.
[[nodiscard]] models::WorkloadData make_inputs(const WorkloadSpec& spec,
                                               std::uint64_t seed);

// --- Trace spans ---------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  const char* name = "";
  std::int64_t step = 0;  // global step the span belongs to
  Clock::time_point begin;
  Clock::time_point end;
};

/// In-memory span log; written out once, when the run ends.
class Tracer {
 public:
  template <typename Fn>
  decltype(auto) time(const char* name, std::int64_t step, Fn&& fn) {
    Span s{name, step, Clock::now(), {}};
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      s.end = Clock::now();
      spans_.push_back(s);
    } else {
      decltype(auto) out = fn();
      s.end = Clock::now();
      spans_.push_back(s);
      return out;
    }
  }
  /// Sum of span durations named `name` with step in [first, last), in ms.
  [[nodiscard]] double total_ms(const std::string& name, std::int64_t first,
                                std::int64_t last) const;
  /// Chrome trace-event JSON of the spans from `first_step` on (one "X"
  /// event per span, times in us from the first of them).
  void write_chrome_json(const std::string& path, std::int64_t first_step,
                         const std::string& context_json) const;

 private:
  std::vector<Span> spans_;
};

// --- Kernel post-op hook -------------------------------------------------

inline constexpr std::size_t kKernelFamilies = 4;
inline constexpr std::array<const char*, kKernelFamilies> kFamilyNames = {
    "gemm", "conv", "reduce", "scatter"};

struct KernelCounts {
  std::array<std::int64_t, kKernelFamilies> calls{};
  std::array<std::int64_t, kKernelFamilies> out_elems{};
  friend bool operator==(const KernelCounts&, const KernelCounts&) = default;
};

/// Installed on every worker of a traced run (counting) and by the
/// negative self-test (a one-shot sign flip of one output element).
class BenchHook final : public kernels::PostOpHook {
 public:
  void on_output(kernels::KernelFamily family, std::span<float> out) override;

  bool counting = false;
  KernelCounts counts;
  /// Armed by the run loop before the configured step; the next kernel
  /// output gets the sign bit of its largest-magnitude element flipped.
  bool flip_armed = false;
};

// --- Driver runs ---------------------------------------------------------

struct RunOptions {
  /// Measured window: whole blocks after the warm-up block, until the
  /// driver calls inside it add up to at least this many seconds.
  double seconds = 1.0;
  /// Never complete on its own: the caller runs blocks until it has as many
  /// as it needs (the reference run).
  bool paced = false;
  /// Traced run: counting hook on every worker, scale events split into
  /// the drivers' public checkpoint/configure/restore calls.
  bool traced = false;
  /// Negative self-test: flip one kernel output bit in this global step.
  std::int64_t flip_step = -1;
  /// Engine workloads: after each window block, out of the window's time,
  /// kProbeReps same-size configure_workers (fixed-mapping workloads) and
  /// kProbeReps checkpoint()/restore() round trips.  Bitwise invisible;
  /// each is one operation of the block.
  bool probes = false;
};

/// Probe repetitions per window block (RunOptions::probes).
inline constexpr int kProbeReps = 15;

/// Where one window block's samples end (exclusive) in DriverRun's
/// step_ms / rescale_ms / snapshot_ms.
struct BlockEnd {
  std::size_t steps = 0;
  std::size_t rescales = 0;
  std::size_t snapshots = 0;
};

struct DriverRun {
  std::int64_t steps = 0;
  std::int64_t blocks = 0;
  std::vector<std::uint64_t> block_digests;
  /// Operations attempted / failed per block.
  std::vector<std::int64_t> group_ops;
  std::vector<std::int64_t> group_failed;
  // End-to-end samples from the measured window and its probes.
  std::vector<double> step_ms;
  std::vector<double> rescale_ms;
  std::vector<double> snapshot_ms;
  /// One entry per completed window block, for the per-block statistics.
  std::vector<BlockEnd> window_blocks;
  double window_s = 0.0;
  std::int64_t window_samples = 0;
  /// Per-step driver wall time (window steps), for the traced accounting.
  double window_step_ms_total = 0.0;
  std::int64_t window_steps = 0;
  // Traced-run extras.
  std::vector<double> checkpoint_ms;  // engine checkpoint() per scale
  std::vector<double> restore_ms;     // engine restore() / trainer restore
  std::vector<double> rebuild_ms;     // configure_workers - ckpt - restore
  std::vector<double> reshard_ms;     // trainer reshard()
  std::int64_t checkpoint_bytes = 0;
  std::int64_t snapshot_bytes = 0;
  KernelCounts window_kernels;
  std::int64_t ctx_bytes_window = 0;   // engine SwitchStats deltas
  std::int64_t grad_bytes_window = 0;
  std::uint64_t final_digest = 0;
  std::string error;  // exception text; the run stops at the first one
};

/// Driver configs shared by the runs and the mirror: the workload's model,
/// shape and optimizer, sequential workers, kIntraOpThreads, and the
/// drivers' own defaults for everything else (D1, seed, bucket cap).
[[nodiscard]] core::EasyScaleConfig engine_config(const WorkloadSpec& spec);
[[nodiscard]] parallel::TrainerConfig trainer_config(
    const WorkloadSpec& spec, std::int64_t shard_degree);

/// Set-up: the inputs, the driver and its first configure_workers (engine)
/// or construction (trainer).  Runs `reps` times; returns the median
/// seconds.
[[nodiscard]] double measure_setup(const WorkloadSpec& spec,
                                   std::uint64_t seed, int reps);


class Driver;  // workloads.cpp: the engine or the trainer behind one API

/// One run of the real driver, a block at a time, so two runs can
/// interleave their blocks (the traced run alternates with the untraced
/// one, so host-speed drift hits both alike).
class DriverSession {
 public:
  DriverSession(const WorkloadSpec& spec, const models::WorkloadData& inputs,
                RunOptions options);
  ~DriverSession();
  DriverSession(const DriverSession&) = delete;
  DriverSession& operator=(const DriverSession&) = delete;

  /// Run the next block; false once the run is complete (window filled,
  /// block count reached, or an exception recorded in the run).
  bool run_block();
  /// The run so far.
  [[nodiscard]] const DriverRun& run() const { return run_; }
  /// Close the run after its last block.
  [[nodiscard]] DriverRun finish();

 private:
  void close_group();
  /// RunOptions::probes after a block that ended on `digest`.
  void probe(std::uint64_t digest);

  const WorkloadSpec& spec_;
  const models::WorkloadData& inputs_;
  RunOptions options_;
  BenchHook hook_;  // declared before driver_: workers point at it
  std::unique_ptr<Driver> driver_;
  DriverRun run_;
  bool done_ = false;
  std::int64_t segment_ = 0;
  std::int64_t ops_ = 0;
  std::int64_t failed_ = 0;
  double window_ms_ = 0.0;
  KernelCounts kernels_at_window_;
  std::pair<std::int64_t, std::int64_t> swap_at_window_{0, 0};
};

/// Block-end digests of the same steps on the fixed mapping (one worker /
/// shard degree 1, no scale events or snapshots).  Read from the pinned
/// table when asked to and long enough; otherwise computed by a reference
/// session that can run alongside the measured one, a block at a time
/// (keep_up), so the measured blocks spread over twice the wall time at no
/// extra cost and a run samples more of the host's speed swings.
class Reference {
 public:
  Reference(const WorkloadSpec& spec, const models::WorkloadData& inputs,
            bool use_pinned);
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// Run reference blocks until `blocks` are done (no-op when pinned).
  void keep_up(std::int64_t blocks);
  /// Digests of the first `blocks` blocks (fewer if the reference failed;
  /// see error()).
  [[nodiscard]] std::vector<std::uint64_t> digests(std::int64_t blocks);
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  WorkloadSpec fixed_;
  std::vector<std::uint64_t> pinned_;
  std::unique_ptr<DriverSession> session_;  // null while the table serves
  const models::WorkloadData& inputs_;
  std::string error_;
};

/// Mark every operation of a block whose end digest differs from the
/// reference as failed.
void apply_reference(DriverRun& run, const std::vector<std::uint64_t>& ref);

[[nodiscard]] std::int64_t total(const std::vector<std::int64_t>& v);

// --- Mirror --------------------------------------------------------------

struct MirrorRun {
  std::uint64_t final_digest = 0;
  std::vector<std::uint64_t> block_digests;
  Tracer tracer;
  std::int64_t window_first_step = 0;
  std::int64_t window_steps = 0;
  KernelCounts window_kernels;
  // Per-step byte/count figures (window average).
  double ctx_bytes = 0.0;
  double grad_copy_bytes = 0.0;
  double allreduce_bytes = 0.0;
  double all_gather_bytes = 0.0;
  double buckets = 0.0;
  std::string error;  // exception text; the mirror stops at the first one
};

class StepMirror;  // mirror.cpp: the engine's or the trainer's step

/// The mirror of one driver run, a block at a time on the driver session's
/// schedule, so a traced run can interleave driver and mirror blocks.
class MirrorSession {
 public:
  MirrorSession(const WorkloadSpec& spec, const models::WorkloadData& inputs);
  ~MirrorSession();
  MirrorSession(const MirrorSession&) = delete;
  MirrorSession& operator=(const MirrorSession&) = delete;

  void run_block();
  [[nodiscard]] MirrorRun finish();

 private:
  const WorkloadSpec& spec_;
  BenchHook hook_;  // declared before mirror_: replicas point at it
  std::unique_ptr<StepMirror> mirror_;
  MirrorRun out_;
  std::int64_t steps_ = 0;
  std::int64_t blocks_ = 0;
  std::int64_t segment_ = 0;
  KernelCounts at_window_;
};

// --- One benchmark run ---------------------------------------------------

struct BenchArgs {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Negative self-test only: flip one kernel output bit in this step.
  std::int64_t flip_step = -1;
  /// Where a traced run writes its spans (Chrome trace-event JSON); empty
  /// = do not write.
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct BenchResult {
  bool correct = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Traced runs: the mirror ended on the driver's block and final digests.
  std::optional<bool> mirror_match;
  /// Human-readable findings (failed checks, errors), one per line.
  std::vector<std::string> problems;
  /// Run context (build type, SIMD backend, nproc, threads, seed) as JSON.
  std::string context_json;
  /// Untraced runs: the samples behind the timing metrics, one line.
  std::string sample_counts;
  /// Untraced runs: mean calibration ms over kReferenceCalibrationMs; the
  /// wall times were divided by it (README, "Host noise").
  double host_factor = 1.0;
};

[[nodiscard]] BenchResult run_benchmark(const BenchArgs& args);

/// The result line: exactly correct / attempted / failed / metrics.
[[nodiscard]] std::string result_json(const BenchResult& result);

// --- Statistics ----------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; NaN for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

// --- Host speed ----------------------------------------------------------

/// Wall ms of one fixed calibration kernel call (calibrate.cpp).
[[nodiscard]] double calibration_ms();
/// What calibration_ms() typically reads on a 4-core Intel Xeon KVM guest
/// with AVX-512 (1.2-1.5 ms there; about 0.8 ms when its vector units run
/// undisturbed); end-to-end times are scaled to this speed.
inline constexpr double kReferenceCalibrationMs = 1.2;

}  // namespace easyscale::stepbench
