// Workload table, set-up, the driver run loop and the reference digests.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>

#include "bench.hpp"
#include "common/error.hpp"
#include "core/engine.hpp"
#include "parallel/trainer.hpp"
#include "pinned_digests.hpp"

namespace easyscale::stepbench {

namespace {

optim::OptimizerConfig sgd(float lr) {
  optim::OptimizerConfig c;
  c.kind = optim::OptimizerConfig::Kind::kSGD;
  c.lr = lr;
  return c;
}

optim::OptimizerConfig adam(float lr) {
  optim::OptimizerConfig c;
  c.kind = optim::OptimizerConfig::Kind::kAdam;
  c.lr = lr;
  return c;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  // Optimizer settings keep every loss finite for the whole window: at the
  // engine's default SGD lr 0.1, Bert diverges to NaN near step 25 and its
  // step time changes about 3x across the divergence (README).
  static const std::vector<WorkloadSpec> specs = {
      {.name = "conv-est",
       .model = "ResNet50",
       .driver = DriverKind::kEngine,
       .ranks = 8,
       .batch = 8,
       .cycle = {2},
       .segment_steps = 20,
       .block_segments = 1,
       .optim = sgd(0.02f),
       .snapshot_every_step = false,
       .train_size = 1024},
      {.name = "attn-est",
       .model = "Bert",
       .driver = DriverKind::kEngine,
       .ranks = 8,
       .batch = 8,
       .cycle = {2},
       .segment_steps = 20,
       .block_segments = 1,
       .optim = adam(1e-3f),
       .snapshot_every_step = false,
       .train_size = 1024},
      {.name = "rescale-est",
       .model = "NeuMF",
       .driver = DriverKind::kEngine,
       .ranks = 16,
       .batch = 2,
       .cycle = {1, 2, 4, 8, 16, 8, 4, 2},
       .segment_steps = 40,
       .block_segments = 40,  // five cycles
       .optim = sgd(0.1f),
       .snapshot_every_step = false,
       .train_size = 1024},
      {.name = "zero1-ddp",
       .model = "Electra",
       .driver = DriverKind::kTrainer,
       .ranks = 4,
       .batch = 8,
       .cycle = {1, 2, 4, 2},
       .segment_steps = 50,
       .block_segments = 4,
       .optim = adam(1e-3f),
       .snapshot_every_step = true,
       .train_size = 1024},
  };
  return specs;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const auto& s : workloads()) {
    if (s.name == name) return s;
  }
  ES_THROW("unknown workload '" << name
                                << "' (conv-est, attn-est, rescale-est, "
                                   "zero1-ddp)");
}

models::WorkloadData make_inputs(const WorkloadSpec& spec,
                                 std::uint64_t seed) {
  return models::make_dataset_for(spec.model, spec.train_size,
                                   /*test_size=*/1, seed);
}

core::EasyScaleConfig engine_config(const WorkloadSpec& spec) {
  core::EasyScaleConfig cfg;
  cfg.workload = spec.model;
  cfg.num_ests = spec.ranks;
  cfg.batch_per_est = spec.batch;
  cfg.optim = spec.optim;
  cfg.parallel_workers = false;
  cfg.intra_op_threads = kIntraOpThreads;
  return cfg;
}

parallel::TrainerConfig trainer_config(const WorkloadSpec& spec,
                                       std::int64_t shard_degree) {
  parallel::TrainerConfig cfg;
  cfg.workload = spec.model;
  cfg.world_size = spec.ranks;
  cfg.batch_per_worker = spec.batch;
  cfg.optim = spec.optim;
  cfg.parallel_workers = false;
  cfg.intra_op_threads = kIntraOpThreads;
  cfg.shard_degree = static_cast<int>(shard_degree);
  return cfg;
}

// --- Hook ----------------------------------------------------------------

void BenchHook::on_output(kernels::KernelFamily family, std::span<float> out) {
  const auto f = static_cast<std::size_t>(family);
  if (counting && f < kKernelFamilies) {
    ++counts.calls[f];
    counts.out_elems[f] += static_cast<std::int64_t>(out.size());
  }
  if (flip_armed && !out.empty()) {
    // The largest-magnitude element is nonzero and feeds the result
    // whichever side of a ReLU it lands on, so the flip always propagates.
    const auto it = std::max_element(
        out.begin(), out.end(),
        [](float a, float b) { return std::fabs(a) < std::fabs(b); });
    *it = -*it;
    flip_armed = false;
  }
}

// --- Drivers -------------------------------------------------------------

namespace {

std::vector<core::WorkerSpec> worker_specs(std::int64_t n) {
  return std::vector<core::WorkerSpec>(static_cast<std::size_t>(n));
}

}  // namespace

/// The calls a run makes on either step driver.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual void step() = 0;
  [[nodiscard]] virtual float last_loss() const = 0;
  [[nodiscard]] virtual std::uint64_t digest() const = 0;
  /// Install `hook` on every worker (nullptr clears).
  virtual void arm(kernels::PostOpHook* hook) = 0;
  /// Scale event onto `target`; returns the event's wall ms.  A traced run
  /// records the split into the driver's public calls on `run`.
  virtual double scale(std::int64_t target, bool traced, DriverRun& run) = 0;
  /// Snapshot (the trainer's per-step peer snapshot, the engine's
  /// on-demand checkpoint); returns its wall ms.
  virtual double snapshot(DriverRun& run) = 0;
  /// Restore the latest snapshot (a round trip's second half).
  virtual void restore_snapshot() = 0;
  /// Cumulative (context, gradient) bytes swapped, engine only.
  [[nodiscard]] virtual std::pair<std::int64_t, std::int64_t> swap_bytes()
      const {
    return {0, 0};
  }
};

namespace {

class EngineDriver final : public Driver {
 public:
  EngineDriver(const WorkloadSpec& spec, const models::WorkloadData& inputs)
      : engine_(engine_config(spec), *inputs.train, inputs.augment) {
    engine_.configure_workers(worker_specs(spec.cycle.front()));
  }
  void step() override { engine_.run_steps(1); }
  float last_loss() const override { return engine_.loss_history().back(); }
  std::uint64_t digest() const override { return engine_.params_digest(); }
  void arm(kernels::PostOpHook* hook) override {
    hook_ = hook;
    for (std::int64_t w = 0; w < engine_.num_workers(); ++w) {
      engine_.set_post_op_hook(w, hook);
    }
  }
  double scale(std::int64_t target, bool traced, DriverRun& run) override {
    if (!traced) {
      const auto t0 = Clock::now();
      engine_.configure_workers(worker_specs(target));
      const auto t1 = Clock::now();
      arm(hook_);  // configure_workers clears every hook
      return ms_between(t0, t1);
    }
    // configure_workers checkpoints, rebuilds and restores internally; the
    // traced run times the same public checkpoint() and restore() calls on
    // their own (restoring the image just taken leaves every bit as is).
    const auto t0 = Clock::now();
    const std::vector<std::uint8_t> image = engine_.checkpoint();
    const auto t1 = Clock::now();
    engine_.configure_workers(worker_specs(target));
    const auto t2 = Clock::now();
    engine_.restore(image);
    const auto t3 = Clock::now();
    arm(hook_);
    const double ckpt = ms_between(t0, t1);
    const double configure = ms_between(t1, t2);
    const double restore = ms_between(t2, t3);
    run.checkpoint_ms.push_back(ckpt);
    run.restore_ms.push_back(restore);
    run.rebuild_ms.push_back(configure - ckpt - restore);
    run.checkpoint_bytes = static_cast<std::int64_t>(image.size());
    return configure;
  }
  double snapshot(DriverRun& /*run*/) override {
    const auto t0 = Clock::now();
    image_ = engine_.checkpoint();
    return ms_between(t0, Clock::now());
  }
  void restore_snapshot() override { engine_.restore(image_); }
  std::pair<std::int64_t, std::int64_t> swap_bytes() const override {
    const auto& s = engine_.switch_stats();
    return {s.context_bytes_swapped, s.gradient_bytes_swapped};
  }

 private:
  core::EasyScaleEngine engine_;
  kernels::PostOpHook* hook_ = nullptr;
  std::vector<std::uint8_t> image_;
};

class TrainerDriver final : public Driver {
 public:
  TrainerDriver(const WorkloadSpec& spec, const models::WorkloadData& inputs)
      : trainer_(trainer_config(spec, spec.cycle.front()), *inputs.train,
                 inputs.augment) {}
  void step() override { trainer_.run_steps(1); }
  float last_loss() const override { return trainer_.loss_history().back(); }
  std::uint64_t digest() const override { return trainer_.params_digest(); }
  void arm(kernels::PostOpHook* hook) override {
    for (std::int64_t r = 0; r < trainer_.world_size(); ++r) {
      trainer_.set_post_op_hook(r, hook);
    }
  }
  double scale(std::int64_t target, bool traced, DriverRun& run) override {
    // Every reshard first restores the latest peer snapshot, as a recovery
    // would; the snapshot is of the current state, so no bit changes.
    const auto t0 = Clock::now();
    restore_snapshot();
    const auto t1 = Clock::now();
    trainer_.reshard(static_cast<int>(target));
    const auto t2 = Clock::now();
    if (traced) {
      run.restore_ms.push_back(ms_between(t0, t1));
      run.reshard_ms.push_back(ms_between(t1, t2));
    }
    return ms_between(t0, t2);
  }
  double snapshot(DriverRun& run) override {
    const auto t0 = Clock::now();
    snapshot_ = trainer_.checkpoint_bytes();
    const double ms = ms_between(t0, Clock::now());
    run.snapshot_bytes = static_cast<std::int64_t>(snapshot_.size());
    return ms;
  }
  void restore_snapshot() override {
    ES_CHECK(!snapshot_.empty(), "no snapshot to restore");
    trainer_.restore_checkpoint_bytes(snapshot_);
  }

 private:
  parallel::Trainer trainer_;
  std::vector<std::uint8_t> snapshot_;
};

std::unique_ptr<Driver> make_driver(const WorkloadSpec& spec,
                                    const models::WorkloadData& inputs) {
  if (spec.driver == DriverKind::kEngine) {
    return std::make_unique<EngineDriver>(spec, inputs);
  }
  return std::make_unique<TrainerDriver>(spec, inputs);
}

}  // namespace

double measure_setup(const WorkloadSpec& spec, std::uint64_t seed, int reps) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    const models::WorkloadData inputs = make_inputs(spec, seed);
    const std::unique_ptr<Driver> driver = make_driver(spec, inputs);
    s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  return quantile(s, 0.5);
}

// --- Run loop ------------------------------------------------------------

DriverSession::DriverSession(const WorkloadSpec& spec,
                             const models::WorkloadData& inputs,
                             RunOptions options)
    : spec_(spec), inputs_(inputs), options_(options) {
  hook_.counting = options_.traced;
}

DriverSession::~DriverSession() = default;

void DriverSession::close_group() {
  run_.group_ops.push_back(ops_);
  run_.group_failed.push_back(failed_);
  ops_ = 0;
  failed_ = 0;
}

bool DriverSession::run_block() {
  if (done_) return false;
  try {
    if (!driver_) {
      driver_ = make_driver(spec_, inputs_);
      if (options_.traced || options_.flip_step >= 0) driver_->arm(&hook_);
    }
    const bool in_window = run_.blocks > 0;  // block 0 is the warm-up
    if (run_.blocks == 1) {
      kernels_at_window_ = hook_.counts;
      swap_at_window_ = driver_->swap_bytes();
    }
    for (std::int64_t s = 0; s < spec_.block_segments; ++s, ++segment_) {
      if (segment_ > 0 && spec_.rescales()) {
        const std::int64_t target =
            spec_.cycle[static_cast<std::size_t>(segment_) % spec_.cycle.size()];
        ++ops_;
        // Warm-up events stay out of the traced per-layer samples too.
        const double ms =
            driver_->scale(target, options_.traced && in_window, run_);
        if (in_window) {
          run_.rescale_ms.push_back(ms);
          window_ms_ += ms;
        }
      }
      for (std::int64_t k = 0; k < spec_.segment_steps; ++k) {
        if (run_.steps == options_.flip_step) hook_.flip_armed = true;
        ++ops_;
        const auto t0 = Clock::now();
        driver_->step();
        const double ms = ms_between(t0, Clock::now());
        ++run_.steps;
        if (!std::isfinite(driver_->last_loss())) ++failed_;
        if (in_window) {
          run_.step_ms.push_back(ms);
          window_ms_ += ms;
          run_.window_step_ms_total += ms;
          ++run_.window_steps;
        }
        if (spec_.snapshot_every_step) {
          ++ops_;
          const double snap = driver_->snapshot(run_);
          if (in_window) {
            run_.snapshot_ms.push_back(snap);
            window_ms_ += snap;
          }
        }
      }
    }
    const std::uint64_t digest = driver_->digest();
    run_.block_digests.push_back(digest);
    if (in_window && options_.probes && spec_.driver == DriverKind::kEngine) {
      probe(digest);
    }
    if (in_window) {
      run_.window_blocks.push_back({run_.step_ms.size(),
                                    run_.rescale_ms.size(),
                                    run_.snapshot_ms.size()});
    }
    ++run_.blocks;
    close_group();
    done_ = !options_.paced && in_window &&
            window_ms_ >= options_.seconds * 1000.0;
  } catch (const std::exception& e) {
    run_.error = e.what();
    ++ops_;  // the operation in flight
    ++failed_;
    close_group();
    done_ = true;
    driver_.reset();
  }
  return !done_;
}

void DriverSession::probe(std::uint64_t digest) {
  const std::int64_t ops_before = ops_;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    if (!spec_.rescales()) {
      ++ops_;
      run_.rescale_ms.push_back(
          driver_->scale(spec_.cycle.front(), options_.traced, run_));
    }
    ++ops_;
    run_.snapshot_ms.push_back(driver_->snapshot(run_));
    driver_->restore_snapshot();
  }
  if (driver_->digest() != digest) failed_ += ops_ - ops_before;
}

DriverRun DriverSession::finish() {
  run_.window_s = window_ms_ / 1000.0;
  run_.window_samples = run_.window_steps * spec_.samples_per_step();
  if (!driver_) return std::move(run_);  // the run threw
  for (std::size_t f = 0; f < kKernelFamilies; ++f) {
    run_.window_kernels.calls[f] =
        hook_.counts.calls[f] - kernels_at_window_.calls[f];
    run_.window_kernels.out_elems[f] =
        hook_.counts.out_elems[f] - kernels_at_window_.out_elems[f];
  }
  const auto swap = driver_->swap_bytes();
  run_.ctx_bytes_window = swap.first - swap_at_window_.first;
  run_.grad_bytes_window = swap.second - swap_at_window_.second;
  run_.final_digest = driver_->digest();
  driver_.reset();
  return std::move(run_);
}

std::int64_t total(const std::vector<std::int64_t>& v) {
  std::int64_t t = 0;
  for (auto x : v) t += x;
  return t;
}

void apply_reference(DriverRun& run, const std::vector<std::uint64_t>& ref) {
  // Group g is block g; a trailing group without a digest is the block an
  // exception cut short, already failed.
  for (std::size_t g = 0; g < run.block_digests.size(); ++g) {
    if (g >= ref.size() || run.block_digests[g] != ref[g]) {
      run.group_failed[g] = run.group_ops[g];
    }
  }
}

namespace {

WorkloadSpec fixed_mapping_spec(const WorkloadSpec& spec) {
  WorkloadSpec fixed = spec;
  fixed.cycle = {WorkloadSpec::fixed_mapping()};
  fixed.snapshot_every_step = false;
  return fixed;
}

RunOptions paced() {
  RunOptions options;
  options.paced = true;
  return options;
}

}  // namespace

Reference::Reference(const WorkloadSpec& spec,
                     const models::WorkloadData& inputs, bool use_pinned)
    : fixed_(fixed_mapping_spec(spec)),
      pinned_(use_pinned ? pinned_digests(spec.name)
                         : std::vector<std::uint64_t>{}),
      session_(use_pinned ? nullptr
                          : std::make_unique<DriverSession>(
                                fixed_, inputs, paced())),
      inputs_(inputs) {}

Reference::~Reference() = default;

void Reference::keep_up(std::int64_t blocks) {
  if (!session_) return;
  while (session_->run().blocks < blocks && session_->run_block()) {
  }
}

std::vector<std::uint64_t> Reference::digests(std::int64_t blocks) {
  if (!session_ && static_cast<std::int64_t>(pinned_.size()) < blocks) {
    // Longer than the pinned table: recompute from the start.
    session_ = std::make_unique<DriverSession>(fixed_, inputs_,
                                               paced());
  }
  if (!session_) return {pinned_.begin(), pinned_.begin() + blocks};
  keep_up(blocks);
  const DriverRun& run = session_->run();
  if (!run.error.empty()) {
    error_ = "reference run failed: " + run.error;
  } else if (total(run.group_failed) > 0) {
    error_ = "reference run produced a non-finite loss";
  }
  return run.block_digests;
}

// --- Tracer / statistics -------------------------------------------------

double Tracer::total_ms(const std::string& name, std::int64_t first,
                        std::int64_t last) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.step >= first && s.step < last && name == s.name) {
      t += ms_between(s.begin, s.end);
    }
  }
  return t;
}

void Tracer::write_chrome_json(const std::string& path,
                               std::int64_t first_step,
                               const std::string& context_json) const {
  std::ofstream out(path);
  ES_CHECK(out.good(), "cannot write trace file " << path);
  out << "{\"otherData\":" << context_json << ",\"traceEvents\":[";
  Clock::time_point origin;
  bool first = true;
  char buf[256];
  for (const Span& s : spans_) {
    if (s.step < first_step) continue;
    if (first) origin = s.begin;
    const double ts =
        std::chrono::duration<double, std::micro>(s.begin - origin).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.begin).count();
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"step\":%lld}}",
                  first ? "" : ",", s.name, ts, dur,
                  static_cast<long long>(s.step));
    out << buf << '\n';
    first = false;
  }
  out << "]}\n";
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace easyscale::stepbench
