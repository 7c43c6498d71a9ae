// The step core both training drivers run on.  N ESTs on N workers is
// DDP (§3.2): core::EasyScaleEngine and parallel::Trainer run the same
// step over a set of model replicas — one local step per logical worker,
// a bucketed gradient sync in a fixed order, an optimizer step on every
// replica — so the pieces of that step live here once.  What stays in the
// drivers: the engine's EST context swap, witness and worker assignment;
// the trainer's plan, reshard, ZeRO-1 publish and digest vote; and each
// driver's checkpoint image (docs/PARALLELISM.md, "One step core").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "comm/allreduce.hpp"
#include "comm/bucket.hpp"
#include "comm/resilient.hpp"
#include "comm/shard.hpp"
#include "comm/transport.hpp"
#include "data/sample.hpp"
#include "kernels/exec_context.hpp"
#include "models/workload.hpp"
#include "optim/optimizer.hpp"
#include "optim/sgd.hpp"

namespace easyscale::core {

/// Config fields common to both drivers.
struct StepCoreConfig {
  std::string workload = "ResNet18";
  std::uint64_t seed = 42;
  /// Custom D2 GEMM kernel handle (kernels/custom.hpp), 0 = built-in.
  /// Only meaningful under the hardware-agnostic (D2) kernel policy.
  int custom_d2_gemm = 0;
  /// Bucket capacity in bytes; 0 resolves to EASYSCALE_BUCKET_CAP (when
  /// set and >= the largest parameter) and otherwise to the historical
  /// 4096-byte default.  See comm::resolve_bucket_cap.
  std::int64_t bucket_cap_bytes = 0;
  optim::OptimizerConfig optim;
  std::int64_t lr_step_epochs = 20;
  float gamma = 0.1f;
  /// Run the replicas on parallel threads within each global step (real
  /// deployments do; the default is sequential for debuggability).
  /// Bitwise identical either way: replicas touch disjoint state between
  /// synchronization points.
  bool parallel_workers = false;
  /// Intra-op compute threads per replica (0 = the EASYSCALE_THREADS
  /// process default).  All replicas share one bounded global pool, so
  /// this composes with parallel_workers without oversubscription.
  /// Bitwise identical for every value — see docs/PARALLELISM.md.
  int intra_op_threads = 0;
  /// Route the gradient sync through the failure-aware comm substrate
  /// (comm/resilient.hpp): a simulated Transport with per-link
  /// latency/bandwidth, heartbeat membership and deadline-based
  /// detection.  Bitwise identical to the plain path when no fault fires;
  /// a condemned member throws comm::RankDeathError out of run_steps().
  bool resilient_comm = false;
  comm::TransportConfig transport;
  /// Retry/backoff policy for the resilient collectives.  `on_death` is
  /// forced to kAbort: a dead member's gradients are lost, so the step
  /// must roll back.
  comm::ResilientConfig resilient;
};

/// One model + optimizer + LR-schedule replica.  `streams` is the
/// receptacle the active worker's RNG state loads into; `exec` selects the
/// device, kernel policy and intra-op threads.
struct Replica {
  std::unique_ptr<models::Workload> model;
  std::unique_ptr<optim::Optimizer> optimizer;
  std::unique_ptr<optim::StepLR> scheduler;
  rng::StreamSet streams;
  kernels::ExecContext exec;
};

[[nodiscard]] kernels::ExecContext make_exec(const StepCoreConfig& config,
                                             kernels::DeviceType device,
                                             kernels::KernelPolicy policy);

/// A freshly initialized replica (same weights on every call for one
/// config, like DDP after the rank-0 broadcast).
[[nodiscard]] Replica make_replica(const StepCoreConfig& config,
                                   kernels::DeviceType device,
                                   kernels::KernelPolicy policy);

/// One local step: zero the gradients, then forward/backward `batch`.
/// A non-null `recorder` observes the grad-ready order.  Returns the loss.
float local_step(models::Workload& model, const kernels::ExecContext& exec,
                 rng::StreamSet& streams, const data::Batch& batch,
                 autograd::GradReadyRecorder* recorder);

/// Run body(i) for i in [0, n): one thread each when `parallel` and n > 1,
/// otherwise in order on the calling thread.
template <class Body>
void fan_out(std::size_t n, bool parallel, Body&& body) {
  if (parallel && n > 1) {
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([&body, i] { body(i); });
    }
    for (auto& t : threads) t.join();
  } else {
    for (std::size_t i = 0; i < n; ++i) body(i);
  }
}

/// The gradient-bucket schedule: the static layout until the first step's
/// grad-ready order is recorded, then the layout rebuilt from it (stock
/// DDP's rebuild-after-first-iteration).
class BucketSchedule {
 public:
  /// Resolve `cap_bytes` once (comm::resolve_bucket_cap), so rebuilds and
  /// resets use the same cap, and start from the static layout.
  void init(const autograd::ParameterStore& params, std::int64_t cap_bytes);
  /// Back to the static layout with the rebuild pending.
  void reset(const autograd::ParameterStore& params);
  /// Rebuild from the ready order of the first step.
  void rebuild(const autograd::ParameterStore& params,
               const autograd::GradReadyRecorder& recorder);

  /// True until rebuild() has run: the next step should record.
  [[nodiscard]] bool pending() const { return !rebuilt_; }
  [[nodiscard]] const comm::BucketLayout& layout() const { return layout_; }

  /// The rebuilt flag (one byte) followed by the layout.
  void save(ByteWriter& w) const;
  void load(ByteReader& r);

 private:
  std::int64_t cap_bytes_ = 0;
  comm::BucketLayout layout_;
  bool rebuilt_ = false;
};

/// The base both drivers derive from.  Replica i is physical worker i
/// (engine) or rank i (trainer).
class StepCore {
 public:
  virtual ~StepCore() = default;
  StepCore(const StepCore&) = delete;
  StepCore& operator=(const StepCore&) = delete;

  /// Run `n` synchronized global steps.
  void run_steps(std::int64_t n);

  /// Run whole epochs, setting every replica's StepLR epoch before each.
  void run_epochs(std::int64_t n);

  /// The loss of the last logical worker, one entry per global step.
  [[nodiscard]] const std::vector<float>& loss_history() const {
    return losses_;
  }
  [[nodiscard]] std::int64_t global_step() const { return global_step_; }
  [[nodiscard]] std::int64_t steps_per_epoch() const {
    return steps_per_epoch_;
  }
  [[nodiscard]] const comm::BucketLayout& current_layout() const {
    return buckets_.layout();
  }

  /// Bitwise digest of replica 0's model parameters.
  [[nodiscard]] std::uint64_t params_digest() const;

  /// Install (or clear, with nullptr) a post-op hook on one replica's
  /// ExecContext — the SDC injection point.
  void set_post_op_hook(std::int64_t replica, kernels::PostOpHook* hook);

  // --- Failure-aware comm surface (resilient_comm = true only) ---

  [[nodiscard]] bool resilient_comm_enabled() const {
    return transport_ != nullptr;
  }

  /// Arm a comm fault on the transport; `collective < 0` targets the next
  /// step's gradient sync.
  void inject_comm_fault(const comm::CommFaultEvent& event);

  /// Report of the most recent resilient gradient sync.
  [[nodiscard]] const std::optional<comm::CollectiveReport>&
  last_comm_report() const {
    return last_comm_report_;
  }

  /// Cumulative fabric counters.
  [[nodiscard]] const comm::TransportStats& transport_stats() const;

 protected:
  StepCore() = default;

  virtual void one_step() = 0;

  /// Replica `i`, range-checked (`what` names the index in the error).
  [[nodiscard]] Replica& replica(std::int64_t i, const char* what);
  [[nodiscard]] const Replica& replica(std::int64_t i, const char* what) const;

  /// Copy replica 0's parameters, optimizer state and LR schedule into
  /// every other replica (the broadcast after a restore).
  void broadcast_replica0_state();

  /// (Re)build the comm fabric over `world` members with a fresh
  /// membership epoch and no report.  Without `config.resilient_comm`
  /// there is no transport and every sync below is the plain in-process
  /// collective; with it, a SimTransport and a MembershipMonitor carry
  /// every transfer.
  void reset_comm(const StepCoreConfig& config, int world,
                  std::vector<comm::CommFaultEvent> faults = {});
  /// Bucketed ring all-reduce + average over the current layout.
  /// `host_of_part` maps each part to the transport member it rides on
  /// (identity when null).
  void sync_allreduce(std::vector<comm::GradientSet*>& parts,
                      const std::vector<int>* host_of_part = nullptr);
  /// Reduce-scatter + average into each part's owned slices.
  void sync_reduce_scatter(std::vector<comm::GradientSet*>& parts,
                           const std::vector<comm::ShardSlices>& owned);
  /// All-gather of owner-updated parameter slices; its report is merged
  /// into the step's reduce-scatter report.
  void sync_all_gather(const std::vector<autograd::ParameterStore*>& stores,
                       const std::vector<optim::ParamSlice>& slices,
                       const std::vector<int>& source_of_slice);

  std::vector<Replica> replicas_;
  BucketSchedule buckets_;
  comm::ResilientConfig resilient_;
  std::unique_ptr<comm::SimTransport> transport_;  // null on the plain path
  std::unique_ptr<comm::MembershipMonitor> monitor_;
  std::optional<comm::CollectiveReport> last_comm_report_;
  std::int64_t global_step_ = 0;
  std::int64_t steps_per_epoch_ = 0;
  std::vector<float> losses_;
};

}  // namespace easyscale::core
