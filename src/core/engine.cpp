#include "core/engine.hpp"

#include <bit>
#include <sstream>

#include "common/digest.hpp"
#include "common/frame.hpp"
#include "common/log.hpp"

namespace easyscale::core {

namespace {
constexpr std::int64_t kPrefetchSteps = 2;
constexpr std::uint32_t kCheckpointMagic = 0x45535631;  // "ESV1"
}  // namespace

EasyScaleEngine::EasyScaleEngine(EasyScaleConfig config,
                                 const data::Dataset& train,
                                 data::AugmentConfig augment)
    : config_(std::move(config)), train_(&train), augment_(augment) {
  ES_CHECK(config_.num_ests > 0, "need at least one EST");
  // Per-EST pipelines and initial contexts.  Contexts start from a freshly
  // initialized prototype replica (all virtual workers begin identical,
  // like DDP after the rank-0 broadcast).
  auto prototype = models::make_workload(config_.workload);
  prototype->init(config_.seed);
  for (std::int64_t r = 0; r < config_.num_ests; ++r) {
    pipelines_.emplace_back(train, augment_, config_.num_ests, r,
                            config_.batch_per_est, config_.seed);
    ESTContext ctx;
    ctx.virtual_rank = r;
    rng::StreamSet streams;
    streams.seed_all(config_.seed, static_cast<std::uint64_t>(r));
    ctx.model_streams = streams.state();
    for (tensor::Tensor* b : prototype->buffers()) ctx.bn_buffers.push_back(*b);
    contexts_.push_back(std::move(ctx));
    grad_buffers_.push_back(
        comm::GradientSet::zeros_like(prototype->params()));
  }
  steps_per_epoch_ =
      data::DistributedSampler(train.size(), config_.num_ests, 0,
                               config_.batch_per_est, config_.seed)
          .steps_per_epoch();
  buckets_.init(prototype->params(), config_.bucket_cap_bytes);
}

void EasyScaleEngine::rebuild_loader() {
  pool_.reset();
  if (config_.use_async_loader) {
    pool_ = std::make_unique<data::SharedDataWorkerPool>(*train_,
                                                         config_.loader);
  }
}

void EasyScaleEngine::configure_workers(
    const std::vector<WorkerSpec>& specs,
    std::optional<std::vector<std::vector<std::int64_t>>> assignment) {
  ES_CHECK(!specs.empty(), "need at least one worker");
  ES_CHECK(static_cast<std::int64_t>(specs.size()) <= config_.num_ests,
           "more workers than ESTs");
  // On-demand checkpoint of the running state before tearing down the old
  // worker set (scale in/out path).
  std::vector<std::uint8_t> snapshot;
  const bool had_workers = !replicas_.empty();
  if (had_workers) snapshot = checkpoint();

  std::vector<std::vector<std::int64_t>> plan;
  if (assignment.has_value()) {
    plan = std::move(*assignment);
    ES_CHECK(plan.size() == specs.size(), "assignment/worker count mismatch");
    std::vector<bool> seen(static_cast<std::size_t>(config_.num_ests), false);
    for (const auto& ests : plan) {
      for (auto e : ests) {
        ES_CHECK(e >= 0 && e < config_.num_ests, "EST rank out of range");
        ES_CHECK(!seen[static_cast<std::size_t>(e)], "EST assigned twice");
        seen[static_cast<std::size_t>(e)] = true;
      }
    }
    for (bool s : seen) ES_CHECK(s, "EST left unassigned");
  } else {
    // Contiguous balanced split.
    plan.resize(specs.size());
    const auto w = static_cast<std::int64_t>(specs.size());
    std::int64_t next = 0;
    for (std::int64_t i = 0; i < w; ++i) {
      const std::int64_t count =
          config_.num_ests / w + (i < config_.num_ests % w ? 1 : 0);
      for (std::int64_t k = 0; k < count; ++k) {
        plan[static_cast<std::size_t>(i)].push_back(next++);
      }
    }
  }
  if (!config_.context_switching) {
    for (const auto& ests : plan) {
      ES_CHECK(ests.size() == 1,
               "context switching disabled requires one EST per worker");
    }
  }

  replicas_.clear();
  replicas_.reserve(specs.size());
  for (const WorkerSpec& spec : specs) {
    replicas_.push_back(
        make_replica(config_, spec.device, kernel_policy(config_.determinism)));
  }
  specs_ = specs;
  assignment_ = std::move(plan);
  rebuild_loader();
  // Fresh membership epoch: a reconfiguration rebuilds the group, so the
  // fabric and the monitor start clean at the new world size.
  reset_comm(config_, static_cast<int>(replicas_.size()));
  if (had_workers) restore(snapshot);
  ES_LOG_INFO("EasyScale reconfigured onto " << replicas_.size()
                                             << " worker(s)");
}

void EasyScaleEngine::capture_context(Replica& worker, ESTContext& ctx) {
  ctx.model_streams = worker.streams.state();
  auto buffers = worker.model->buffers();
  ES_CHECK(buffers.size() == ctx.bn_buffers.size(), "buffer set mismatch");
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    ctx.bn_buffers[i] = *buffers[i];
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.context_bytes_swapped += ctx.byte_size();
  }
}

void EasyScaleEngine::restore_context(Replica& worker,
                                      const ESTContext& ctx) {
  worker.streams.set_state(ctx.model_streams);
  auto buffers = worker.model->buffers();
  ES_CHECK(buffers.size() == ctx.bn_buffers.size(), "buffer set mismatch");
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    *buffers[i] = ctx.bn_buffers[i];
  }
}

void EasyScaleEngine::one_step() {
  ES_CHECK(!replicas_.empty(), "configure_workers before run");
  // Keep the shared data-worker pool fed `kPrefetchSteps` ahead.
  if (pool_) {
    for (std::int64_t e = 0; e < config_.num_ests; ++e) {
      while (pipelines_[static_cast<std::size_t>(e)].cursor() <
             global_step_ + kPrefetchSteps) {
        pool_->enqueue(pipelines_[static_cast<std::size_t>(e)].make_item());
      }
    }
  }

  // Decide the witness BEFORE workers run: the replay needs the pre-step
  // EST contexts (streams + BN buffers), which run_worker mutates.
  const bool witness_due =
      config_.witness.witness_every > 0 &&
      (global_step_ + 1) % config_.witness.witness_every == 0;
  const std::size_t num_workers = replicas_.size();
  std::vector<std::int64_t> witnessed(num_workers, -1);
  std::vector<ESTContext> pre_contexts(num_workers);
  std::vector<data::Batch> witness_batches(num_workers);
  std::vector<float> witness_losses(num_workers, 0.0f);
  if (witness_due) {
    ES_CHECK(
        kernel_policy(config_.determinism) != kernels::KernelPolicy::kFastest,
        "re-execution witness requires a deterministic kernel policy");
    for (std::size_t w = 0; w < num_workers; ++w) {
      const auto& ests = assignment_[w];
      witnessed[w] = ests[static_cast<std::size_t>(
          witness_round_ % static_cast<std::int64_t>(ests.size()))];
      pre_contexts[w] = contexts_[static_cast<std::size_t>(witnessed[w])];
    }
    ++witness_round_;
  }

  autograd::GradReadyRecorder recorder;
  const bool record = buckets_.pending();
  // Collective inputs are set up before the workers run: building them
  // after the worker loop instead measured ~10% slower steps on
  // stepbench's rescale-est (4-core x86 host), a heap-reuse effect.
  std::vector<comm::GradientSet*> parts;
  parts.reserve(grad_buffers_.size());
  for (auto& g : grad_buffers_) parts.push_back(&g);
  std::vector<int> host_of_part(grad_buffers_.size(), 0);
  for (std::size_t w = 0; w < num_workers; ++w) {
    for (std::int64_t est : assignment_[w]) {
      host_of_part[static_cast<std::size_t>(est)] = static_cast<int>(w);
    }
  }

  float last_loss = 0.0f;
  auto run_worker = [&](std::size_t wi) {
    Replica& worker = replicas_[wi];
    for (std::int64_t est : assignment_[wi]) {
      ESTContext& ctx = contexts_[static_cast<std::size_t>(est)];
      if (config_.context_switching) {
        restore_context(worker, ctx);
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.context_switches;
        }
      } else {
        worker.streams.set_state(ctx.model_streams);
      }
      const data::Batch batch =
          pool_ ? pool_->get(est, global_step_)
                : pipelines_[static_cast<std::size_t>(est)].next();
      if (witness_due && est == witnessed[wi]) witness_batches[wi] = batch;
      const float loss =
          local_step(*worker.model, worker.exec, worker.streams, batch,
                     record && est == 0 ? &recorder : nullptr);
      if (witness_due && est == witnessed[wi]) witness_losses[wi] = loss;
      if (est == config_.num_ests - 1) last_loss = loss;
      // Gradient D2H swap: the only working-set category that must leave
      // the device per EST (§3.2).
      grad_buffers_[static_cast<std::size_t>(est)] =
          comm::GradientSet::from_store(worker.model->params());
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.gradient_bytes_swapped += comm::gradient_bytes(
            grad_buffers_[static_cast<std::size_t>(est)]);
      }
      if (config_.context_switching) {
        capture_context(worker, ctx);
      } else {
        ctx.model_streams = worker.streams.state();
        auto buffers = worker.model->buffers();
        for (std::size_t i = 0; i < buffers.size(); ++i) {
          ctx.bn_buffers[i] = *buffers[i];
        }
      }
    }
  };
  // Each worker owns a disjoint replica + EST set; the only shared writes
  // (loss of the last EST, the EST-0 recorder, swap counters, witness
  // capture slots) are ordered by fan_out's join and race-free by
  // construction (distinct ESTs / per-worker slots).
  fan_out(num_workers, config_.parallel_workers, run_worker);
  // Re-execution witness: replay before the all-reduce publishes, so a
  // corrupt contribution is caught while it is still attributable to one
  // worker (the averaged result would implicate everybody).
  if (witness_due) {
    run_witness(witnessed, pre_contexts, witness_batches, witness_losses);
  }
  // ElasticDDP: ring all-reduce over the *virtual* ranks with the recorded
  // bucket layout — bitwise independent of the physical worker count.  On
  // the resilient fabric virtual participants ride their physical worker's
  // links; co-hosted ESTs exchange chunks locally.  A condemned worker
  // aborts the step — its ESTs' gradients are unrecoverable without a
  // rollback.
  sync_allreduce(parts, &host_of_part);
  for (auto& worker : replicas_) {
    grad_buffers_[0].to_store(worker.model->params());
    worker.optimizer->step();
  }
  if (record) buckets_.rebuild(replicas_[0].model->params(), recorder);
  losses_.push_back(last_loss);
  ++global_step_;
}

void EasyScaleEngine::run_witness(
    const std::vector<std::int64_t>& witnessed_ests,
    const std::vector<ESTContext>& pre_contexts,
    const std::vector<data::Batch>& batches,
    const std::vector<float>& live_losses) {
  ++witness_stats_.runs;
  if (!witness_replica_) {
    witness_replica_ = models::make_workload(config_.workload);
    witness_replica_->init(config_.seed);
  }
  for (std::size_t w = 0; w < replicas_.size(); ++w) {
    const std::int64_t est = witnessed_ests[w];
    ++witness_stats_.replays;
    // Clean execution context: same device and policy as the live worker —
    // so deterministic variant selection matches bit for bit — but no
    // post-op hook and a private scratch/cache.
    const kernels::ExecContext exec = make_exec(
        config_, specs_[w].device, kernel_policy(config_.determinism));
    // Step-start parameters are still live on every replica (the optimizer
    // has not stepped yet); the pre-step context restores streams and BN
    // buffers, the captured batch replays the exact input.
    const auto& src = replicas_[0].model->params().all();
    const auto& dst = witness_replica_->params().all();
    ES_CHECK(src.size() == dst.size(), "witness replica parameter mismatch");
    for (std::size_t p = 0; p < src.size(); ++p) dst[p]->value = src[p]->value;
    witness_streams_.set_state(pre_contexts[w].model_streams);
    auto buffers = witness_replica_->buffers();
    ES_CHECK(buffers.size() == pre_contexts[w].bn_buffers.size(),
             "witness replica buffer mismatch");
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      *buffers[i] = pre_contexts[w].bn_buffers[i];
    }
    const float replay_loss = local_step(*witness_replica_, exec,
                                         witness_streams_, batches[w], nullptr);
    const comm::GradientSet replay =
        comm::GradientSet::from_store(witness_replica_->params());
    Digest live_d;
    Digest replay_d;
    for (const auto& g : grad_buffers_[static_cast<std::size_t>(est)].grads) {
      live_d.update(g.data());
    }
    for (const auto& g : replay.grads) replay_d.update(g.data());
    const bool loss_equal = std::bit_cast<std::uint32_t>(replay_loss) ==
                            std::bit_cast<std::uint32_t>(live_losses[w]);
    if (live_d.value() != replay_d.value() || !loss_equal) {
      ++witness_stats_.mismatches;
      witness_stats_.last_detected_worker = static_cast<std::int64_t>(w);
      std::ostringstream os;
      os << "integrity witness mismatch at step " << global_step_
         << ": worker " << w << " (EST " << est << ") produced gradients "
         << live_d.hex() << ", clean replay produced " << replay_d.hex();
      ES_LOG_WARN(os.str());
      throw IntegrityError(static_cast<std::int64_t>(w), est, global_step_,
                           os.str());
    }
  }
  // Every worker's replayed gradients matched the live ones, so the state
  // this step produces (deterministic all-reduce + optimizer on clean
  // gradients) is certifiably clean.
  last_clean_witness_step_ = global_step_ + 1;
}

std::vector<double> EasyScaleEngine::comm_stall_per_worker() const {
  std::vector<double> stalls;
  if (transport_ == nullptr) return stalls;
  stalls.reserve(replicas_.size());
  for (std::size_t w = 0; w < replicas_.size(); ++w) {
    stalls.push_back(transport_->stall_seconds(static_cast<int>(w)));
  }
  return stalls;
}

const comm::GradientSet& EasyScaleEngine::grad_buffer(std::int64_t est) const {
  ES_CHECK(est >= 0 && est < config_.num_ests,
           "EST " << est << " out of range [0, " << config_.num_ests << ")");
  return grad_buffers_[static_cast<std::size_t>(est)];
}

DigestChain EasyScaleEngine::params_digest_chain() const {
  DigestChain chain;
  std::uint64_t id = 0;
  for (const auto* p : replica(0, "worker").model->params().all()) {
    chain.push(id++, digest_floats(p->value.data()));
  }
  return chain;
}

models::Workload& EasyScaleEngine::model_for_eval(std::int64_t est_rank) {
  Replica& worker = replica(0, "worker");
  ES_CHECK(est_rank >= 0 && est_rank < config_.num_ests,
           "EST " << est_rank << " out of range [0, " << config_.num_ests
                  << ")");
  restore_context(worker, contexts_[static_cast<std::size_t>(est_rank)]);
  return *worker.model;
}

std::vector<std::uint8_t> EasyScaleEngine::checkpoint() const {
  const Replica& worker0 = replica(0, "worker");
  ByteWriter w;
  w.write(kCheckpointMagic);
  w.write(global_step_);
  // D1 records the gradient-bucket mapping; D0 deliberately loses it
  // (§5.1.1 explains the resulting divergence at stage boundaries).
  const bool save_layout =
      config_.determinism.level == DeterminismLevel::kD1;
  w.write<std::uint8_t>(save_layout ? 1 : 0);
  if (save_layout) buckets_.save(w);
  worker0.model->params().save_values(w);
  worker0.optimizer->save(w);
  worker0.scheduler->save(w);
  for (std::int64_t e = 0; e < config_.num_ests; ++e) {
    contexts_[static_cast<std::size_t>(e)].save(w);
    pipelines_[static_cast<std::size_t>(e)].save(w);
  }
  // Queuing buffer: enqueued-but-unconsumed data batches (extra state).
  std::vector<data::WorkItem> pending;
  if (pool_) pending = pool_->pending_items();
  w.write<std::uint64_t>(pending.size());
  for (const auto& item : pending) item.save(w);
  return w.take();
}

void EasyScaleEngine::restore(std::span<const std::uint8_t> bytes) {
  ES_CHECK(!replicas_.empty(), "configure_workers before restore");
  ByteReader r(bytes);
  frame::expect_magic(r, kCheckpointMagic, "EasyScale checkpoint");
  global_step_ = r.read<std::int64_t>();
  Replica& worker0 = replicas_.front();
  const bool has_layout = r.read<std::uint8_t>() != 0;
  if (has_layout) {
    buckets_.load(r);
  } else {
    // D0: the bucket mapping was not checkpointed.  Fall back to the static
    // layout and schedule a rebuild — the restart therefore re-associates
    // the ring sums and training diverges bitwise from an uninterrupted
    // run.
    buckets_.reset(worker0.model->params());
  }
  // Parameters / optimizer / scheduler load into worker 0, then replicate
  // onto every other worker.
  worker0.model->params().load_values(r);
  worker0.optimizer->load(r);
  worker0.scheduler->load(r);
  broadcast_replica0_state();
  for (std::int64_t e = 0; e < config_.num_ests; ++e) {
    contexts_[static_cast<std::size_t>(e)] = ESTContext::load(r);
    pipelines_[static_cast<std::size_t>(e)].load(r);
  }
  const auto pending_count = frame::read_count(r, 1, "pending work items");
  std::vector<data::WorkItem> pending;
  pending.reserve(pending_count);
  for (std::uint64_t i = 0; i < pending_count; ++i) {
    pending.push_back(data::WorkItem::load(r));
  }
  if (pool_) {
    for (auto& item : pending) pool_->enqueue(std::move(item));
  }
  r.require_exhausted("EasyScale checkpoint");
}

}  // namespace easyscale::core
