// The mirror: each driver's step re-built from the layers' public calls,
// every call timed into a span.  It must end on the driver's digest bit
// for bit, which is what makes its per-layer times the driver's.
//
// EngineMirror follows core::EasyScaleEngine::one_step on the path the
// benchmark drives (sequential workers, no async loader, no overlap, no
// witness, plain comm); TrainerMirror follows parallel::Trainer::one_step
// likewise, including reshard().
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "comm/allreduce.hpp"
#include "comm/bucket.hpp"
#include "comm/shard.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "core/est_context.hpp"
#include "data/pipeline.hpp"
#include "parallel/plan.hpp"

namespace easyscale::stepbench {

namespace {

std::uint64_t digest_of(const autograd::ParameterStore& params) {
  Digest d;
  for (const auto* p : params.all()) d.update(p->value.data());
  return d.value();
}

struct Replica {
  std::unique_ptr<models::Workload> model;
  std::unique_ptr<optim::Optimizer> optimizer;
  rng::StreamSet streams;
  kernels::ExecContext exec;
};

Replica make_replica(const std::string& model, std::uint64_t seed,
                     const optim::OptimizerConfig& optim,
                     kernels::KernelPolicy policy, BenchHook* hook) {
  Replica r;
  r.model = models::make_workload(model);
  r.model->init(seed);
  r.optimizer = optim::make_optimizer(r.model->params(), optim);
  r.exec.policy = policy;
  r.exec.intra_op_threads = kIntraOpThreads;
  r.exec.post_op = hook;
  return r;
}

}  // namespace

/// One driver's step, re-built from public layer calls.
class StepMirror {
 public:
  virtual ~StepMirror() = default;
  /// The driver's scale event: workers (engine) or shard degree (trainer).
  virtual void scale(std::int64_t target) = 0;
  virtual void step(Tracer& t, std::int64_t step, MirrorRun& out,
                    bool in_window) = 0;
  [[nodiscard]] virtual std::uint64_t digest() const = 0;
};

namespace {

class EngineMirror final : public StepMirror {
 public:
  EngineMirror(const WorkloadSpec& spec, const models::WorkloadData& inputs,
               BenchHook* hook)
      : cfg_(engine_config(spec)), hook_(hook) {
    auto prototype = models::make_workload(cfg_.workload);
    prototype->init(cfg_.seed);
    for (std::int64_t r = 0; r < cfg_.num_ests; ++r) {
      pipelines_.emplace_back(*inputs.train, inputs.augment, cfg_.num_ests, r,
                              cfg_.batch_per_est, cfg_.seed);
      core::ESTContext ctx;
      ctx.virtual_rank = r;
      rng::StreamSet streams;
      streams.seed_all(cfg_.seed, static_cast<std::uint64_t>(r));
      ctx.model_streams = streams.state();
      for (tensor::Tensor* b : prototype->buffers()) ctx.bn_buffers.push_back(*b);
      contexts_.push_back(std::move(ctx));
      grads_.push_back(comm::GradientSet::zeros_like(prototype->params()));
    }
    cap_ = comm::resolve_bucket_cap(0, prototype->params());
    layout_ = comm::BucketManager(prototype->params(), cap_).initial_layout();
    scale(spec.cycle.front());
  }

  /// Contiguous balanced mapping onto `n` fresh replicas that carry over
  /// worker 0's parameters and optimizer state (what configure_workers'
  /// checkpoint + restore amounts to; contexts and pipelines are per EST
  /// and stay put).
  void scale(std::int64_t n) override {
    std::vector<Worker> next(static_cast<std::size_t>(n));
    std::int64_t est = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      Worker& w = next[static_cast<std::size_t>(i)];
      w.rep = make_replica(cfg_.workload, cfg_.seed, cfg_.optim,
                           core::kernel_policy(cfg_.determinism), hook_);
      const std::int64_t count =
          cfg_.num_ests / n + (i < cfg_.num_ests % n ? 1 : 0);
      for (std::int64_t k = 0; k < count; ++k) w.ests.push_back(est++);
      if (!workers_.empty()) {
        const auto& src = workers_[0].rep.model->params().all();
        const auto& dst = w.rep.model->params().all();
        for (std::size_t p = 0; p < src.size(); ++p) {
          dst[p]->value = src[p]->value;
        }
        ByteWriter state;
        workers_[0].rep.optimizer->save(state);
        ByteReader reader(state.bytes());
        w.rep.optimizer->load(reader);
      }
    }
    workers_ = std::move(next);
  }

  void step(Tracer& t, std::int64_t step, MirrorRun& out,
            bool in_window) override {
    const bool record = !rebuilt_;
    autograd::GradReadyRecorder recorder;
    for (Worker& w : workers_) {
      auto& params = w.rep.model->params();
      for (std::int64_t est : w.ests) {
        core::ESTContext& ctx = contexts_[static_cast<std::size_t>(est)];
        t.time("core.ctx_swap", step, [&] {
          w.rep.streams.set_state(ctx.model_streams);
          auto buffers = w.rep.model->buffers();
          for (std::size_t i = 0; i < buffers.size(); ++i) {
            *buffers[i] = ctx.bn_buffers[i];
          }
        });
        const data::Batch batch = t.time("data.next", step, [&] {
          return pipelines_[static_cast<std::size_t>(est)].next();
        });
        const float loss = t.time("models.train_step", step, [&] {
          params.zero_grads();
          autograd::StepContext sc;
          sc.exec = &w.rep.exec;
          sc.rng = &w.rep.streams;
          sc.training = true;
          if (record && est == 0) {
            recorder.begin(params.size());
            sc.grad_ready = &recorder;
          }
          return w.rep.model->train_step(sc, batch);
        });
        ES_CHECK(std::isfinite(loss), "mirror loss is not finite");
        auto& g = grads_[static_cast<std::size_t>(est)];
        t.time("core.grad_copy", step,
               [&] { g = comm::GradientSet::from_store(params); });
        t.time("core.ctx_swap", step, [&] {
          ctx.model_streams = w.rep.streams.state();
          auto buffers = w.rep.model->buffers();
          for (std::size_t i = 0; i < buffers.size(); ++i) {
            ctx.bn_buffers[i] = *buffers[i];
          }
        });
        if (in_window) {
          out.ctx_bytes += static_cast<double>(ctx.byte_size());
          out.grad_copy_bytes += static_cast<double>(comm::gradient_bytes(g));
        }
      }
    }
    std::vector<comm::GradientSet*> parts;
    for (auto& g : grads_) parts.push_back(&g);
    t.time("comm.allreduce", step,
           [&] { comm::allreduce_average(layout_, parts); });
    if (in_window) {
      out.allreduce_bytes += static_cast<double>(comm::gradient_bytes(grads_[0]));
      out.buckets += static_cast<double>(layout_.num_buckets());
    }
    for (Worker& w : workers_) {
      t.time("core.grad_copy", step,
             [&] { grads_[0].to_store(w.rep.model->params()); });
      t.time("optim.step", step, [&] { w.rep.optimizer->step(); });
    }
    if (record) {
      ES_CHECK(!recorder.order().empty(), "grad-ready order not captured");
      layout_ = comm::BucketManager(workers_[0].rep.model->params(), cap_)
                    .layout_from_ready_order(recorder.order());
      rebuilt_ = true;
    }
  }

  [[nodiscard]] std::uint64_t digest() const override {
    return digest_of(workers_[0].rep.model->params());
  }

 private:
  struct Worker {
    Replica rep;
    std::vector<std::int64_t> ests;
  };

  core::EasyScaleConfig cfg_;
  BenchHook* hook_;
  std::vector<data::RankDataPipeline> pipelines_;
  std::vector<core::ESTContext> contexts_;
  std::vector<comm::GradientSet> grads_;
  std::vector<Worker> workers_;
  std::int64_t cap_ = 0;
  comm::BucketLayout layout_;
  bool rebuilt_ = false;
};

class TrainerMirror final : public StepMirror {
 public:
  TrainerMirror(const WorkloadSpec& spec, const models::WorkloadData& inputs,
                BenchHook* hook)
      : cfg_(trainer_config(spec, spec.cycle.front())) {
    for (std::int64_t r = 0; r < cfg_.world_size; ++r) {
      Replica rep = make_replica(cfg_.workload, cfg_.seed, cfg_.optim,
                                 cfg_.policy, hook);
      rep.streams.seed_all(cfg_.seed, static_cast<std::uint64_t>(r));
      ranks_.push_back(std::move(rep));
      pipelines_.emplace_back(*inputs.train, inputs.augment, cfg_.world_size,
                              r, cfg_.batch_per_worker, cfg_.seed);
    }
    auto& params0 = ranks_[0].model->params();
    cap_ = comm::resolve_bucket_cap(0, params0);
    layout_ = comm::BucketManager(params0, cap_).initial_layout();
    plan_ = parallel::make_plan(static_cast<int>(cfg_.world_size),
                                cfg_.shard_degree, params0, cfg_.plan_chunks);
    rebuild_shard_maps();
  }

  /// parallel::Trainer::reshard: every chunk's optimizer state travels from
  /// its old canonical owner to each rank whose new shard owns it.
  void scale(std::int64_t degree) override {
    if (degree == plan_.shard_degree) return;
    auto& params0 = ranks_[0].model->params();
    const parallel::Plan next =
        parallel::make_plan(static_cast<int>(cfg_.world_size),
                            static_cast<int>(degree), params0, cfg_.plan_chunks);
    const std::size_t num_params = params0.size();
    for (std::size_t c = 0; c < plan_.chunks.size(); ++c) {
      const auto src = static_cast<std::size_t>(plan_.canonical_rank(c));
      auto src_state = ranks_[src].optimizer->state_tensors();
      const auto slices = parallel::slices_for_chunk(plan_, params0, c);
      for (std::size_t r = 0; r < ranks_.size(); ++r) {
        if (r == src) continue;
        if (next.shard_index(static_cast<int>(r)) != next.chunk_owner(c)) {
          continue;
        }
        auto dst_state = ranks_[r].optimizer->state_tensors();
        for (const auto& s : slices) {
          for (std::size_t i = 0; i < src_state.size(); ++i) {
            if (i % num_params != s.param) continue;
            std::copy(src_state[i]->data().begin() + s.begin,
                      src_state[i]->data().begin() + s.end,
                      dst_state[i]->data().begin() + s.begin);
          }
        }
      }
    }
    plan_ = next;
    rebuild_shard_maps();
  }

  void step(Tracer& t, std::int64_t step, MirrorRun& out,
            bool in_window) override {
    const bool record = cfg_.rebuild_buckets && !rebuilt_;
    autograd::GradReadyRecorder recorder;
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      Replica& rep = ranks_[r];
      const data::Batch batch =
          t.time("data.next", step, [&] { return pipelines_[r].next(); });
      const float loss = t.time("models.train_step", step, [&] {
        auto& params = rep.model->params();
        params.zero_grads();
        autograd::StepContext sc;
        sc.exec = &rep.exec;
        sc.rng = &rep.streams;
        sc.training = true;
        if (r == 0 && record) {
          recorder.begin(params.size());
          sc.grad_ready = &recorder;
        }
        return rep.model->train_step(sc, batch);
      });
      ES_CHECK(std::isfinite(loss), "mirror loss is not finite");
    }
    std::vector<comm::GradientSet> sets;
    sets.reserve(ranks_.size());
    for (Replica& rep : ranks_) {
      t.time("core.grad_copy", step, [&] {
        sets.push_back(comm::GradientSet::from_store(rep.model->params()));
      });
    }
    std::vector<comm::GradientSet*> parts;
    for (auto& s : sets) parts.push_back(&s);
    if (plan_.sharded()) {
      t.time("comm.reduce_scatter", step, [&] {
        comm::reduce_scatter_average(layout_, parts, owned_);
      });
    } else {
      t.time("comm.allreduce", step,
             [&] { comm::allreduce_average(layout_, parts); });
    }
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      t.time("core.grad_copy", step,
             [&] { sets[r].to_store(ranks_[r].model->params()); });
    }
    if (!plan_.sharded()) {
      for (Replica& rep : ranks_) {
        t.time("optim.step", step, [&] { rep.optimizer->step(); });
      }
    } else {
      for (std::size_t r = 0; r < ranks_.size(); ++r) {
        t.time("optim.step", step,
               [&] { ranks_[r].optimizer->step_slices(owned_[r]); });
      }
      std::vector<autograd::ParameterStore*> stores;
      for (Replica& rep : ranks_) stores.push_back(&rep.model->params());
      t.time("comm.all_gather", step, [&] {
        comm::all_gather_params(stores, gather_.slices, gather_.source_of_slice);
      });
    }
    if (in_window) {
      const double bytes = static_cast<double>(comm::gradient_bytes(sets[0]));
      out.grad_copy_bytes += bytes * static_cast<double>(ranks_.size());
      out.allreduce_bytes += bytes;
      out.buckets += static_cast<double>(layout_.num_buckets());
      if (plan_.sharded()) {
        out.all_gather_bytes +=
            static_cast<double>(comm::slices_numel(gather_.slices)) *
            static_cast<double>(sizeof(float));
      }
    }
    if (record) {
      layout_ = comm::BucketManager(ranks_[0].model->params(), cap_)
                    .layout_from_ready_order(recorder.order());
      rebuilt_ = true;
    }
  }

  [[nodiscard]] std::uint64_t digest() const override {
    return digest_of(ranks_[0].model->params());
  }

 private:
  void rebuild_shard_maps() {
    auto& params0 = ranks_[0].model->params();
    owned_.assign(ranks_.size(), {});
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      owned_[r] = plan_.sharded()
                      ? parallel::slices_for_shard(
                            plan_, params0,
                            plan_.shard_index(static_cast<int>(r)))
                      : optim::full_slices(params0);
    }
    gather_ = plan_.sharded() ? parallel::gather_map(plan_, params0)
                              : parallel::GatherMap{};
  }

  parallel::TrainerConfig cfg_;
  std::vector<Replica> ranks_;
  std::vector<data::RankDataPipeline> pipelines_;
  std::int64_t cap_ = 0;
  comm::BucketLayout layout_;
  bool rebuilt_ = false;
  parallel::Plan plan_;
  std::vector<comm::ShardSlices> owned_;
  parallel::GatherMap gather_;
};

}  // namespace

MirrorSession::MirrorSession(const WorkloadSpec& spec,
                             const models::WorkloadData& inputs)
    : spec_(spec) {
  hook_.counting = true;  // the same instrumentation as the traced driver
  try {
    if (spec.driver == DriverKind::kEngine) {
      mirror_ = std::make_unique<EngineMirror>(spec, inputs, &hook_);
    } else {
      mirror_ = std::make_unique<TrainerMirror>(spec, inputs, &hook_);
    }
  } catch (const std::exception& e) {
    out_.error = e.what();
  }
}

MirrorSession::~MirrorSession() = default;

void MirrorSession::run_block() {
  if (!out_.error.empty()) return;
  const bool in_window = blocks_ > 0;
  if (blocks_ == 1) {
    out_.window_first_step = steps_;
    at_window_ = hook_.counts;
  }
  try {
    // The driver session's schedule: a scale event before every segment
    // but the first.
    for (std::int64_t s = 0; s < spec_.block_segments; ++s, ++segment_) {
      if (segment_ > 0 && spec_.rescales()) {
        mirror_->scale(
            spec_.cycle[static_cast<std::size_t>(segment_) % spec_.cycle.size()]);
      }
      for (std::int64_t k = 0; k < spec_.segment_steps; ++k) {
        mirror_->step(out_.tracer, steps_, out_, in_window);
        ++steps_;
        if (in_window) ++out_.window_steps;
      }
    }
    out_.block_digests.push_back(mirror_->digest());
    ++blocks_;
  } catch (const std::exception& e) {
    out_.error = e.what();
  }
}

MirrorRun MirrorSession::finish() {
  if (mirror_ && out_.error.empty()) out_.final_digest = mirror_->digest();
  for (std::size_t f = 0; f < kKernelFamilies; ++f) {
    out_.window_kernels.calls[f] = hook_.counts.calls[f] - at_window_.calls[f];
    out_.window_kernels.out_elems[f] =
        hook_.counts.out_elems[f] - at_window_.out_elems[f];
  }
  const double n =
      static_cast<double>(std::max<std::int64_t>(out_.window_steps, 1));
  out_.ctx_bytes /= n;
  out_.grad_copy_bytes /= n;
  out_.allreduce_bytes /= n;
  out_.all_gather_bytes /= n;
  out_.buckets /= n;
  mirror_.reset();
  return std::move(out_);
}

}  // namespace easyscale::stepbench
