#include "core/step_core.hpp"

#include <utility>

#include "common/digest.hpp"

namespace easyscale::core {

kernels::ExecContext make_exec(const StepCoreConfig& config,
                               kernels::DeviceType device,
                               kernels::KernelPolicy policy) {
  kernels::ExecContext exec;
  exec.device = device;
  exec.policy = policy;
  exec.custom_gemm = config.custom_d2_gemm;
  exec.intra_op_threads = config.intra_op_threads;
  return exec;
}

Replica make_replica(const StepCoreConfig& config, kernels::DeviceType device,
                     kernels::KernelPolicy policy) {
  Replica rep;
  rep.model = models::make_workload(config.workload);
  rep.model->init(config.seed);
  rep.optimizer = optim::make_optimizer(rep.model->params(), config.optim);
  rep.scheduler = std::make_unique<optim::StepLR>(
      *rep.optimizer, config.lr_step_epochs, config.gamma);
  rep.exec = make_exec(config, device, policy);
  return rep;
}

float local_step(models::Workload& model, const kernels::ExecContext& exec,
                 rng::StreamSet& streams, const data::Batch& batch,
                 autograd::GradReadyRecorder* recorder) {
  model.params().zero_grads();
  autograd::StepContext ctx;
  ctx.exec = &exec;
  ctx.rng = &streams;
  ctx.training = true;
  if (recorder != nullptr) {
    recorder->begin(model.params().size());
    ctx.grad_ready = recorder;
  }
  return model.train_step(ctx, batch);
}

void BucketSchedule::init(const autograd::ParameterStore& params,
                          std::int64_t cap_bytes) {
  cap_bytes_ = comm::resolve_bucket_cap(cap_bytes, params);
  reset(params);
}

void BucketSchedule::reset(const autograd::ParameterStore& params) {
  layout_ = comm::BucketManager(params, cap_bytes_).initial_layout();
  rebuilt_ = false;
}

void BucketSchedule::rebuild(const autograd::ParameterStore& params,
                             const autograd::GradReadyRecorder& recorder) {
  ES_CHECK(!recorder.order().empty(), "grad-ready order not captured");
  layout_ = comm::BucketManager(params, cap_bytes_)
                .layout_from_ready_order(recorder.order());
  rebuilt_ = true;
}

void BucketSchedule::save(ByteWriter& w) const {
  w.write<std::uint8_t>(rebuilt_ ? 1 : 0);
  layout_.save(w);
}

void BucketSchedule::load(ByteReader& r) {
  rebuilt_ = r.read<std::uint8_t>() != 0;
  layout_ = comm::BucketLayout::load(r);
}

void StepCore::run_steps(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) one_step();
}

void StepCore::run_epochs(std::int64_t n) {
  for (std::int64_t e = 0; e < n; ++e) {
    const std::int64_t epoch = global_step_ / steps_per_epoch_;
    for (auto& rep : replicas_) rep.scheduler->set_epoch(epoch);
    run_steps(steps_per_epoch_);
  }
}

std::uint64_t StepCore::params_digest() const {
  Digest d;
  for (const auto* p : replica(0, "replica").model->params().all()) {
    d.update(p->value.data());
  }
  return d.value();
}

void StepCore::inject_comm_fault(const comm::CommFaultEvent& event) {
  ES_CHECK(transport_ != nullptr,
           "inject_comm_fault requires resilient_comm = true and a built "
           "worker set");
  transport_->inject(event);
}

const comm::TransportStats& StepCore::transport_stats() const {
  ES_CHECK(transport_ != nullptr, "resilient comm not configured");
  return transport_->stats();
}

void StepCore::set_post_op_hook(std::int64_t replica_index,
                                kernels::PostOpHook* hook) {
  replica(replica_index, "post-op hook replica").exec.post_op = hook;
}

const Replica& StepCore::replica(std::int64_t i, const char* what) const {
  ES_CHECK(i >= 0 && i < static_cast<std::int64_t>(replicas_.size()),
           what << " " << i << " out of range [0, " << replicas_.size()
                << ")");
  return replicas_[static_cast<std::size_t>(i)];
}

Replica& StepCore::replica(std::int64_t i, const char* what) {
  return const_cast<Replica&>(std::as_const(*this).replica(i, what));
}

void StepCore::broadcast_replica0_state() {
  const Replica& src = replicas_.front();
  ByteWriter state;
  src.optimizer->save(state);
  src.scheduler->save(state);
  const auto& src_params = src.model->params().all();
  for (std::size_t i = 1; i < replicas_.size(); ++i) {
    Replica& dst = replicas_[i];
    const auto& dst_params = dst.model->params().all();
    for (std::size_t p = 0; p < src_params.size(); ++p) {
      dst_params[p]->value = src_params[p]->value;
    }
    ByteReader reader(state.bytes());
    dst.optimizer->load(reader);
    dst.scheduler->load(reader);
  }
}

void StepCore::reset_comm(const StepCoreConfig& config, int world,
                          std::vector<comm::CommFaultEvent> faults) {
  last_comm_report_.reset();
  if (!config.resilient_comm) return;
  resilient_ = config.resilient;
  resilient_.on_death = comm::DeathPolicy::kAbort;
  transport_ = std::make_unique<comm::SimTransport>(world, config.transport,
                                                    std::move(faults));
  monitor_ =
      std::make_unique<comm::MembershipMonitor>(world, config.transport);
}

void StepCore::sync_allreduce(std::vector<comm::GradientSet*>& parts,
                              const std::vector<int>* host_of_part) {
  if (transport_ == nullptr) {
    comm::allreduce_average(buckets_.layout(), parts);
    return;
  }
  last_comm_report_ = comm::resilient_allreduce_average(
      buckets_.layout(), parts, *transport_, *monitor_, resilient_,
      host_of_part);
}

void StepCore::sync_reduce_scatter(
    std::vector<comm::GradientSet*>& parts,
    const std::vector<comm::ShardSlices>& owned) {
  if (transport_ == nullptr) {
    comm::reduce_scatter_average(buckets_.layout(), parts, owned);
    return;
  }
  last_comm_report_ = comm::resilient_reduce_scatter_average(
      buckets_.layout(), parts, owned, *transport_, *monitor_, resilient_);
}

void StepCore::sync_all_gather(
    const std::vector<autograd::ParameterStore*>& stores,
    const std::vector<optim::ParamSlice>& slices,
    const std::vector<int>& source_of_slice) {
  if (transport_ == nullptr) {
    comm::all_gather_params(stores, slices, source_of_slice);
    return;
  }
  const comm::CollectiveReport piece = comm::resilient_all_gather_params(
      stores, slices, source_of_slice, *transport_, *monitor_, resilient_);
  comm::CollectiveReport total =
      last_comm_report_.value_or(comm::CollectiveReport{});
  comm::merge_collective_report(total, piece);
  last_comm_report_ = std::move(total);
}

}  // namespace easyscale::core
