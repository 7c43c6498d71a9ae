#include "parallel/trainer.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/digest.hpp"
#include "common/frame.hpp"
#include "core/checkpoint_io.hpp"
#include "core/integrity.hpp"

namespace easyscale::parallel {

Trainer::Trainer(TrainerConfig config, const data::Dataset& train,
                 const data::AugmentConfig& augment)
    : config_(std::move(config)) {
  ES_CHECK(config_.world_size > 0, "trainer world must be positive");
  if (config_.devices.empty()) {
    config_.devices.assign(static_cast<std::size_t>(config_.world_size),
                           kernels::DeviceType::kV100);
  }
  ES_CHECK(static_cast<std::int64_t>(config_.devices.size()) ==
               config_.world_size,
           "device list does not match world size");
  if (config_.logical_world > 0) {
    ES_CHECK(config_.world_size % config_.logical_world == 0,
             "world_size must be a multiple of logical_world");
    ES_CHECK(config_.shard_degree == 1,
             "logical_world voting needs full gradient replicas; it is "
             "mutually exclusive with shard_degree > 1");
  }
  // The sharding world: with voting enabled, rank r replays logical rank
  // r % logical_world, so the data/RNG world is the logical one.
  const std::int64_t shard_world =
      config_.logical_world > 0 ? config_.logical_world : config_.world_size;
  replicas_.reserve(static_cast<std::size_t>(config_.world_size));
  for (std::int64_t r = 0; r < config_.world_size; ++r) {
    const std::int64_t logical = r % shard_world;
    // Same init on all ranks (broadcast).
    replicas_.push_back(core::make_replica(
        config_, config_.devices[static_cast<std::size_t>(r)],
        config_.policy));
    replicas_.back().streams.seed_all(config_.seed,
                                      static_cast<std::uint64_t>(logical));
    pipelines_.emplace_back(train, augment, shard_world, logical,
                            config_.batch_per_worker, config_.seed);
  }
  const data::DistributedSampler probe(train.size(), shard_world, 0,
                                       config_.batch_per_worker, config_.seed);
  steps_per_epoch_ = probe.steps_per_epoch();
  auto& params0 = replicas_[0].model->params();
  buckets_.init(params0, config_.bucket_cap_bytes);
  plan_ = make_plan(static_cast<int>(config_.world_size),
                    config_.shard_degree, params0, config_.plan_chunks);
  rebuild_shard_maps();
  reset_comm(config_, static_cast<int>(config_.world_size),
             config_.comm_faults);
}

void Trainer::rebuild_shard_maps() {
  auto& params0 = replicas_[0].model->params();
  owned_slices_.assign(replicas_.size(), {});
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    owned_slices_[r] =
        plan_.sharded()
            ? slices_for_shard(plan_, params0,
                               plan_.shard_index(static_cast<int>(r)))
            : optim::full_slices(params0);
  }
  gather_map_ = plan_.sharded() ? gather_map(plan_, params0) : GatherMap{};
}

void Trainer::optimize_and_publish() {
  if (!plan_.sharded()) {
    for (auto& rep : replicas_) rep.optimizer->step();
    return;
  }
  // ZeRO-1 update: each rank updates only the chunks its shard owns.  The
  // update is elementwise, so owned elements get the identical bits a full
  // step would produce (optim/optimizer.hpp).
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    replicas_[r].optimizer->step_slices(owned_slices_[r]);
  }
  // Publish: all-gather the owner-updated parameter chunks into every
  // replica (pure data movement from canonical owners).
  std::vector<autograd::ParameterStore*> stores;
  stores.reserve(replicas_.size());
  for (auto& rep : replicas_) stores.push_back(&rep.model->params());
  sync_all_gather(stores, gather_map_.slices, gather_map_.source_of_slice);
}

void Trainer::one_step() {
  // Stock DDP observes ready order on the first iteration to rebuild the
  // bucket mapping; rank 0's order is representative (identical graphs).
  autograd::GradReadyRecorder recorder;
  const bool record = config_.rebuild_buckets && buckets_.pending();
  float last_loss = 0.0f;
  core::fan_out(replicas_.size(), config_.parallel_workers,
                [&](std::size_t r) {
                  core::Replica& rep = replicas_[r];
                  const data::Batch batch = pipelines_[r].next();
                  const float loss = core::local_step(
                      *rep.model, rep.exec, rep.streams, batch,
                      record && r == 0 ? &recorder : nullptr);
                  if (r + 1 == replicas_.size()) last_loss = loss;
                });
  // Gradient synchronization over the physical world: bucketed ring
  // all-reduce when replicated, reduce-scatter (same reduction bits, owned
  // elements only) when sharded.
  std::vector<comm::GradientSet> sets;
  sets.reserve(replicas_.size());
  for (auto& rep : replicas_) {
    sets.push_back(comm::GradientSet::from_store(rep.model->params()));
  }
  if (config_.logical_world > 0) {
    // Detect-before-publish: vote on per-bucket digests, reduce over one
    // majority representative per logical rank, broadcast into every
    // store.  Throws core::IntegrityError on a lost vote — BEFORE any
    // corrupted gradient reaches the optimizer.
    vote_and_reduce(sets);
  } else {
    std::vector<comm::GradientSet*> parts;
    parts.reserve(sets.size());
    for (auto& s : sets) parts.push_back(&s);
    // Identity mapping on the resilient fabric: one transport rank per
    // physical rank.  A condemned rank aborts training: the fixed world
    // cannot shrink, and a sharded plan must roll back and reshard.
    if (plan_.sharded()) {
      sync_reduce_scatter(parts, owned_slices_);
    } else {
      sync_allreduce(parts);
    }
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      sets[r].to_store(replicas_[r].model->params());
    }
  }
  optimize_and_publish();
  if (record) buckets_.rebuild(replicas_[0].model->params(), recorder);
  losses_.push_back(last_loss);
  ++global_step_;
}

void Trainer::vote_and_reduce(std::vector<comm::GradientSet>& sets) {
  const std::int64_t logical = config_.logical_world;
  const comm::BucketLayout& layout = buckets_.layout();
  VoteReport report;
  // Per-rank, per-bucket digests over the raw gradient bit patterns, in
  // the layout's reduction order.
  std::vector<std::vector<std::uint64_t>> digests(sets.size());
  for (std::size_t r = 0; r < sets.size(); ++r) {
    digests[r].reserve(layout.num_buckets());
    for (const auto& bucket : layout.buckets) {
      Digest d;
      for (const int pid : bucket) {
        d.update(std::span<const float>(
            sets[r].grads[static_cast<std::size_t>(pid)].data()));
      }
      digests[r].push_back(d.value());
    }
  }
  report.buckets_checked = static_cast<std::int64_t>(
      sets.size() * layout.num_buckets());
  // Ship every non-collector rank's digest vector to rank 0 over the
  // fabric when one exists.  The per-chunk checksum turns length-
  // preserving in-flight corruption into a visible kCorrupt, and this
  // control plane simply retransmits (bounded; the simulated sender still
  // holds ground truth, so a persistent fabric failure degrades to the
  // local copy rather than a wrong vote).
  if (transport_ != nullptr) {
    for (std::int64_t r = 1; r < config_.world_size; ++r) {
      ByteWriter w;
      w.write_vector(digests[static_cast<std::size_t>(r)]);
      const std::vector<std::uint8_t> payload = w.take();
      for (int attempt = 0; attempt < 4; ++attempt) {
        auto d = transport_->send_payload(static_cast<int>(r), 0, payload);
        report.digest_bytes_exchanged +=
            static_cast<std::int64_t>(payload.size());
        if (d.status == comm::DeliveryStatus::kDelivered) {
          ByteReader reader(d.bytes);
          digests[static_cast<std::size_t>(r)] =
              reader.read_vector<std::uint64_t>();
          reader.require_exhausted("gradient digest vote payload");
          break;
        }
        ++report.exchange_retransmits;
      }
    }
  }
  // Majority vote inside each redundancy group {l, l+L, l+2L, ...}: the
  // representative is the lowest rank agreeing with the majority digest on
  // every bucket; dissenters are corrupt.  A 1-1 split has no majority —
  // both members are reported (detection without attribution).
  std::vector<comm::GradientSet*> parts;
  parts.reserve(static_cast<std::size_t>(logical));
  for (std::int64_t l = 0; l < logical; ++l) {
    std::vector<std::int64_t> group;
    for (std::int64_t r = l; r < config_.world_size; r += logical) {
      group.push_back(r);
    }
    std::int64_t representative = -1;
    for (std::size_t b = 0; b < layout.num_buckets(); ++b) {
      std::map<std::uint64_t, std::int64_t> votes;
      for (const std::int64_t r : group) {
        ++votes[digests[static_cast<std::size_t>(r)][b]];
      }
      if (votes.size() <= 1) continue;  // unanimous bucket
      std::uint64_t majority = 0;
      std::int64_t best = 0;
      bool tied = false;
      for (const auto& [digest, count] : votes) {
        if (count > best) {
          best = count;
          majority = digest;
          tied = false;
        } else if (count == best) {
          tied = true;
        }
      }
      for (const std::int64_t r : group) {
        const bool guilty =
            tied || digests[static_cast<std::size_t>(r)][b] != majority;
        if (guilty) report.corrupt_ranks.push_back(r);
      }
    }
    std::sort(report.corrupt_ranks.begin(), report.corrupt_ranks.end());
    report.corrupt_ranks.erase(
        std::unique(report.corrupt_ranks.begin(), report.corrupt_ranks.end()),
        report.corrupt_ranks.end());
    for (const std::int64_t r : group) {
      const bool clean =
          std::find(report.corrupt_ranks.begin(), report.corrupt_ranks.end(),
                    r) == report.corrupt_ranks.end();
      if (clean) {
        representative = r;
        break;
      }
    }
    if (representative >= 0) {
      parts.push_back(&sets[static_cast<std::size_t>(representative)]);
    }
  }
  if (!report.corrupt_ranks.empty() ||
      static_cast<std::int64_t>(parts.size()) != logical) {
    const std::int64_t first =
        report.corrupt_ranks.empty() ? -1 : report.corrupt_ranks.front();
    std::ostringstream os;
    os << "gradient digest vote failed at step " << global_step_ << ":";
    for (const std::int64_t r : report.corrupt_ranks) os << " rank" << r;
    last_vote_report_ = std::move(report);
    throw core::IntegrityError(first, first >= 0 ? first % logical : -1,
                               global_step_, os.str());
  }
  // Reduce over the representatives only: bitwise equal to a clean DDP run
  // at world_size = logical_world.  All representatives end up with the
  // identical average; publish the first into every replica's store.
  comm::allreduce_average(layout, parts);
  for (auto& rep : replicas_) {
    parts[0]->to_store(rep.model->params());
  }
  last_vote_report_ = std::move(report);
}

namespace {

/// Copy `slices` of every optimizer-state tensor from `src` into `dst`.
/// State tensor t shadows parameter t % num_params (SGD: momentum per
/// param; Adam: m then v per param — optim/*.hpp state order).
void copy_state_slices(const std::vector<tensor::Tensor*>& src,
                       const std::vector<tensor::Tensor*>& dst,
                       const std::vector<optim::ParamSlice>& slices,
                       std::size_t num_params) {
  for (const auto& s : slices) {
    for (std::size_t t = 0; t < src.size(); ++t) {
      if (t % num_params != s.param) continue;
      std::copy(src[t]->data().begin() + s.begin,
                src[t]->data().begin() + s.end,
                dst[t]->data().begin() + s.begin);
    }
  }
}

}  // namespace

void Trainer::gather_canonical_state_into(const Plan& from, std::int64_t dst) {
  if (!from.sharded()) return;  // every rank already holds full state
  auto& params0 = replicas_[0].model->params();
  const auto dst_state =
      replicas_[static_cast<std::size_t>(dst)].optimizer->state_tensors();
  for (std::size_t c = 0; c < from.chunks.size(); ++c) {
    const auto src_rank = static_cast<std::size_t>(from.canonical_rank(c));
    if (static_cast<std::int64_t>(src_rank) == dst) continue;
    copy_state_slices(replicas_[src_rank].optimizer->state_tensors(),
                      dst_state, slices_for_chunk(from, params0, c),
                      params0.size());
  }
}

void Trainer::reshard(int new_shard_degree) {
  ES_CHECK(config_.logical_world == 0,
           "reshard requires logical_world == 0");
  if (new_shard_degree == plan_.shard_degree) return;
  auto& params0 = replicas_[0].model->params();
  const Plan new_plan =
      make_plan(static_cast<int>(config_.world_size), new_shard_degree,
                params0, config_.plan_chunks);
  ES_CHECK(new_plan.chunks == plan_.chunks,
           "plan chunk bounds must stay fixed across reshard");
  // Redistribute optimizer-state chunks: every chunk travels from its old
  // canonical owner to each rank whose NEW shard owns it.  No state is
  // split or re-summed — ownership is the only thing that changes, which
  // is why the continued trajectory is bitwise unchanged.
  for (std::size_t c = 0; c < plan_.chunks.size(); ++c) {
    const auto src_rank = static_cast<std::size_t>(plan_.canonical_rank(c));
    const auto src_state = replicas_[src_rank].optimizer->state_tensors();
    const auto slices = slices_for_chunk(plan_, params0, c);
    const int new_owner = new_plan.chunk_owner(c);
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      if (r == src_rank) continue;
      if (new_plan.shard_index(static_cast<int>(r)) != new_owner) continue;
      copy_state_slices(src_state, replicas_[r].optimizer->state_tensors(),
                        slices, params0.size());
    }
  }
  plan_ = new_plan;
  config_.shard_degree = new_shard_degree;
  rebuild_shard_maps();
}

namespace {

/// Per-chunk digest chain over the canonical flattened parameter values —
/// degree-independent because the chunk bounds are (PR 7's keystone).
DigestChain chunk_chain_of(const Plan& plan,
                           const autograd::ParameterStore& params) {
  DigestChain chain;
  for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
    Digest d;
    for (const auto& s : slices_for_chunk(plan, params, c)) {
      d.update(std::span<const float>(params.all()[s.param]->value.data())
                   .subspan(static_cast<std::size_t>(s.begin),
                            static_cast<std::size_t>(s.end - s.begin)));
    }
    chain.push(static_cast<std::uint64_t>(c), d.value());
  }
  return chain;
}

}  // namespace

void Trainer::build_checkpoint_image(std::vector<std::uint8_t>* payload,
                                     DigestChain* chain,
                                     core::ShardFrameMeta* meta) {
  auto& params0 = replicas_[0].model->params();
  // Assemble canonical optimizer state on rank 0 (a gather from the chunk
  // owners); rank 0's serialized state is then degree-independent.
  gather_canonical_state_into(plan_, 0);
  ByteWriter w;
  w.write_string(config_.workload);
  w.write(config_.world_size);
  w.write(global_step_);
  buckets_.save(w);
  params0.save_values(w);
  replicas_[0].optimizer->save(w);
  replicas_[0].scheduler->save(w);
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    replicas_[r].streams.state().save(w);
    pipelines_[r].save(w);
  }
  w.write_vector(losses_);
  *payload = w.take();
  // Per-tensor chain over the canonical parameters (like verified
  // checkpoints) + the v3 shard frame with the per-chunk chain.
  *chain = DigestChain();
  for (std::size_t i = 0; i < params0.size(); ++i) {
    Digest d;
    d.update(std::span<const float>(params0.all()[i]->value.data()));
    chain->push(static_cast<std::uint64_t>(i), d.value());
  }
  *meta = core::ShardFrameMeta{};
  meta->world_size = static_cast<std::int32_t>(config_.world_size);
  meta->shard_degree = plan_.shard_degree;
  meta->total_numel = plan_.total_numel;
  for (const auto& c : plan_.chunks) {
    meta->chunk_begin.push_back(c.begin);
    meta->chunk_end.push_back(c.end);
  }
  meta->chunk_chain = chunk_chain_of(plan_, params0);
}

void Trainer::save_checkpoint(const std::string& path) {
  std::vector<std::uint8_t> payload;
  DigestChain chain;
  core::ShardFrameMeta meta;
  build_checkpoint_image(&payload, &chain, &meta);
  core::save_checkpoint_file(path, payload, chain, meta);
}

std::vector<std::uint8_t> Trainer::checkpoint_bytes() {
  std::vector<std::uint8_t> payload;
  DigestChain chain;
  core::ShardFrameMeta meta;
  build_checkpoint_image(&payload, &chain, &meta);
  ByteWriter w;
  chain.save(w);
  meta.save(w);
  frame::write_section(w, payload);
  // Sealed: the chunk chain only attests parameters, so flips inside
  // optimizer/scheduler/RNG/loss sections need the trailer to be rejected
  // at restore time.
  frame::seal(w);
  return w.take();
}

void Trainer::restore_checkpoint(const std::string& path) {
  DigestChain chain;
  std::optional<core::ShardFrameMeta> meta;
  const std::vector<std::uint8_t> bytes =
      core::load_checkpoint_file(path, &chain, &meta);
  ES_CHECK(meta.has_value(),
           "checkpoint " << path << " has no shard frame (pre-v3); "
                         << "parallel::Trainer needs a v3 checkpoint");
  apply_checkpoint_image(bytes, *meta, path);
}

void Trainer::restore_checkpoint_bytes(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(frame::unseal(bytes, "trainer snapshot image"));
  (void)DigestChain::load(r);  // verifies every link
  const core::ShardFrameMeta meta = core::ShardFrameMeta::load(r);
  const auto payload = frame::read_section(r, "trainer snapshot image");
  r.require_exhausted("trainer snapshot image");
  apply_checkpoint_image(payload, meta, "peer snapshot");
}

void Trainer::apply_checkpoint_image(std::span<const std::uint8_t> bytes,
                                     const core::ShardFrameMeta& meta,
                                     const std::string& what) {
  ES_CHECK(meta.world_size == config_.world_size,
           "checkpoint world_size " << meta.world_size
                                    << " != trainer world_size "
                                    << config_.world_size << " (" << what
                                    << ")");
  ES_CHECK(meta.total_numel == plan_.total_numel,
           "checkpoint total_numel " << meta.total_numel
                                     << " != plan total_numel "
                                     << plan_.total_numel << " (" << what
                                     << ")");
  ES_CHECK(meta.chunk_begin.size() == plan_.chunks.size(),
           "checkpoint chunk count " << meta.chunk_begin.size()
                                     << " != plan chunk count "
                                     << plan_.chunks.size()
                                     << " (plan_chunks must match)");
  for (std::size_t c = 0; c < plan_.chunks.size(); ++c) {
    ES_CHECK(meta.chunk_begin[c] == plan_.chunks[c].begin &&
                 meta.chunk_end[c] == plan_.chunks[c].end,
             "checkpoint chunk " << c << " bounds disagree with the plan");
  }
  ByteReader r(bytes);
  const std::string workload = r.read_string();
  ES_CHECK(workload == config_.workload,
           "checkpoint workload '" << workload << "' != trainer workload '"
                                   << config_.workload << "'");
  const auto world = r.read<std::int64_t>();
  ES_CHECK(world == config_.world_size, "checkpoint payload world mismatch");
  global_step_ = r.read<std::int64_t>();
  buckets_.load(r);
  // Canonical parameters, optimizer and schedule state into rank 0, then
  // into every rank: parameters are replicated under every plan, and full
  // optimizer state everywhere is correct under any shard degree (each
  // rank reads only the chunks its CURRENT plan owns; the rest is
  // canonical surplus).
  auto& params0 = replicas_[0].model->params();
  params0.load_values(r);
  replicas_[0].optimizer->load(r);
  replicas_[0].scheduler->load(r);
  broadcast_replica0_state();
  for (std::size_t rank = 0; rank < replicas_.size(); ++rank) {
    replicas_[rank].streams.set_state(rng::StreamSetState::load(r));
    pipelines_[rank].load(r);
  }
  losses_ = r.read_vector<float>();
  r.require_exhausted("parallel trainer checkpoint payload");
  // Attest the restore against the degree-independent chunk chain: the
  // restored canonical parameters must re-derive the stored records.
  const DigestChain rechain = chunk_chain_of(plan_, params0);
  ES_CHECK(rechain == meta.chunk_chain,
           "restored parameters do not re-derive the checkpoint's per-chunk "
           "digest chain (" << what << ")");
}

}  // namespace easyscale::parallel
