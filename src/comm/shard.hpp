// Sharded-optimizer collectives: reduce-scatter and parameter all-gather.
//
// ZeRO-1 sharding splits *optimizer state* (and the update computation)
// across ranks while parameters stay replicated.  The gradient sync becomes
// a reduce-scatter (each rank receives only the averaged gradient elements
// its shard owns) and the step ends with an all-gather that publishes the
// owner-updated parameter chunks to every replica.
//
// The bitwise contract mirrors comm::allreduce_average: the reduction here
// runs the SAME flatten and the SAME full-world ring association as the
// unsharded all-reduce — sharding only changes who *receives* each averaged
// element, never how it was summed.  Combined with elementwise optimizer
// updates (optim::Optimizer::step_slices) and an all-gather that is pure
// data movement from canonical owners, a sharded step is bitwise identical
// to the replicated step (docs/PARALLELISM.md, proof sketch).
//
// The resilient variants drive the same abort-drain machinery as
// comm::resilient_allreduce_average: chunk transfers ride the simulated
// Transport, any fault aborts the in-flight operation, and after a bounded
// backoff the collective re-executes bitwise from the untouched inputs.
// DeathPolicy is forced to kAbort — a shard owner's death cannot "shrink
// away" (its optimizer-state chunks have no live replica inside the
// collective), so the step must roll back and the plan must reshard.
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/parameter.hpp"
#include "comm/allreduce.hpp"
#include "comm/bucket.hpp"
#include "comm/resilient.hpp"
#include "comm/transport.hpp"
#include "optim/optimizer.hpp"

namespace easyscale::comm {

/// One rank's owned element ranges of the flattened parameter space,
/// expressed per parameter in store order (from parallel::Plan).
using ShardSlices = std::vector<optim::ParamSlice>;

/// Reject malformed reduce-scatter inputs with named-parameter messages:
/// everything validate_allreduce_inputs rejects for (layout, parts), plus
/// owned_of_part must have one entry per part, every slice must reference a
/// gradient in range with bounds inside that gradient, and one rank's
/// slices on a parameter must not overlap.  Slices MAY repeat across ranks
/// — replicated shard columns own the same chunks by design.
void validate_reduce_scatter_inputs(
    const BucketLayout& layout, const std::vector<GradientSet*>& parts,
    const std::vector<ShardSlices>& owned_of_part);

/// Reject malformed all-gather inputs with named-parameter messages:
/// `stores` non-empty and null-free with equal parameter counts and shapes,
/// `source_of_slice` one entry per slice naming an in-range store, every
/// slice in range of its parameter.
void validate_all_gather_inputs(
    const std::vector<autograd::ParameterStore*>& stores,
    const std::vector<optim::ParamSlice>& slices,
    const std::vector<int>& source_of_slice);

/// In-place bucketed ring reduce-scatter + average.  The reduction is
/// bitwise identical to allreduce_average over the same (layout, parts);
/// each part then receives only the averaged elements covered by its
/// owned_of_part entry.  Unowned gradient elements are left untouched.
void reduce_scatter_average(const BucketLayout& layout,
                            std::vector<GradientSet*>& parts,
                            const std::vector<ShardSlices>& owned_of_part);

/// Reduce-scatter exactly one bucket of `layout`: the per-bucket body of
/// reduce_scatter_average and of its resilient variant's fault-free
/// execution.  Skips input validation — the caller validates the full
/// layout first.
void reduce_scatter_average_bucket(
    const BucketLayout& layout, std::size_t bucket,
    const std::vector<GradientSet*>& parts,
    const std::vector<ShardSlices>& owned_of_part);

/// All-gather of parameter values: for each slice, copy the value bytes
/// from its canonical source store into every other store.  Pure data
/// movement — no arithmetic — so it cannot perturb bits.
void all_gather_params(const std::vector<autograd::ParameterStore*>& stores,
                       const std::vector<optim::ParamSlice>& slices,
                       const std::vector<int>& source_of_slice);

/// Failure-aware reduce_scatter_average over a simulated Transport: the
/// ring's W-1 reduce-scatter transfer steps ride the fabric, any fault
/// aborts the in-flight operation, and the collective re-executes bitwise
/// after backoff.  cfg.on_death MUST be DeathPolicy::kAbort (see header
/// comment).  Inputs are validated (validate_reduce_scatter_inputs) before
/// anything touches the transport.
CollectiveReport resilient_reduce_scatter_average(
    const BucketLayout& layout, std::vector<GradientSet*>& parts,
    const std::vector<ShardSlices>& owned_of_part, Transport& transport,
    MembershipMonitor& monitor, const ResilientConfig& cfg = {},
    const std::vector<int>* host_of_part = nullptr);

/// Failure-aware all_gather_params: W-1 all-gather transfer steps on the
/// fabric with the same abort + bitwise re-execute discipline.  cfg.on_death
/// MUST be DeathPolicy::kAbort.
CollectiveReport resilient_all_gather_params(
    const std::vector<autograd::ParameterStore*>& stores,
    const std::vector<optim::ParamSlice>& slices,
    const std::vector<int>& source_of_slice, Transport& transport,
    MembershipMonitor& monitor, const ResilientConfig& cfg = {},
    const std::vector<int>* host_of_store = nullptr);

/// Total elements covered by a slice list (for the bench's comm-bytes
/// accounting: a sharded rank receives owned elements + all-gathers the
/// rest, instead of receiving everything twice).
[[nodiscard]] std::int64_t slices_numel(
    const std::vector<optim::ParamSlice>& slices);

}  // namespace easyscale::comm
