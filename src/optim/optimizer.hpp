// Optimizer interface + configuration.  Trainers (core/, parallel/)
// are optimizer-agnostic: the config names the algorithm, and state
// serialization flows through the common interface so checkpoints work for
// any optimizer.
//
// ZeRO-style sharding surface: both built-in optimizers are elementwise —
// element j of a parameter is updated from exactly (grad[j], state[j],
// value[j]) — so updating an arbitrary subset of elements (step_slices)
// produces, per element, the identical bits a full step() would.  The
// parallel::Trainer exploits this to run each rank's update only over the
// flattened chunks its optimizer-state shard owns.
#pragma once

#include <memory>
#include <vector>

#include "autograd/parameter.hpp"
#include "common/serialize.hpp"
#include "tensor/tensor.hpp"

namespace easyscale::optim {

/// A contiguous element range [begin, end) of one parameter, in store
/// order — the unit a sharded update operates on.  Slices for one shard
/// come from parallel::ChunkPartition; they never overlap.
struct ParamSlice {
  std::size_t param = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  friend bool operator==(const ParamSlice&, const ParamSlice&) = default;
};

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual void step() = 0;
  /// Update only the elements covered by `slices`.  Per covered element the
  /// math (and therefore the bits) is identical to step(); uncovered
  /// elements and their optimizer state are untouched.  Per-step bookkeeping
  /// (Adam's bias-correction counter) advances exactly once per call, so
  /// every rank of a sharded world must call this once per global step.
  virtual void step_slices(const std::vector<ParamSlice>& slices) = 0;
  virtual void zero_grad() = 0;
  [[nodiscard]] virtual float lr() const = 0;
  virtual void set_lr(float lr) = 0;
  /// Per-parameter state tensors in a fixed, documented order (SGD:
  /// momentum[param]; Adam: m[param] then v[param]), aligned with the
  /// parameter store.  The sharded trainer moves chunk ranges of these
  /// between ranks on reshard and gathers them into canonical checkpoints.
  [[nodiscard]] virtual std::vector<tensor::Tensor*> state_tensors() = 0;
  virtual void save(ByteWriter& w) const = 0;
  virtual void load(ByteReader& r) = 0;
};

/// Slices covering every parameter of `params` in full — step() through the
/// slice path; used to prove the two paths bitwise-equal.
[[nodiscard]] std::vector<ParamSlice> full_slices(
    const autograd::ParameterStore& params);

struct OptimizerConfig {
  enum class Kind { kSGD, kAdam };
  Kind kind = Kind::kSGD;
  float lr = 0.1f;
  float weight_decay = 0.0f;
  // SGD
  float momentum = 0.9f;
  // Adam
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
};

[[nodiscard]] std::unique_ptr<Optimizer> make_optimizer(
    autograd::ParameterStore& params, const OptimizerConfig& config);

}  // namespace easyscale::optim
