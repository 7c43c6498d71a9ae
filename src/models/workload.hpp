// The workload interface every Table-1 model implements.
//
// A Workload owns its parameters and layers; trainers (core/, parallel/) drive
// it through train_step (forward + loss + backward, gradients accumulated
// into the ParameterStore) and predict (argmax labels for accuracy
// reporting).  The paper's porting claim ("a few lines of code changing")
// maps to this interface: EasyScale drives the identical object DDP does.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "autograd/parameter.hpp"
#include "autograd/step_context.hpp"
#include "data/sample.hpp"
#include "nn/layer.hpp"

namespace easyscale::models {

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Deterministic weight init (rank-independent, like DDP's broadcast).
  virtual void init(std::uint64_t seed) = 0;

  /// One forward+loss+backward over the batch; returns the mean loss.
  virtual float train_step(autograd::StepContext& ctx,
                           const data::Batch& batch) = 0;

  /// Predicted labels for accuracy evaluation (no gradients).
  virtual std::vector<std::int64_t> predict(autograd::StepContext& ctx,
                                            const data::Batch& batch) = 0;

  [[nodiscard]] autograd::ParameterStore& params() { return params_; }
  [[nodiscard]] const autograd::ParameterStore& params() const {
    return params_;
  }

  /// Per-worker buffers (BatchNorm running stats) — EST context material.
  [[nodiscard]] virtual std::vector<tensor::Tensor*> buffers() { return {}; }

  /// D2 eligibility input: does any layer lower to vendor-tuned kernels?
  [[nodiscard]] virtual bool uses_vendor_tuned_kernels() const = 0;

 protected:
  autograd::ParameterStore params_;
};

/// Factory for the Table-1 zoo.  Valid names: ShuffleNetv2, ResNet50,
/// VGG19, YOLOv3, NeuMF, Bert, Electra, SwinTransformer.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// All Table-1 workload names in paper order.
[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace easyscale::models
