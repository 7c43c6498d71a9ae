// Trainable parameters and the machinery DDP-style bucketing hangs off of.
//
// Parameters are registered in model construction order; that order is the
// "static reversed topological order" PyTorch uses for the *initial*
// gradient-bucket mapping (§3.3, communication mechanism).  During backward,
// layers mark each parameter whose gradient they produced; that *ready
// order* is what DDP uses to rebuild buckets after the first iteration —
// and what EasyScale-D1 records in checkpoints.
#pragma once

#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "tensor/tensor.hpp"

namespace easyscale::autograd {

struct Parameter {
  int id = -1;  // assigned by ParameterStore::register_parameter
  std::string name;
  tensor::Tensor value;
  tensor::Tensor grad;

  explicit Parameter(std::string param_name, tensor::Shape shape)
      : name(std::move(param_name)), value(shape), grad(std::move(shape)) {}

  [[nodiscard]] std::int64_t numel() const { return value.numel(); }
};

/// Non-owning registry of a model's parameters in registration order.
class ParameterStore {
 public:
  int register_parameter(Parameter* p) {
    ES_CHECK(p != nullptr, "null parameter");
    p->id = static_cast<int>(params_.size());
    params_.push_back(p);
    return p->id;
  }

  [[nodiscard]] const std::vector<Parameter*>& all() const { return params_; }
  [[nodiscard]] std::size_t size() const { return params_.size(); }
  [[nodiscard]] Parameter& at(int id) {
    ES_CHECK(id >= 0 && id < static_cast<int>(params_.size()), "bad param id");
    return *params_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] std::int64_t total_numel() const {
    std::int64_t n = 0;
    for (const auto* p : params_) n += p->numel();
    return n;
  }

  void zero_grads() {
    for (auto* p : params_) p->grad.zero();
  }

  /// Serialize all parameter values (registration order).
  void save_values(ByteWriter& w) const {
    w.write<std::uint64_t>(params_.size());
    for (const auto* p : params_) p->value.save(w);
  }
  void load_values(ByteReader& r) {
    const auto n = r.read<std::uint64_t>();
    ES_CHECK(n == params_.size(), "parameter count mismatch in checkpoint");
    for (auto* p : params_) p->value = tensor::Tensor::load(r);
  }

 private:
  std::vector<Parameter*> params_;
};

/// Records the order parameter gradients become ready during one backward
/// pass (deduplicated: a parameter is marked on its first contribution).
class GradReadyRecorder {
 public:
  void begin(std::size_t num_params) {
    order_.clear();
    seen_.assign(num_params, false);
  }
  void mark(int param_id) {
    if (param_id < 0) return;
    const auto i = static_cast<std::size_t>(param_id);
    if (i < seen_.size() && !seen_[i]) {
      seen_[i] = true;
      order_.push_back(param_id);
    }
  }
  [[nodiscard]] const std::vector<int>& order() const { return order_; }

 private:
  std::vector<int> order_;
  std::vector<bool> seen_;
};

}  // namespace easyscale::autograd
