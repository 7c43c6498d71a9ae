// Stateless pointwise activations (caches only the forward mask / input).
#pragma once

#include "nn/layer.hpp"

namespace easyscale::nn {

class ReLU : public Layer {
 public:
  Tensor forward(StepContext& ctx, const Tensor& x) override;
  Tensor backward(StepContext& ctx, const Tensor& grad_out) override;
  [[nodiscard]] const char* kind() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

/// tanh-approximated GELU (the approximation used by BERT).  The tanh is
/// kernels::tanh_fdlibm, the repository's own port of glibc's tanhf, and
/// the vector backends run it lane by lane (SimdOps::gelu_fwd/gelu_bwd),
/// so every backend gives the scalar loop's bits on any host.
class GELU : public Layer {
 public:
  Tensor forward(StepContext& ctx, const Tensor& x) override;
  Tensor backward(StepContext& ctx, const Tensor& grad_out) override;
  [[nodiscard]] const char* kind() const override { return "GELU"; }

 private:
  Tensor cached_input_;
  Tensor cached_tanh_;  // tanh(sqrt(2/pi) * (x + 0.044715 x^3)) per element
};

class Sigmoid : public Layer {
 public:
  Tensor forward(StepContext& ctx, const Tensor& x) override;
  Tensor backward(StepContext& ctx, const Tensor& grad_out) override;
  [[nodiscard]] const char* kind() const override { return "Sigmoid"; }

 private:
  Tensor cached_output_;
};

}  // namespace easyscale::nn
