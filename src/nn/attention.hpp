// Multi-head self-attention over [N, T, D] inputs (BERT / Electra / Swin
// mini models).  The four projections are Linear layers on the GEMM entry
// point; per (sample, head) the score, context and gradient products are
// row panels of the sequential GEMM variant (SimdOps::gemm_panel), the
// same order on every device, plus a scalar softmax.  Nothing here needs a
// slow canonical kernel, which is why the paper's attention-based
// workloads show ~0 D2 overhead (Fig 12).
#pragma once

#include "nn/linear.hpp"

namespace easyscale::nn {

class MultiheadSelfAttention : public Layer {
 public:
  MultiheadSelfAttention(std::string name, std::int64_t dim,
                         std::int64_t heads);

  Tensor forward(StepContext& ctx, const Tensor& x) override;
  Tensor backward(StepContext& ctx, const Tensor& grad_out) override;
  void register_parameters(ParameterStore& store) override;
  void init_weights(rng::Philox& init) override;
  [[nodiscard]] const char* kind() const override {
    return "MultiheadSelfAttention";
  }

 private:
  std::int64_t dim_;
  std::int64_t heads_;
  std::int64_t head_dim_;
  Linear wq_, wk_, wv_, wo_;
  // Forward caches.
  Tensor cached_q_, cached_k_, cached_v_;  // [N*T, D]
  Tensor cached_probs_;                    // [N, heads, T, T]
  Shape cached_in_shape_;
};

}  // namespace easyscale::nn
