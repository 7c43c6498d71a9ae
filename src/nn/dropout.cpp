#include "nn/dropout.hpp"

#include "kernels/exec_context.hpp"

namespace easyscale::nn {

namespace {
/// The mask apply and the backward are pure per-index maps.
constexpr std::int64_t kMaskGrain = 4096;
}  // namespace

Tensor Dropout::forward(StepContext& ctx, const Tensor& x) {
  if (!ctx.training || p_ == 0.0f) {
    cached_mask_ = Tensor();
    return x;
  }
  const float scale = 1.0f / (1.0f - p_);
  cached_mask_ = Tensor(x.shape());
  Tensor out(x.shape());
  // The draws stay sequential: each element consumes one draw from the
  // shared RNG stream in index order, so the draw order IS the mask.  The
  // bulk draw fills the mask buffer with exactly the floats element-wise
  // next_float() calls would return; the threshold and the multiply are
  // then a pure per-index map, split and vectorized freely.
  float* mask = cached_mask_.raw();
  ctx.torch_rng().fill_floats(mask, x.numel());
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  kernels::parallel_for(
      ctx.ex(), x.numel(), kMaskGrain,
      [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
        if (ops.dropout_fwd != nullptr) {
          ops.dropout_fwd(mask + i0, p_, scale, x.raw() + i0, mask + i0,
                          out.raw() + i0, i1 - i0);
          return;
        }
        for (std::int64_t i = i0; i < i1; ++i) {
          const float keep = mask[i] >= p_ ? scale : 0.0f;
          mask[i] = keep;
          out.at(i) = x.at(i) * keep;
        }
      });
  return out;
}

Tensor Dropout::backward(StepContext& ctx, const Tensor& grad_out) {
  if (!cached_mask_.defined()) return grad_out;
  Tensor grad_in(grad_out.shape());
  kernels::parallel_for(
      ctx.ex(), grad_out.numel(), kMaskGrain,
      [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          grad_in.at(i) = grad_out.at(i) * cached_mask_.at(i);
        }
      });
  return grad_in;
}

}  // namespace easyscale::nn
