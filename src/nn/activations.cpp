#include "nn/activations.hpp"

#include <cmath>

#include "kernels/exec_context.hpp"
#include "kernels/tanh.hpp"

namespace easyscale::nn {

namespace {
/// Elementwise activations are pure per-index maps — owner-computes with no
/// accumulation at all, so any split is bitwise-safe.
constexpr std::int64_t kActGrain = 4096;
/// tanh/exp-heavy maps amortize dispatch sooner.
constexpr std::int64_t kTranscendentalGrain = 1024;
}  // namespace

Tensor ReLU::forward(StepContext& ctx, const Tensor& x) {
  cached_input_ = x;
  Tensor out(x.shape());
  // Lanewise select — no accumulation, so the vector body is bitwise-equal
  // to the scalar ternary per element.
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  kernels::parallel_for(ctx.ex(), x.numel(), kActGrain,
                        [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
                          if (ops.relu_fwd != nullptr) {
                            ops.relu_fwd(x.raw() + i0, out.raw() + i0,
                                         i1 - i0);
                            return;
                          }
                          for (std::int64_t i = i0; i < i1; ++i) {
                            out.at(i) = x.at(i) > 0.0f ? x.at(i) : 0.0f;
                          }
                        });
  return out;
}

Tensor ReLU::backward(StepContext& ctx, const Tensor& grad_out) {
  Tensor grad_in(grad_out.shape());
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  kernels::parallel_for(
      ctx.ex(), grad_out.numel(), kActGrain,
      [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
        if (ops.relu_bwd != nullptr) {
          ops.relu_bwd(cached_input_.raw() + i0, grad_out.raw() + i0,
                       grad_in.raw() + i0, i1 - i0);
          return;
        }
        for (std::int64_t i = i0; i < i1; ++i) {
          grad_in.at(i) = cached_input_.at(i) > 0.0f ? grad_out.at(i) : 0.0f;
        }
      });
  return grad_in;
}

using kernels::kGeluA;
using kernels::kGeluC;

// GELU's tanh is kernels::tanh_fdlibm, the repository's own port of the
// code glibc runs for std::tanh(float), so its bits do not depend on the
// host's libm.  The vector backends evaluate the same operations lane by
// lane (kernels/simd_impl.hpp), which makes every backend bitwise-equal
// to the scalar loops below.
//
// The forward caches t = tanh(u): the backward needs tanh of the same
// float expression on the same input, so reading the cache gives it the
// same bits without a second tanh.
Tensor GELU::forward(StepContext& ctx, const Tensor& x) {
  cached_input_ = x;
  cached_tanh_ = Tensor(x.shape());
  Tensor out(x.shape());
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  kernels::parallel_for(
      ctx.ex(), x.numel(), kTranscendentalGrain,
      [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
        if (ops.gelu_fwd != nullptr) {
          ops.gelu_fwd(x.raw() + i0, cached_tanh_.raw() + i0, out.raw() + i0,
                       i1 - i0);
          return;
        }
        for (std::int64_t i = i0; i < i1; ++i) {
          const float v = x.at(i);
          const float t =
              kernels::tanh_fdlibm(kGeluC * (v + kGeluA * v * v * v));
          cached_tanh_.at(i) = t;
          out.at(i) = 0.5f * v * (1.0f + t);
        }
      });
  return out;
}

Tensor GELU::backward(StepContext& ctx, const Tensor& grad_out) {
  Tensor grad_in(grad_out.shape());
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  kernels::parallel_for(
      ctx.ex(), grad_out.numel(), kTranscendentalGrain,
      [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
        if (ops.gelu_bwd != nullptr) {
          ops.gelu_bwd(cached_input_.raw() + i0, cached_tanh_.raw() + i0,
                       grad_out.raw() + i0, grad_in.raw() + i0, i1 - i0);
          return;
        }
        for (std::int64_t i = i0; i < i1; ++i) {
          const float v = cached_input_.at(i);
          const float t = cached_tanh_.at(i);
          const float du = kGeluC * (1.0f + 3.0f * kGeluA * v * v);
          const float d = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
          grad_in.at(i) = grad_out.at(i) * d;
        }
      });
  return grad_in;
}

Tensor Sigmoid::forward(StepContext& ctx, const Tensor& x) {
  Tensor out(x.shape());
  kernels::parallel_for(ctx.ex(), x.numel(), kTranscendentalGrain,
                        [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
                          for (std::int64_t i = i0; i < i1; ++i) {
                            out.at(i) = 1.0f / (1.0f + std::exp(-x.at(i)));
                          }
                        });
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(StepContext& ctx, const Tensor& grad_out) {
  Tensor grad_in(grad_out.shape());
  // Pure per-index map (g * s) * (1 - s); the vector body keeps the same
  // left-to-right multiply order per lane.
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  kernels::parallel_for(
      ctx.ex(), grad_out.numel(), kActGrain,
      [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
        if (ops.sigmoid_bwd != nullptr) {
          ops.sigmoid_bwd(cached_output_.raw() + i0, grad_out.raw() + i0,
                          grad_in.raw() + i0, i1 - i0);
          return;
        }
        for (std::int64_t i = i0; i < i1; ++i) {
          const float s = cached_output_.at(i);
          grad_in.at(i) = grad_out.at(i) * s * (1.0f - s);
        }
      });
  return grad_in;
}

}  // namespace easyscale::nn
