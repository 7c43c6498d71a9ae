#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "kernels/simd.hpp"
#include "tensor/ops.hpp"

namespace easyscale::nn {

MultiheadSelfAttention::MultiheadSelfAttention(std::string name,
                                               std::int64_t dim,
                                               std::int64_t heads)
    : dim_(dim),
      heads_(heads),
      head_dim_(dim / heads),
      wq_(name + ".q", dim, dim),
      wk_(name + ".k", dim, dim),
      wv_(name + ".v", dim, dim),
      wo_(name + ".o", dim, dim) {
  ES_CHECK(dim % heads == 0, "attention dim not divisible by heads");
}

void MultiheadSelfAttention::register_parameters(ParameterStore& store) {
  wq_.register_parameters(store);
  wk_.register_parameters(store);
  wv_.register_parameters(store);
  wo_.register_parameters(store);
}

void MultiheadSelfAttention::init_weights(rng::Philox& init) {
  wq_.init_weights(init);
  wk_.init_weights(init);
  wv_.init_weights(init);
  wo_.init_weights(init);
}

namespace {

/// c_row[j] = sum over kk of a_row[kk] * b[kk * ldb + j], for j in [0, n):
/// one +0-started accumulator per output, kk ascending.  That is
/// GemmVariant::kSequential, whose vector panel replays the same chain per
/// lane, so both bodies store the same bits.
void row_panel(const kernels::SimdOps& ops, const float* a_row,
               const float* b, std::int64_t k, std::int64_t ldb,
               std::int64_t n, float* c_row) {
  if (ops.gemm_panel != nullptr) {
    ops.gemm_panel(kernels::GemmVariant::kSequential, a_row, b, k, ldb, 0, n,
                   c_row, /*accumulate=*/false);
    return;
  }
  for (std::int64_t j = 0; j < n; ++j) {
    float acc = 0.0f;
    for (std::int64_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b[kk * ldb + j];
    c_row[j] = acc;
  }
}

/// C[m, n] = A[m, k] * B[k, n], one row panel per row of C; lda, ldb and
/// ldc are row strides, so head slices are read and written in place.
void panel_product(const kernels::SimdOps& ops, const float* a,
                   std::int64_t lda, std::int64_t m, std::int64_t k,
                   const float* b, std::int64_t ldb, std::int64_t n, float* c,
                   std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    row_panel(ops, a + i * lda, b, k, ldb, n, c + i * ldc);
  }
}

/// dst[c * rows + r] = src[r * lds + c]: the transpose of a [rows, cols]
/// block, packed dense.  Pure data movement.
void pack_transpose(const float* src, std::int64_t lds, std::int64_t rows,
                    std::int64_t cols, float* dst) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      dst[c * rows + r] = src[r * lds + c];
    }
  }
}

/// Scaled softmax of one score row in place.  The max starts from the
/// row's own first score, so a row whose scores all lie below any fixed
/// floor still has one exp(0) = 1 term.  exp and the denominator stay
/// scalar (libm order); only the divide is lanewise.
void softmax_row(const kernels::SimdOps& ops, float* row, std::int64_t t,
                 float scale) {
  for (std::int64_t j = 0; j < t; ++j) row[j] = row[j] * scale;
  float row_max = row[0];
  for (std::int64_t j = 1; j < t; ++j) row_max = std::max(row_max, row[j]);
  float denom = 0.0f;
  for (std::int64_t j = 0; j < t; ++j) {
    row[j] = std::exp(row[j] - row_max);
    denom += row[j];
  }
  if (ops.div_scalar != nullptr) {
    ops.div_scalar(row, denom, t);
  } else {
    for (std::int64_t j = 0; j < t; ++j) row[j] /= denom;
  }
}

/// Chunk grain: about 16K multiply-adds per chunk.
std::int64_t plane_grain(std::int64_t t, std::int64_t head_dim) {
  return std::max<std::int64_t>(
      1, 16384 / std::max<std::int64_t>(1, t * t * head_dim));
}

}  // namespace

// Each (sample, head) plane is a handful of row-panel products over its
// head-offset column slice; planes write disjoint memory, so the work is
// owner-computes over n*heads and the thread count cannot change bits.
Tensor MultiheadSelfAttention::forward(StepContext& ctx, const Tensor& x) {
  ES_CHECK(x.shape().rank() == 3 && x.shape().dim(2) == dim_,
           "attention expects [N, T, D]");
  const std::int64_t n = x.shape().dim(0), t = x.shape().dim(1);
  const std::int64_t hd = head_dim_;
  cached_in_shape_ = x.shape();
  const Tensor flat = x.reshaped(Shape{n * t, dim_});
  cached_q_ = wq_.forward(ctx, flat);
  cached_k_ = wk_.forward(ctx, flat);
  cached_v_ = wv_.forward(ctx, flat);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));

  cached_probs_ = Tensor(Shape{n, heads_, t, t});
  Tensor ctx_out(Shape{n * t, dim_});
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  kernels::parallel_for(
      ctx.ex(), n * heads_, plane_grain(t, hd),
      [&](int /*chunk*/, std::int64_t p0, std::int64_t p1) {
        std::vector<float> k_t(static_cast<std::size_t>(hd * t));
        for (std::int64_t p = p0; p < p1; ++p) {
          const std::int64_t base = (p / heads_) * t * dim_ + (p % heads_) * hd;
          float* probs = cached_probs_.raw() + p * t * t;
          // S = Q_h K_h^T, then the scaled softmax row by row.
          pack_transpose(cached_k_.raw() + base, dim_, t, hd, k_t.data());
          panel_product(ops, cached_q_.raw() + base, dim_, t, hd, k_t.data(),
                        t, t, probs, t);
          for (std::int64_t i = 0; i < t; ++i) {
            softmax_row(ops, probs + i * t, t, inv_sqrt);
          }
          // ctx_h = P V_h, V read in place.
          panel_product(ops, probs, t, t, t, cached_v_.raw() + base, dim_, hd,
                        ctx_out.raw() + base, dim_);
        }
      });
  Tensor out = wo_.forward(ctx, ctx_out);
  return out.reshaped(Shape{n, t, dim_});
}

Tensor MultiheadSelfAttention::backward(StepContext& ctx,
                                        const Tensor& grad_out) {
  const std::int64_t n = cached_in_shape_.dim(0), t = cached_in_shape_.dim(1);
  const std::int64_t hd = head_dim_;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
  const Tensor g_flat = grad_out.reshaped(Shape{n * t, dim_});
  const Tensor d_ctx = wo_.backward(ctx, g_flat);

  Tensor dq(Shape{n * t, dim_}), dk(Shape{n * t, dim_}), dv(Shape{n * t, dim_});
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  kernels::parallel_for(
      ctx.ex(), n * heads_, plane_grain(t, hd),
      [&](int /*chunk*/, std::int64_t p0, std::int64_t p1) {
        // `packed` holds V_h^T, then P^T, then dS^T; `ds` holds dP, then dS.
        std::vector<float> packed(
            static_cast<std::size_t>(std::max(hd, t) * t));
        std::vector<float> ds(static_cast<std::size_t>(t * t));
        for (std::int64_t p = p0; p < p1; ++p) {
          const std::int64_t base = (p / heads_) * t * dim_ + (p % heads_) * hd;
          const float* probs = cached_probs_.raw() + p * t * t;
          const float* dc = d_ctx.raw() + base;
          // dP = dC_h V_h^T
          pack_transpose(cached_v_.raw() + base, dim_, t, hd, packed.data());
          panel_product(ops, dc, dim_, t, hd, packed.data(), t, t, ds.data(),
                        t);
          // dV_h = P^T dC_h
          pack_transpose(probs, t, t, t, packed.data());
          panel_product(ops, packed.data(), t, t, t, dc, dim_, hd,
                        dv.raw() + base, dim_);
          // Softmax backward in place: dS = P * (dP - rowdot(P, dP)) * scale
          for (std::int64_t i = 0; i < t; ++i) {
            const float* prow = probs + i * t;
            float* drow = ds.data() + i * t;
            float dot = 0.0f;
            for (std::int64_t j = 0; j < t; ++j) dot += prow[j] * drow[j];
            for (std::int64_t j = 0; j < t; ++j) {
              drow[j] = prow[j] * (drow[j] - dot) * inv_sqrt;
            }
          }
          // dQ_h = dS K_h and dK_h = dS^T Q_h
          panel_product(ops, ds.data(), t, t, t, cached_k_.raw() + base, dim_,
                        hd, dq.raw() + base, dim_);
          pack_transpose(ds.data(), t, t, t, packed.data());
          panel_product(ops, packed.data(), t, t, t, cached_q_.raw() + base,
                        dim_, hd, dk.raw() + base, dim_);
        }
      });
  // Backward through the projections; all three saw the same input.
  Tensor dx = wv_.backward(ctx, dv);
  tensor::add_(ctx.ex(), dx, wk_.backward(ctx, dk));
  tensor::add_(ctx.ex(), dx, wq_.backward(ctx, dq));
  return dx.reshaped(cached_in_shape_);
}

}  // namespace easyscale::nn
