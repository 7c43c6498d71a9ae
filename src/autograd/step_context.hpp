// Per-mini-batch execution context threaded through every layer.
//
// Carries exactly the state the paper identifies as consistency-relevant:
// which device/kernel policy is active, which RNG streams this (virtual)
// worker draws from, train/eval mode, and the optional grad-ready recorder
// used by DDP bucket rebuilds.
#pragma once

#include "autograd/parameter.hpp"
#include "kernels/exec_context.hpp"
#include "rng/stream_set.hpp"

namespace easyscale::autograd {

struct StepContext {
  const kernels::ExecContext* exec = nullptr;
  rng::StreamSet* rng = nullptr;
  bool training = true;
  GradReadyRecorder* grad_ready = nullptr;

  [[nodiscard]] const kernels::ExecContext& ex() const {
    ES_CHECK(exec != nullptr, "StepContext without ExecContext");
    return *exec;
  }
  [[nodiscard]] rng::Philox& torch_rng() const {
    ES_CHECK(rng != nullptr, "StepContext without RNG streams");
    return rng->stream(rng::StreamKind::kTorch);
  }
  void mark_ready(int param_id) const {
    if (grad_ready != nullptr) grad_ready->mark(param_id);
  }
};

}  // namespace easyscale::autograd
