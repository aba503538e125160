#pragma once

#include "src/nn/module.h"

namespace pipemare::nn {

/// Inverted dropout: during training (Flow::training), zeroes each
/// activation with probability `rate` and scales survivors by 1/(1-rate);
/// identity at evaluation. The paper's Transformer recipes use dropout
/// 0.3 (IWSLT) / 0.1 (WMT), Table 7.
///
/// Masks come from a *counter-based* stream (util::counter_uniform): each
/// mask bit is a pure function of (module seed, optimizer step, microbatch
/// index, element index), with step and micro stamped on the Flow by the
/// execution engines. No mutable RNG state means
///  - forward mutates no module state, so the whole-model-replica
///    backends (threaded Hogwild) can run dropout models;
///  - masks are independent of draw order, so every engine produces
///    bitwise-identical masks for the same (step, micro);
///  - activation recomputation replays the exact forward mask (the
///    checkpointed Flow carries the same counters).
/// The mask is still cached for the backward pass, which must apply the
/// forward mask even under asynchronous weight versions.
class Dropout : public Module {
 public:
  explicit Dropout(double rate, std::uint64_t seed = 0xd50b0457ULL);

  std::string name() const override { return "Dropout"; }
  ModuleCost cost(const CostShapes& shapes) const override;
  Flow forward(const Flow& in, std::span<const float> w, Cache& cache) const override;
  Flow backward(const Flow& dout, std::span<const float> w_bkwd, const Cache& cache,
                std::span<float> grad) const override;

 private:
  double rate_;
  std::uint64_t seed_;  ///< stream key; give each instance a distinct seed
};

}  // namespace pipemare::nn
