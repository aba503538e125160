// The "threaded" registry backend: stage-per-thread scheduling on the
// worker pool (sched::StealingEngine with one worker per stage and
// stealing disabled). Bitwise parity with the sequential PipelineEngine
// for every method and partition, the per-stage load counters, the
// non-finite contract, and the 1F1B in-flight bound swept over (P, N) and
// over stealing schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/core/backend.h"
#include "src/core/engine_backend.h"
#include "src/core/stage_load.h"
#include "src/core/task.h"
#include "src/core/trainer.h"
#include "src/nn/activations.h"
#include "src/nn/heads.h"
#include "src/nn/linear.h"
#include "src/nn/model.h"
#include "src/nn/resnet.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/partition.h"
#include "src/util/rng.h"

namespace pipemare::pipeline {
namespace {

using Backend = std::unique_ptr<core::ExecutionBackend>;

Backend make_backend(nn::Model model, const core::BackendConfig& backend,
                     const EngineConfig& ec) {
  return core::BackendRegistry::instance().create(std::move(model), backend, ec, 1);
}

Backend make_threaded(nn::Model model, const EngineConfig& ec) {
  return make_backend(std::move(model), "threaded", ec);
}

/// The engine behind a "threaded" / "threaded_steal" backend.
const sched::StealingEngine& steal_engine(const core::ExecutionBackend& backend) {
  return dynamic_cast<const core::ThreadedStealBackend&>(backend).engine();
}

nn::Model make_parity_model() {
  nn::ResNetConfig mc;
  mc.base_channels = 8;
  mc.blocks_per_group = {1, 1};
  return nn::make_resnet(mc);
}

/// Small CNN + random classification microbatches shared by the parity
/// tests (same recipe as bench/micro_engine's engine benchmark).
struct ParityFixture {
  nn::Model model = make_parity_model();
  nn::ClassificationXent head;
  std::vector<nn::Flow> inputs;
  std::vector<tensor::Tensor> targets;

  explicit ParityFixture(int num_micro, std::uint64_t seed = 3) {
    util::Rng rng(seed);
    for (int m = 0; m < num_micro; ++m) {
      nn::Flow f;
      f.x = tensor::Tensor({2, 3, 8, 8});
      for (std::int64_t i = 0; i < f.x.size(); ++i) {
        f.x[i] = static_cast<float>(rng.normal());
      }
      tensor::Tensor t({2});
      for (int j = 0; j < 2; ++j) t[j] = static_cast<float>(rng.randint(10));
      inputs.push_back(std::move(f));
      targets.push_back(std::move(t));
    }
  }
};

EngineConfig parity_config(Method method, int stages, int micro) {
  EngineConfig ec;
  ec.method = method;
  ec.num_stages = stages;
  ec.num_microbatches = micro;
  return ec;
}

/// Runs `steps` SGD steps on the sequential engine and `thr`, asserting
/// bitwise-equal losses and gradients at every step and equal weights at
/// the end.
void expect_parity_steps(PipelineEngine& seq, core::ExecutionBackend& thr,
                         const std::vector<nn::Flow>& inputs,
                         const std::vector<tensor::Tensor>& targets,
                         const nn::LossHead& head, int steps, const std::string& label) {
  for (int step = 0; step < steps; ++step) {
    auto rs = seq.forward_backward(inputs, targets, head);
    auto rt = thr.forward_backward(inputs, targets, head);
    ASSERT_EQ(rs.finite, rt.finite) << label << " step " << step;
    ASSERT_DOUBLE_EQ(rs.loss, rt.loss) << label << " step " << step;
    ASSERT_DOUBLE_EQ(rs.correct, rt.correct) << label << " step " << step;
    auto gs = seq.gradients();
    auto gt = thr.gradients();
    ASSERT_EQ(gs.size(), gt.size()) << label;
    for (std::size_t i = 0; i < gs.size(); ++i) {
      ASSERT_EQ(gs[i], gt[i]) << label << " grad " << i << " at step " << step;
    }
    for (std::size_t i = 0; i < gs.size(); ++i) {
      seq.weights()[i] -= 0.05F * gs[i];
      thr.weights()[i] -= 0.05F * gt[i];
    }
    seq.commit_update();
    thr.commit_update();
  }
  for (std::size_t i = 0; i < seq.weights().size(); ++i) {
    ASSERT_EQ(seq.weights()[i], thr.weights()[i]) << label << " weight " << i;
  }
}

void expect_bitwise_parity(EngineConfig ec, int steps) {
  ParityFixture fx(ec.num_microbatches);
  PipelineEngine seq(fx.model, ec, 1);
  auto thr = make_threaded(make_parity_model(), ec);
  expect_parity_steps(seq, *thr, fx.inputs, fx.targets, fx.head, steps,
                      method_name(ec.method));
}

TEST(ThreadedBackend, BitwiseParityWithSequentialSync) {
  expect_bitwise_parity(parity_config(Method::Sync, 4, 4), 5);
}

TEST(ThreadedBackend, BitwiseParityWithSequentialPipeDream) {
  expect_bitwise_parity(parity_config(Method::PipeDream, 4, 4), 5);
}

TEST(ThreadedBackend, BitwiseParityWithSequentialPipeMare) {
  expect_bitwise_parity(parity_config(Method::PipeMare, 4, 4), 5);
}

TEST(ThreadedBackend, BitwiseParityWithDiscrepancyCorrection) {
  auto ec = parity_config(Method::PipeMare, 6, 2);
  ec.discrepancy_correction = true;
  ec.decay_d = 0.25;
  expect_bitwise_parity(ec, 5);
}

TEST(ThreadedBackend, BitwiseParityWithSplitBiasUnits) {
  // split_bias can schedule a module's bias unit on the stage after the
  // one executing the module; the threaded backend must still version that
  // unit by its own scheduled stage.
  ParityFixture fx(2);
  int stages = max_stages(fx.model, true);
  auto ec = parity_config(Method::PipeMare, stages, 2);
  ec.split_bias = true;
  expect_bitwise_parity(ec, 3);
}

TEST(ThreadedBackend, SingleStageDegeneratesToSequential) {
  expect_bitwise_parity(parity_config(Method::PipeMare, 1, 4), 3);
}

TEST(ThreadedBackend, BitwiseParityWithBalancedPartition) {
  // Both engines derive the same cost-balanced partition from the shared
  // spec, so the parity guarantee is strategy-independent.
  ParityFixture fx(4);
  auto ec = parity_config(Method::PipeMare, 4, 4);
  ec.partition.strategy = PartitionStrategy::Balanced;
  ec.partition.probe = std::make_shared<const nn::Flow>(fx.inputs.at(0));
  PipelineEngine seq(fx.model, ec, 1);
  auto thr = make_threaded(make_parity_model(), ec);
  ASSERT_NE(thr->partition(), nullptr);
  EXPECT_EQ(seq.partition().unit_stage, thr->partition()->unit_stage);
  EXPECT_EQ(thr->partition()->strategy, PartitionStrategy::Balanced);
  expect_parity_steps(seq, *thr, fx.inputs, fx.targets, fx.head, 3, "balanced");
}

TEST(ThreadedBackend, StageStatsTrackPerStageLoad) {
  const int stages = 3;
  const int micro = 4;
  ParityFixture fx(micro);
  auto thr = make_threaded(make_parity_model(),
                           parity_config(Method::PipeMare, stages, micro));

  auto before = thr->stage_stats();
  ASSERT_EQ(before.size(), static_cast<std::size_t>(stages));
  for (const auto& s : before) {
    EXPECT_EQ(s.busy_ns, 0u);
    EXPECT_EQ(s.items, 0u);
  }

  const int steps = 2;
  for (int step = 0; step < steps; ++step) {
    (void)thr->forward_backward(fx.inputs, fx.targets, fx.head);
    thr->commit_update();
  }

  auto after = thr->stage_stats();
  for (int s = 0; s < stages; ++s) {
    const auto& st = after[static_cast<std::size_t>(s)];
    EXPECT_GT(st.busy_ns, 0u) << "stage " << s;
    // Every stage, the tail included, runs N forwards + N backwards per
    // minibatch; nothing is stolen with stealing disabled.
    EXPECT_EQ(st.items, static_cast<std::uint64_t>(steps * micro * 2)) << "stage " << s;
    EXPECT_EQ(st.stolen_items, 0u) << "stage " << s;
  }

  thr->reset_stage_stats();
  for (const auto& s : thr->stage_stats()) {
    EXPECT_EQ(s.busy_ns, 0u);
    EXPECT_EQ(s.pop_wait_ns, 0u);
    EXPECT_EQ(s.push_wait_ns, 0u);
    EXPECT_EQ(s.items, 0u);
  }
}

TEST(ThreadedBackend, StageLoadObserverSamplesEpochDeltas) {
  ParityFixture fx(2);
  auto thr = make_threaded(make_parity_model(), parity_config(Method::PipeMare, 2, 2));
  core::StageLoadObserver load(*thr);
  ASSERT_TRUE(load.active());
  for (int epoch = 0; epoch < 2; ++epoch) {
    (void)thr->forward_backward(fx.inputs, fx.targets, fx.head);
    thr->commit_update();
    core::EpochRecord rec;
    load.on_epoch(rec);
  }
  ASSERT_EQ(load.epoch_stats().size(), 2u);
  for (const auto& epoch : load.epoch_stats()) {
    ASSERT_EQ(epoch.size(), 2u);
    for (const auto& s : epoch) EXPECT_GT(s.items, 0u);
  }
  EXPECT_GE(core::StageLoadObserver::busy_spread(load.totals()), 1.0);
}

TEST(ThreadedBackend, BitwiseParityWithDropoutStreams) {
  // Dropout masks are counter-based: pure functions of (module seed, step,
  // micro, element) stamped on the Flow, so the threaded backend reproduces
  // the sequential engine's masks bitwise regardless of worker timing.
  data::TranslationConfig d;
  d.vocab = 12;
  d.seq_len = 5;
  d.train_size = 32;
  d.test_size = 8;
  d.seed = 3;
  nn::TransformerConfig mc;
  mc.d_model = 16;
  mc.heads = 2;
  mc.enc_layers = 1;
  mc.dec_layers = 1;
  mc.ffn_hidden = 24;
  mc.dropout = 0.3;
  core::TranslationTask task(d, mc, "tiny-dropout", /*eval=*/8);
  nn::Model model_seq = task.build_model();

  auto ec = parity_config(Method::PipeMare, 4, 2);
  PipelineEngine seq(model_seq, ec, 1);
  auto thr = make_threaded(task.build_model(), ec);

  auto mb = task.minibatch({0, 1, 2, 3}, 2);
  expect_parity_steps(seq, *thr, mb.inputs, mb.targets, task.loss(), 3, "dropout");
}

TEST(ThreadedBackend, MatchesSequentialStalenessStatistics) {
  auto ec = parity_config(Method::PipeMare, 8, 4);
  ParityFixture fx(ec.num_microbatches);
  PipelineEngine seq(fx.model, ec, 1);
  auto thr = make_threaded(make_parity_model(), ec);
  auto tau_s = seq.stage_tau_fwd();
  auto tau_t = thr->stage_tau_fwd();
  ASSERT_EQ(tau_s.size(), tau_t.size());
  for (std::size_t s = 0; s < tau_s.size(); ++s) {
    EXPECT_DOUBLE_EQ(tau_s[s], tau_t[s]);
    // The paper's closed form (2(P-i)+1)/N for 1-indexed stage i.
    EXPECT_DOUBLE_EQ(tau_t[s], (2.0 * (8 - 1 - static_cast<double>(s)) + 1.0) / 4.0);
  }
  // Stage-per-thread: one home worker per stage, stealing disabled.
  const auto& eng = steal_engine(*thr);
  EXPECT_EQ(eng.num_workers(), 8);
  EXPECT_EQ(eng.config().mode, sched::StealMode::Disabled);
  EXPECT_EQ(thr->name(), "threaded");
}

TEST(ThreadedBackend, RejectsRecomputeSegments) {
  auto ec = parity_config(Method::PipeMare, 4, 2);
  ec.recompute_segments = 2;
  EXPECT_THROW(make_threaded(make_parity_model(), ec), std::invalid_argument);
}

TEST(ThreadedBackend, TrainLoopParityOnTinyTranslation) {
  // End-to-end: core::train drives either engine to the same loss
  // trajectory and metric curve (Sync and fully-async PipeMare).
  data::TranslationConfig d;
  d.vocab = 12;
  d.seq_len = 5;
  d.train_size = 64;
  d.test_size = 16;
  d.seed = 3;
  nn::TransformerConfig m;
  m.d_model = 16;
  m.heads = 2;
  m.enc_layers = 1;
  m.dec_layers = 1;
  m.ffn_hidden = 24;
  core::TranslationTask task(d, m, "tiny-parity", /*eval=*/8);

  for (auto method : {Method::Sync, Method::PipeMare}) {
    core::TrainerConfig cfg;
    cfg.epochs = 2;
    cfg.minibatch_size = 16;
    cfg.microbatch_size = 4;
    cfg.optimizer = core::TrainerConfig::Opt::AdamW;
    cfg.schedule = core::TrainerConfig::Sched::InverseSqrt;
    cfg.lr = 4e-3;
    cfg.sched_warmup_steps = 10;
    cfg.seed = 7;
    cfg.engine.method = method;
    cfg.engine.num_stages = 4;

    auto seq_res = core::train(task, cfg);
    cfg.backend = "threaded";
    auto thr_res = core::train(task, cfg);

    ASSERT_EQ(seq_res.curve.size(), thr_res.curve.size()) << method_name(method);
    for (std::size_t e = 0; e < seq_res.curve.size(); ++e) {
      EXPECT_DOUBLE_EQ(seq_res.curve[e].train_loss, thr_res.curve[e].train_loss)
          << method_name(method) << " epoch " << e;
      EXPECT_DOUBLE_EQ(seq_res.curve[e].metric, thr_res.curve[e].metric)
          << method_name(method) << " epoch " << e;
      EXPECT_DOUBLE_EQ(seq_res.curve[e].param_norm, thr_res.curve[e].param_norm)
          << method_name(method) << " epoch " << e;
    }
  }
}

/// A deep MLP of `layers` Linear(+ReLU) blocks: `layers` weight units, so
/// any P <= layers partitions cleanly; uniform per-layer cost.
nn::Model make_stress_mlp(int layers, int width, int classes) {
  nn::Model m;
  for (int i = 0; i < layers; ++i) {
    m.add(std::make_unique<nn::Linear>(width, width, /*relu_init=*/true));
    m.add(std::make_unique<nn::ReLU>());
  }
  m.add(std::make_unique<nn::Linear>(width, classes));
  return m;
}

TEST(ThreadedBackend, StressSweepHoldsOneFOneBBound) {
  // Sweep (P, N) in {1..4} x {1..8} over the "threaded" backend (stealing
  // disabled, W = P) and forced stealing with W in {1, 2, 5}. Every config
  // must (a) stay bitwise-identical to the sequential engine
  // (deadlock-freedom + correctness under the credit gate), (b) run
  // exactly N forwards + N backwards on every stage per step, and (c)
  // keep each stage's peak in-flight count within the 1F1B warmup depth
  // max(1, min(N, P - s)) for 0-indexed stage s, however the tasks are
  // scheduled.
  constexpr int kClasses = 6;
  constexpr int kSteps = 3;
  nn::ClassificationXent head;
  std::vector<core::BackendConfig> schedules = {core::BackendConfig("threaded")};
  for (int w : {1, 2, 5}) {
    schedules.emplace_back("threaded_steal",
                           core::StealOptions{w, sched::StealMode::Forced, false});
  }
  for (int p = 1; p <= 4; ++p) {
    for (int n = 1; n <= 8; ++n) {
      util::Rng rng(17);
      std::vector<nn::Flow> inputs;
      std::vector<tensor::Tensor> targets;
      for (int m = 0; m < n; ++m) {
        nn::Flow f;
        f.x = tensor::Tensor({2, 12});
        for (std::int64_t i = 0; i < f.x.size(); ++i) {
          f.x[i] = static_cast<float>(rng.normal());
        }
        tensor::Tensor t({2});
        for (int j = 0; j < 2; ++j) t[j] = static_cast<float>(rng.randint(kClasses));
        inputs.push_back(std::move(f));
        targets.push_back(std::move(t));
      }

      auto ec = parity_config(Method::PipeMare, p, n);
      for (const auto& schedule : schedules) {
        const auto* opts = std::get_if<core::StealOptions>(&schedule.options);
        const std::string label = "P=" + std::to_string(p) + " N=" + std::to_string(n) +
                                  " " + schedule.name + " W=" +
                                  std::to_string(opts != nullptr ? opts->workers : p);
        nn::Model model = make_stress_mlp(/*layers=*/4, /*width=*/12, kClasses);
        PipelineEngine seq(model, ec, 1);
        auto thr = make_backend(make_stress_mlp(/*layers=*/4, /*width=*/12, kClasses),
                                schedule, ec);
        std::vector<StageStats> prev = thr->stage_stats();
        for (int step = 0; step < kSteps; ++step) {
          expect_parity_steps(seq, *thr, inputs, targets, head, 1,
                              label + " step " + std::to_string(step));
          auto now = thr->stage_stats();
          ASSERT_EQ(now.size(), static_cast<std::size_t>(p)) << label;
          for (int s = 0; s < p; ++s) {
            const auto idx = static_cast<std::size_t>(s);
            EXPECT_EQ(now[idx].items - prev[idx].items, static_cast<std::uint64_t>(2 * n))
                << label << " step " << step << " stage " << s;
          }
          prev = std::move(now);
        }

        auto peak = steal_engine(*thr).peak_in_flight();
        ASSERT_EQ(peak.size(), static_cast<std::size_t>(p)) << label;
        for (int s = 0; s < p; ++s) {
          const int bound = std::max(1, std::min(n, p - s));
          const int observed = peak[static_cast<std::size_t>(s)];
          EXPECT_GE(observed, 1) << label << " s=" << s;
          EXPECT_LE(observed, bound) << label << " s=" << s;
        }
      }
    }
  }
}

TEST(ThreadedBackend, NonFiniteLossContractMatchesSequential) {
  // Unified StepResult contract: first non-finite loss, zeroed metrics.
  constexpr int kClasses = 6;
  auto ec = parity_config(Method::PipeMare, 4, 4);
  // Linear-only chain: ReLU maps NaN to 0 (x > 0 ? x : 0), so an
  // activation would wash the poison out before it reaches the loss.
  auto make_model = [&] {
    nn::Model model;
    for (int i = 0; i < 4; ++i) {
      model.add(std::make_unique<nn::Linear>(12, 12));
    }
    model.add(std::make_unique<nn::Linear>(12, kClasses));
    return model;
  };
  nn::Model model = make_model();
  nn::ClassificationXent head;
  util::Rng rng(17);
  std::vector<nn::Flow> inputs;
  std::vector<tensor::Tensor> targets;
  for (int m = 0; m < ec.num_microbatches; ++m) {
    nn::Flow f;
    f.x = tensor::Tensor({2, 12});
    for (std::int64_t i = 0; i < f.x.size(); ++i) {
      f.x[i] = static_cast<float>(rng.normal());
    }
    tensor::Tensor t({2});
    for (int j = 0; j < 2; ++j) t[j] = static_cast<float>(rng.randint(kClasses));
    inputs.push_back(std::move(f));
    targets.push_back(std::move(t));
  }
  // Poison microbatch 2 so earlier microbatches accumulate loss/metrics
  // that the contract requires the engines to discard. (An MLP propagates
  // the NaN to the loss; normalization layers could wash out mere infs.)
  for (std::int64_t i = 0; i < inputs[2].x.size(); ++i) {
    inputs[2].x[i] = std::numeric_limits<float>::quiet_NaN();
  }
  PipelineEngine seq(model, ec, 1);
  auto thr = make_threaded(make_model(), ec);
  auto rs = seq.forward_backward(inputs, targets, head);
  auto rt = thr->forward_backward(inputs, targets, head);
  EXPECT_FALSE(rs.finite);
  EXPECT_FALSE(rt.finite);
  EXPECT_FALSE(std::isfinite(rs.loss));
  EXPECT_FALSE(std::isfinite(rt.loss));
  EXPECT_EQ(rs.correct, 0.0);
  EXPECT_EQ(rs.count, 0.0);
  EXPECT_EQ(rt.correct, 0.0);
  EXPECT_EQ(rt.count, 0.0);
}

}  // namespace
}  // namespace pipemare::pipeline
