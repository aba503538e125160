#include "perfbench/train.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "perfbench/tasks.h"
#include "src/core/engine_backend.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/kernels/calibration.h"

namespace perfbench {

using namespace pipemare;

void Checks::require(bool cond, const std::string& what, const std::string& detail) {
  util::Json c = util::Json::object();
  c.set("check", what);
  c.set("ok", cond);
  c.set("detail", detail);
  list.push(std::move(c));
  if (!cond) ok = false;
}

bool Checks::known_fault(bool cond, const std::string& what, const std::string& detail) {
  util::Json c = util::Json::object();
  c.set("check", what);
  c.set("ok", cond);
  c.set("known_fault", true);
  c.set("detail", detail);
  list.push(std::move(c));
  return cond;
}

namespace {

std::string fmt(double v) {
  std::ostringstream s;
  s.precision(6);
  s << v;
  return s.str();
}

std::uint64_t gemm_calls() {
  return obs::MetricsRegistry::instance().counter("kernels.gemm_dispatch").value();
}

// ---------------------------------------------------------------------------
// Timing decorators. Each wraps one layer's public entry points, times
// every call with the wall clock, and (when tracing) records a span named
// after the layer, so the program's own spans nest under it by thread.
// ---------------------------------------------------------------------------

/// core::Task decorator: times `minibatch` (data) and `evaluate` (core).
/// For translation it also measures teacher-forced token accuracy after
/// each evaluation; train_loop counts that pass in the epoch's seconds, so
/// its time is kept apart (`token_ms`) and subtracted from every figure.
class TimingTask final : public core::Task {
 public:
  TimingTask(const core::Task& inner,
             const data::SynthTranslationDataset* token_eval)
      : inner_(inner), token_eval_(token_eval) {}

  std::string name() const override { return inner_.name(); }
  std::string metric_name() const override { return inner_.metric_name(); }
  nn::Model build_model() const override { return inner_.build_model(); }
  const nn::LossHead& loss() const override { return inner_.loss(); }
  int train_size() const override { return inner_.train_size(); }

  data::MicroBatches minibatch(const std::vector<int>& indices,
                               int micro_size) const override {
    const auto t0 = Clock::now();
    last_minibatch_start_ = t0;
    last_minibatch_cpu_ms_ = process_cpu_ms();
    obs::Span span("data.minibatch", kSpanCat);
    data::MicroBatches mb = inner_.minibatch(indices, micro_size);
    minibatch_ms.push_back(ms_between(t0, Clock::now()));
    return mb;
  }

  double evaluate(const nn::Model& model, std::span<const float> params) const override {
    const std::uint64_t g0 = gemm_calls();
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_ms();
    double metric = 0.0;
    {
      obs::Span span("core.evaluate", kSpanCat);
      metric = inner_.evaluate(model, params);
    }
    const auto t1 = Clock::now();
    evaluate_ms.push_back(ms_between(t0, t1));
    evaluate_cpu_ms.push_back(process_cpu_ms() - cpu0);
    if (token_eval_ != nullptr) {
      obs::Span span("perfbench.token_accuracy", kSpanCat);
      token_accuracy.push_back(classification_accuracy(
          model, params, token_eval_->test_batch(32), inner_.loss()));
      token_ms.push_back(ms_between(t1, Clock::now()));
    }
    eval_gemm_calls += gemm_calls() - g0;
    return metric;
  }

  Clock::time_point last_minibatch_start() const { return last_minibatch_start_; }
  double last_minibatch_cpu_ms() const { return last_minibatch_cpu_ms_; }

  mutable std::vector<double> minibatch_ms;
  mutable std::vector<double> evaluate_ms;
  mutable std::vector<double> evaluate_cpu_ms;  ///< process CPU time of each evaluate
  mutable std::vector<double> token_accuracy;
  mutable std::vector<double> token_ms;  ///< time of each token-accuracy pass
  mutable std::uint64_t eval_gemm_calls = 0;

 private:
  const core::Task& inner_;
  const data::SynthTranslationDataset* token_eval_;
  mutable Clock::time_point last_minibatch_start_{};
  mutable double last_minibatch_cpu_ms_ = 0.0;
};

/// core::ExecutionBackend decorator: times forward_backward (pipeline),
/// the optimizer gap between lr_segments and commit_update (optim), and
/// commit_update (pipeline); a step runs from its minibatch fetch to the
/// end of its commit, on the wall clock and on the process CPU clock.
class TimingBackend final : public core::ExecutionBackend {
 public:
  TimingBackend(core::ExecutionBackend& inner, const TimingTask& task)
      : inner_(inner), task_(task) {}

  pipeline::StepResult forward_backward(const std::vector<nn::Flow>& micro_inputs,
                                        const std::vector<tensor::Tensor>& micro_targets,
                                        const nn::LossHead& head) override {
    const auto t0 = Clock::now();
    obs::Span span("pipeline.forward_backward", kSpanCat);
    pipeline::StepResult r = inner_.forward_backward(micro_inputs, micro_targets, head);
    fb_ms.push_back(ms_between(t0, Clock::now()));
    return r;
  }
  std::span<float> weights() override { return inner_.weights(); }
  std::span<const float> weights() const override {
    return static_cast<const core::ExecutionBackend&>(inner_).weights();
  }
  std::span<float> gradients() override { return inner_.gradients(); }
  std::vector<optim::LrSegment> lr_segments(double base_lr,
                                            std::span<const double> scales) const override {
    auto segs = inner_.lr_segments(base_lr, scales);
    lr_done_ = Clock::now();
    lr_done_ns_ = trace_now();
    return segs;
  }
  void commit_update() override {
    const auto t0 = Clock::now();
    optim_ms.push_back(ms_between(lr_done_, t0));
    record_span("optim.step", lr_done_ns_, trace_now());
    {
      obs::Span span("pipeline.commit", kSpanCat);
      inner_.commit_update();
    }
    const auto t1 = Clock::now();
    commit_ms.push_back(ms_between(t0, t1));
    step_ms.push_back(ms_between(task_.last_minibatch_start(), t1));
    step_cpu_ms.push_back(process_cpu_ms() - task_.last_minibatch_cpu_ms());
  }
  std::vector<double> stage_tau_fwd() const override { return inner_.stage_tau_fwd(); }
  void set_method(pipeline::Method m) override { inner_.set_method(m); }
  pipeline::Method method() const override { return inner_.method(); }
  const nn::Model& model() const override { return inner_.model(); }
  std::string_view name() const override { return inner_.name(); }
  std::vector<pipeline::StageStats> stage_stats() const override {
    return inner_.stage_stats();
  }
  void reset_stage_stats() override { inner_.reset_stage_stats(); }

  std::vector<double> fb_ms, optim_ms, commit_ms, step_ms;
  std::vector<double> step_cpu_ms;  ///< process CPU time of each step, all threads

 private:
  core::ExecutionBackend& inner_;
  const TimingTask& task_;
  mutable Clock::time_point lr_done_{};
  mutable std::uint64_t lr_done_ns_ = 0;
};

// ---------------------------------------------------------------------------
// One trial: backend set-up plus a full train_loop run.
// ---------------------------------------------------------------------------

/// core::train's set-up path (probe microbatch, validation, registry
/// create), timed from model build until the first step can run.
std::unique_ptr<core::ExecutionBackend> make_backend(const core::Task& task,
                                                     core::TrainerConfig cfg,
                                                     double& setup_s) {
  const auto t0 = Clock::now();
  cfg.engine.num_microbatches = cfg.num_microbatches();
  if (cfg.backend.name == "threaded_steal" && !cfg.engine.partition.probe) {
    std::vector<int> idx(static_cast<std::size_t>(cfg.microbatch_size));
    for (int i = 0; i < cfg.microbatch_size; ++i) idx[static_cast<std::size_t>(i)] = i;
    auto mb = task.minibatch(idx, cfg.microbatch_size);
    cfg.engine.partition.probe =
        std::make_shared<const nn::Flow>(std::move(mb.inputs.at(0)));
  }
  auto& registry = core::BackendRegistry::instance();
  registry.validate(cfg.backend, cfg.engine);
  auto backend = registry.create(task.build_model(), cfg.backend, cfg.engine, cfg.seed);
  setup_s = seconds_since(t0);
  return backend;
}

}  // namespace

struct StalenessStage {
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
};

struct Trial {
  double setup_s = 0.0;
  bool traced = false;
  core::TrainResult result;
  std::vector<double> step_loss;
  std::vector<int> step_epoch;
  std::vector<double> step_ms, fb_ms, optim_ms, commit_ms, minibatch_ms, evaluate_ms;
  std::vector<double> step_cpu_ms, evaluate_cpu_ms;
  double steal_share = 0.0;  ///< steal ticks / all ticks of every CPU over train_loop
  std::vector<double> token_accuracy, token_ms;
  std::vector<pipeline::StageStats> stage;
  std::vector<pipeline::StageStats> workers;  ///< threaded_steal only
  std::uint64_t steals = 0;
  std::uint64_t train_gemm_calls = 0;
  std::vector<StalenessStage> staleness;
  std::vector<float> weights;  ///< trained weights at the end of the trial
  bool items_checked = false;
  bool items_ok = true;
  std::string items_detail;

  std::int64_t steps() const { return static_cast<std::int64_t>(step_loss.size()); }
  /// Test accuracy (%) after each epoch: the task metric for classifiers,
  /// teacher-forced token accuracy for translation.
  std::vector<double> accuracy() const {
    if (!token_accuracy.empty()) return token_accuracy;
    std::vector<double> a;
    for (const auto& r : result.curve) a.push_back(r.metric);
    return a;
  }
  /// First epoch (1-based) whose accuracy reaches `target`; -1 if none.
  int target_epoch(double target) const {
    const auto a = accuracy();
    for (std::size_t e = 0; e < a.size(); ++e) {
      if (a[e] >= target) return static_cast<int>(e) + 1;
    }
    return -1;
  }
  /// Wall seconds of epoch `e` (0-based) as train_loop timed it, less the
  /// benchmark's own token-accuracy pass.
  double epoch_s(std::size_t e) const {
    const double extra = e < token_ms.size() ? token_ms[e] / 1000.0 : 0.0;
    return result.curve[e].seconds - extra;
  }
  /// Process CPU seconds of epoch `epoch` (1-based): its steps plus the
  /// task's own evaluation.
  double epoch_cpu_s(int epoch) const {
    double ms = 0.0;
    for (std::size_t i = 0; i < step_cpu_ms.size(); ++i) {
      if (step_epoch[i] == epoch) ms += step_cpu_ms[i];
    }
    const auto e = static_cast<std::size_t>(epoch - 1);
    if (e < evaluate_cpu_ms.size()) ms += evaluate_cpu_ms[e];
    return ms / 1000.0;
  }
  double fb_total_ms() const {
    double s = 0.0;
    for (double v : fb_ms) s += v;
    return s;
  }
  /// Wall seconds of the training steps of `epoch` (evaluation excluded).
  double epoch_train_s(int epoch) const {
    double s = 0.0;
    for (std::size_t i = 0; i < step_ms.size(); ++i) {
      if (step_epoch[i] == epoch) s += step_ms[i];
    }
    return s / 1000.0;
  }
};

namespace {

constexpr int kTraceFirstEpoch = 2;
constexpr int kTraceLastEpoch = 3;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;

/// Records per-step losses, checks the per-step item counts, and opens /
/// closes the trace window at epoch boundaries (between minibatches, where
/// TraceRecorder::enable is allowed).
class TrialObserver final : public core::StepObserver {
 public:
  TrialObserver(Trial& trial, const core::ExecutionBackend& backend, const TrainSpec& spec)
      : trial_(trial), backend_(backend), spec_(spec),
        prev_(backend.stage_stats()) {}

  void on_step(const core::StepInfo& info) override {
    trial_.step_loss.push_back(info.loss);
    trial_.step_epoch.push_back(info.epoch);
    if (!spec_.versioned && !spec_.hogwild) return;
    auto now = backend_.stage_stats();
    if (now.empty()) return;
    trial_.items_checked = true;
    const int n = spec_.cfg.num_microbatches();
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < now.size(); ++s) {
      const std::uint64_t d = now[s].items - prev_[s].items;
      total += d;
      // Versioned engines: every stage runs N forwards and N backwards.
      // The stage-per-thread engine's tail stage runs each microbatch's
      // forward, loss and backward as one mailbox item, so it counts N.
      const bool fused_tail = backend_.name() == "threaded" && s + 1 == now.size();
      const auto expect = static_cast<std::uint64_t>(fused_tail ? n : 2 * n);
      if (spec_.versioned && d != expect && trial_.items_ok) {
        trial_.items_ok = false;
        trial_.items_detail = "step " + std::to_string(info.step) + " stage " +
                              std::to_string(s) + " processed " + std::to_string(d) +
                              " items, expected " + std::to_string(expect);
      }
    }
    // Hogwild workers share the N microbatches of the step.
    if (spec_.hogwild && total != static_cast<std::uint64_t>(n) && trial_.items_ok) {
      trial_.items_ok = false;
      trial_.items_detail = "step " + std::to_string(info.step) + " processed " +
                            std::to_string(total) + " microbatches, expected " +
                            std::to_string(n);
    }
    prev_ = std::move(now);
  }

  void on_epoch(core::EpochRecord& rec) override {
    if (!trial_.traced) return;
    auto& recorder = obs::TraceRecorder::instance();
    if (rec.epoch == kTraceFirstEpoch - 1) recorder.enable(kTraceCapacity);
    if (rec.epoch == kTraceLastEpoch) recorder.disable();
  }

 private:
  Trial& trial_;
  const core::ExecutionBackend& backend_;
  const TrainSpec& spec_;
  std::vector<pipeline::StageStats> prev_;
};

Trial run_trial_once(const core::Task& task, const TrainSpec& spec, bool traced) {
  Trial t;
  t.traced = traced;
  obs::MetricsRegistry::instance().reset();
  TimingTask timing_task(task, spec.token_eval);
  auto backend = make_backend(task, spec.cfg, t.setup_s);
  TimingBackend timing(*backend, timing_task);
  TrialObserver observer(t, *backend, spec);
  std::vector<core::StepObserver*> observers = {&observer};
  const std::uint64_t g0 = gemm_calls();
  const CpuTicks k0 = cpu_ticks();
  t.result = core::train_loop(timing_task, timing, spec.cfg, observers);
  const CpuTicks k1 = cpu_ticks();
  t.steal_share = k1.total > k0.total ? static_cast<double>(k1.steal - k0.steal) /
                                            static_cast<double>(k1.total - k0.total)
                                      : 0.0;
  t.step_cpu_ms = timing.step_cpu_ms;
  t.evaluate_cpu_ms = timing_task.evaluate_cpu_ms;
  obs::TraceRecorder::instance().disable();
  t.train_gemm_calls = gemm_calls() - g0 - timing_task.eval_gemm_calls;

  t.step_ms = timing.step_ms;
  t.fb_ms = timing.fb_ms;
  t.optim_ms = timing.optim_ms;
  t.commit_ms = timing.commit_ms;
  t.minibatch_ms = timing_task.minibatch_ms;
  t.evaluate_ms = timing_task.evaluate_ms;
  t.token_accuracy = timing_task.token_accuracy;
  t.token_ms = timing_task.token_ms;
  t.stage = backend->stage_stats();
  t.weights.assign(backend->weights().begin(), backend->weights().end());
  if (auto* steal = dynamic_cast<core::ThreadedStealBackend*>(backend.get())) {
    t.workers = steal->engine().worker_stats();
    t.steals = steal->engine().total_steals();
  }
  for (int s = 0; s < spec.cfg.engine.num_stages; ++s) {
    StalenessStage st;
    if (const obs::Histogram* h = obs::MetricsRegistry::instance().find_histogram(
            "train.staleness.stage" + std::to_string(s))) {
      st.count = h->count();
      st.sum = h->sum();
      st.max = st.count > 0 ? h->max_observed() : 0.0;
    }
    t.staleness.push_back(st);
  }
  return t;
}

/// Per-step losses of the first epoch on the "sequential" engine, same
/// task, seed and config (epochs = 1 leaves the LR schedule and T1
/// horizon of epoch 1 unchanged: both are fixed by explicit recipe fields).
std::vector<double> sequential_first_epoch(const core::Task& task, core::TrainerConfig cfg) {
  cfg.backend = "sequential";
  cfg.epochs = 1;
  double setup_s = 0.0;
  auto backend = make_backend(task, cfg, setup_s);
  struct LossLog final : core::StepObserver {
    std::vector<double> losses;
    void on_step(const core::StepInfo& info) override { losses.push_back(info.loss); }
  } log;
  std::vector<core::StepObserver*> observers = {&log};
  core::train_loop(task, *backend, cfg, observers);
  return log.losses;
}

// ---------------------------------------------------------------------------
// Staleness bounds computed here from P and N, apart from the engines.
// ---------------------------------------------------------------------------

/// Table 1: stage i (1-based) of P sees a forward delay of
/// tau_i = (2(P - i) + 1) / N on average; a step's versions are whole, so
/// no microbatch is staler than ceil(tau_i).
int table1_bound(int stage0, int p, int n) {
  const int i = stage0 + 1;
  return (2 * (p - i) + 1 + n - 1) / n;
}

/// Mean of llround(X) for X ~ Exp(m) truncated to [0, max]: what the
/// stochastic-delay engine realizes when it rounds each sampled delay. A
/// diagnostic beside the configured profile m, which the check compares to.
double rounded_truncexp_mean(double m, double max) {
  if (m <= 0.0) return 0.0;
  const double norm = 1.0 - std::exp(-max / m);
  auto cdf = [&](double x) {
    x = std::clamp(x, 0.0, max);
    return (1.0 - std::exp(-x / m)) / norm;
  };
  double e = 0.0;
  for (int k = 0; k <= static_cast<int>(std::ceil(max)); ++k) {
    e += k * (cdf(k + 0.5) - cdf(k - 0.5));
  }
  return e;
}

/// The delay truncation bound of the stochastic-delay backend in `b`.
double max_delay(const core::BackendConfig& b) {
  if (const auto* o = std::get_if<core::ThreadedHogwildOptions>(&b.options)) {
    return o->max_delay;
  }
  return std::get<core::HogwildOptions>(b.options).max_delay;
}

/// Mean-tau tolerance around the profile m: a quarter of m plus six
/// standard errors of the mean of `count` Exp(m) draws (standard deviation
/// m), so sampling noise alone never fails it.
double mean_tau_tolerance(double m, std::uint64_t count) {
  return 0.25 * m + 6.0 * m / std::sqrt(std::max<double>(1.0, static_cast<double>(count)));
}

// ---------------------------------------------------------------------------
// Per-module probe (nn) and kernel figures.
// ---------------------------------------------------------------------------

std::string module_kind(const std::string& name) {
  if (name == "Conv2d") return "Conv2d";
  if (name == "BatchNorm2d" || name == "GroupNorm2d") return "BatchNorm2d";
  if (name == "Linear") return "Linear";
  if (name.find("Attention") != std::string::npos) return "attention";
  if (name == "LayerNorm") return "LayerNorm";
  if (name == "TokenEmbedding" || name == "DecoderBridge") return "Embedding";
  return "activations";  // ReLU, pooling, dropout, residual plumbing
}

const std::vector<std::string>& module_kinds() {
  static const std::vector<std::string> kinds = {
      "Conv2d", "BatchNorm2d", "Linear", "attention", "LayerNorm", "Embedding",
      "activations"};
  return kinds;
}

/// Times every module's forward_range / backward_range on one probe
/// microbatch (median of reps) and sums by kind; also returns the
/// Module::cost FLOPs those calls perform.
void probe_modules(const core::Task& task, const TrainSpec& spec,
                   std::span<const float> weights, util::Json& layers,
                   util::Json& detail) {
  constexpr int kReps = 15;
  nn::Model model = task.build_model();
  const int micro = spec.cfg.microbatch_size;
  std::vector<int> idx(static_cast<std::size_t>(micro));
  for (int i = 0; i < micro; ++i) idx[static_cast<std::size_t>(i)] = i;
  auto mb = task.minibatch(idx, micro);
  const int m = model.num_modules();

  // One forward to collect every module's input flow and cache.
  auto caches = model.make_caches();
  std::vector<nn::Flow> inputs;
  nn::Flow f = mb.inputs.at(0);
  f.training = true;
  for (int i = 0; i < m; ++i) {
    inputs.push_back(f);
    f = model.forward_range(i, i + 1, f, weights, caches);
  }
  auto loss = task.loss().forward_backward(f.x, mb.targets.at(0));
  std::vector<nn::Flow> douts(static_cast<std::size_t>(m));
  std::vector<float> grad(weights.size(), 0.0F);
  nn::Flow d;
  d.x = loss.doutput;
  for (int i = m - 1; i >= 0; --i) {
    douts[static_cast<std::size_t>(i)] = d;
    d = model.backward_range(i, i + 1, d, weights, caches, grad);
  }

  std::map<std::string, double> fwd_ms, bwd_ms;
  for (const auto& k : module_kinds()) fwd_ms[k] = bwd_ms[k] = 0.0;
  double flops = 0.0, ns = 0.0;
  for (int i = 0; i < m; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const std::string kind = module_kind(model.module(i).name());
    const char* fwd_name = intern("nn.fwd." + kind);
    const char* bwd_name = intern("nn.bwd." + kind);
    std::vector<double> tf, tb;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = Clock::now();
      {
        obs::Span span(fwd_name, kSpanCat);
        nn::Flow out = model.forward_range(i, i + 1, inputs[ui], weights, caches);
      }
      const auto t1 = Clock::now();
      {
        obs::Span span(bwd_name, kSpanCat);
        nn::Flow back = model.backward_range(i, i + 1, douts[ui], weights, caches, grad);
      }
      const auto t2 = Clock::now();
      tf.push_back(ms_between(t0, t1));
      tb.push_back(ms_between(t1, t2));
    }
    fwd_ms[kind] += median(tf);
    bwd_ms[kind] += median(tb);
    nn::CostShapes shapes{inputs[ui].x.shape(),
                          i + 1 < m ? inputs[ui + 1].x.shape() : f.x.shape()};
    const nn::ModuleCost cost = model.module(i).cost(shapes);
    flops += cost.fwd_flops + cost.bkwd_flops;
    ns += (median(tf) + median(tb)) * 1e6;
  }
  util::Json per_kind = util::Json::object();
  double total_fwd = 0.0, total_bwd = 0.0;
  for (const auto& k : module_kinds()) {
    total_fwd += fwd_ms[k];
    total_bwd += bwd_ms[k];
  }
  // Per-kind times ride in the detail table; the metrics are each kind's
  // share of the probe (0 for a kind the model lacks), beside the totals.
  for (const auto& k : module_kinds()) {
    const double total = total_fwd + total_bwd;
    layers.set("nn.share." + k, total > 0.0 ? (fwd_ms[k] + bwd_ms[k]) / total : 0.0);
    util::Json row = util::Json::object();
    row.set("fwd_ms", fwd_ms[k]);
    row.set("bwd_ms", bwd_ms[k]);
    per_kind.set(k, std::move(row));
  }
  layers.set("nn.fwd_ms", total_fwd);
  layers.set("nn.bwd_ms", total_bwd);
  detail.set("nn_probe_per_kind", std::move(per_kind));
  detail.set("nn_probe_rows", micro);
  const double achieved = ns > 0.0 ? flops / ns : 0.0;
  layers.set("kernels.achieved_gflops", achieved);
  layers.set("kernels.calibrated_gflops",
             tensor::kernels::KernelCalibration::active().gemm_flops_per_ns);
}

}  // namespace

// ---------------------------------------------------------------------------

TrainPhase::TrainPhase(const core::Task& task, const TrainSpec& spec)
    : task_(task), spec_(spec) {}

TrainPhase::~TrainPhase() = default;

void TrainPhase::run_trial() {
  // A traced run records the second trial, so the overhead compares the
  // same epochs of a traced and an untraced trial.
  const bool trace_this = spec_.traced && trials_.size() == 1;
  trials_.push_back(std::make_unique<Trial>(run_trial_once(task_, spec_, trace_this)));
  if (trace_this) {
    obs::TraceRecorder::instance().write_chrome_trace(spec_.trace_prefix + ".train.json");
  }
}

std::span<const float> TrainPhase::weights() const { return trials_.front()->weights; }

TrainOutcome TrainPhase::finish(Checks& checks) {
  const core::Task& task = task_;
  const TrainSpec& spec = spec_;
  std::vector<Trial> trials;
  for (auto& t : trials_) trials.push_back(std::move(*t));
  trials_.clear();
  TrainOutcome out;
  const int p = spec.cfg.engine.num_stages;
  const int n = spec.cfg.num_microbatches();
  const double max_tau = spec.hogwild ? max_delay(spec.cfg.backend) : 0.0;
  const Trial& first = trials.front();

  // ---- correctness --------------------------------------------------------
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Trial& t = trials[i];
    out.attempted += t.steps() + (t.result.diverged ? 1 : 0);
    if (t.result.diverged) ++out.failed;
    bool finite = !t.result.diverged;
    for (double l : t.step_loss) finite = finite && std::isfinite(l);
    checks.require(finite, "train.steps_finite",
                   "trial " + std::to_string(i) + ": " + std::to_string(t.steps()) +
                       " steps, diverged=" + (t.result.diverged ? "yes" : "no"));
    // The engines are deterministic: every trial repeats the first bitwise.
    const bool same = t.step_loss.size() == first.step_loss.size() &&
                      std::memcmp(t.step_loss.data(), first.step_loss.data(),
                                  t.step_loss.size() * sizeof(double)) == 0;
    checks.require(same, "train.trials_bitwise_reproducible",
                   "trial " + std::to_string(i) + " vs trial 0");
    if (t.items_checked) {
      checks.require(t.items_ok, "train.items_per_step",
                     t.items_ok ? "every step" : t.items_detail);
    }
    if (!spec.hogwild) continue;
    for (int s = 0; s < p; ++s) {
      const StalenessStage& st = t.staleness[static_cast<std::size_t>(s)];
      const std::string stage = "trial " + std::to_string(i) + " stage " + std::to_string(s);
      checks.require(st.count > 0 && st.max <= max_tau, "hogwild.tau_within_max_delay",
                     stage + " max " + fmt(st.max) + " <= " + fmt(max_tau));
      // Each stage's mean tau must match the profile T1 divides by. The
      // engine rounds every sampled delay to a whole step, which roughly
      // halves the mean, so this fails on every trial: a known fault,
      // counted as failed operations.
      const double profile = static_cast<double>(2 * (p - s - 1) + 1) / n;
      const double observed = st.count > 0 ? st.sum / static_cast<double>(st.count) : 0.0;
      const double tol = mean_tau_tolerance(profile, st.count);
      ++out.attempted;
      if (!checks.known_fault(std::abs(observed - profile) <= tol,
                              "hogwild.mean_tau_matches_profile",
                              stage + " observed " + fmt(observed) + ", profile (2(P-i)+1)/N = " +
                                  fmt(profile) + " +- " + fmt(tol))) {
        ++out.failed;
      }
    }
  }
  const auto& curve = first.result.curve;
  const double first_loss = curve.front().train_loss;
  const double final_loss = curve.back().train_loss;
  checks.require(curve.size() == static_cast<std::size_t>(spec.cfg.epochs),
                 "train.all_epochs_ran", std::to_string(curve.size()) + " epochs");
  checks.require(final_loss < first_loss, "train.loss_decreases",
                 "epoch 1 " + fmt(first_loss) + " -> final " + fmt(final_loss));
  const std::vector<double> accuracy = first.accuracy();
  const double best_acc =
      accuracy.empty() ? 0.0 : *std::max_element(accuracy.begin(), accuracy.end());
  const int target_epoch = first.target_epoch(spec.target);
  checks.require(target_epoch > 0 && best_acc >= spec.quality_floor, "train.reaches_target",
                 "target " + fmt(spec.target) + "% and floor " + fmt(spec.quality_floor) +
                     "% test accuracy, best " + fmt(best_acc));

  if (spec.parity) {
    const std::vector<double> seq = sequential_first_epoch(task, spec.cfg);
    std::vector<double> measured;
    for (std::size_t i = 0; i < first.step_loss.size(); ++i) {
      if (first.step_epoch[i] == 1) measured.push_back(first.step_loss[i]);
    }
    const bool equal = seq.size() == measured.size() && !seq.empty() &&
                       std::memcmp(seq.data(), measured.data(),
                                   seq.size() * sizeof(double)) == 0;
    checks.require(equal, "train.first_epoch_bitwise_vs_sequential",
                   std::to_string(measured.size()) + " steps vs " +
                       std::to_string(seq.size()) + " sequential steps");
  }

  util::Json tau = util::Json::array();
  for (int s = 0; s < p; ++s) {
    const StalenessStage& st = first.staleness[static_cast<std::size_t>(s)];
    util::Json row = util::Json::object();
    row.set("stage", s);
    row.set("observations", st.count);
    row.set("mean", st.count > 0 ? st.sum / static_cast<double>(st.count) : 0.0);
    row.set("max", st.max);
    const double table1 = static_cast<double>(2 * (p - s - 1) + 1) / n;
    row.set("table1_tau", table1);
    if (spec.versioned) {
      const int bound = table1_bound(s, p, n);
      row.set("table1_bound", bound);
      checks.require(st.max <= bound, "train.staleness_within_table1",
                     "stage " + std::to_string(s) + " max " + fmt(st.max) +
                         " <= " + std::to_string(bound));
    }
    if (spec.hogwild) {
      row.set("tolerance", mean_tau_tolerance(table1, st.count));
      row.set("rounded_sampler_mean", rounded_truncexp_mean(table1, max_tau));
    }
    tau.push(std::move(row));
  }
  out.detail.set("staleness", std::move(tau));

  // ---- end-to-end ---------------------------------------------------------
  // The bounded timings are process CPU time (all threads, user + system),
  // which the guest kernel charges without the time the hypervisor gives
  // the virtual CPUs to other tenants (steal). On a shared host the wall
  // clock of a multi-threaded step follows that steal: the trials of one
  // run fell from 2588 to 1741 samples/s as the steal share rose from 6% to
  // 18%, while their CPU time per sample stayed within 7%. CPU time still
  // moves with the host's load, by up to a fifth between calm and busy
  // stretches, but far less. Median over the run's untraced trials.
  std::vector<double> setup, cpu_us_per_sample, cpu_to_target;
  for (const Trial& t : trials) {
    setup.push_back(t.setup_s);
    if (t.traced) continue;
    double cpu_ms = 0.0, samples = 0.0;
    for (std::size_t i = 0; i < t.step_cpu_ms.size(); ++i) {
      if (t.step_epoch[i] < 2) continue;
      cpu_ms += t.step_cpu_ms[i];
      samples += spec.cfg.minibatch_size;
    }
    if (samples > 0.0) cpu_us_per_sample.push_back(1000.0 * cpu_ms / samples);
    double to_target = 0.0;
    for (int e = 1; e <= target_epoch; ++e) to_target += t.epoch_cpu_s(e);
    if (target_epoch > 0) cpu_to_target.push_back(to_target);
  }
  // Extra set-up samples (build + create + destroy) so the median rests
  // on at least 25, however few trials fit the budget.
  while (setup.size() < 25) {
    double s = 0.0;
    auto b = make_backend(task, spec.cfg, s);
    setup.push_back(s);
  }
  out.setup_s = median(setup);
  out.e2e.set("train_cpu_us_per_sample", median(cpu_us_per_sample));
  out.e2e.set("cpu_s_to_target", cpu_to_target.empty()
                                     ? std::numeric_limits<double>::quiet_NaN()
                                     : median(cpu_to_target));
  out.e2e.set("final_train_loss", final_loss);
  out.e2e.set("best_accuracy_pct", best_acc);

  // Wall-clock figures compose the least-disturbed pass over the trials.
  // The trials are bitwise identical, so step k and epoch e do the same
  // work in every trial, and other tenants only ever slow a step down: each
  // step and epoch counts with its shortest time over the trials. They
  // still follow the machine's load for minutes at a time, so they are
  // reported beside the per-layer metrics, without a bound.
  std::vector<double> fastest_steps, steps_after_first;
  double fastest_train_s = 0.0;
  for (std::size_t i = 0; i < first.step_ms.size(); ++i) {
    if (first.step_epoch[i] < 2) continue;
    double fastest = first.step_ms[i];
    for (const Trial& t : trials) {
      if (i >= t.step_ms.size()) continue;
      fastest = std::min(fastest, t.step_ms[i]);
      steps_after_first.push_back(t.step_ms[i]);
    }
    fastest_steps.push_back(fastest);
    fastest_train_s += fastest / 1000.0;
  }
  double wall_to_target = 0.0;
  std::vector<double> trial_to_target(trials.size(), 0.0);
  for (int e = 0; e < target_epoch; ++e) {
    const auto ue = static_cast<std::size_t>(e);
    double fastest = first.epoch_s(ue);
    for (std::size_t k = 0; k < trials.size(); ++k) {
      if (ue >= trials[k].result.curve.size()) continue;
      fastest = std::min(fastest, trials[k].epoch_s(ue));
      trial_to_target[k] += trials[k].epoch_s(ue);
    }
    wall_to_target += fastest;
  }
  std::vector<double> steal_shares;
  for (const Trial& t : trials) steal_shares.push_back(t.steal_share);
  auto& L = out.layers;
  L.set("core.train_samples_per_s",
        fastest_train_s > 0.0 ? static_cast<double>(fastest_steps.size()) *
                                    spec.cfg.minibatch_size / fastest_train_s
                              : 0.0);
  L.set("core.step_ms_p50", median(fastest_steps));
  L.set("core.time_to_target_s",
        target_epoch > 0 ? wall_to_target : std::numeric_limits<double>::quiet_NaN());
  L.set("core.step_ms_p90", quantile(steps_after_first, 0.9));
  L.set("machine.steal_share", mean(steal_shares));

  util::Json d = util::Json::object();
  d.set("backend", spec.cfg.backend.name);
  d.set("trials", static_cast<int>(trials.size()));
  d.set("threads", static_cast<int>(first.workers.empty() ? first.stage.size()
                                                          : first.workers.size()));
  d.set("steps_per_trial", first.steps());
  d.set("step_samples", static_cast<int>(steps_after_first.size()));
  d.set("target", spec.target);
  d.set("target_epoch", target_epoch);
  d.set("task_metric", task.metric_name());
  d.set("best_task_metric", first.result.best_metric);
  util::Json curve_json = util::Json::array();
  for (std::size_t e = 0; e < curve.size(); ++e) {
    util::Json r = util::Json::object();
    r.set("epoch", curve[e].epoch);
    r.set("train_loss", curve[e].train_loss);
    r.set("metric", curve[e].metric);
    if (e < first.token_accuracy.size()) r.set("token_accuracy", first.token_accuracy[e]);
    r.set("seconds", first.epoch_s(e));
    if (e < first.evaluate_ms.size()) r.set("evaluate_ms", first.evaluate_ms[e]);
    curve_json.push(std::move(r));
  }
  d.set("curve", std::move(curve_json));
  util::Json setup_json = util::Json::array();
  for (double s : setup) setup_json.push(s);
  d.set("setup_s_samples", std::move(setup_json));
  util::Json ttt_json = util::Json::array();
  for (double s : trial_to_target) ttt_json.push(s);
  d.set("time_to_target_s_trials", std::move(ttt_json));
  util::Json cpu_json = util::Json::array();
  for (double v : cpu_us_per_sample) cpu_json.push(v);
  d.set("cpu_us_per_sample_trials", std::move(cpu_json));
  util::Json steal_json = util::Json::array();
  for (double v : steal_shares) steal_json.push(v);
  d.set("steal_share_trials", std::move(steal_json));
  out.detail.set("train", std::move(d));

  // ---- per-layer (untraced trials) ---------------------------------------
  std::vector<double> fb, optim_ms, commit, mb, ev;
  double busy = 0.0, pop_wait = 0.0, push_wait = 0.0, items = 0.0;
  double w_busy = 0.0, w_stolen = 0.0, steals = 0.0, steps = 0.0, gemm = 0.0;
  double threads_time = 0.0;
  std::vector<double> stage_busy(first.stage.size(), 0.0);
  std::vector<double> worker_busy(first.workers.size(), 0.0);
  double tau_sum = 0.0, tau_count = 0.0, tau_max = 0.0;
  std::vector<double> traced_s, untraced_s;
  for (const Trial& t : trials) {
    double window = 0.0;
    for (int e = kTraceFirstEpoch; e <= kTraceLastEpoch; ++e) window += t.epoch_train_s(e);
    (t.traced ? traced_s : untraced_s).push_back(window);
    if (t.traced) continue;
    fb.insert(fb.end(), t.fb_ms.begin(), t.fb_ms.end());
    optim_ms.insert(optim_ms.end(), t.optim_ms.begin(), t.optim_ms.end());
    commit.insert(commit.end(), t.commit_ms.begin(), t.commit_ms.end());
    mb.insert(mb.end(), t.minibatch_ms.begin(), t.minibatch_ms.end());
    ev.insert(ev.end(), t.evaluate_ms.begin(), t.evaluate_ms.end());
    const double fbt = t.fb_total_ms() * 1e6;  // ns
    const std::size_t threads = t.workers.empty() ? t.stage.size() : t.workers.size();
    threads_time += fbt * static_cast<double>(threads);
    for (std::size_t s = 0; s < t.stage.size(); ++s) {
      busy += static_cast<double>(t.stage[s].busy_ns);
      pop_wait += static_cast<double>(t.stage[s].pop_wait_ns);
      push_wait += static_cast<double>(t.stage[s].push_wait_ns);
      items += static_cast<double>(t.stage[s].items);
      stage_busy[s] += static_cast<double>(t.stage[s].busy_ns);
    }
    for (std::size_t w = 0; w < t.workers.size(); ++w) {
      w_busy += static_cast<double>(t.workers[w].busy_ns);
      w_stolen += static_cast<double>(t.workers[w].stolen_ns);
      worker_busy[w] += static_cast<double>(t.workers[w].busy_ns);
    }
    steals += static_cast<double>(t.steals);
    steps += static_cast<double>(t.steps());
    gemm += static_cast<double>(t.train_gemm_calls);
    for (const auto& st : t.staleness) {
      tau_sum += st.sum;
      tau_count += static_cast<double>(st.count);
      tau_max = std::max(tau_max, st.max);
    }
  }
  auto share = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  L.set("data.minibatch_ms", mean(mb));
  L.set("core.evaluate_ms", mean(ev));
  L.set("pipeline.forward_backward_ms_p50", median(fb));
  L.set("pipeline.commit_ms_p50", median(commit));
  L.set("optim.step_ms_p50", median(optim_ms));
  const bool hog = spec.hogwild;
  const bool steal = !first.workers.empty();
  L.set("pipeline.bubble_share", first.stage.empty() ? 0.0 : 1.0 - share(busy, threads_time));
  L.set("pipeline.bubble_share_analytic",
        static_cast<double>(p - 1) / static_cast<double>(n + p - 1));
  L.set("pipeline.push_wait_share", share(push_wait, threads_time));
  L.set("pipeline.stage_busy_spread", hog ? 0.0 : spread(stage_busy));
  L.set("pipeline.staleness_mean", share(tau_sum, tau_count));
  L.set("pipeline.staleness_max", tau_max);
  L.set("sched.worker_busy_share", steal ? share(w_busy, threads_time) : 0.0);
  L.set("sched.worker_busy_spread", steal ? spread(worker_busy) : 0.0);
  L.set("sched.stolen_busy_share", steal ? share(w_stolen, w_busy) : 0.0);
  L.set("sched.steals_per_step", share(steals, steps));
  L.set("sched.tasks_per_step", share(items, steps));
  L.set("hogwild.worker_busy_share", hog ? share(busy, threads_time) : 0.0);
  L.set("hogwild.worker_idle_share", hog ? share(pop_wait, threads_time) : 0.0);
  L.set("kernels.gemm_calls_per_step", share(gemm, steps));
  if (!traced_s.empty() && !untraced_s.empty()) {
    const double base = median(untraced_s);
    L.set("obs.trace_overhead_pct", base > 0.0 ? 100.0 * (traced_s[0] - base) / base : 0.0);
  }

  if (spec.traced) {
    auto& recorder = obs::TraceRecorder::instance();
    recorder.enable(kTraceCapacity);
    probe_modules(task, spec, first.weights, L, out.detail);
    recorder.disable();
    recorder.write_chrome_trace(spec.trace_prefix + ".probe.json");
  }
  return out;
}

}  // namespace perfbench
