#include "perfbench/serve.h"

#include <cmath>
#include <cstring>
#include <map>
#include <thread>

#include "src/obs/trace.h"
#include "src/serve/checkpoint.h"
#include "src/serve/pipeline_server.h"
#include "src/util/rng.h"

namespace perfbench {

using namespace pipemare;

namespace {

constexpr int kPoolEntries = 256;
/// Row-count mix of the requests: half single rows, the rest 2-4 rows.
constexpr int kRowMix[] = {1, 1, 1, 1, 2, 2, 3, 4};
constexpr int kStages = 4;
constexpr int kMaxBatch = 8;       ///< requests per microbatch (continuous batching)
constexpr double kWindowS = 0.5;   ///< length of each light and heavy window
/// p99 latency limit of the goodput search: far above the service time,
/// so a rate fails it through a growing backlog, not through the
/// millisecond stalls of a shared machine.
constexpr double kLimitMs = 50.0;
constexpr double kLadderStep = 1.04;  ///< ratio between neighbouring goodput rates
/// Every goodput probe submits the same number of requests: as many as
/// kProbeS seconds at the first rung the bisection tries.
constexpr double kProbeS = 0.4;
constexpr int kProbesPerRound = 4;

}  // namespace

/// Distinct request inputs and the benchmark's own forward of each one
/// alone on the checkpoint weights (the bitwise oracle of serving).
struct RequestPool {
  std::vector<nn::Flow> inputs;
  std::vector<tensor::Tensor> expected;
};

namespace {

RequestPool make_pool(const core::Task& task, const nn::Model& model,
                      std::span<const float> weights, std::uint64_t seed) {
  RequestPool pool;
  util::Rng rng(seed ^ 0x7e9a11ceULL);
  for (int e = 0; e < kPoolEntries; ++e) {
    const int rows = kRowMix[rng.randint(static_cast<int>(std::size(kRowMix)))];
    std::vector<int> idx(static_cast<std::size_t>(rows));
    for (auto& i : idx) i = rng.randint(task.train_size());
    nn::Flow f = std::move(task.minibatch(idx, rows).inputs.at(0));
    f.training = false;
    auto caches = model.make_caches();
    pool.expected.push_back(model.forward(f, weights, caches).x);
    pool.inputs.push_back(std::move(f));
  }
  return pool;
}

/// One open-loop arrival: when it is due (offset from the phase start)
/// and which pool entry it carries.
struct Arrival {
  double due_ms = 0.0;
  int entry = 0;
};

/// `n` Poisson arrivals at `rate` req/s, deterministic in `seed`.
std::vector<Arrival> schedule(double rate, int n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Arrival> a(static_cast<std::size_t>(std::max(n, 1)));
  double t = 0.0;
  for (auto& x : a) {
    t += -std::log(1.0 - rng.uniform()) * 1000.0 / rate;
    x.due_ms = t;
    x.entry = rng.randint(kPoolEntries);
  }
  return a;
}

}  // namespace

struct PhaseResult {
  std::vector<double> latency_ms;  ///< due time -> completion
  std::vector<double> lag_ms;      ///< due time -> submit
  std::vector<double> submit_us;   ///< time inside submit()
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;     ///< microbatch formation -> completion
  std::vector<double> batch_requests;
  std::map<std::string, std::int64_t> status;
  std::int64_t mismatches = 0;
  std::int64_t not_ok = 0;
  double wall_s = 0.0;
  std::vector<pipeline::StageStats> stages, workers;
};

namespace {

/// Runs one open-loop phase on a started server and waits for every
/// request to reach a terminal status.
PhaseResult run_phase(serve::PipelineServer& server, const RequestPool& pool,
                      const std::vector<Arrival>& arrivals) {
  PhaseResult r;
  std::vector<serve::TicketPtr> tickets;
  tickets.reserve(arrivals.size());
  server.reset_stage_stats();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    nn::Flow input = pool.inputs[static_cast<std::size_t>(arrivals[i].entry)];
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(arrivals[i].due_ms));
    // Sleep while the next arrival is far off, spin the last stretch
    // (sleep wake-ups run late by up to a scheduler tick).
    if (due - Clock::now() > std::chrono::milliseconds(2)) {
      std::this_thread::sleep_until(due - std::chrono::milliseconds(1));
    }
    while (Clock::now() < due) {
    }
    const auto s0 = Clock::now();
    const std::uint64_t s0_ns = trace_now();
    tickets.push_back(server.submit(std::move(input)));
    const auto s1 = Clock::now();
    record_span("serve.submit", s0_ns, trace_now());
    r.lag_ms.push_back(ms_between(due, s0));
    r.submit_us.push_back(ms_between(s0, s1) * 1000.0);
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const serve::Response& resp = tickets[i]->wait();
    ++r.status[std::string(serve::status_name(resp.status))];
    if (resp.status != serve::Status::Ok) {
      ++r.not_ok;
      continue;
    }
    r.latency_ms.push_back(r.lag_ms[i] + resp.total_ms);
    r.queue_ms.push_back(resp.queue_ms);
    r.exec_ms.push_back(resp.total_ms - resp.queue_ms);
    r.batch_requests.push_back(resp.batch_requests);
    const tensor::Tensor& want = pool.expected[static_cast<std::size_t>(arrivals[i].entry)];
    const bool equal = resp.output.shape() == want.shape() &&
                       std::memcmp(resp.output.data(), want.data(),
                                   static_cast<std::size_t>(want.size()) * sizeof(float)) == 0;
    if (!equal) ++r.mismatches;
  }
  r.wall_s = seconds_since(t0);
  r.stages = server.stage_stats();
  r.workers = server.worker_stats();
  return r;
}

/// p99 and backlog test of the goodput search: the whole probe and its
/// last quarter must both keep p99 within the limit, with every request Ok.
bool meets_limit(const PhaseResult& r) {
  if (r.not_ok > 0 || r.latency_ms.empty()) return false;
  if (quantile(r.latency_ms, 0.99) > kLimitMs) return false;
  const std::size_t q = r.latency_ms.size() * 3 / 4;
  std::vector<double> tail(r.latency_ms.begin() + static_cast<std::ptrdiff_t>(q),
                           r.latency_ms.end());
  return !tail.empty() && quantile(tail, 0.99) <= kLimitMs;
}

/// Requests of one open-loop window at `rate`.
int window_requests(double rate) { return static_cast<int>(std::llround(rate * kWindowS)); }

util::Json status_json(const std::map<std::string, std::int64_t>& m) {
  util::Json j = util::Json::object();
  for (const auto& [k, v] : m) j.set(k, v);
  return j;
}

std::vector<double> concat(const std::vector<PhaseResult>& phases,
                           std::vector<double> PhaseResult::*field) {
  std::vector<double> out;
  for (const auto& p : phases) out.insert(out.end(), (p.*field).begin(), (p.*field).end());
  return out;
}

/// Median over windows of each window's q-quantile of latency.
double window_median(const std::vector<PhaseResult>& phases, double q) {
  std::vector<double> per;
  for (const auto& p : phases) {
    if (!p.latency_ms.empty()) per.push_back(quantile(p.latency_ms, q));
  }
  return median(per);
}

}  // namespace

ServePhase::ServePhase(const core::Task& task, std::span<const float> weights,
                       const ServeSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed), model_(task.build_model()),
      pool_(std::make_unique<RequestPool>(make_pool(task, model_, weights, seed))) {
  serve::ModelCheckpoint ckpt;
  ckpt.digest = serve::shape_digest(model_);
  ckpt.weights.assign(weights.begin(), weights.end());
  for (double r = spec.light_rate; r < spec.ladder_top * kLadderStep; r *= kLadderStep) {
    ladder_.push_back(r);
  }
  hi_ = static_cast<int>(ladder_.size());
  probe_requests_ =
      static_cast<int>(std::llround(ladder_[ladder_.size() / 2] * kProbeS));
  serve::ServeConfig cfg;
  cfg.num_stages = kStages;
  cfg.workers = spec.workers;
  cfg.batch.policy = serve::BatchPolicy::Continuous;
  cfg.batch.max_batch = kMaxBatch;
  // Sized to hold every request of the largest window: nothing is refused.
  cfg.queue_capacity = std::max(window_requests(spec.heavy_rate), probe_requests_) + 16;
  // Set-up: checkpoint validation, partition and worker start, timed over
  // 25 servers after one untimed warm-up (median reported; teardown is not
  // timed).
  for (int r = 0; r < 26; ++r) {
    const auto t0 = Clock::now();
    serve::PipelineServer s(model_, ckpt, cfg);
    s.start();
    if (r > 0) setup_s_.push_back(seconds_since(t0));
  }
  server_ = std::make_unique<serve::PipelineServer>(model_, std::move(ckpt), cfg);
  server_->start();
}

ServePhase::~ServePhase() = default;

void ServePhase::run_round() {
  const auto round = static_cast<std::uint64_t>(light_.size());
  const bool trace_this = spec_.traced && round == 0;
  if (trace_this) obs::TraceRecorder::instance().enable(std::size_t{1} << 18);
  light_.push_back(run_phase(*server_, *pool_,
                             schedule(spec_.light_rate, window_requests(spec_.light_rate),
                                      seed_ * 1000 + round * 2)));
  if (trace_this) {
    obs::TraceRecorder::instance().disable();
    obs::TraceRecorder::instance().write_chrome_trace(spec_.trace_path);
  }
  heavy_.push_back(run_phase(*server_, *pool_,
                             schedule(spec_.heavy_rate, window_requests(spec_.heavy_rate),
                                      seed_ * 1000 + round * 2 + 1)));
  if (round == 0) peak_rss_mib_ = peak_rss_mib();
  for (int k = 0; k < kProbesPerRound; ++k) probe_goodput();
}

/// One probe of the goodput search: bisection over the rate ladder for the
/// highest rung that meets the limit (rung 0, the light rate, is the
/// floor), then a staircase around it (a pass steps one rung up, a failure
/// one down) whose median rate averages out single noisy probes.
void ServePhase::probe_goodput() {
  const bool bisecting = hi_ - lo_ > 1;
  const int rung = bisecting ? (lo_ + hi_) / 2 : stair_;
  const double rate = ladder_[static_cast<std::size_t>(rung)];
  probes_.push_back(run_phase(*server_, *pool_,
                              schedule(rate, probe_requests_, seed_ * 7919 + probes_.size())));
  const bool pass = meets_limit(probes_.back());
  util::Json row = util::Json::object();
  row.set("rate", rate);
  row.set("requests", probe_requests_);
  row.set("p99_ms", quantile(probes_.back().latency_ms, 0.99));
  row.set("pass", pass);
  probe_log_.push(std::move(row));
  if (bisecting) {
    (pass ? lo_ : hi_) = rung;
    stair_ = lo_;
    return;
  }
  stairs_.push_back(rate);
  stair_ = pass ? std::min(rung + 1, static_cast<int>(ladder_.size()) - 1)
                : std::max(rung - 1, 0);
}

ServeOutcome ServePhase::finish(Checks& checks) {
  ServeOutcome out;
  const ServeSpec& spec = spec_;
  out.peak_rss_mib = peak_rss_mib_;
  const double goodput =
      stairs_.empty() ? ladder_[static_cast<std::size_t>(lo_)] : median(stairs_);
  server_->stop();

  // ---- correctness --------------------------------------------------------
  std::map<std::string, std::int64_t> status;
  std::int64_t mismatches = 0;
  std::vector<const PhaseResult*> all;
  for (const auto& p : light_) all.push_back(&p);
  for (const auto& p : heavy_) all.push_back(&p);
  for (const auto& p : probes_) all.push_back(&p);
  for (const PhaseResult* p : all) {
    for (const auto& [k, v] : p->status) status[k] += v;
    out.attempted += static_cast<std::int64_t>(p->lag_ms.size());
    out.failed += p->not_ok;
    mismatches += p->mismatches;
  }
  checks.require(out.failed == 0, "serve.every_request_ok",
                 std::to_string(out.attempted - out.failed) + " of " +
                     std::to_string(out.attempted) + " Ok");
  checks.require(mismatches == 0, "serve.responses_bitwise_equal_forward",
                 std::to_string(mismatches) + " mismatching responses");
  // The generator keeps its schedule: the p99 of how late requests of the
  // light and heavy windows were submitted (serve.generator_lag_ms_p99,
  // time blocked inside submit included) stays within the latency limit,
  // so the p99 latencies are not mostly the generator's.
  const std::vector<double> lag_light = concat(light_, &PhaseResult::lag_ms);
  const std::vector<double> lag_heavy = concat(heavy_, &PhaseResult::lag_ms);
  std::vector<double> lag = lag_light;
  lag.insert(lag.end(), lag_heavy.begin(), lag_heavy.end());
  const double lag_p99 = quantile(lag, 0.99);
  checks.require(lag_p99 <= kLimitMs, "serve.generator_on_time",
                 "p99 lag " + std::to_string(lag_p99) + " ms <= " + std::to_string(kLimitMs));

  // ---- end-to-end ---------------------------------------------------------
  out.setup_s = median(setup_s_);

  // ---- per-layer ------------------------------------------------------------
  std::vector<double> queue = concat(light_, &PhaseResult::queue_ms);
  const std::vector<double> heavy_queue = concat(heavy_, &PhaseResult::queue_ms);
  queue.insert(queue.end(), heavy_queue.begin(), heavy_queue.end());
  std::vector<double> submit = concat(light_, &PhaseResult::submit_us);
  const std::vector<double> heavy_submit = concat(heavy_, &PhaseResult::submit_us);
  submit.insert(submit.end(), heavy_submit.begin(), heavy_submit.end());
  double busy = 0.0, idle = 0.0, items = 0.0, stolen = 0.0, worker_ns = 0.0;
  std::vector<double> stage_busy;
  for (const auto& h : heavy_) {
    for (const auto& w : h.workers) {
      busy += static_cast<double>(w.busy_ns);
      idle += static_cast<double>(w.pop_wait_ns);
      items += static_cast<double>(w.items);
      stolen += static_cast<double>(w.stolen_items);
    }
    worker_ns += h.wall_s * 1e9 * static_cast<double>(h.workers.size());
    stage_busy.resize(h.stages.size(), 0.0);
    for (std::size_t s = 0; s < h.stages.size(); ++s) {
      stage_busy[s] += static_cast<double>(h.stages[s].busy_ns);
    }
  }
  auto& L = out.layers;
  L.set("serve.goodput_req_per_s", goodput);
  L.set("serve.light_p50_ms", window_median(light_, 0.5));
  L.set("serve.light_p99_ms", quantile(concat(light_, &PhaseResult::latency_ms), 0.99));
  L.set("serve.heavy_p50_ms", window_median(heavy_, 0.5));
  L.set("serve.heavy_p99_ms", quantile(concat(heavy_, &PhaseResult::latency_ms), 0.99));
  L.set("serve.queue_ms_p50", quantile(queue, 0.5));
  L.set("serve.queue_ms_p99", quantile(queue, 0.99));
  L.set("serve.exec_ms_p50", quantile(concat(light_, &PhaseResult::exec_ms), 0.5));
  L.set("serve.submit_us_p99", quantile(submit, 0.99));
  L.set("serve.mean_batch_requests", mean(concat(heavy_, &PhaseResult::batch_requests)));
  L.set("serve.worker_busy_share", worker_ns > 0.0 ? busy / worker_ns : 0.0);
  L.set("serve.worker_idle_share", worker_ns > 0.0 ? idle / worker_ns : 0.0);
  L.set("serve.stolen_share", items > 0.0 ? stolen / items : 0.0);
  L.set("serve.stage_busy_spread", spread(stage_busy));
  L.set("serve.generator_lag_ms_p99", lag_p99);

  util::Json d = util::Json::object();
  d.set("workers", spec.workers);
  d.set("stages", kStages);
  d.set("max_batch", kMaxBatch);
  d.set("light_rate", spec.light_rate);
  d.set("heavy_rate", spec.heavy_rate);
  d.set("window_s", kWindowS);
  d.set("rounds", static_cast<int>(light_.size()));
  d.set("light_requests", static_cast<std::int64_t>(lag_light.size()));
  d.set("heavy_requests", static_cast<std::int64_t>(lag_heavy.size()));
  d.set("limit_ms", kLimitMs);
  d.set("goodput_probes", std::move(probe_log_));
  d.set("status", status_json(status));
  util::Json lw = util::Json::array(), hw = util::Json::array();
  for (const auto& p : light_) lw.push(quantile(p.latency_ms, 0.5));
  for (const auto& p : heavy_) hw.push(quantile(p.latency_ms, 0.5));
  d.set("light_window_p50", std::move(lw));
  d.set("heavy_window_p50", std::move(hw));
  out.detail.set("serve", std::move(d));
  return out;
}

}  // namespace perfbench
