// perfbench_driver: runs one workload of the benchmark (wall clock and CPU
// time) and writes its result (correctness, operation counts, end-to-end and
// per-layer figures, machine block, checks) as JSON. perfbench/run.py
// builds and invokes it; see perfbench/README.md.
//
// Usage: perfbench_driver --workload=<name> --seed=<n> --seconds=<s>
//          --trace=0|1 --out=<result.json> [--trace-prefix=<path>]
//          [--backend=<name>] [--workers=<W>] [--serve-workers=<W>]
//          [--stages=<P>]
// The last four override the workload's training backend, its worker
// count, the serving worker count and the training stage count; they
// exist for the reference figures in perfbench/README.md.

#include <fstream>
#include <functional>
#include <iostream>
#include <memory>

#include "perfbench/bench.h"
#include "perfbench/serve.h"
#include "perfbench/tasks.h"
#include "perfbench/train.h"
#include "src/core/experiments.h"
#include "src/util/cli.h"
#include "src/util/rng.h"

namespace {

using namespace pipemare;
using namespace perfbench;

constexpr int kMinRounds = 3;

using TaskFactory = std::function<std::unique_ptr<core::Task>(std::uint64_t seed)>;

struct Workload {
  TaskFactory make_task;
  /// Set when the workload serves another model than it trains: that
  /// task's model at its initial weights.
  TaskFactory make_serve_task;
  TrainSpec train;
  ServeSpec serve;
};

/// Training and serving of the four workloads: whole training trials of a
/// fixed recipe, and serving windows at fixed rates.
Workload make_workload(const std::string& name, int cores) {
  Workload w;
  const int serve_workers = std::max(1, cores - 1);  // + the generator thread
  w.serve.workers = serve_workers;
  if (name == "resnet_steal") {
    w.make_task = [](std::uint64_t s) { return std::make_unique<ImagePoolTask>(s); };
    w.train.cfg = core::image_recipe(/*stages=*/12, /*epochs=*/6);
    w.train.cfg.backend = {"threaded_steal",
                           core::StealOptions{.workers = cores,
                                              .mode = sched::StealMode::LoadAware}};
    w.train.target = 53.0;  // seeds tried: 19-49% after epoch 1, 57-81% after 2
    w.train.parity = true;
    w.train.versioned = true;
    // BatchNorm2d normalizes with the statistics of the whole microbatch,
    // so a batched ResNet request gets other outputs than served alone:
    // this workload serves the BatchNorm-free 6x128 MLP of serve_mlp.
    w.make_serve_task = [](std::uint64_t s) { return std::make_unique<MlpTask>(s); };
    w.serve.light_rate = 4000.0;
    w.serve.heavy_rate = 20000.0;
    w.serve.ladder_top = 100000.0;
  } else if (name == "transformer_threaded" || name == "transformer_hogwild") {
    w.make_task = [](std::uint64_t s) { return core::make_iwslt_analog(s); };
    w.train.cfg = core::translation_recipe(/*stages=*/4, /*epochs=*/12);
    if (name == "transformer_threaded") {
      w.train.cfg.backend = "threaded";
      w.train.parity = true;
      w.train.versioned = true;
    } else {
      w.train.cfg.backend = {"threaded_hogwild",
                             core::ThreadedHogwildOptions{.workers = cores, .mean_delay = {}}};
      w.train.hogwild = true;
    }
    // Token accuracy read 11.1-11.7% after epoch 1 and 14.9-22% after
    // epoch 2 over the seeds tried; later epochs overlap between seeds, so
    // a higher target makes time to target jump by a whole epoch from seed
    // to seed. The trained model must still reach 24%.
    w.train.target = 13.0;
    w.train.quality_floor = 24.0;
    w.serve.light_rate = 1000.0;
    w.serve.heavy_rate = 3500.0;
    w.serve.ladder_top = 20000.0;
  } else if (name == "serve_mlp") {
    w.make_task = [](std::uint64_t s) { return std::make_unique<MlpTask>(s); };
    w.train.cfg = core::image_recipe(/*stages=*/4, /*epochs=*/6);
    w.train.cfg.backend = "sequential";
    w.train.versioned = true;
    w.train.target = 92.0;
    w.serve.light_rate = 4000.0;
    w.serve.heavy_rate = 20000.0;
    w.serve.ladder_top = 100000.0;
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "'; use resnet_steal, transformer_threaded, transformer_hogwild or serve_mlp");
  }
  w.train.quality_floor = std::max(w.train.quality_floor, w.train.target);
  w.train.cfg.seed = 1;  // model init and shuffle: fixed; inputs come from --seed
  return w;
}

/// Applies the reference-figure overrides (--backend, --workers,
/// --serve-workers, --stages).
void apply_overrides(const util::Cli& cli, Workload& w) {
  if (cli.has("stages")) w.train.cfg.engine.num_stages = cli.get_int("stages", 4);
  if (cli.has("backend")) {
    const std::string b = cli.get("backend", "sequential");
    const int workers = cli.get_int("workers", 0);
    if (b == "threaded_steal") {
      w.train.cfg.backend = {b, core::StealOptions{.workers = workers}};
    } else if (b == "threaded_hogwild") {
      w.train.cfg.backend = {b, core::ThreadedHogwildOptions{.workers = workers, .mean_delay = {}}};
    } else if (b == "hogwild") {
      w.train.cfg.backend = {b, core::HogwildOptions{}};
    } else {
      w.train.cfg.backend = b;
    }
    w.train.versioned = b == "sequential" || b == "threaded" || b == "threaded_steal";
    w.train.hogwild = b == "threaded_hogwild" || b == "hogwild";
    w.train.parity = b == "threaded" || b == "threaded_steal";
  } else if (cli.has("workers")) {
    const int workers = cli.get_int("workers", 0);
    if (auto* o = std::get_if<core::StealOptions>(&w.train.cfg.backend.options)) {
      o->workers = workers;
    } else if (auto* h = std::get_if<core::ThreadedHogwildOptions>(
                   &w.train.cfg.backend.options)) {
      h->workers = workers;
    }
  }
  if (cli.has("serve-workers")) w.serve.workers = cli.get_int("serve-workers", 1);
}

int run(const util::Cli& cli) {
  const std::string workload = cli.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 10.0);
  const bool traced = cli.get_bool("trace", false);
  const std::string out_path = cli.get("out", "");
  const std::string trace_prefix = cli.get("trace-prefix", "");
  if (workload.empty() || out_path.empty() || seconds <= 0.0 ||
      (traced && trace_prefix.empty())) {
    std::cerr << "usage: perfbench_driver --workload=<name> --seed=<n> --seconds=<s> "
                 "--trace=0|1 --out=<file> [--trace-prefix=<path>]\n";
    return 2;
  }
  const int cores = nproc();
  Workload w = make_workload(workload, cores);
  apply_overrides(cli, w);
  w.train.traced = traced;
  w.train.trace_prefix = trace_prefix;
  w.serve.traced = traced;
  w.serve.trace_path = trace_prefix + ".serve.json";
  const auto task = w.make_task(seed);
  if (const auto* translation = dynamic_cast<const core::TranslationTask*>(task.get())) {
    w.train.token_eval = &translation->dataset();
  }

  warm_up_cpus(cores, 1.0);
  const auto start = Clock::now();
  TrainPhase train_phase(*task, w.train);
  train_phase.run_trial();
  train_phase.run_trial();
  std::unique_ptr<core::Task> serve_task;
  std::vector<float> serve_weights;
  if (w.make_serve_task) {
    serve_task = w.make_serve_task(seed);
    const nn::Model m = serve_task->build_model();
    serve_weights.resize(static_cast<std::size_t>(m.param_count()));
    util::Rng rng(w.train.cfg.seed);
    m.init_params(serve_weights, rng);
  } else {
    const auto trained = train_phase.weights();
    serve_weights.assign(trained.begin(), trained.end());
  }
  ServePhase serve_phase(serve_task ? *serve_task : *task, serve_weights, w.serve, seed);
  serve_phase.run_round();
  // Rounds of two training trials, one light and one heavy serving window
  // and a few goodput probes fill the run, so slow drifts of the machine
  // touch every metric alike and every round attempts the same operations.
  // Two trials a round give the per-step minima more passes to draw on.
  int rounds = 1;
  while (true) {
    const double elapsed = seconds_since(start);
    if (rounds >= kMinRounds && elapsed * (rounds + 1) / rounds > seconds) break;
    train_phase.run_trial();
    train_phase.run_trial();
    serve_phase.run_round();
    ++rounds;
  }
  Checks checks;
  TrainOutcome train = train_phase.finish(checks);
  ServeOutcome serve = serve_phase.finish(checks);

  util::Json e2e = util::Json::object();
  e2e.set("setup_s", train.setup_s + serve.setup_s);
  e2e.set("peak_rss_mib", serve.peak_rss_mib);
  util::Json result = util::Json::object();
  result.set("workload", workload);
  result.set("seed", static_cast<std::int64_t>(seed));
  result.set("seconds", seconds);
  result.set("trace", traced);
  result.set("served_model", w.make_serve_task ? "6x128 MLP at its initial weights"
                                               : "the trained model");
  result.set("correct", checks.ok);
  result.set("attempted", train.attempted + serve.attempted);
  result.set("failed", train.failed + serve.failed);
  util::Json ops = util::Json::object();
  ops.set("train_attempted", train.attempted);  // steps (+ mean-tau checks)
  ops.set("train_failed", train.failed);
  ops.set("requests_attempted", serve.attempted);
  ops.set("requests_failed", serve.failed);
  result.set("operations", std::move(ops));
  result.set("e2e", std::move(e2e));
  result.set("e2e_train", std::move(train.e2e));
  result.set("layers_train", std::move(train.layers));
  result.set("layers_serve", std::move(serve.layers));
  result.set("machine", machine_block());
  result.set("checks", std::move(checks.list));
  result.set("train_detail", std::move(train.detail));
  result.set("serve_detail", std::move(serve.detail));
  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  out << result.dump() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Cli(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 1;
  }
}
