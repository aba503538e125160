#pragma once

// Training phase of a workload: repeated whole training trials through
// core::train_loop over timing decorators of the task and the execution
// backend, the correctness checks every trial must pass, and the
// end-to-end and per-layer figures reduced from them.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/core/trainer.h"
#include "src/data/translation_data.h"

namespace perfbench {

struct TrainSpec {
  pipemare::core::TrainerConfig cfg;  ///< recipe, backend, epochs, init seed
  double target = 0.0;  ///< test-accuracy target (%) of cpu_s_to_target
  /// Test accuracy (%) the trained model must reach, or the run is wrong.
  double quality_floor = 0.0;
  /// First-epoch per-step losses must equal, bitwise, those of the
  /// "sequential" engine on the same seed and config.
  bool parity = false;
  /// Versioned-weights engine: observed staleness within the Table 1
  /// bound, and exactly 2N items per stage per step.
  bool versioned = false;
  /// Stochastic-delay engine: tau <= the backend's max_delay, and each
  /// stage's mean tau against the configured (2(P-i)+1)/N profile.
  bool hogwild = false;
  /// Translation tasks: teacher-forced token accuracy on this test split
  /// is the accuracy metric (the task's own metric, BLEU, is reported).
  const pipemare::data::SynthTranslationDataset* token_eval = nullptr;
  /// Trace epochs [2, 3] of the second trial into `<trace_prefix>.train.json`
  /// and run the per-module probe into `<trace_prefix>.probe.json`.
  bool traced = false;
  std::string trace_prefix;
};

/// One named pass/fail correctness check with its evidence.
struct Checks {
  bool ok = true;
  pipemare::util::Json list = pipemare::util::Json::array();
  void require(bool cond, const std::string& what, const std::string& detail);
  /// A check counted as one operation whose failure is a known fault of the
  /// program: listed, and counted in `failed` by the caller, but it leaves
  /// `ok` (the verdict on every other check) alone. Returns `cond`.
  bool known_fault(bool cond, const std::string& what, const std::string& detail);
};

struct TrainOutcome {
  pipemare::util::Json e2e = pipemare::util::Json::object();     ///< name -> value
  pipemare::util::Json layers = pipemare::util::Json::object();  ///< name -> value
  pipemare::util::Json detail = pipemare::util::Json::object();
  /// Optimizer steps attempted, plus one mean-tau check per stage and
  /// trial on the stochastic-delay engine.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< divergent steps and failed mean-tau checks
  double setup_s = 0.0;
};

struct Trial;

/// Whole training trials of one workload, run one at a time so the driver
/// can interleave them with serving windows.
class TrainPhase {
 public:
  TrainPhase(const pipemare::core::Task& task, const TrainSpec& spec);
  ~TrainPhase();
  TrainPhase(const TrainPhase&) = delete;
  TrainPhase& operator=(const TrainPhase&) = delete;

  /// One full training run from a fresh backend (the second one is traced
  /// in a traced run).
  void run_trial();
  /// Trained weights of the first trial (the served checkpoint).
  std::span<const float> weights() const;
  /// Checks every trial, then reduces them to the end-to-end and per-layer
  /// figures (and runs the per-module probe when asked).
  TrainOutcome finish(Checks& checks);

 private:
  const pipemare::core::Task& task_;
  const TrainSpec& spec_;
  std::vector<std::unique_ptr<Trial>> trials_;
};

}  // namespace perfbench
