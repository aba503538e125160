#pragma once

// Serving phase of a workload: serve::PipelineServer over a checkpoint,
// driven by one open-loop Poisson generator thread at two fixed rates plus
// a goodput search, with every response checked bitwise against the
// benchmark's own single-request forward.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/train.h"
#include "src/core/task.h"
#include "src/serve/pipeline_server.h"

namespace perfbench {

struct ServeSpec {
  int workers = 1;          ///< serving workers (the generator is one more thread)
  double light_rate = 0.0;  ///< req/s
  double heavy_rate = 0.0;  ///< req/s
  double ladder_top = 0.0;  ///< highest goodput rate tried (req/s)
  bool traced = false;      ///< trace the first light window
  std::string trace_path;
};

struct ServeOutcome {
  pipemare::util::Json layers = pipemare::util::Json::object();
  pipemare::util::Json detail = pipemare::util::Json::object();
  std::int64_t attempted = 0;  ///< requests submitted
  std::int64_t failed = 0;     ///< requests that did not complete Ok
  double setup_s = 0.0;        ///< server construction + start (median)
  /// Peak RSS before the first goodput probe, whose overloaded probes
  /// queue a backlog that depends on the search path.
  double peak_rss_mib = 0.0;
};

struct RequestPool;
struct PhaseResult;

/// Serves a checkpoint of task.build_model() with request inputs drawn
/// from task.minibatch rows under `seed`. Each round runs one light and one
/// heavy open-loop window and the next steps of the goodput search, with
/// the same number of requests in every round.
class ServePhase {
 public:
  ServePhase(const pipemare::core::Task& task, std::span<const float> weights,
             const ServeSpec& spec, std::uint64_t seed);
  ~ServePhase();
  ServePhase(const ServePhase&) = delete;
  ServePhase& operator=(const ServePhase&) = delete;

  void run_round();
  ServeOutcome finish(Checks& checks);

 private:
  void probe_goodput();

  const ServeSpec& spec_;
  std::uint64_t seed_;
  pipemare::nn::Model model_;
  std::unique_ptr<RequestPool> pool_;
  std::vector<double> ladder_;
  int probe_requests_ = 0;  ///< requests of every goodput probe
  std::vector<double> setup_s_;
  double peak_rss_mib_ = 0.0;
  std::vector<PhaseResult> light_, heavy_, probes_;
  // Goodput search: bisection over ladder_ rungs [lo_, hi_), then a
  // staircase from stair_ whose probed rates are stairs_.
  int lo_ = 0, hi_ = 0, stair_ = 0;
  std::vector<double> stairs_;
  pipemare::util::Json probe_log_ = pipemare::util::Json::array();
  std::unique_ptr<pipemare::serve::PipelineServer> server_;  ///< last: stops first
};

}  // namespace perfbench
