#include "src/core/metrics_observer.h"

#include <string>
#include <utility>

#include "src/obs/metrics.h"

namespace pipemare::core {

namespace {

obs::Gauge& gauge(const std::string& name) {
  return obs::MetricsRegistry::instance().gauge(name);
}

}  // namespace

MetricsObserver::MetricsObserver(ExecutionBackend& backend,
                                 std::string metrics_path)
    : backend_(&backend), metrics_path_(std::move(metrics_path)) {}

void MetricsObserver::on_epoch(EpochRecord& record) {
  gauge("train.epoch").set(static_cast<double>(record.epoch));
  gauge("train.loss").set(record.train_loss);
  if (!record.is_divergence_record()) gauge("train.metric").set(record.metric);
  gauge("train.param_norm").set(record.param_norm);

  // Steals since construction (or the last stats reset), summed over the
  // backend's slots; uninstrumented backends report no slots.
  const auto stats = backend_->stage_stats();
  if (!stats.empty()) {
    std::uint64_t steals = 0;
    for (const auto& s : stats) steals += s.stolen_items;
    gauge("sched.total_steals").set(static_cast<double>(steals));
  }

  if (!metrics_path_.empty()) {
    obs::MetricsRegistry::instance().write_json(metrics_path_);
  }
}

}  // namespace pipemare::core
