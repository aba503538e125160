#pragma once

// Shared helpers of the wall-clock benchmark driver: clocks, order
// statistics, the machine block every result carries, and the span helper
// that names the benchmark's own layer spans.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/util/json_writer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Linear-interpolation quantile (numpy's default "linear" method): the
/// q-quantile of the sorted sample at fractional rank q * (n - 1). NaN for
/// an empty sample (a run that failed before measuring; its checks fail).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// max / mean of a non-negative sample (1 = perfectly even); 0 when the
/// sample is empty or all zero.
inline double spread(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const double m = mean(v);
  return m > 0.0 ? *std::max_element(v.begin(), v.end()) / m : 0.0;
}

/// Interned, immortal copy of a span name: obs::TraceRecorder stores the
/// name pointer, so names built at run time must outlive the recorder.
inline const char* intern(const std::string& name) {
  static std::set<std::string> names;
  return names.insert(name).first->c_str();
}

/// Category of every span the benchmark records around a layer call; the
/// reducer in perfbench/reduce.py keys its per-layer table on it.
inline constexpr const char* kSpanCat = "perfbench";

/// Trace-clock timestamp for record_span (0 while tracing is off).
inline std::uint64_t trace_now() {
  pipemare::obs::TraceRecorder& r = pipemare::obs::TraceRecorder::instance();
  return r.enabled() ? r.now_ns() : 0;
}

/// Records a completed benchmark span [start_ns, end_ns) (trace_now()
/// stamps) on the calling thread; a no-op unless tracing is enabled. For
/// intervals that open and close in different calls, where an RAII
/// obs::Span cannot be used.
inline void record_span(const char* name, std::uint64_t start_ns,
                        std::uint64_t end_ns) {
  pipemare::obs::TraceRecorder& r = pipemare::obs::TraceRecorder::instance();
  if (!r.enabled() || start_ns == 0 || end_ns < start_ns) return;
  r.record_complete(name, kSpanCat, start_ns, end_ns - start_ns, -1, -1, -1);
}

/// Spins `threads` threads for `seconds` before any measurement: virtual
/// CPUs that sat idle run slowly for about a second once loaded again.
void warm_up_cpus(int threads, double seconds);

/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double peak_rss_mib();

/// CPU time of the whole process, all threads (ms).
double process_cpu_ms();

/// Steal and total ticks of all CPUs from /proc/stat (0, 0 when unreadable).
struct CpuTicks {
  std::uint64_t steal = 0, total = 0;
};
CpuTicks cpu_ticks();

/// nproc, hardware_concurrency, kernel kind, tiled ISA, compiler and
/// build type: the block every result carries so each number names the
/// machine and kernels it was measured with.
pipemare::util::Json machine_block();

/// Worker threads the process may use: sched_getaffinity's CPU count
/// (what `nproc` prints), at least 1.
int nproc();

}  // namespace perfbench
