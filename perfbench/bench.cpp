#include "perfbench/bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <ctime>
#include <fstream>
#include <thread>

#include "src/tensor/kernels/registry.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  CpuTicks t;
  if (!(f >> cpu) || cpu != "cpu") return t;
  for (auto& x : v) f >> x;
  for (auto x : v) t.total += x;
  t.steal = v[7];
  return t;
}

void warm_up_cpus(int threads, double seconds) {
  const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  std::vector<std::thread> spinners;
  for (int i = 0; i < threads; ++i) {
    spinners.emplace_back([until] {
      while (Clock::now() < until) {
      }
    });
  }
  for (auto& t : spinners) t.join();
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

pipemare::util::Json machine_block() {
  using pipemare::tensor::kernels::KernelRegistry;
  pipemare::util::Json m = pipemare::util::Json::object();
  m.set("nproc", nproc());
  m.set("hardware_concurrency", static_cast<int>(std::thread::hardware_concurrency()));
  m.set("kernel_kind", std::string(KernelRegistry::name()));
  m.set("tiled_isa", std::string(KernelRegistry::tiled_isa()));
#if defined(__clang__)
  m.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  m.set("compiler", std::string("gcc ") + __VERSION__);
#else
  m.set("compiler", "unknown");
#endif
  m.set("build_type", PERFBENCH_BUILD_TYPE);
  return m;
}

}  // namespace perfbench
