// The benchmark's workloads. A pass is one closed-loop run of a workload
// (every round waits for its K updates); perfbench/run.py repeats passes for
// the measuring time and reports medians.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "report.hpp"
#include "util/thread_pool.hpp"

namespace pardon::perfbench {

struct WorkloadOptions {
  // Orders the work a pass submits (see SeededOrder). The committed configs
  // fix every value that affects results, so every seed computes the same
  // results and seeds differ only in submission order.
  std::uint64_t seed = 0;
  // Directory (relative to the working directory) for the run's own files:
  // observability artifacts and the Unix socket.
  std::string out_dir;
};

// A permutation of [0, n) drawn from (seed, salt): Fisher-Yates over
// std::mt19937_64, whose output the standard fixes.
inline std::vector<int> SeededOrder(int n, std::uint64_t seed,
                                    std::uint64_t salt) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::mt19937_64 engine(seed * 0x9E3779B97F4A7C15ULL + salt);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[engine() % i]);
  }
  return order;
}

class Workload {
 public:
  virtual ~Workload() = default;

  // One full pass. A traced pass also activates the program's trace and
  // metrics sinks and fills PassResult::layers.
  virtual PassResult RunPass(bool traced) = 0;
};

// `config_path` is a committed paper config (configs/*.ini). With
// `observability` the program's trace, metrics and manifest sinks are on in
// every pass, writing their artifacts under options.out_dir.
std::unique_ptr<Workload> MakeSimWorkload(const std::string& name,
                                          const std::string& config_path,
                                          bool observability,
                                          const WorkloadOptions& options,
                                          util::ThreadPool& pool);

// Sample-weighted FedAvg over Unix-domain sockets: net::FlServer on the
// calling thread, one net::RunClient thread per client.
std::unique_ptr<Workload> MakeNetWorkload(const WorkloadOptions& options);
// ParamsDigest of fl::Simulator::Run on the net workload's scenario: every
// socket pass must end in these parameters (tools/net_demo's --compare
// contract).
std::string NetSimulatorDigest();

}  // namespace pardon::perfbench
