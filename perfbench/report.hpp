// Statistics and the per-pass record the perfbench binary prints. Each pass
// runs in a fresh process (perfbench/run.py starts one per pass), so a pass's
// figures, peak resident set included, are those of one run of the workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "timing_algorithm.hpp"

namespace pardon::perfbench {

// A percentile is reported only when at least this many samples lie beyond
// it; with fewer it is "missing" rather than a number.
inline constexpr std::size_t kMinSamplesBeyond = 10;

struct Percentile {
  std::optional<double> value;  // nullopt = missing
  std::size_t n = 0;            // samples it was taken from
};

// Nearest-rank percentile (q in (0, 1)) of `values`.
Percentile PercentileOf(std::vector<double> values, double q);

// Round periods of every run in a pass: from a round's first TrainClient
// entry to the next round's first entry; the last round of a run ends when
// the run returned. Indexed [run][i] in round order.
struct RoundTimeline {
  std::vector<double> start_s;          // first TrainClient entry
  std::vector<double> period_s;         // next start (or run end) - start
  std::vector<double> slowest_train_s;  // longest TrainClient of the round
};
std::vector<RoundTimeline> RoundTimelines(const std::vector<Call>& calls,
                                          const std::vector<RunInfo>& runs);

// Per-layer figures of one traced pass. Percentile figures also carry the
// sample count behind them; one with too few samples beyond it is listed in
// `missing` and reads 0.
struct Layers {
  std::map<std::string, double> value;
  std::map<std::string, std::size_t> samples;
  std::set<std::string> missing;
  // Self time of each layer on the pass's critical path (the thread that
  // drives the rounds), in seconds: together they tile the traced run_s.
  std::map<std::string, double> self_s;

  void SetPercentile(const std::string& name, const Percentile& percentile) {
    value[name] = percentile.value.value_or(0.0);
    samples[name] = percentile.n;
    if (!percentile.value.has_value()) missing.insert(name);
  }
};

// What one pass of a workload produced. End-to-end fields are filled on
// every pass; `layers` only on traced passes.
struct PassResult {
  double run_s = 0.0;
  double setup_s = 0.0;
  std::int64_t attempted = 0;  // client trainings started
  std::int64_t failed = 0;     // client updates that never reached the fold
  std::int64_t folded = 0;     // client updates folded into a global model
  std::vector<double> round_ms;
  // The accuracy table, printed at round-trip precision: every pass of one
  // build must reproduce it exactly.
  std::string accuracy_table;
  double test_acc_pct = 0.0;
  double wire_mb_per_round = 0.0;
  // Digest of the final global parameters where a workload has one model
  // (empty otherwise): equal digests across passes mean bitwise-equal runs.
  std::string params_digest;
  std::vector<std::string> check_failures;
  Layers layers;
};

// FNV-1a over the parameters' bytes, as 16 hex digits.
std::string ParamsDigest(const std::vector<float>& params);

// Run context stamped on every result, so figures from different hosts,
// backends or builds are never compared by mistake.
struct RunContext {
  unsigned nproc = 0;
  std::string gemm_backend;
  std::size_t gemm_threads = 0;
  std::size_t sim_threads = 0;
  std::string build_type;
  std::string compiler;
};

// Peak resident set of this process, in MB (10^6 bytes).
double PeakRssMb();

// The pass as one JSON line (perfbench/run.py aggregates the passes).
std::string PassJson(const PassResult& pass, const RunContext& context);

}  // namespace pardon::perfbench
