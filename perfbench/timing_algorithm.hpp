// Timing from outside the program: a forwarding fl::Algorithm that records
// when each Setup, TrainClient and Aggregate call starts and ends, and
// forwards every other virtual unchanged. The simulator and the socket client
// see the wrapped method exactly as they would see the method itself, so the
// run's results are bitwise those of an unwrapped run
// (tests/timing_algorithm_test.cpp proves it).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fl/algorithm.hpp"

namespace pardon::perfbench {

using Clock = std::chrono::steady_clock;

enum class Hook { kSetup, kTrainClient, kAggregate };

// One timed hook call. `run` indexes CallLog::runs(); times are seconds since
// the log's epoch.
struct Call {
  Hook hook = Hook::kTrainClient;
  int run = 0;
  int round = 0;  // 0 for Setup
  double start_s = 0.0;
  double end_s = 0.0;
};

// One Simulator::Run (or one socket session) of one method.
struct RunInfo {
  std::string method;
  double end_s = 0.0;  // when the run returned; closes its last round
};

// Thread-safe record of every timed call in one pass of a workload.
class CallLog {
 public:
  CallLog() : epoch_(Clock::now()) {}

  CallLog(const CallLog&) = delete;
  CallLog& operator=(const CallLog&) = delete;

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  int AddRun(std::string method) {
    const std::lock_guard<std::mutex> lock(mutex_);
    runs_.push_back({std::move(method), 0.0});
    return static_cast<int>(runs_.size()) - 1;
  }
  void EndRun(int run) {
    const double now = Now();
    const std::lock_guard<std::mutex> lock(mutex_);
    runs_[static_cast<std::size_t>(run)].end_s = now;
  }
  void Record(const Call& call) {
    const std::lock_guard<std::mutex> lock(mutex_);
    calls_.push_back(call);
  }

  // Snapshots; call once the pass's workers have finished.
  std::vector<Call> calls() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }
  std::vector<RunInfo> runs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return runs_;
  }

 private:
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Call> calls_;
  std::vector<RunInfo> runs_;
};

class TimingAlgorithm final : public fl::Algorithm {
 public:
  // Records under `run` (from log.AddRun; wrappers that serve one socket
  // session share it). `log` must outlive this wrapper.
  TimingAlgorithm(std::unique_ptr<fl::Algorithm> inner, CallLog& log, int run)
      : inner_(std::move(inner)), log_(log), run_(run) {}

  std::string Name() const override { return inner_->Name(); }

  void Setup(const fl::FlContext& context) override {
    const double start = log_.Now();
    inner_->Setup(context);
    log_.Record({Hook::kSetup, run_, 0, start, log_.Now()});
  }

  fl::ClientUpdate TrainClient(int client_id, const data::Dataset& data,
                               const nn::MlpClassifier& global_model,
                               int round, tensor::Pcg32& rng) override {
    const double start = log_.Now();
    fl::ClientUpdate update =
        inner_->TrainClient(client_id, data, global_model, round, rng);
    log_.Record({Hook::kTrainClient, run_, round, start, log_.Now()});
    return update;
  }

  std::vector<float> Aggregate(std::span<const float> global_params,
                               std::span<const fl::ClientUpdate> updates,
                               std::span<const int> client_ids,
                               int round) override {
    const double start = log_.Now();
    std::vector<float> params =
        inner_->Aggregate(global_params, updates, client_ids, round);
    log_.Record({Hook::kAggregate, run_, round, start, log_.Now()});
    return params;
  }

  std::vector<std::uint8_t> SaveRoundState() const override {
    return inner_->SaveRoundState();
  }
  void LoadRoundState(std::span<const std::uint8_t> state) override {
    inner_->LoadRoundState(state);
  }
  bool SupportsStreamingAggregation() const override {
    return inner_->SupportsStreamingAggregation();
  }

 private:
  std::unique_ptr<fl::Algorithm> inner_;
  CallLog& log_;
  const int run_;
};

}  // namespace pardon::perfbench
