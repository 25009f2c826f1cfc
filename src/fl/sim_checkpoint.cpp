#include "fl/sim_checkpoint.hpp"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "fl/comm.hpp"
#include "tensor/io.hpp"

namespace pardon::fl {

namespace {

using wire::GetF32;
using wire::GetF64;
using wire::GetFloatsU64;
using wire::GetString;
using wire::GetU32;
using wire::GetU64;
using wire::GetU8;
using wire::PutF32;
using wire::PutF64;
using wire::PutFloatsU64;
using wire::PutString;
using wire::PutU32;
using wire::PutU64;
using wire::PutU8;

using Bytes = std::vector<std::uint8_t>;
using Input = std::span<const std::uint8_t>;

constexpr char kMagic[4] = {'P', 'S', 'C', 'K'};
constexpr std::uint32_t kVersion = 1;
// Header = magic + u32 version + u64 payload_size; trailer = u32 CRC.
constexpr std::size_t kHeaderSize = 4 + 4 + 8;
constexpr std::size_t kTrailerSize = 4;
// No legitimate field approaches these; they bound what a CRC-colliding
// corruption could ask the parser to allocate.
constexpr std::uint32_t kMaxStringLength = 1u << 16;
constexpr std::uint32_t kMaxSeriesCount = 1u << 16;

[[noreturn]] void Fail(const std::string& what) {
  throw CheckpointError("sim checkpoint: " + what);
}

// Signed fields travel as their two's-complement bit patterns.
std::int32_t GetI32(Input in, std::size_t& cursor) {
  return static_cast<std::int32_t>(GetU32(in, cursor));
}
std::int64_t GetI64(Input in, std::size_t& cursor) {
  return static_cast<std::int64_t>(GetU64(in, cursor));
}
void PutI32(Bytes& out, std::int32_t v) {
  PutU32(out, static_cast<std::uint32_t>(v));
}
void PutI64(Bytes& out, std::int64_t v) {
  PutU64(out, static_cast<std::uint64_t>(v));
}

// wire::GetString plus the length cap.
std::string GetName(Input in, std::size_t& cursor) {
  std::size_t peek = cursor;
  if (GetU32(in, peek) > kMaxStringLength) Fail("implausible string length");
  return GetString(in, cursor);
}

std::string SanitizeAlgorithmName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return out;
}

void PutFaultPlan(Bytes& out, const FaultPlan& plan) {
  PutF64(out, plan.unavailability);
  PutF64(out, plan.dropout);
  PutF64(out, plan.corruption);
  PutI32(out, plan.max_retries);
  PutF64(out, plan.retry_backoff_seconds);
  PutF64(out, plan.straggler_fraction);
  PutF64(out, plan.straggler_delay_seconds);
  PutU64(out, plan.salt);
}

FaultPlan GetFaultPlan(Input in, std::size_t& cursor) {
  FaultPlan plan;
  plan.unavailability = GetF64(in, cursor);
  plan.dropout = GetF64(in, cursor);
  plan.corruption = GetF64(in, cursor);
  plan.max_retries = GetI32(in, cursor);
  plan.retry_backoff_seconds = GetF64(in, cursor);
  plan.straggler_fraction = GetF64(in, cursor);
  plan.straggler_delay_seconds = GetF64(in, cursor);
  plan.salt = GetU64(in, cursor);
  return plan;
}

void PutConfig(Bytes& out, const FlConfig& config) {
  PutU64(out, config.seed);
  PutI32(out, config.total_clients);
  PutI32(out, config.participants_per_round);
  PutI32(out, config.rounds);
  PutI32(out, config.local_epochs);
  PutI32(out, config.batch_size);
  PutU8(out, static_cast<std::uint8_t>(config.sampling));
  PutU8(out, static_cast<std::uint8_t>(config.optimizer.kind));
  PutF32(out, config.optimizer.lr);
  PutF32(out, config.optimizer.momentum);
  PutF32(out, config.optimizer.weight_decay);
  PutF64(out, config.client_dropout);
  PutFaultPlan(out, config.faults);
  PutU8(out, static_cast<std::uint8_t>(config.aggregation));
  PutI32(out, config.max_inflight_updates);
  PutI32(out, config.eval_every);
  PutF64(out, config.target_accuracy);
}

FlConfig GetConfig(Input in, std::size_t& cursor) {
  FlConfig config;
  config.seed = GetU64(in, cursor);
  config.total_clients = GetI32(in, cursor);
  config.participants_per_round = GetI32(in, cursor);
  config.rounds = GetI32(in, cursor);
  config.local_epochs = GetI32(in, cursor);
  config.batch_size = GetI32(in, cursor);
  config.sampling = static_cast<SamplingStrategy>(GetU8(in, cursor));
  config.optimizer.kind =
      static_cast<nn::OptimizerOptions::Kind>(GetU8(in, cursor));
  config.optimizer.lr = GetF32(in, cursor);
  config.optimizer.momentum = GetF32(in, cursor);
  config.optimizer.weight_decay = GetF32(in, cursor);
  config.client_dropout = GetF64(in, cursor);
  config.faults = GetFaultPlan(in, cursor);
  config.aggregation = static_cast<AggregationMode>(GetU8(in, cursor));
  config.max_inflight_updates = GetI32(in, cursor);
  config.eval_every = GetI32(in, cursor);
  config.target_accuracy = GetF64(in, cursor);
  return config;
}

void PutCosts(Bytes& out, const CostBreakdown& costs) {
  PutF64(out, costs.one_time_seconds);
  PutF64(out, costs.local_train_seconds);
  PutI64(out, costs.client_rounds);
  PutF64(out, costs.aggregate_seconds);
  PutI64(out, costs.aggregate_rounds);
  PutI64(out, costs.no_show_clients);
  PutI64(out, costs.dropped_updates);
  PutI64(out, costs.straggler_events);
  PutF64(out, costs.straggler_delay_seconds);
  PutI64(out, costs.corrupted_messages);
  PutI64(out, costs.retransmissions);
  PutF64(out, costs.retry_backoff_seconds);
  PutI64(out, costs.updates_lost_to_corruption);
  PutI64(out, costs.skipped_rounds);
  PutF64(out, costs.event_time_seconds);
}

CostBreakdown GetCosts(Input in, std::size_t& cursor) {
  CostBreakdown costs;
  costs.one_time_seconds = GetF64(in, cursor);
  costs.local_train_seconds = GetF64(in, cursor);
  costs.client_rounds = GetI64(in, cursor);
  costs.aggregate_seconds = GetF64(in, cursor);
  costs.aggregate_rounds = GetI64(in, cursor);
  costs.no_show_clients = GetI64(in, cursor);
  costs.dropped_updates = GetI64(in, cursor);
  costs.straggler_events = GetI64(in, cursor);
  costs.straggler_delay_seconds = GetF64(in, cursor);
  costs.corrupted_messages = GetI64(in, cursor);
  costs.retransmissions = GetI64(in, cursor);
  costs.retry_backoff_seconds = GetF64(in, cursor);
  costs.updates_lost_to_corruption = GetI64(in, cursor);
  costs.skipped_rounds = GetI64(in, cursor);
  costs.event_time_seconds = GetF64(in, cursor);
  return costs;
}

template <typename T>
void CheckField(const char* name, const T& saved, const T& run) {
  if (saved != run) {
    Fail(std::string("resume config mismatch on '") + name +
         "' — the checkpoint belongs to a different run");
  }
}

}  // namespace

// -- checkpoint serialization ------------------------------------------------

std::vector<std::uint8_t> SerializeSimCheckpoint(const SimCheckpoint& ckpt) {
  Bytes body;
  PutConfig(body, ckpt.config);
  PutString(body, ckpt.algorithm);
  PutI32(body, ckpt.round);
  PutFloatsU64(body, ckpt.global_params.data(), ckpt.global_params.size());
  PutU64(body, ckpt.root_rng.state);
  PutU64(body, ckpt.root_rng.inc);
  PutU8(body, ckpt.root_rng.has_cached_gaussian ? 1 : 0);
  PutF32(body, ckpt.root_rng.cached_gaussian);
  PutU64(body, ckpt.algorithm_state.size());
  body.insert(body.end(), ckpt.algorithm_state.begin(),
              ckpt.algorithm_state.end());
  PutCosts(body, ckpt.costs);
  PutI64(body, ckpt.peak_resident_updates);
  const std::vector<std::string> series = ckpt.recorder.SeriesNames();
  PutU32(body, static_cast<std::uint32_t>(series.size()));
  for (const std::string& name : series) {
    PutString(body, name);
    const std::vector<int> rounds = ckpt.recorder.Rounds(name);
    const std::vector<double> values = ckpt.recorder.Values(name);
    PutU32(body, static_cast<std::uint32_t>(rounds.size()));
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      PutI32(body, rounds[i]);
      PutF64(body, values[i]);
    }
  }

  Bytes bytes(std::begin(kMagic), std::end(kMagic));
  PutU32(bytes, kVersion);
  PutU64(bytes, body.size());
  bytes.insert(bytes.end(), body.begin(), body.end());
  PutU32(bytes, Crc32(body));
  return bytes;
}

SimCheckpoint ParseSimCheckpoint(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize + kTrailerSize) {
    Fail("file too short for header (" + std::to_string(bytes.size()) +
         " bytes)");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    Fail("bad magic (not a simulator checkpoint)");
  }
  std::size_t cursor = sizeof(kMagic);
  const std::uint32_t version = GetU32(bytes, cursor);
  if (version != kVersion) {
    Fail("unsupported version " + std::to_string(version) + " (expected " +
         std::to_string(kVersion) + ")");
  }
  const std::uint64_t payload_size = GetU64(bytes, cursor);
  if (payload_size != bytes.size() - kHeaderSize - kTrailerSize) {
    Fail("payload size mismatch (header says " + std::to_string(payload_size) +
         ", file holds " +
         std::to_string(bytes.size() - kHeaderSize - kTrailerSize) + ")");
  }
  const Input payload =
      bytes.subspan(kHeaderSize, static_cast<std::size_t>(payload_size));
  std::size_t crc_cursor = bytes.size() - kTrailerSize;
  if (Crc32(payload) != GetU32(bytes, crc_cursor)) {
    Fail("CRC-32 mismatch (corrupted payload)");
  }

  cursor = 0;
  SimCheckpoint ckpt;
  ckpt.config = GetConfig(payload, cursor);
  ckpt.algorithm = GetName(payload, cursor);
  ckpt.round = GetI32(payload, cursor);
  ckpt.global_params = GetFloatsU64(payload, cursor);
  ckpt.root_rng.state = GetU64(payload, cursor);
  ckpt.root_rng.inc = GetU64(payload, cursor);
  ckpt.root_rng.has_cached_gaussian = GetU8(payload, cursor) != 0;
  ckpt.root_rng.cached_gaussian = GetF32(payload, cursor);
  const std::uint64_t state_size = GetU64(payload, cursor);
  if (state_size > payload.size() - cursor) {
    Fail("implausible byte blob length");
  }
  const Input state =
      payload.subspan(cursor, static_cast<std::size_t>(state_size));
  ckpt.algorithm_state.assign(state.begin(), state.end());
  cursor += state.size();
  ckpt.costs = GetCosts(payload, cursor);
  ckpt.peak_resident_updates = GetI64(payload, cursor);
  const std::uint32_t num_series = GetU32(payload, cursor);
  if (num_series > kMaxSeriesCount) {
    Fail("implausible recorder series count");
  }
  for (std::uint32_t s = 0; s < num_series; ++s) {
    const std::string name = GetName(payload, cursor);
    const std::uint32_t count = GetU32(payload, cursor);
    if (count > kMaxSeriesCount) {
      Fail("implausible recorder entry count");
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::int32_t round = GetI32(payload, cursor);
      const double value = GetF64(payload, cursor);
      ckpt.recorder.Record(name, round, value);
    }
  }
  // A parser that consumed less than the payload read a different structure
  // than was written.
  if (cursor != payload.size()) {
    Fail("trailing bytes after payload (" +
         std::to_string(payload.size() - cursor) + ")");
  }
  if (ckpt.round < 0) Fail("negative round index");
  return ckpt;
}

void SaveSimCheckpoint(const std::string& path, const SimCheckpoint& ckpt) {
  tensor::AtomicWriteFile(path, SerializeSimCheckpoint(ckpt));
}

SimCheckpoint LoadSimCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("cannot open " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return ParseSimCheckpoint(bytes);
}

void ValidateForResume(const SimCheckpoint& ckpt, const FlConfig& config,
                       const std::string& algorithm_name,
                       std::size_t param_count) {
  if (ckpt.algorithm != algorithm_name) {
    Fail("algorithm mismatch (checkpoint '" + ckpt.algorithm + "' vs run '" +
         algorithm_name + "')");
  }
  if (ckpt.global_params.size() != param_count) {
    Fail("model parameter count mismatch (checkpoint " +
         std::to_string(ckpt.global_params.size()) + " vs run " +
         std::to_string(param_count) + " — model architecture differs)");
  }
  const FlConfig& saved = ckpt.config;
  CheckField("seed", saved.seed, config.seed);
  CheckField("total_clients", saved.total_clients, config.total_clients);
  CheckField("participants_per_round", saved.participants_per_round,
             config.participants_per_round);
  CheckField("rounds", saved.rounds, config.rounds);
  CheckField("local_epochs", saved.local_epochs, config.local_epochs);
  CheckField("batch_size", saved.batch_size, config.batch_size);
  CheckField("sampling", static_cast<int>(saved.sampling),
             static_cast<int>(config.sampling));
  CheckField("optimizer.kind", static_cast<int>(saved.optimizer.kind),
             static_cast<int>(config.optimizer.kind));
  CheckField("optimizer.lr", saved.optimizer.lr, config.optimizer.lr);
  CheckField("optimizer.momentum", saved.optimizer.momentum,
             config.optimizer.momentum);
  CheckField("optimizer.weight_decay", saved.optimizer.weight_decay,
             config.optimizer.weight_decay);
  CheckField("client_dropout", saved.client_dropout, config.client_dropout);
  CheckField("faults.unavailability", saved.faults.unavailability,
             config.faults.unavailability);
  CheckField("faults.dropout", saved.faults.dropout, config.faults.dropout);
  CheckField("faults.corruption", saved.faults.corruption,
             config.faults.corruption);
  CheckField("faults.max_retries", saved.faults.max_retries,
             config.faults.max_retries);
  CheckField("faults.retry_backoff_seconds",
             saved.faults.retry_backoff_seconds,
             config.faults.retry_backoff_seconds);
  CheckField("faults.straggler_fraction", saved.faults.straggler_fraction,
             config.faults.straggler_fraction);
  CheckField("faults.straggler_delay_seconds",
             saved.faults.straggler_delay_seconds,
             config.faults.straggler_delay_seconds);
  CheckField("faults.salt", saved.faults.salt, config.faults.salt);
  CheckField("aggregation", static_cast<int>(saved.aggregation),
             static_cast<int>(config.aggregation));
  CheckField("max_inflight_updates", saved.max_inflight_updates,
             config.max_inflight_updates);
  CheckField("eval_every", saved.eval_every, config.eval_every);
  CheckField("target_accuracy", saved.target_accuracy,
             config.target_accuracy);
  if (ckpt.round > config.rounds) {
    Fail("checkpoint round " + std::to_string(ckpt.round) +
         " exceeds the run's " + std::to_string(config.rounds) + " rounds");
  }
}

std::string CheckpointFileName(const std::string& algorithm,
                               std::uint64_t seed, int round) {
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "_s%llu_r%06d.ckpt",
                static_cast<unsigned long long>(seed), round);
  return "sim_" + SanitizeAlgorithmName(algorithm) + suffix;
}

std::optional<std::string> FindLatestCheckpoint(const std::string& dir,
                                                const std::string& algorithm,
                                                std::uint64_t seed) {
  char prefix_suffix[64];
  std::snprintf(prefix_suffix, sizeof(prefix_suffix), "_s%llu_r",
                static_cast<unsigned long long>(seed));
  const std::string prefix =
      "sim_" + SanitizeAlgorithmName(algorithm) + prefix_suffix;
  const std::string extension = ".ckpt";

  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return std::nullopt;

  int best_round = -1;
  std::string best_path;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + extension.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - extension.size(), extension.size(),
                     extension) != 0) {
      continue;  // skips "*.ckpt.tmp" leftovers from interrupted saves
    }
    const std::string digits = name.substr(
        prefix.size(), name.size() - prefix.size() - extension.size());
    if (digits.empty()) continue;
    int round = 0;
    bool numeric = true;
    for (const char c : digits) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        numeric = false;
        break;
      }
      round = round * 10 + (c - '0');
      if (round > 1'000'000'000) {
        numeric = false;
        break;
      }
    }
    if (!numeric) continue;
    if (round > best_round) {
      best_round = round;
      best_path = entry.path().string();
    }
  }
  if (best_round < 0) return std::nullopt;
  return best_path;
}

}  // namespace pardon::fl
