// Full-simulator checkpoint/resume (see docs/CHECKPOINTING.md).
//
// A SimCheckpoint captures the complete state of Simulator::Run at a round
// boundary — global model parameters, the root RNG stream (whose Fork calls
// advance it every round), per-method server state mutated in Aggregate,
// cumulative cost accounting, the recorder's accuracy series, and an echo of
// every determinism-relevant FlConfig field. Restoring it and running the
// remaining rounds is bitwise identical to an uninterrupted run: same final
// parameters, same accuracies, same deterministic fault accounting, for
// every algorithm, fault plan, aggregation mode, and thread count.
//
// On-disk format (little-endian):
//   "PSCK" | u32 version | u64 payload_size | payload | u32 crc32(payload)
//
// The CRC-32 (IEEE 802.3, shared with the fl/comm wire framing) makes every
// single-byte flip detectable, and payload_size makes every truncation
// detectable; the payload parser (fl::wire) additionally bounds-checks every
// read, so a corrupted file of any shape raises CheckpointError — never
// undefined behavior, never silently wrong state. Files are written atomically
// (tensor::AtomicWriteFile): a crash mid-save leaves at worst a stale
// "*.tmp" alongside intact checkpoints.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fl/types.hpp"
#include "fl/wire.hpp"
#include "metrics/recorder.hpp"
#include "tensor/rng.hpp"

namespace pardon::fl {

// Raised on every load/validation failure: truncation, corruption, version
// or magic mismatch, and config/algorithm mismatches on resume. It is the
// wire codec's decode error, so a truncated field and a failed check are
// caught the same way.
using CheckpointError = wire::WireError;

struct SimCheckpoint {
  // Echo of the run's FlConfig (checkpoint_* fields excluded — changing the
  // checkpoint cadence between save and resume is legal). Validated
  // field-by-field on resume; any divergence would silently break the
  // bitwise contract, so it raises instead.
  FlConfig config;
  // Algorithm::Name() of the run that saved the checkpoint.
  std::string algorithm;
  // Last fully completed round (1-based); resume continues at round + 1.
  int round = 0;
  // Global model parameters after `round` (params + buffers, flat).
  std::vector<float> global_params;
  // The simulator's root RNG after all per-client forks through `round`.
  tensor::Pcg32State root_rng;
  // Opaque per-method server state (Algorithm::SaveRoundState).
  std::vector<std::uint8_t> algorithm_state;
  // Cumulative cost accounting. Deterministic fields (counts and simulated
  // *_seconds) resume bitwise; measured wall-clock fields keep accumulating
  // real work across processes and are excluded from the bitwise contract.
  CostBreakdown costs;
  std::int64_t peak_resident_updates = 0;
  // Recorded evaluation series ("<eval name>" -> (round, accuracy)).
  metrics::Recorder recorder;
};

// -- serialization ----------------------------------------------------------
std::vector<std::uint8_t> SerializeSimCheckpoint(const SimCheckpoint& ckpt);
SimCheckpoint ParseSimCheckpoint(std::span<const std::uint8_t> bytes);

// Atomic write-rename to `path` (directories must exist).
void SaveSimCheckpoint(const std::string& path, const SimCheckpoint& ckpt);
// Throws CheckpointError on any malformed input, including missing files.
SimCheckpoint LoadSimCheckpoint(const std::string& path);

// Throws CheckpointError naming the offending field when the checkpoint does
// not belong to (config, algorithm_name, param_count) — e.g. a different
// seed, fault plan, optimizer, cohort geometry, or model architecture.
void ValidateForResume(const SimCheckpoint& ckpt, const FlConfig& config,
                       const std::string& algorithm_name,
                       std::size_t param_count);

// -- file naming ------------------------------------------------------------
// "sim_<algorithm>_s<seed>_r<round, zero-padded>.ckpt" with non-alphanumeric
// algorithm characters mapped to '_' ("FedDG-GA" -> "FedDG_GA").
std::string CheckpointFileName(const std::string& algorithm,
                               std::uint64_t seed, int round);
// Highest-round checkpoint in `dir` matching (algorithm, seed), or nullopt
// when none exists (including when `dir` itself is missing). "*.tmp" leftovers
// from an interrupted save are never matched.
std::optional<std::string> FindLatestCheckpoint(const std::string& dir,
                                                const std::string& algorithm,
                                                std::uint64_t seed);

}  // namespace pardon::fl
