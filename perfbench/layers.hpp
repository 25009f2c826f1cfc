// Per-layer attribution of a traced pass, from two sources: the benchmark's
// own hook timings (TimingAlgorithm) and the spans and counters the program
// already emits while an obs::ObsSession is active.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "obs/session.hpp"
#include "report.hpp"
#include "timing_algorithm.hpp"

namespace pardon::perfbench {

// train_client_ms_p50/p95.<method>, train_client_busy_s, aggregate_ms_p50.
// <method>, aggregate_busy_s and setup_s.<method> from the hook calls.
void AddHookLayers(const std::vector<Call>& calls,
                   const std::vector<RunInfo>& runs, Layers& layers);

// Span sums on the thread that ran fl::Simulator::Run (also its share of
// Layers::self_s), and the program's tensor/util/style/fl counters; a layer
// the pass did not exercise is left out. Call after AddHookLayers (the
// ratios read train_client_busy_s). `workers` is the simulator pool size.
void AddProgramLayers(obs::ObsSession& session, std::size_t workers,
                      Layers& layers);

}  // namespace pardon::perfbench
