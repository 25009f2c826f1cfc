// Umbrella header: everything a downstream user needs to run FISC or any
// baseline on a synthetic federated domain-generalization scenario.
//
//   #include "pardon.hpp"
//
// For finer-grained builds include the per-module headers directly (each is
// self-contained); this header exists for quick starts and examples.
#pragma once

// Substrate.
#include "tensor/io.hpp"          // IWYU pragma: export
#include "tensor/linalg.hpp"      // IWYU pragma: export
#include "tensor/ops.hpp"         // IWYU pragma: export
#include "tensor/rng.hpp"         // IWYU pragma: export
#include "tensor/tensor.hpp"      // IWYU pragma: export

// Neural networks.
#include "nn/checkpoint.hpp"      // IWYU pragma: export
#include "nn/layers.hpp"          // IWYU pragma: export
#include "nn/losses.hpp"          // IWYU pragma: export
#include "nn/mlp.hpp"             // IWYU pragma: export
#include "nn/optimizer.hpp"       // IWYU pragma: export

// Clustering.
#include "clustering/finch.hpp"   // IWYU pragma: export
#include "clustering/quality.hpp" // IWYU pragma: export

// Data.
#include "data/batcher.hpp"           // IWYU pragma: export
#include "data/dataset.hpp"           // IWYU pragma: export
#include "data/domain_generator.hpp"  // IWYU pragma: export
#include "data/normalize.hpp"         // IWYU pragma: export
#include "data/partition.hpp"         // IWYU pragma: export
#include "data/presets.hpp"           // IWYU pragma: export
#include "data/splits.hpp"            // IWYU pragma: export

// Style.
#include "style/adain.hpp"        // IWYU pragma: export
#include "style/encoder.hpp"      // IWYU pragma: export
#include "style/interpolate.hpp"  // IWYU pragma: export
#include "style/perturb.hpp"      // IWYU pragma: export
#include "style/style_stats.hpp"  // IWYU pragma: export

// Federated learning.
#include "fl/aggregate.hpp"           // IWYU pragma: export
#include "fl/algorithm.hpp"           // IWYU pragma: export
#include "fl/comm.hpp"                // IWYU pragma: export
#include "fl/local_training.hpp"      // IWYU pragma: export
#include "fl/sampler.hpp"             // IWYU pragma: export
#include "fl/simulator.hpp"           // IWYU pragma: export

// FISC and baselines.
#include "baselines/ccst.hpp"      // IWYU pragma: export
#include "baselines/fedavg.hpp"    // IWYU pragma: export
#include "baselines/feddg_ga.hpp"  // IWYU pragma: export
#include "baselines/fedgma.hpp"    // IWYU pragma: export
#include "baselines/fedprox.hpp"   // IWYU pragma: export
#include "baselines/fedsr.hpp"     // IWYU pragma: export
#include "baselines/fpl.hpp"       // IWYU pragma: export
#include "core/fisc.hpp"           // IWYU pragma: export

// Privacy and metrics.
#include "metrics/evaluation.hpp"      // IWYU pragma: export
#include "metrics/recorder.hpp"        // IWYU pragma: export
#include "metrics/tsne.hpp"            // IWYU pragma: export
#include "privacy/domain_inference.hpp" // IWYU pragma: export
#include "privacy/dp_accounting.hpp"   // IWYU pragma: export
#include "privacy/frechet.hpp"         // IWYU pragma: export
#include "privacy/inception_score.hpp" // IWYU pragma: export
#include "privacy/inversion_attack.hpp" // IWYU pragma: export

// Utilities.
#include "util/config.hpp"       // IWYU pragma: export
#include "util/flags.hpp"        // IWYU pragma: export
#include "util/logging.hpp"      // IWYU pragma: export
#include "util/stopwatch.hpp"    // IWYU pragma: export
#include "util/table.hpp"        // IWYU pragma: export
#include "util/thread_pool.hpp"  // IWYU pragma: export
