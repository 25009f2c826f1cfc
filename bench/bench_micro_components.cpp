// Component micro-benchmarks (google-benchmark): the building blocks whose
// costs compose the paper's Table 8 — FINCH clustering, AdaIN transfer,
// style extraction, the transfer cache, matmul, FedAvg aggregation — plus
// the observability subsystem's overhead (off and on).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>

#include "baselines/fedavg.hpp"
#include "clustering/finch.hpp"
#include "data/dataset.hpp"
#include "data/domain_generator.hpp"
#include "data/partition.hpp"
#include "fl/aggregate.hpp"
#include "fl/client_data.hpp"
#include "fl/comm.hpp"
#include "fl/simulator.hpp"
#include "obs/session.hpp"
#include "style/adain.hpp"
#include "style/encoder.hpp"
#include "style/transfer_cache.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace {

using pardon::tensor::Pcg32;
using pardon::tensor::Tensor;

// Benchmarks that pin the process-wide GEMM backend restore the entry value
// on exit, so the CPUID-probed default (simd where available) still governs
// every un-pinned benchmark that runs after them — BM_RoundLoop_* in
// particular measures whatever a real run would use.
struct BackendGuard {
  pardon::tensor::GemmBackend saved = pardon::tensor::ActiveGemmBackend();
  ~BackendGuard() { pardon::tensor::SetGemmBackend(saved); }
};

void BM_MatMul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Pcg32 rng(1);
  const Tensor a = Tensor::Gaussian({n, n}, 0, 1, rng);
  const Tensor b = Tensor::Gaussian({n, n}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pardon::tensor::MatMul(a, b));
  }
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

// ------------------------------------------------------------ GEMM backends
//
// Direct naive-vs-blocked comparison at the acceptance-criteria shape
// (256^3). Backend and thread count are pinned per benchmark so the numbers
// stay meaningful regardless of PARDON_GEMM / PARDON_GEMM_THREADS; threads
// default to 1 because both kernels are single-accumulator per element and
// the speedup of interest here is the cache/register blocking itself.

void BM_MatMul_Naive(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Pcg32 rng(1);
  const Tensor a = Tensor::Gaussian({n, n}, 0, 1, rng);
  const Tensor b = Tensor::Gaussian({n, n}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pardon::tensor::NaiveMatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul_Naive)->Arg(128)->Arg(256);

void BM_MatMul_Blocked(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  pardon::tensor::SetGemmThreads(
      static_cast<std::size_t>(state.range(1)));
  Pcg32 rng(1);
  const Tensor a = Tensor::Gaussian({n, n}, 0, 1, rng);
  const Tensor b = Tensor::Gaussian({n, n}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pardon::tensor::BlockedMatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  pardon::tensor::SetGemmThreads(1);
}
BENCHMARK(BM_MatMul_Blocked)
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({256, 4});

// The AVX2/FMA tier at the same shapes. Skips (so CI on non-AVX2 hosts still
// runs the binary) rather than crashing when the kernels can't run here; the
// acceptance bar is >=2x over BM_MatMul_Blocked at 128^3.
void BM_MatMul_Simd(benchmark::State& state) {
  if (!pardon::tensor::GemmSimdSupported()) {
    state.SkipWithError("AVX2/FMA not available on this host");
    return;
  }
  const std::int64_t n = state.range(0);
  pardon::tensor::SetGemmThreads(
      static_cast<std::size_t>(state.range(1)));
  Pcg32 rng(1);
  const Tensor a = Tensor::Gaussian({n, n}, 0, 1, rng);
  const Tensor b = Tensor::Gaussian({n, n}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pardon::tensor::SimdMatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  pardon::tensor::SetGemmThreads(1);
}
BENCHMARK(BM_MatMul_Simd)
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({256, 4});

// --------------------------------------------------------- auxiliary kernels
//
// The vectorized non-GEMM hot loops (gated on the active backend): softmax
// over a logits batch and the FINCH / contrastive-loss distance matrix.
// Scalar and simd variants pin the backend so both numbers always exist.

void BM_SoftmaxRows_Scalar(benchmark::State& state) {
  const BackendGuard guard;
  pardon::tensor::SetGemmBackend(pardon::tensor::GemmBackend::kBlocked);
  Pcg32 rng(7);
  const Tensor logits = Tensor::Gaussian({256, 128}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pardon::tensor::SoftmaxRows(logits));
  }
}
BENCHMARK(BM_SoftmaxRows_Scalar);

void BM_SoftmaxRows_Simd(benchmark::State& state) {
  if (!pardon::tensor::GemmSimdSupported()) {
    state.SkipWithError("AVX2/FMA not available on this host");
    return;
  }
  const BackendGuard guard;
  pardon::tensor::SetGemmBackend(pardon::tensor::GemmBackend::kSimd);
  Pcg32 rng(7);
  const Tensor logits = Tensor::Gaussian({256, 128}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pardon::tensor::SoftmaxRows(logits));
  }
}
BENCHMARK(BM_SoftmaxRows_Simd);

void BM_PairwiseL2_Scalar(benchmark::State& state) {
  const BackendGuard guard;
  pardon::tensor::SetGemmBackend(pardon::tensor::GemmBackend::kBlocked);
  Pcg32 rng(8);
  const Tensor a = Tensor::Gaussian({200, 24}, 0, 1, rng);
  const Tensor b = Tensor::Gaussian({200, 24}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pardon::tensor::PairwiseSquaredL2(a, b));
  }
}
BENCHMARK(BM_PairwiseL2_Scalar);

void BM_PairwiseL2_Simd(benchmark::State& state) {
  if (!pardon::tensor::GemmSimdSupported()) {
    state.SkipWithError("AVX2/FMA not available on this host");
    return;
  }
  const BackendGuard guard;
  pardon::tensor::SetGemmBackend(pardon::tensor::GemmBackend::kSimd);
  Pcg32 rng(8);
  const Tensor a = Tensor::Gaussian({200, 24}, 0, 1, rng);
  const Tensor b = Tensor::Gaussian({200, 24}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pardon::tensor::PairwiseSquaredL2(a, b));
  }
}
BENCHMARK(BM_PairwiseL2_Simd);

void BM_Finch(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Pcg32 rng(2);
  const Tensor points = Tensor::Gaussian({n, 24}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pardon::clustering::Finch(points, pardon::clustering::Metric::kCosine));
  }
}
BENCHMARK(BM_Finch)->Arg(50)->Arg(200)->Arg(800);

void BM_AdaInTransfer(benchmark::State& state) {
  Pcg32 rng(3);
  const pardon::style::FrozenEncoder encoder(
      {.in_channels = 6, .feature_channels = 12, .pool = 2, .seed = 7});
  const Tensor image = Tensor::Gaussian({6, 8, 8}, 0, 1, rng);
  pardon::style::StyleVector target;
  target.mu = Tensor::Gaussian({12}, 0, 1, rng);
  target.sigma = pardon::tensor::AddScalar(
      pardon::tensor::Abs(Tensor::Gaussian({12}, 0, 1, rng)), 0.1f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pardon::style::StyleTransferImage(image, target, encoder));
  }
}
BENCHMARK(BM_AdaInTransfer);

void BM_StyleExtraction(benchmark::State& state) {
  Pcg32 rng(4);
  const pardon::style::FrozenEncoder encoder(
      {.in_channels = 6, .feature_channels = 12, .pool = 2, .seed = 7});
  const Tensor image = Tensor::Gaussian({6, 8, 8}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.EncodeStyle(image));
  }
}
BENCHMARK(BM_StyleExtraction);

// Shared setup for the batch-transfer benchmarks: a 256-sample client and a
// 32-row batch of indices, the paper's local-training batch size.
struct TransferBenchFixture {
  TransferBenchFixture()
      : encoder({.in_channels = 6, .feature_channels = 12, .pool = 2,
                 .seed = 7}),
        dataset({.channels = 6, .height = 8, .width = 8}, /*num_classes=*/7,
                /*num_domains=*/4) {
    Pcg32 rng(6);
    for (int i = 0; i < 256; ++i) {
      dataset.Add(Tensor::Gaussian({6 * 8 * 8}, 0, 1, rng), i % 7, i % 4);
    }
    target.mu = Tensor::Gaussian({12}, 0, 1, rng);
    target.sigma = pardon::tensor::AddScalar(
        pardon::tensor::Abs(Tensor::Gaussian({12}, 0, 1, rng)), 0.1f);
    indices.resize(32);
    for (int i = 0; i < 32; ++i) indices[static_cast<std::size_t>(i)] = (i * 13) % 256;
  }
  pardon::style::FrozenEncoder encoder;
  pardon::data::Dataset dataset;
  pardon::style::StyleVector target;
  std::vector<int> indices;
};

// The pre-cache hot path: re-transfer a 32-image batch (what
// ContrastiveTrainLocal did per batch per epoch per round).
void BM_StyleTransferBatch32(benchmark::State& state) {
  const TransferBenchFixture f;
  const Tensor batch = f.dataset.images().Gather(f.indices);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pardon::style::StyleTransferBatch(
        batch, f.target, f.encoder, 6, 8, 8));
  }
}
BENCHMARK(BM_StyleTransferBatch32);

// The cached hot path: fetch the same 32 round-invariant twins by index.
void BM_TransferCacheGather32(benchmark::State& state) {
  const TransferBenchFixture f;
  const pardon::style::TransferCache cache(f.dataset, f.target, f.encoder);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.GatherTransferred(f.indices));
  }
}
BENCHMARK(BM_TransferCacheGather32);

// The one-time cost the cache trades for: transferring the whole client.
void BM_TransferCacheBuild(benchmark::State& state) {
  const TransferBenchFixture f;
  for (auto _ : state) {
    const pardon::style::TransferCache cache(f.dataset, f.target, f.encoder);
    benchmark::DoNotOptimize(cache.cached_bytes());
  }
}
BENCHMARK(BM_TransferCacheBuild);

void BM_FedAvgAggregate(benchmark::State& state) {
  const std::int64_t clients = state.range(0);
  const std::size_t dim = 50000;
  Pcg32 rng(5);
  std::vector<pardon::fl::ClientUpdate> updates(
      static_cast<std::size_t>(clients));
  for (auto& u : updates) {
    u.num_samples = 40;
    u.params.resize(dim);
    for (float& p : u.params) p = rng.NextGaussian();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pardon::fl::FedAvg(updates));
  }
}
BENCHMARK(BM_FedAvgAggregate)->Arg(5)->Arg(20)->Arg(100);

// CRC-32 over one frame payload: the fold threshold, a page, and the size of
// a net_loopback model update (169,452 bytes).
void BM_Crc32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Pcg32 rng(6);
  std::vector<std::uint8_t> bytes(n);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.NextU32());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pardon::fl::Crc32(bytes));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(169452);

// ------------------------------------------------------- observability cost
//
// The acceptance bar for the obs subsystem: with no active sinks every
// instrumentation site must cost one atomic load + branch, so BM_RoundLoop_
// ObsOff must stay within noise (<2%) of the pre-instrumentation baseline.
// BM_RoundLoop_ObsOn measures the enabled cost (span recording + counter
// updates) on the same workload.

// A small FedAvg fleet whose round loop crosses every instrumentation site.
struct RoundLoopFixture {
  RoundLoopFixture() {
    pardon::data::GeneratorConfig config;
    config.num_domains = 2;
    config.num_classes = 3;
    config.shape = {.channels = 2, .height = 4, .width = 4};
    config.seed = 33;
    const pardon::data::DomainGenerator generator(config);
    Pcg32 rng(3);
    pardon::data::Dataset train(config.shape, 3, 2);
    train.Append(generator.GenerateDomain(0, 60, rng));
    train.Append(generator.GenerateDomain(1, 60, rng));
    clients = pardon::data::PartitionHeterogeneous(
        train, {.num_clients = 4, .lambda = 0.5, .seed = 9});
    eval = generator.GenerateDomain(0, 30, rng);
    model_config = pardon::nn::MlpClassifier::Config{
        .input_dim = config.shape.FlatDim(),
        .hidden = {16},
        .embed_dim = 8,
        .num_classes = 3,
        .seed = 13,
    };
    fl_config = pardon::fl::FlConfig{.total_clients = 4,
                                     .participants_per_round = 3,
                                     .rounds = 3,
                                     .batch_size = 16,
                                     .optimizer = {.lr = 3e-3f},
                                     .eval_every = 0,
                                     .seed = 123};
  }

  double Run() const {
    const pardon::fl::Simulator simulator(clients, fl_config);
    pardon::baselines::FedAvg algorithm;
    pardon::nn::MlpClassifier model(model_config);
    return simulator.Run(algorithm, model, {{"eval", &eval}})
        .final_accuracy[0];
  }

  std::vector<pardon::data::Dataset> clients;
  pardon::data::Dataset eval;
  pardon::nn::MlpClassifier::Config model_config;
  pardon::fl::FlConfig fl_config;
};

void BM_RoundLoop_ObsOff(benchmark::State& state) {
  const RoundLoopFixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.Run());
  }
}
BENCHMARK(BM_RoundLoop_ObsOff)->Unit(benchmark::kMillisecond);

void BM_RoundLoop_ObsOn(benchmark::State& state) {
  const RoundLoopFixture f;
  pardon::obs::ObsOptions options;
  options.trace = true;
  options.metrics = true;
  for (auto _ : state) {
    // Session per iteration: each run records into fresh sinks, the way a
    // traced experiment does (no pre-warmed instrument lookups carried over).
    pardon::obs::ObsSession session(options);
    benchmark::DoNotOptimize(f.Run());
  }
}
BENCHMARK(BM_RoundLoop_ObsOn)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- event-engine scale
//
// One full FedAvg round over a lazily sharded 100k-client population with
// K=100 participants and streaming aggregation. The acceptance bar from the
// event-engine change: peak resident updates stay at the inflight cap (8,
// reported as a counter), not K, and no resident per-client vector exists.
// The shard cache is shared across iterations, so after the first warm-up
// iteration this measures the steady-state cost of a round at scale.
void BM_RoundLoop_Streaming_100k(benchmark::State& state) {
  pardon::fl::ShardedSyntheticConfig data_config;
  data_config.generator.num_domains = 2;
  data_config.generator.num_classes = 3;
  data_config.generator.shape = {.channels = 1, .height = 2, .width = 2};
  data_config.generator.seed = 41;
  data_config.num_clients = 100'000;
  data_config.samples_per_client = 8;
  data_config.shard_size = 64;
  data_config.max_cached_shards = 4;
  data_config.seed = 29;
  const auto provider =
      std::make_shared<pardon::fl::ShardedSyntheticClientData>(data_config);

  const pardon::nn::MlpClassifier model({
      .input_dim = data_config.generator.shape.FlatDim(),
      .hidden = {8},
      .embed_dim = 4,
      .num_classes = 3,
      .seed = 13,
  });
  pardon::fl::FlConfig fl_config{.total_clients = 100'000,
                                 .participants_per_round = 100,
                                 .rounds = 1,
                                 .batch_size = 8,
                                 .optimizer = {.lr = 3e-3f},
                                 .eval_every = 0,
                                 .seed = 123};
  fl_config.aggregation = pardon::fl::AggregationMode::kStreaming;
  fl_config.max_inflight_updates = 8;

  const pardon::fl::Simulator simulator(provider, fl_config);
  pardon::baselines::FedAvg algorithm;
  std::int64_t peak = 0;
  for (auto _ : state) {
    const pardon::fl::SimulationResult result =
        simulator.Run(algorithm, model, {});
    peak = result.peak_resident_updates;
    benchmark::DoNotOptimize(result.costs.local_train_seconds);
  }
  state.counters["peak_resident_updates"] = static_cast<double>(peak);
}
BENCHMARK(BM_RoundLoop_Streaming_100k)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
