// One pass of one benchmark workload, printed as a JSON record on stdout.
// perfbench/run.py starts one process per pass, so every pass is a fresh run
// of the workload, and aggregates the records.
//
//   perfbench --workload=pacs_ltdo|iwildcam_obs|net_loopback --seed=N
//             [--traced=0|1]
//   perfbench --workload=net_loopback --reference
//
// --traced=1 also activates the program's trace and metrics sinks and adds
// the per-layer figures. --reference prints the digest of the in-process
// simulator's final parameters on the net workload's scenario instead. Run
// from the repository root: the simulator workloads read configs/*.ini, and
// the run's own files (observability artifacts, the Unix socket) go under
// .bench_build/run.
// Exit codes: 0 success (check_failures in the record may still be
// non-empty), 2 usage or runtime error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "report.hpp"
#include "tensor/gemm.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

int main(int argc, char** argv) {
  using namespace pardon;
  using namespace pardon::perfbench;

  const util::Flags flags(argc, argv);
  util::SetLogLevel(util::LogLevel::kWarn);
  const std::string name = flags.GetString("workload", "");
  try {
    if (flags.GetBool("reference", false)) {
      if (name != "net_loopback") {
        std::fprintf(stderr, "perfbench: --reference is for net_loopback\n");
        return 2;
      }
      std::printf("{\"params_digest\":\"%s\"}\n", NetSimulatorDigest().c_str());
      return 0;
    }

    WorkloadOptions options;
    options.seed = std::stoull(flags.GetString("seed", "0"));
    options.out_dir = ".bench_build/run";
    std::filesystem::create_directories(options.out_dir);

    // At most nproc threads compute at once: one simulator pool of nproc
    // workers, and GEMM pinned serial inside them.
    tensor::SetGemmThreads(1);
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    util::ThreadPool pool(nproc);

    std::unique_ptr<Workload> workload;
    if (name == "pacs_ltdo") {
      workload = MakeSimWorkload(name, "configs/pacs_ltdo.ini", false, options,
                                 pool);
    } else if (name == "iwildcam_obs") {
      workload = MakeSimWorkload(name, "configs/iwildcam.ini", true, options,
                                 pool);
    } else if (name == "net_loopback") {
      workload = MakeNetWorkload(options);
    } else {
      std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                   name.c_str());
      return 2;
    }

    const PassResult pass = workload->RunPass(flags.GetBool("traced", false));
    const RunContext context{
        .nproc = nproc,
        .gemm_backend =
            std::string(tensor::ToString(tensor::ActiveGemmBackend())),
        .gemm_threads = tensor::GemmThreadPool() == nullptr
                            ? 1
                            : tensor::GemmThreadPool()->NumThreads(),
        .sim_threads = pool.NumThreads(),
        .build_type = PERFBENCH_BUILD_TYPE,
        .compiler = __VERSION__,
    };
    std::printf("%s\n", PassJson(pass, context).c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
