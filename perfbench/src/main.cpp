// chiron_perfbench — one benchmark run of one workload.
//
//   chiron_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --out-dir <dir>
//
// Prints a context line ({"context": ...}: host CPUs, build type, compiler
// and flags) and, as the last stdout line, the result object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the traced variant and reports the
// per-layer metrics of the layers the workload calls. The span tree of a
// traced run is written to <out-dir>/trace-<workload>-<seed>.jsonl.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.h"
#include "runtime/pipeline.h"
#include "runtime/runtime.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "chiron_perfbench: " << why
            << "\nusage: chiron_perfbench --workload "
               "<train_cnn|market_100k|market_adv_10k|serve_100> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir>\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("bad --seed " + v);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("bad --seconds " + v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      o.trace = v == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || !have_seed || o.out_dir.empty())
    usage("--workload, --seed and --out-dir are required");
  struct stat st {};
  if (stat(argv[0], &st) == 0) {
    o.build_id = std::to_string(st.st_size) + "-" +
                 std::to_string(st.st_mtim.tv_sec) + "." +
                 std::to_string(st.st_mtim.tv_nsec);
  } else {
    o.build_id = "unknown";
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "chiron_perfbench: refusing to measure a '"
              << PERFBENCH_BUILD_TYPE
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  // Fixed concurrency: training and market workloads run the library
  // serially; serve_100 uses its own 2 server workers plus the generator.
  chiron::runtime::set_threads(1);
  chiron::runtime::set_pipeline(false);

  std::cout << "{\"context\": {\"host_cpus\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"cxx_flags\": \"" << PERFBENCH_CXX_FLAGS
            << "\", \"library_threads\": 1, \"workload\": \"" << opt.workload
            << "\", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
            << "}}" << std::endl;

  Result res;
  Tracer tracer(opt.trace);
  try {
    if (opt.workload == "train_cnn") {
      run_train_cnn(opt, res, tracer);
    } else if (opt.workload == "market_100k") {
      run_market(opt, res, tracer, false);
    } else if (opt.workload == "market_adv_10k") {
      run_market(opt, res, tracer, true);
    } else if (opt.workload == "serve_100") {
      run_serve(opt, res, tracer);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "chiron_perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (res.attempted < 1) {
    std::cerr << "chiron_perfbench: no ops completed\n";
    return 1;
  }
  if (opt.trace) {
    tracer.write_jsonl(opt.out_dir + "/trace-" + opt.workload + "-" +
                       std::to_string(opt.seed) + ".jsonl");
  }
  std::cout << res.to_json() << std::endl;
  return 0;
}
