// perfbench: one benchmark invocation.
//
//   perfbench --workload <cold-campaign|serve-mix> --seed N --seconds S
//             --trace <0|1> --workdir DIR [--counts-dir DIR]
//
// Runs in --workdir (created if needed; every file the workload writes
// lands there) and prints the result object as the last line of stdout.
// With --counts-dir, the run's exact counts are compared with (and then
// stored beside) those of earlier runs of the same workload, seed and
// mode. Exit code 0 when the run completed, 1 on a usage or set-up error.
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <cold-campaign|serve-mix> "
               "--seed N --seconds S --trace <0|1> --workdir DIR "
               "[--counts-dir DIR]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::g_process_start = perfbench::Clock::now();
  perfbench::Options options;
  std::string workdir;
  std::string counts_dir;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (key == "--workdir") {
        workdir = value;
      } else if (key == "--counts-dir") {
        counts_dir = std::filesystem::absolute(value).string();
      } else {
        return usage();
      }
    }
    if (argc % 2 != 1 || options.workload.empty() || workdir.empty() ||
        options.seconds <= 0)
      return usage();
    std::filesystem::create_directories(workdir);
    std::filesystem::current_path(workdir);
    perfbench::Result result = perfbench::run_benchmark(options);
    if (!counts_dir.empty()) {
      std::filesystem::create_directories(counts_dir);
      perfbench::check_repeatable(
          result, counts_dir + "/" + options.workload + "-seed" +
                      std::to_string(options.seed) + "-trace" +
                      (options.trace ? "1" : "0") + ".txt");
    }
    std::cout << perfbench::result_json(
                     result, options.trace ? perfbench::per_layer_metrics()
                                           : perfbench::end_to_end_metrics())
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
