// Benchmark harness shared by the workloads: the metric catalogue and the
// result line, order statistics, process memory, the stratified operation
// mix and a counting storage environment.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "io/env.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Captured first thing in main(): setup_s counts from here.
extern Clock::time_point g_process_start;

// ---- metrics ---------------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics (untraced run) and the per-layer metrics (traced
/// run), in output order. BENCHMARK.json lists exactly these names and
/// units; the self-test holds the two in step.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// What one benchmark invocation prints as its last line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;  ///< metric name → value
  /// Simulated or counted quantities that must repeat exactly for a seed.
  std::map<std::string, double> exact;

  /// Records one failed operation (or failed check) and why, on stderr.
  void fail(const std::string& why);
};

/// Compares `result.exact` with the counts an earlier run with the same
/// workload, seed and mode stored in `path`: any difference is drift,
/// i.e. nondeterminism, and fails the run. Then stores the union.
void check_repeatable(Result& result, const std::string& path);

/// One-line JSON: {"correct", "attempted", "failed", "metrics": {name:
/// {"value", "unit"}}} over every metric of `specs`, in catalogue order.
/// CheckError when a metric of the catalogue was not measured or a
/// measured one is not in it.
std::string result_json(const Result& result,
                        const std::vector<MetricSpec>& specs);

// ---- statistics and process state ------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> sample, double q);

/// High-water mark of the resident set (VmHWM), MiB.
double peak_rss_mb();
/// Current resident set (VmRSS), KiB.
double rss_kb();

/// Reads a whole file; empty when it cannot be read.
std::string slurp(const std::string& path);

// ---- workload mix ----------------------------------------------------------

/// Seeded stratified order over `shapes` operation shapes: every block of
/// `shapes` consecutive draws holds each shape exactly once, in an order
/// the seed picks. Any seed therefore does the same work per block. Draw i
/// is a pure function of (seed, i), so concurrent clients can share one
/// sequence by index.
class StratifiedMix {
 public:
  StratifiedMix(std::size_t shapes, std::uint64_t seed);
  /// The shape of draw `i`.
  std::size_t at(std::size_t i) const;
  /// The next draw of a sequential walk from draw 0.
  std::size_t next() { return at(pos_++); }

 private:
  std::size_t shapes_;
  std::uint64_t seed_;
  std::size_t pos_ = 0;
  mutable std::size_t cached_block_ = ~std::size_t{0};
  mutable std::vector<std::size_t> block_;
};

// ---- storage accounting ----------------------------------------------------

/// Exact storage-syscall counts and device time, read through io::Env.
struct IoCounts {
  std::uint64_t writes = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t renames = 0;
  double fsync_seconds = 0.0;
};

/// io::Env that forwards every call to the real syscall and counts the
/// durability calls (and times fsync). Install with io::ScopedEnv.
class CountingEnv : public scaltool::io::Env {
 public:
  ssize_t write(int fd, const void* buf, std::size_t count) override;
  int fsync(int fd) override;
  int rename(const char* from, const char* to) override;

  IoCounts counts() const;

 private:
  mutable std::mutex mu_;
  IoCounts counts_;
};

}  // namespace perfbench
