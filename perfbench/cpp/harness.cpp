#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace perfbench {

Clock::time_point g_process_start = Clock::now();

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"op_p50_ms", "ms"},
      {"op_p90_ms", "ms"},
      {"peak_rss_mb", "MiB"},
      {"sim_maccess_per_s", "M/s"},
      {"mp_err_pct", "%"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      // simulator, per workload op (exact counts, then host time)
      {"sim.runs_per_op", "count"},
      {"sim.accesses_per_op", "count"},
      {"sim.cycles_per_op", "count"},
      {"sim.l1_hits_per_op", "count"},
      {"sim.l2_hits_per_op", "count"},
      {"sim.mem_misses_per_op", "count"},
      {"sim.invalidations_per_op", "count"},
      {"sim.interventions_per_op", "count"},
      {"sim.busy_ms_per_op", "ms"},
      {"sim.ns_per_access", "ns"},
      // simulator, per access path
      {"sim.ns_per_l1_hit", "ns"},
      {"sim.ns_per_l2_hit", "ns"},
      {"sim.ns_per_mem_miss", "ns"},
      {"sim.ns_per_coherence_op", "ns"},
      // apps + trace generation
      {"apps.ns_per_access", "ns"},
      // engine scheduling
      {"engine.jobs_per_op", "count"},
      {"engine.utilization", "fraction"},
      {"engine.straggler_ms", "ms"},
      // engine replay
      {"engine.overhead_us_per_job", "us"},
      {"cache.find_us", "us"},
      {"cache.hit_ratio", "fraction"},
      // engine durability
      {"cache.load_ms", "ms"},
      {"cache.save_ms", "ms"},
      {"cache.entries", "count"},
      {"cache.size_in_matrices", "matrices"},
      {"journal.append_us", "us"},
      {"durable.commit_ms", "ms"},
      {"durable.collect_ms", "ms"},
      // io, per warm collect
      {"io.fsyncs_per_collect", "count"},
      {"io.writes_per_collect", "count"},
      {"io.bytes_written_per_collect", "B"},
      {"io.renames_per_collect", "count"},
      {"io.fsync_ms_per_collect", "ms"},
      // runner + archive
      {"runner.plan_us", "us"},
      {"runner.assemble_us", "us"},
      {"archive.write_us", "us"},
      {"archive.parse_us", "us"},
      {"archive.bytes", "B"},
      // core + math
      {"model.analyze_us", "us"},
      {"model.whatif_us", "us"},
      {"model.render_us", "us"},
      // serve
      {"serve.parse_us", "us"},
      {"serve.serialize_us", "us"},
      {"serve.ping_ms", "ms"},
      {"serve.call_ms", "ms"},
      {"serve.result_cache_hit_ratio", "fraction"},
      {"serve.sim_runs", "count"},
      {"serve.rss_kb_per_request", "KiB"},
      // whole op
      {"trace.sampled_ops", "count"},
      {"other_pct", "%"},
      {"trace_overhead_pct", "%"},
  };
  return specs;
}

void Result::fail(const std::string& why) {
  ++failed;
  correct = false;
  std::cerr << "perfbench: failed: " << why << "\n";
}

namespace {

/// Every digit a double carries (shortest-round-trip is not needed, only
/// that no measured digit is dropped).
std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string result_json(const Result& result,
                        const std::vector<MetricSpec>& specs) {
  std::set<std::string> known;
  for (const MetricSpec& spec : specs) known.insert(spec.name);
  for (const auto& [name, value] : result.values)
    ST_CHECK_MSG(known.count(name), "metric " << name << " not catalogued");
  std::ostringstream os;
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = result.values.find(spec.name);
    ST_CHECK_MSG(it != result.values.end(),
                 "metric " << spec.name << " was not measured");
    ST_CHECK_MSG(std::isfinite(it->second),
                 "metric " << spec.name << " is not finite");
    os << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": "
       << json_number(it->second) << ", \"unit\": \""
       << spec.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void check_repeatable(Result& result, const std::string& path) {
  std::map<std::string, double> stored;
  {
    std::ifstream is(path);
    std::string name;
    double value = 0;
    while (is >> name >> value) stored[name] = value;
  }
  for (const auto& [name, value] : result.exact) {
    const auto it = stored.find(name);
    if (it == stored.end()) continue;
    if (it->second != value)
      result.fail(name + " drifted from an earlier run with this seed: " +
                  json_number(it->second) + " vs " + json_number(value));
  }
  for (const auto& [name, value] : result.exact) stored.emplace(name, value);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    for (const auto& [name, value] : stored)
      os << name << " " << json_number(value) << "\n";
  }
  std::rename(tmp.c_str(), path.c_str());
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sample[lo] + frac * (sample[hi] - sample[lo]);
}

namespace {

/// A "Key:   <n> kB" line of /proc/self/status, in KiB.
double status_kb(const std::string& key) {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(key + ":", 0) != 0) continue;
    std::istringstream fields(line.substr(key.size() + 1));
    double kb = 0.0;
    fields >> kb;
    return kb;
  }
  ST_CHECK_MSG(false, "/proc/self/status has no " << key);
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_kb("VmHWM") / 1024.0; }

double rss_kb() { return status_kb("VmRSS"); }

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

StratifiedMix::StratifiedMix(std::size_t shapes, std::uint64_t seed)
    : shapes_(shapes), seed_(seed), block_(shapes) {
  ST_CHECK_MSG(shapes > 0, "a mix needs at least one shape");
}

std::size_t StratifiedMix::at(std::size_t i) const {
  const std::size_t block = i / shapes_;
  if (block != cached_block_) {
    scaltool::Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (block + 1)));
    std::iota(block_.begin(), block_.end(), std::size_t{0});
    for (std::size_t k = shapes_ - 1; k > 0; --k)
      std::swap(block_[k], block_[rng.next_below(k + 1)]);
    cached_block_ = block;
  }
  return block_[i % shapes_];
}

ssize_t CountingEnv::write(int fd, const void* buf, std::size_t count) {
  const ssize_t n = Env::write(fd, buf, count);
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.writes;
  if (n > 0) counts_.bytes_written += static_cast<std::uint64_t>(n);
  return n;
}

int CountingEnv::fsync(int fd) {
  const Clock::time_point start = Clock::now();
  const int rc = Env::fsync(fd);
  const double took = seconds_since(start);
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.fsyncs;
  counts_.fsync_seconds += took;
  return rc;
}

int CountingEnv::rename(const char* from, const char* to) {
  const int rc = Env::rename(from, to);
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.renames;
  return rc;
}

IoCounts CountingEnv::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

}  // namespace perfbench
