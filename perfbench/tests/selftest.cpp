// Tests of the benchmark's own code: the stratified mix, the counting
// storage environment, and the result line against BENCHMARK.json.
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "harness.hpp"
#include "obs/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using scaltool::obs::JsonValue;

TEST(StratifiedMix, EveryBlockHoldsEveryShapeOnceForAnySeed) {
  for (const std::uint64_t seed : {0ULL, 1ULL, 2ULL, 99ULL, ~0ULL}) {
    for (const std::size_t shapes : {1u, 2u, 12u, 16u}) {
      StratifiedMix mix(shapes, seed);
      for (int block = 0; block < 20; ++block) {
        std::set<std::size_t> seen;
        for (std::size_t i = 0; i < shapes; ++i) {
          const std::size_t s = mix.next();
          ASSERT_LT(s, shapes);
          seen.insert(s);
        }
        EXPECT_EQ(seen.size(), shapes) << "seed " << seed << " block " << block;
      }
    }
  }
}

std::vector<std::size_t> draws(std::uint64_t seed, std::size_t n) {
  StratifiedMix mix(16, seed);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(mix.next());
  return out;
}

TEST(StratifiedMix, SameSeedSameSequenceDifferentSeedsDiffer) {
  EXPECT_EQ(draws(7, 64), draws(7, 64));
  std::set<std::vector<std::size_t>> distinct;
  for (std::uint64_t seed = 1; seed <= 10; ++seed)
    distinct.insert(draws(seed, 64));
  EXPECT_EQ(distinct.size(), 10u);
}

TEST(Shapes, SeedDrawsJitterButKeepsTheShapeGrid) {
  const std::vector<Shape> a = cold_shapes(1), b = cold_shapes(2);
  ASSERT_EQ(a.size(), 16u);
  bool differ = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].max_procs, b[i].max_procs);
    EXPECT_EQ(a[i].s0 / 65536, b[i].s0 / 65536);  // same L2 multiple
    differ = differ || a[i].s0 != b[i].s0;
  }
  EXPECT_TRUE(differ);
}

TEST(CountingEnv, CountsAKnownSequenceExactly) {
  const std::filesystem::path dir = "perfbench_selftest_io";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string a = (dir / "a").string(), b = (dir / "b").string();
  CountingEnv env;
  const int fd = ::open(a.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(env.write(fd, "hello", 5), 5);
  EXPECT_EQ(env.write(fd, "world!", 6), 6);
  EXPECT_EQ(env.fsync(fd), 0);
  ASSERT_EQ(::close(fd), 0);
  EXPECT_EQ(env.rename(a.c_str(), b.c_str()), 0);
  const IoCounts c = env.counts();
  EXPECT_EQ(c.writes, 2u);
  EXPECT_EQ(c.bytes_written, 11u);
  EXPECT_EQ(c.fsyncs, 1u);
  EXPECT_EQ(c.renames, 1u);
  EXPECT_GE(c.fsync_seconds, 0.0);
  EXPECT_EQ(slurp(b), "helloworld!");

  // Installed process-wide, it sees the program's own durability calls.
  {
    const scaltool::io::ScopedEnv scope(&env);
    const int fd2 = ::open(b.c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(fd2, 0);
    scaltool::io::write_all(scaltool::io::Env::instance(), fd2, "x", 1, b);
    ::close(fd2);
  }
  const IoCounts d = env.counts();
  EXPECT_EQ(d.writes, 3u);
  EXPECT_EQ(d.bytes_written, 12u);
  EXPECT_EQ(d.fsyncs, 1u);
  EXPECT_EQ(d.renames, 1u);
  std::filesystem::remove_all(dir);
}

/// name → unit of one BENCHMARK.json metric list.
std::map<std::string, std::string> spec_units(const JsonValue& list) {
  std::map<std::string, std::string> units;
  for (const JsonValue& m : list.as_array())
    units[m.at("name").as_string()] = m.at("unit").as_string();
  return units;
}

std::map<std::string, std::string> catalogue_units(
    const std::vector<MetricSpec>& specs) {
  std::map<std::string, std::string> units;
  for (const MetricSpec& s : specs) units[s.name] = s.unit;
  return units;
}

TEST(ResultLine, CataloguesMatchBenchmarkJson) {
  const JsonValue spec = scaltool::obs::json_parse(slurp(PERFBENCH_SPEC));
  EXPECT_EQ(spec_units(spec.at("end_to_end")),
            catalogue_units(end_to_end_metrics()));
  EXPECT_EQ(spec_units(spec.at("per_layer")),
            catalogue_units(per_layer_metrics()));
  std::set<std::string> workloads;
  for (const JsonValue& w : spec.at("workloads").as_array())
    workloads.insert(w.at("name").as_string());
  EXPECT_EQ(workloads,
            (std::set<std::string>{"cold-campaign", "serve-mix"}));
}

TEST(ResultLine, ParsesAndNamesEveryMetricWithItsUnit) {
  for (const std::vector<MetricSpec>* specs :
       {&end_to_end_metrics(), &per_layer_metrics()}) {
    Result result;
    result.attempted = 12;
    result.failed = 1;
    result.correct = false;
    double v = 0.125;
    for (const MetricSpec& s : *specs) result.values[s.name] = v += 1.0 / 3;
    const JsonValue line = scaltool::obs::json_parse(result_json(result, *specs));
    EXPECT_FALSE(line.at("correct").as_bool());
    EXPECT_EQ(line.at("attempted").as_number(), 12);
    EXPECT_EQ(line.at("failed").as_number(), 1);
    const JsonValue::Object& metrics = line.at("metrics").as_object();
    ASSERT_EQ(metrics.size(), specs->size());
    for (const MetricSpec& s : *specs) {
      const JsonValue& m = line.at("metrics").at(s.name);
      EXPECT_EQ(m.at("unit").as_string(), s.unit);
      EXPECT_EQ(m.at("value").as_number(), result.values[s.name]);  // all digits
    }
  }
}

TEST(ResultLine, RefusesMissingOrUncataloguedMetrics) {
  Result result;
  EXPECT_THROW(result_json(result, end_to_end_metrics()), scaltool::CheckError);
  for (const MetricSpec& s : end_to_end_metrics()) result.values[s.name] = 1;
  result.values["not_a_metric"] = 1;
  EXPECT_THROW(result_json(result, end_to_end_metrics()), scaltool::CheckError);
}

TEST(Quantile, InterpolatesLinearly) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(quantile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.9), 9.0);
}

}  // namespace
}  // namespace perfbench
