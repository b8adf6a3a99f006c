#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "apps/apps.hpp"
#include "common/check.hpp"
#include "serve/service.hpp"
#include "serve/transport.hpp"

namespace perfbench {

using namespace scaltool;

namespace {

constexpr std::size_t kL2Bytes = 64 * 1024;

/// SocketServer keeps each finished connection thread until stop(), and
/// the process aborts somewhere below 40k of them (NOTES.md, "serve
/// connection-thread leak"). serve-mix therefore restarts the server
/// after every kServeEpochBlocks ops (160 × 12 = 1920 requests): each run
/// peaks with the same number of leaked threads, so peak_rss_mb shows the
/// leak without depending on how fast the run went, and a fix of the leak
/// shows as a drop.
constexpr std::size_t kServeEpochBlocks = 160;
constexpr int kServeClients = 2;

const char* const kServeSocket = "serve.sock";
/// Times kSetupReps repetitions of `rep` (the first from process start)
/// and records their median as setup_s. The last repetition's state is
/// the one the timed loop uses; `teardown` drops the previous one untimed.
template <typename Rep, typename Teardown>
void timed_setup(Result& result, Rep&& rep, Teardown&& teardown) {
  std::vector<double> times;
  for (int i = 0; i < kSetupReps; ++i) {
    if (i > 0) teardown();
    const Clock::time_point start = i == 0 ? g_process_start : Clock::now();
    rep();
    times.push_back(seconds_since(start));
  }
  result.values["setup_s"] = quantile(times, 0.5);
}

/// Equal-work windows of a timed loop: each complete block of the
/// stratified mix, or each serve epoch. Every window does the same work,
/// so each metric is the median over windows, which keeps a slow phase of
/// the host that covers a minority of the run out of the figures. A
/// window's p90 counts only when it holds at least 100 ops (ten beyond
/// the p90); with smaller windows the p90 is taken over the whole run.
struct Windows {
  std::vector<double> ops_per_s;
  std::vector<double> accesses_per_s;
  std::vector<double> p50_s;
  std::vector<double> p90_s;
  void add(double ops, double accesses, double seconds,
           const std::vector<double>& latencies_s) {
    ops_per_s.push_back(ops / seconds);
    accesses_per_s.push_back(accesses / seconds);
    if (!latencies_s.empty()) p50_s.push_back(quantile(latencies_s, 0.5));
    if (latencies_s.size() >= 100)
      p90_s.push_back(quantile(latencies_s, 0.9));
  }
};

/// The latency, throughput and memory metrics of a timed loop.
void loop_metrics(Result& result, const std::vector<double>& latencies_s,
                  const Windows& windows) {
  result.values["ops_per_s"] = quantile(windows.ops_per_s, 0.5);
  result.values["sim_maccess_per_s"] =
      quantile(windows.accesses_per_s, 0.5) / 1e6;
  result.values["op_p50_ms"] = quantile(windows.p50_s, 0.5) * 1e3;
  result.values["op_p90_ms"] =
      (windows.p90_s.empty() ? quantile(latencies_s, 0.9)
                             : quantile(windows.p90_s, 0.5)) *
      1e3;
  result.values["peak_rss_mb"] = peak_rss_mb();
  if (latencies_s.size() < 100)
    std::fprintf(stderr,
                 "perfbench: only %zu ops completed; op_p90_ms needs 100\n",
                 latencies_s.size());
}

double mean_mp_err(const std::vector<Matrix>& matrices) {
  double sum = 0.0;
  int points = 0;
  for (const Matrix& m : matrices) {
    int n = 0;
    sum += mp_err_sum(m.report, m.inputs, &n);
    points += n;
  }
  return sum / points;
}

// ---- cold-campaign ----------------------------------------------------------

Result run_cold_campaign(const Options& options) {
  Result result;
  const std::vector<Shape> shapes = cold_shapes(options.seed);
  const int jobs = host_threads();
  std::unique_ptr<ExperimentRunner> runner;

  // Set-up: the runner plus one warm-up campaign per app on every core.
  timed_setup(
      result,
      [&] {
        runner = std::make_unique<ExperimentRunner>(make_runner());
        for (const std::string& app : bench_apps())
          cold_op(*runner, Shape{app, 4 * kL2Bytes, 8}, jobs);
      },
      [&] { runner.reset(); });

  StratifiedMix mix(shapes.size(), options.seed);
  std::map<std::size_t, std::string> first_output;  // shape → its report
  double err_sum = 0.0;
  int err_points = 0;
  std::vector<double> latencies;
  Windows windows;
  double block_ops = 0, block_accesses = 0;
  std::vector<double> block_latencies;
  Clock::time_point block_start = Clock::now();
  const Clock::time_point loop_start = block_start;
  while (result.attempted < shapes.size() ||
         seconds_since(loop_start) < options.seconds) {
    const std::size_t idx = mix.next();
    const Shape& shape = shapes[idx];
    ++result.attempted;
    try {
      const Clock::time_point start = Clock::now();
      const ColdOp op = cold_op(*runner, shape, jobs);
      latencies.push_back(seconds_since(start));
      block_latencies.push_back(latencies.back());
      block_accesses += static_cast<double>(op.accesses);
      const auto [it, first] = first_output.emplace(idx, op.text);
      if (first) {
        err_sum += op.err_sum;
        err_points += op.err_points;
      }
      if (op.stats.jobs_run != op.stats.jobs_total || op.stats.jobs_failed)
        result.fail(shape.label() + ": not every job simulated cleanly");
      else if (!first && it->second != op.text)
        result.fail(shape.label() + ": report differs from its first run");
      else
        block_ops += 1;
    } catch (const std::exception& e) {
      result.fail(shape.label() + ": " + e.what());
    }
    if (result.attempted % shapes.size() == 0) {
      windows.add(block_ops, block_accesses, seconds_since(block_start),
                  block_latencies);
      block_ops = block_accesses = 0;
      block_latencies.clear();
      block_start = Clock::now();
    }
  }
  loop_metrics(result, latencies, windows);
  result.values["mp_err_pct"] = result.exact["mp_err_pct"] =
      err_sum / err_points;
  return result;
}

// ---- serve-mix --------------------------------------------------------------

Result run_serve_mix(const Options& options) {
  Result result;
  const std::vector<Shape> shapes = serve_shapes(options.seed);
  std::vector<Matrix> matrices;
  ServeFixture fixture;

  // Set-up: the benchmark's own copy of the matrices (simulated on every
  // core; it yields the expected answers, mp_err_pct and access counts),
  // then the server, which simulates its own copy on start-up.
  timed_setup(
      result,
      [&] {
        matrices = simulate_matrices(make_runner(), shapes);
        start_serve(fixture, matrices, kServeSocket);
      },
      [&] {
        fixture.server.reset();
        fixture.service.reset();
      });
  const std::map<std::string, std::string>& analysis = fixture.analysis;
  std::unique_ptr<serve::SocketServer>& server = fixture.server;

  const std::uint64_t setup_runs = fixture.service->stats().simulator_runs;
  std::map<std::string, std::uint64_t> accesses_of;
  for (const Matrix& m : matrices) accesses_of[m.shape.app] = m.accesses;
  const ServeMix mix(shapes, options.seed);

  // What one op's answers must be; "" when they are right.
  const auto check = [&](const serve::Request& request,
                         const serve::Response& response) -> std::string {
    const std::string what = request.op + " " + request.args.front();
    if (response.status != serve::Status::kOk || response.exit_code != 0)
      return what + ": status " + serve::status_name(response.status);
    if (request.op == "analyze" &&
        response.output != analysis.at(request.args.front()))
      return what + ": bytes differ";
    if (request.op == "whatif" &&
        response.output.rfind("== What-if: CLI scenario ==", 0) != 0)
      return what + ": no what-if table";
    return "";
  };

  struct ClientLog {
    std::uint64_t attempted = 0;
    std::vector<double> latencies;
    std::vector<std::string> failures;
    std::uint64_t accesses = 0;
  };
  std::vector<ClientLog> logs(kServeClients);
  std::atomic<std::size_t> next{0};  // the next block of the mix
  const Clock::time_point loop_start = Clock::now();
  // An op is one client's pass over a block of the mix: its 12 requests,
  // one after another, each on a new connection.
  const auto client = [&](ClientLog& log, std::size_t epoch_end) {
    const ServeMix own = mix;  // request() caches its current block
    for (;;) {
      const std::size_t b = next.fetch_add(1);
      if (b >= epoch_end ||
          (b > 0 && seconds_since(loop_start) >= options.seconds))
        return;
      ++log.attempted;
      std::vector<serve::Request> requests;
      for (std::size_t i = b * mix.block(); i < (b + 1) * mix.block(); ++i)
        requests.push_back(own.request(i));
      std::vector<serve::Response> responses;
      std::string failure;
      const Clock::time_point start = Clock::now();
      try {
        for (const serve::Request& request : requests)
          responses.push_back(serve::socket_call(kServeSocket, request));
      } catch (const std::exception& e) {
        failure = e.what();
      }
      log.latencies.push_back(seconds_since(start));
      std::uint64_t accesses = 0;
      for (std::size_t i = 0; i < responses.size() && failure.empty(); ++i) {
        failure = check(requests[i], responses[i]);
        accesses += accesses_of.at(requests[i].args.front());
      }
      if (failure.empty())
        log.accesses += accesses;
      else
        log.failures.push_back(failure);
    }
  };
  // One server lifetime per epoch of kServeEpochBlocks ops (see
  // kServeEpochBlocks); the epochs are the throughput windows.
  Windows windows;
  for (std::size_t epoch_end = kServeEpochBlocks;
       next.load() == 0 || seconds_since(loop_start) < options.seconds;
       epoch_end += kServeEpochBlocks) {
    if (!server)
      server = std::make_unique<serve::SocketServer>(*fixture.service,
                                                      kServeSocket);
    const auto totals = [&logs] {
      double ok = 0, accesses = 0;
      for (const ClientLog& log : logs) {
        ok += static_cast<double>(log.attempted - log.failures.size());
        accesses += static_cast<double>(log.accesses);
      }
      return std::pair{ok, accesses};
    };
    const auto [ok_before, accesses_before] = totals();
    std::vector<std::size_t> timed_before;
    for (const ClientLog& log : logs)
      timed_before.push_back(log.latencies.size());
    const Clock::time_point epoch_start = Clock::now();
    {
      std::vector<std::thread> clients;
      for (ClientLog& log : logs)
        clients.emplace_back(client, std::ref(log), epoch_end);
      for (std::thread& t : clients) t.join();
    }
    const double epoch_seconds = seconds_since(epoch_start);
    const auto [ok_after, accesses_after] = totals();
    std::vector<double> epoch_latencies;
    for (std::size_t c = 0; c < logs.size(); ++c)
      epoch_latencies.insert(
          epoch_latencies.end(),
          logs[c].latencies.begin() + static_cast<long>(timed_before[c]),
          logs[c].latencies.end());
    // A final epoch cut short by the clock is not a full window.
    if (next.load() >= epoch_end || windows.ops_per_s.empty())
      windows.add(ok_after - ok_before, accesses_after - accesses_before,
                  epoch_seconds, epoch_latencies);
    next.store(std::min(next.load(), epoch_end));
    server.reset();
  }

  std::vector<double> latencies;
  for (const ClientLog& log : logs) {
    latencies.insert(latencies.end(), log.latencies.begin(),
                     log.latencies.end());
    result.attempted += log.attempted;
    for (const std::string& why : log.failures) result.fail(why);
  }
  if (fixture.service->stats().simulator_runs != setup_runs)
    result.fail("serve-mix simulated during the timed loop");
  loop_metrics(result, latencies, windows);
  result.values["mp_err_pct"] = result.exact["mp_err_pct"] =
      mean_mp_err(matrices);
  return result;
}

}  // namespace

int host_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

std::vector<std::string> Shape::matrix_args() const {
  return {"--size=" + std::to_string(s0),
          "--max-procs=" + std::to_string(max_procs),
          "--iters=" + std::to_string(kIters)};
}

std::string Shape::label() const {
  return app + "/s0=" + std::to_string(s0) + "/p" + std::to_string(max_procs);
}

const std::vector<std::string>& bench_apps() {
  static const std::vector<std::string> apps = {"t3dheat", "hydro2d", "swim",
                                                "lu"};
  return apps;
}

std::size_t seeded_s0(int multiple, std::uint64_t seed, std::size_t shape) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + shape + 1);
  return static_cast<std::size_t>(multiple) * kL2Bytes +
         512 * static_cast<std::size_t>(rng.next_below(8));
}

std::vector<Shape> cold_shapes(std::uint64_t seed) {
  std::vector<Shape> shapes;
  for (const std::string& app : bench_apps())
    for (const int multiple : {4, 10})
      for (const int max_procs : {8, 32})
        shapes.push_back(Shape{app, seeded_s0(multiple, seed, shapes.size()),
                               max_procs});
  return shapes;
}

std::vector<Shape> serve_shapes(std::uint64_t seed) {
  std::vector<Shape> shapes;
  for (const std::string& app : bench_apps())
    shapes.push_back(
        Shape{app, seeded_s0(10, seed, 100 + shapes.size()), 8});
  return shapes;
}

ExperimentRunner make_runner() {
  register_standard_workloads();
  ExperimentRunner runner(MachineConfig::origin2000_scaled(1));
  runner.iterations = kIters;
  return runner;
}

std::string render_analysis(const ScalabilityReport& report,
                            const ScalToolInputs& inputs) {
  std::ostringstream os;
  os << model_summary(report) << "\n";
  speedup_table(inputs).print(os);
  breakdown_table(report).print(os);
  if (!inputs.validation.empty()) validation_table(report, inputs).print(os);
  return os.str();
}

double mp_err_sum(const ScalabilityReport& report,
                  const ScalToolInputs& inputs, int* points) {
  double sum = 0.0;
  int n = 0;
  for (const BottleneckPoint& p : report.points) {
    const ValidationRecord& v = inputs.validation_for(p.n);
    const double est_curve = p.base_cycles - (p.sync_cost + p.imb_cost);
    const double meas_curve = v.accumulated_cycles - v.mp_cycles;
    sum += 100.0 * std::abs(est_curve - meas_curve) / p.base_cycles;
    ++n;
  }
  *points = n;
  return sum;
}

std::uint64_t matrix_accesses(std::span<const JobOutcome> outcomes) {
  std::uint64_t total = 0;
  for (const JobOutcome& o : outcomes)
    total += static_cast<std::uint64_t>(
        std::llround(o.record.metrics.mem_frac * o.record.metrics.instructions));
  return total;
}

std::vector<Matrix> simulate_matrices(const ExperimentRunner& runner,
                                      const std::vector<Shape>& shapes) {
  CampaignOptions options;
  options.jobs = host_threads();
  CampaignEngine engine(runner, options);
  std::vector<Matrix> matrices;
  for (const Shape& shape : shapes) {
    Matrix m;
    m.shape = shape;
    m.plan = runner.plan_matrix(shape.app, shape.s0,
                                default_proc_counts(shape.max_procs));
    m.outcomes = engine.execute(m.plan);
    m.inputs = assemble_matrix(m.plan, m.outcomes);
    m.report = analyze(m.inputs);
    m.accesses = matrix_accesses(m.outcomes);
    matrices.push_back(std::move(m));
  }
  return matrices;
}

ColdOp cold_op(const ExperimentRunner& runner, const Shape& shape, int jobs) {
  CampaignOptions options;
  options.jobs = jobs;
  CampaignEngine engine(runner, options);
  const MatrixPlan plan = runner.plan_matrix(
      shape.app, shape.s0, default_proc_counts(shape.max_procs));
  const std::vector<JobOutcome> outcomes = engine.execute(plan);
  const ScalToolInputs inputs = assemble_matrix(plan, outcomes);
  const ScalabilityReport report = analyze(inputs);
  ColdOp op;
  op.text = render_analysis(report, inputs);
  op.stats = engine.stats();
  op.accesses = matrix_accesses(outcomes);
  op.err_sum = mp_err_sum(report, inputs, &op.err_points);
  return op;
}

ServeMix::ServeMix(std::vector<Shape> matrices, std::uint64_t seed)
    : matrices_(std::move(matrices)), mix_(3 * matrices_.size(), seed) {
  Rng rng(seed ^ 0x5e7fe5ULL);
  for (std::size_t k = 0; k < block(); ++k)
    offsets_.push_back(rng.next_double());
}

serve::Request ServeMix::request(std::size_t i) const {
  // Shape k: app k / 3; kind k % 3 (analyze, --l2x, --tm-scale).
  const std::size_t k = mix_.at(i);
  const Shape& shape = matrices_[k / 3];
  serve::Request request = analyze_request(shape);
  request.id = obs::JsonValue(static_cast<double>(i));
  if (k % 3 == 0) return request;
  request.op = "whatif";
  const double walk = offsets_[k] + 0.6180339887498949 *
                                        static_cast<double>(i / block());
  const double x = walk - std::floor(walk);
  char flag[64];
  if (k % 3 == 1)
    std::snprintf(flag, sizeof flag, "--l2x=%.9f", 1.5 + 2.5 * x);
  else
    std::snprintf(flag, sizeof flag, "--tm-scale=%.9f", 0.5 + 0.5 * x);
  request.args.push_back(flag);
  return request;
}

serve::Request analyze_request(const Shape& shape) {
  serve::Request request;
  request.op = "analyze";
  request.args = {shape.app};
  for (const std::string& a : shape.matrix_args()) request.args.push_back(a);
  return request;
}

void start_serve(ServeFixture& fixture, const std::vector<Matrix>& matrices,
                 const std::string& socket) {
  fixture.service = std::make_unique<serve::AnalysisService>();
  std::vector<std::future<serve::Response>> answers;
  for (const Matrix& m : matrices)
    answers.push_back(fixture.service->submit(analyze_request(m.shape)));
  for (std::size_t i = 0; i < matrices.size(); ++i) {
    const Matrix& m = matrices[i];
    const std::string expected = render_analysis(m.report, m.inputs);
    const serve::Response response = answers[i].get();
    ST_CHECK_MSG(response.status == serve::Status::kOk &&
                     response.output == expected,
                 "serve set-up: analyze " << m.shape.label()
                                          << " answered wrongly");
    fixture.analysis[m.shape.app] = expected;
  }
  fixture.server =
      std::make_unique<serve::SocketServer>(*fixture.service, socket);
}

Result run_benchmark(const Options& options) {
  if (options.workload == "cold-campaign")
    return options.trace ? traced_cold_campaign(options)
                         : run_cold_campaign(options);
  if (options.workload == "serve-mix")
    return options.trace ? traced_serve_mix(options) : run_serve_mix(options);
  ST_CHECK_MSG(false, "unknown workload " << options.workload
                                          << " (cold-campaign, serve-mix)");
  return {};
}

}  // namespace perfbench
