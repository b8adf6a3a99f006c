// The traced run: per-layer numbers measured from outside the program.
//
// Two parts, both timed only by the benchmark's own spans around public
// calls (nothing inside the program is instrumented):
//
//  - a re-enactment of a seeded sample of the workload's operations from
//    public layer calls, serially. Each re-enacted op must reproduce the
//    workload op's output exactly, so the split describes the same work
//    the end-to-end run times. It yields the per-op counts, other_pct
//    (op time no span covers) and trace_overhead_pct (the same
//    re-enactment with spans off vs on, interleaved);
//  - the layer sweep (LayerSweep): call-level timings of every layer on
//    the workload's own matrices, and a warm collect of each of them
//    through the CLI with its storage calls counted.
//
// Both repeat until --seconds is spent; timings are medians over rounds,
// and every exact count must read the same in every round.
#include <filesystem>
#include <map>
#include <memory>
#include <regex>
#include <sstream>

#include "cli/cli.hpp"
#include "common/check.hpp"
#include "engine/checkpoint.hpp"
#include "engine/fsck.hpp"
#include "engine/journal.hpp"
#include "runner/archive.hpp"
#include "serve/result_cache.hpp"
#include "serve/service.hpp"
#include "serve/transport.hpp"
#include "trace/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace scaltool;

namespace {

constexpr std::size_t kColdSample = 4;   // ops re-enacted per round
constexpr std::size_t kServeSample = 2;  // blocks of 12 requests
constexpr int kPings = 400;              // serve.ping_ms / rss growth

const char* const kLayerCache = "layers.runcache";
const char* const kLayerSocket = "layers.sock";
const char* const kWarmCache = "warm.runcache";
const char* const kWarmOut = "warm.dat";

/// Host time per layer of the calls the benchmark makes into the program.
/// A disabled tracer records nothing, so the same re-enactment code runs
/// traced and untraced. Spans must not nest.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Span {
   public:
    Span(Tracer& tracer, const char* layer)
        : tracer_(tracer.enabled_ ? &tracer : nullptr),
          layer_(layer),
          start_(tracer_ ? Clock::now() : Clock::time_point{}) {}
    ~Span() {
      if (tracer_) tracer_->seconds_[layer_] += seconds_since(start_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    const char* layer_;
    Clock::time_point start_;
  };

  double seconds(const std::string& layer) const {
    const auto it = seconds_.find(layer);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  /// The time all spans cover.
  double covered_seconds() const {
    double sum = 0.0;
    for (const auto& [layer, s] : seconds_) sum += s;
    return sum;
  }

 private:
  bool enabled_;
  std::map<std::string, double> seconds_;
};

/// Per-round samples of a timing; the reported value is their median.
class Rounds {
 public:
  void add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void report(Result& result) const {
    for (const auto& [name, values] : samples_)
      result.values[name] = quantile(values, 0.5);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Exact counts read in round 0; every later round must agree.
class ExactCounts {
 public:
  void set(Result& result, const std::string& name, double value) {
    const auto [it, first] = values_.emplace(name, value);
    if (first)
      result.values[name] = result.exact[name] = value;
    else if (it->second != value)
      result.fail(name + " drifted between rounds: " +
                  std::to_string(it->second) + " vs " + std::to_string(value));
  }

 private:
  std::map<std::string, double> values_;
};

// ---- simulator counts ------------------------------------------------------

struct SimCounts {
  double runs = 0, accesses = 0, cycles = 0, l1_hits = 0, l2_hits = 0,
         mem_misses = 0, invalidations = 0, interventions = 0;

  void add(const RunResult& r) {
    const CounterSet c = r.counters.aggregate();
    const double acc = c.get(EventId::kGraduatedLoads) +
                       c.get(EventId::kGraduatedStores);
    runs += 1;
    accesses += acc;
    cycles += c.get(EventId::kCycles);
    l1_hits += acc - c.get(EventId::kL1DMisses);
    l2_hits += c.get(EventId::kL1DMisses) - c.get(EventId::kL2Misses);
    mem_misses += c.get(EventId::kL2Misses);
    invalidations += c.get(EventId::kInvalidationsReceived);
    interventions += c.get(EventId::kInterventionsReceived);
  }
};

void report_sim_counts(Result& result, ExactCounts& exact,
                       const SimCounts& sim, double ops) {
  exact.set(result, "sim.runs_per_op", sim.runs / ops);
  exact.set(result, "sim.accesses_per_op", sim.accesses / ops);
  exact.set(result, "sim.cycles_per_op", sim.cycles / ops);
  exact.set(result, "sim.l1_hits_per_op", sim.l1_hits / ops);
  exact.set(result, "sim.l2_hits_per_op", sim.l2_hits / ops);
  exact.set(result, "sim.mem_misses_per_op", sim.mem_misses / ops);
  exact.set(result, "sim.invalidations_per_op", sim.invalidations / ops);
  exact.set(result, "sim.interventions_per_op", sim.interventions / ops);
}

/// Per-op engine and io figures of the workload ops themselves.
struct OpTotals {
  double ops = 0;
  double jobs = 0;
  double busy_s = 0;
  double worker_s = 0;     // Σ wall × workers
  double straggler_s = 0;  // Σ wall − busy ÷ workers
  double cache_hits = 0;

  void add_engine(const EngineStats& s) {
    jobs += static_cast<double>(s.jobs_total);
    busy_s += s.busy_seconds;
    worker_s += s.wall_seconds * s.workers;
    straggler_s += s.wall_seconds - s.busy_seconds / s.workers;
    cache_hits += static_cast<double>(s.jobs_cached);
  }
};

void report_op_totals(Result& result, ExactCounts& exact, Rounds& rounds,
                      const OpTotals& t) {
  exact.set(result, "engine.jobs_per_op", t.jobs / t.ops);
  exact.set(result, "cache.hit_ratio", t.jobs > 0 ? t.cache_hits / t.jobs : 0.0);
  rounds.add("engine.utilization",
             t.worker_s > 0 ? t.busy_s / t.worker_s : 0.0);
  rounds.add("engine.straggler_ms", t.straggler_s * 1e3 / t.ops);
}

template <typename Fn>
double time_s(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return seconds_since(start);
}

/// Call-level timings of every layer on a workload's matrices.
/// Construction starts a layer service (default options) that simulates
/// the matrices once; each round() then measures every layer once.
class LayerSweep {
 public:
  LayerSweep(const std::vector<Matrix>& matrices, std::uint64_t seed);
  void round(std::size_t index, Result& result, Rounds& rounds, ExactCounts& exact);

 private:
  void measure_simulator(Rounds& rounds);
  void measure_engine_and_model(Result& result, Rounds& rounds,
                                ExactCounts& exact);
  void measure_serve(std::size_t index, Result& result, Rounds& rounds,
                     ExactCounts& exact);
  void measure_warm_collect(Result& result, Rounds& rounds,
                            ExactCounts& exact);
  std::string warm_collect(std::size_t matrix, double* seconds) const;

  const std::vector<Matrix>& matrices_;
  std::uint64_t seed_;
  ExperimentRunner runner_;
  std::shared_ptr<RunCache> shared_;  // every matrix's outcomes, in memory
  std::vector<std::pair<std::uint64_t, RunSpec>> keys_;
  double mean_jobs_ = 0;
  ServeFixture serve_;
  // The durability path: each matrix's archive as commit_archive
  // publishes it, and its expected analysis.
  std::vector<std::string> archive_bytes_;
  std::vector<std::string> analysis_;
};

/// One round of a traced run: each sampled workload op, then its
/// re-enactment with spans on and off, in an order that alternates from
/// op to op so drift between the two cancels.
struct Round {
  OpTotals totals;
  SimCounts sim;          ///< simulator counts of the traced re-enactments
  double sim_busy_s = 0;  ///< their "sim" spans
  double traced_s = 0, untraced_s = 0, covered_s = 0;

  /// `fn(tracer, traced)` re-enacts the op and returns its output; the
  /// traced call's output is returned.
  template <typename Reenact>
  std::string reenact(bool traced_first, Reenact&& fn) {
    Tracer traced(true), untraced(false);
    std::string text;
    const auto on = [&] {
      traced_s += time_s([&] { text = fn(traced, true); });
    };
    const auto off = [&] {
      untraced_s += time_s([&] { fn(untraced, false); });
    };
    if (traced_first) {
      on();
      off();
    } else {
      off();
      on();
    }
    covered_s += traced.covered_seconds();
    sim_busy_s += traced.seconds("sim");
    return text;
  }

  /// Reports the round's per-op figures, then runs the layer sweep.
  void finish(std::size_t index, Result& result, ExactCounts& exact,
              Rounds& rounds, LayerSweep& sweep) {
    report_sim_counts(result, exact, sim, totals.ops);
    report_op_totals(result, exact, rounds, totals);
    rounds.add("sim.busy_ms_per_op", sim_busy_s * 1e3 / totals.ops);
    rounds.add("other_pct", 100.0 * (1.0 - covered_s / traced_s));
    rounds.add("trace_overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));
    sweep.round(index, result, rounds, exact);
  }
};

// ---- cold-campaign ----------------------------------------------------------

/// One cold-campaign op from public layer calls, serially.
std::string reenact_cold(const ExperimentRunner& runner, const Shape& shape,
                         Tracer& tracer, SimCounts* sim) {
  MatrixPlan plan;
  {
    Tracer::Span span(tracer, "runner.plan");
    plan = runner.plan_matrix(shape.app, shape.s0,
                              default_proc_counts(shape.max_procs));
  }
  std::vector<JobOutcome> outcomes;
  for (const RunSpec& job : plan.jobs) {
    RunResult r;
    {
      Tracer::Span span(tracer, "sim");
      r = runner.run_full(job.workload, job.dataset_bytes, job.num_procs);
    }
    if (sim) sim->add(r);
    Tracer::Span span(tracer, "runner.record");
    outcomes.push_back(JobOutcome{make_record(r), make_validation(r)});
  }
  ScalToolInputs inputs;
  {
    Tracer::Span span(tracer, "runner.assemble");
    inputs = assemble_matrix(plan, outcomes);
  }
  ScalabilityReport report;
  {
    Tracer::Span span(tracer, "model.analyze");
    report = analyze(inputs);
  }
  Tracer::Span span(tracer, "model.render");
  return render_analysis(report, inputs);
}

}  // namespace

Result traced_cold_campaign(const Options& options) {
  Result result;
  const Clock::time_point start = Clock::now();
  const std::vector<Shape> shapes = cold_shapes(options.seed);
  const ExperimentRunner runner = make_runner();
  StratifiedMix mix(shapes.size(), options.seed);
  std::vector<Shape> sample;
  for (std::size_t i = 0; i < kColdSample; ++i)
    sample.push_back(shapes[mix.next()]);
  // The layer sweep runs on the sampled matrices (simulated once here).
  const std::vector<Matrix> matrices = simulate_matrices(runner, sample);
  LayerSweep sweep(matrices, options.seed);

  Rounds rounds;
  ExactCounts exact;
  for (std::size_t round = 0;
       round == 0 || seconds_since(start) < options.seconds;
       ++round) {
    Round r;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const Shape& shape = sample[i];
      ++result.attempted;
      try {
        const ColdOp op = cold_op(runner, shape, host_threads());
        r.totals.ops += 1;
        r.totals.add_engine(op.stats);
        const std::string text =
            r.reenact((round + i) % 2 == 0, [&](Tracer& t, bool traced) {
              return reenact_cold(runner, shape, t, traced ? &r.sim : nullptr);
            });
        if (text != op.text)
          result.fail(shape.label() + ": re-enactment differs from the op");
      } catch (const std::exception& e) {
        result.fail(shape.label() + ": " + e.what());
      }
    }
    if (r.totals.ops == 0) break;
    r.finish(round, result, exact, rounds, sweep);
  }
  exact.set(result, "trace.sampled_ops", static_cast<double>(sample.size()));
  rounds.report(result);
  return result;
}


// ---- serve-mix --------------------------------------------------------------

namespace {

/// What the re-enactment of a served request holds across requests: the
/// run cache the service loaded and a result cache primed as the
/// service's was.
struct ServeReplay {
  const ExperimentRunner& runner;
  std::map<std::string, Shape> shapes;  // app → matrix
  std::shared_ptr<RunCache> run_cache;
  serve::ResultCache results{256};
};

/// A run cache holding every job of `matrices`, backed by `path` ("" =
/// in memory only); `keys` receives each job's key and spec when non-null.
std::shared_ptr<RunCache> cache_of(
    const ExperimentRunner& runner, const std::vector<Matrix>& matrices,
    const std::string& path,
    std::vector<std::pair<std::uint64_t, RunSpec>>* keys) {
  auto cache = std::make_shared<RunCache>(path);
  for (const Matrix& m : matrices)
    for (std::size_t j = 0; j < m.plan.jobs.size(); ++j) {
      const RunSpec& spec = m.plan.jobs[j];
      const std::uint64_t key =
          job_key_hash(spec, runner.base_config(), runner.iterations);
      cache->insert(key, spec, m.outcomes[j], spec.want_validation);
      if (keys) keys->emplace_back(key, spec);
    }
  return cache;
}

/// The value of `--<key>=` in a request's args.
double arg_value(const serve::Request& request, const std::string& key) {
  const std::string prefix = "--" + key + "=";
  for (const std::string& a : request.args)
    if (a.rfind(prefix, 0) == 0) return std::stod(a.substr(prefix.size()));
  return 1.0;
}

/// One served request from public layer calls: wire parse, result cache,
/// plan, engine replay against the shared run cache, assemble, model,
/// render, wire serialize.
std::string reenact_serve(const serve::Request& request, ServeReplay& replay,
                          Tracer& tracer, EngineStats* stats) {
  const std::string line = serve::serialize_request(request);
  serve::Request parsed;
  {
    Tracer::Span span(tracer, "serve.parse");
    parsed = serve::parse_request(line);
  }
  std::uint64_t key = 0;
  std::optional<serve::CachedResult> hit;
  {
    Tracer::Span span(tracer, "serve.result_cache");
    key = serve::request_hash(parsed);
    hit = replay.results.find(key);
  }
  std::string output;
  if (hit) {
    output = hit->output;
  } else {
    const Shape& shape = replay.shapes.at(parsed.args.front());
    MatrixPlan plan;
    {
      Tracer::Span span(tracer, "runner.plan");
      plan = replay.runner.plan_matrix(shape.app, shape.s0,
                                       default_proc_counts(shape.max_procs));
    }
    std::vector<JobOutcome> outcomes;
    {
      Tracer::Span span(tracer, "engine");
      CampaignOptions options;
      options.shared_cache = replay.run_cache;
      CampaignEngine engine(replay.runner, options);
      outcomes = engine.execute(plan);
      if (stats) *stats = engine.stats();
    }
    ScalToolInputs inputs;
    {
      Tracer::Span span(tracer, "runner.assemble");
      inputs = assemble_matrix(plan, outcomes);
    }
    ScalabilityReport report;
    {
      Tracer::Span span(tracer, "model.analyze");
      report = analyze(inputs);
    }
    if (parsed.op == "whatif") {
      WhatIfParams params;
      params.l2_scale_k = arg_value(parsed, "l2x");
      params.tm_scale = arg_value(parsed, "tm-scale");
      WhatIfResult predicted;
      {
        Tracer::Span span(tracer, "model.whatif");
        predicted = what_if(report, inputs, params);
      }
      Tracer::Span span(tracer, "model.render");
      std::ostringstream os;
      whatif_table(predicted, "CLI scenario").print(os);
      output = os.str();
    } else {
      Tracer::Span span(tracer, "model.render");
      output = render_analysis(report, inputs);
    }
    Tracer::Span span(tracer, "serve.result_cache");
    replay.results.insert(key, serve::CachedResult{serve::Status::kOk, 0,
                                                   output});
  }
  Tracer::Span span(tracer, "serve.serialize");
  serve::Response response;
  response.id = parsed.id;
  response.cached = hit.has_value();
  response.output = output;
  serve::serialize_response(response);
  return output;
}

}  // namespace

Result traced_serve_mix(const Options& options) {
  Result result;
  const Clock::time_point start = Clock::now();
  const std::vector<Shape> shapes = serve_shapes(options.seed);
  const ExperimentRunner runner = make_runner();
  const std::vector<Matrix> matrices = simulate_matrices(runner, shapes);
  ServeFixture fixture;
  start_serve(fixture, matrices, "serve.sock");
  LayerSweep sweep(matrices, options.seed);
  const ServeMix mix(shapes, options.seed);

  Rounds rounds;
  ExactCounts exact;
  for (std::size_t round = 0;
       round == 0 || seconds_since(start) < options.seconds;
       ++round) {
    // A fresh replay state per round, primed like the service: a run
    // cache holding every matrix, a result cache holding each analyze.
    ServeReplay traced_state{runner, {}, {}};
    ServeReplay untraced_state{runner, {}, {}};
    for (ServeReplay* state : {&traced_state, &untraced_state}) {
      for (const Shape& shape : shapes) state->shapes[shape.app] = shape;
      state->run_cache = cache_of(runner, matrices, "", nullptr);
      for (const Shape& shape : shapes)
        state->results.insert(
            serve::request_hash(analyze_request(shape)),
            serve::CachedResult{serve::Status::kOk, 0,
                                fixture.analysis.at(shape.app)});
    }
    // Each round sends the next blocks of the request sequence, so its
    // what-ifs are new to the service as they are in the workload.
    Round r;
    for (std::size_t b = kServeSample * round;
         b < kServeSample * (round + 1); ++b) {
      ++result.attempted;
      r.totals.ops += 1;
      for (std::size_t i = b * mix.block(); i < (b + 1) * mix.block(); ++i) {
        const serve::Request request = mix.request(i);
        const std::string label = request.op + " " + request.args.front();
        try {
          const serve::Response response =
              serve::socket_call("serve.sock", request);
          EngineStats stats;  // stays empty for a result-cache hit
          stats.workers = 1;
          const std::string text =
              r.reenact((round + i) % 2 == 0, [&](Tracer& t, bool traced) {
                return reenact_serve(request,
                                     traced ? traced_state : untraced_state,
                                     t, traced ? &stats : nullptr);
              });
          r.totals.add_engine(stats);
          if (response.status != serve::Status::kOk ||
              text != response.output)
            result.fail(label + ": re-enactment differs from the served bytes");
        } catch (const std::exception& e) {
          result.fail(label + ": " + e.what());
        }
      }
    }
    r.finish(round, result, exact, rounds, sweep);
  }
  exact.set(result, "trace.sampled_ops", static_cast<double>(kServeSample));
  rounds.report(result);
  return result;
}

// ---- layer measurements -----------------------------------------------------

namespace {

/// Host time of one run_full on a runner with `iterations`, its counts
/// added to `counts`.
double timed_run(const std::string& workload, std::size_t bytes, int procs,
                 int iterations, SimCounts& counts) {
  ExperimentRunner runner(MachineConfig::origin2000_scaled(1));
  runner.iterations = iterations;
  RunResult r;
  const double seconds =
      time_s([&] { r = runner.run_full(workload, bytes, procs); });
  counts.add(r);
  return seconds;
}

/// Allocation with no machine behind it: bump addresses, page aligned.
class BumpAlloc final : public AllocContext {
 public:
  Addr allocate(std::size_t bytes, std::string) override {
    const Addr base = next_;
    next_ += (bytes + 4095) / 4096 * 4096;
    return base;
  }

 private:
  Addr next_ = 1 << 20;
};

/// Processor context that only counts the accesses an app generates.
class CountingProc final : public ProcContext {
 public:
  explicit CountingProc(int procs) : procs_(procs) {}
  void set_proc(ProcId p) { proc_ = p; }
  ProcId proc() const override { return proc_; }
  int num_procs() const override { return procs_; }
  void load(Addr addr) override { touch(addr); }
  void store(Addr addr) override { touch(addr); }
  void compute(double) override {}
  void critical_section(int, double) override {}
  void begin_region(const std::string&) override {}
  void end_region() override {}
  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t checksum() const { return sum_; }

 private:
  void touch(Addr addr) {
    ++accesses_;
    sum_ += addr;
  }
  int procs_;
  ProcId proc_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t sum_ = 0;
};

/// Drives `app`'s setup and every phase of every processor, no machine.
std::uint64_t generate_accesses(const std::string& app, std::size_t bytes,
                                int procs) {
  const std::unique_ptr<Workload> workload =
      WorkloadRegistry::instance().create(app);
  BumpAlloc alloc;
  workload->setup(alloc, WorkloadParams{bytes, kIters}, procs);
  CountingProc ctx(procs);
  for (int phase = 0; phase < workload->num_phases(); ++phase)
    for (ProcId p = 0; p < procs; ++p) {
      ctx.set_proc(p);
      workload->run_phase(phase, ctx);
    }
  ST_CHECK(ctx.checksum() != 0);
  return ctx.accesses();
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void LayerSweep::measure_simulator(Rounds& rounds) {
  // Access-path kernels: each run is sized so one path dominates, and its
  // time is divided by that path's exact count.
  SimCounts l1, l2, mem, coh;
  const double t_l1 = timed_run("stream_kernel", 2 * 1024, 1, 2000, l1);
  const double t_l2 = timed_run("stream_kernel", 24 * 1024, 1, 200, l2);
  const double t_mem = timed_run("stream_kernel", 256 * 1024, 1, 20, mem);
  const double t_coh = timed_run("sharing_kernel", 64 * 1024, 8, 20, coh);
  rounds.add("sim.ns_per_l1_hit", t_l1 * 1e9 / l1.l1_hits);
  rounds.add("sim.ns_per_l2_hit", t_l2 * 1e9 / l2.l2_hits);
  rounds.add("sim.ns_per_mem_miss", t_mem * 1e9 / mem.mem_misses);
  rounds.add("sim.ns_per_coherence_op",
             t_coh * 1e9 / (coh.invalidations + coh.interventions));

  // Whole-matrix simulator speed on the first matrix of the workload.
  const Matrix& first = matrices_.front();
  SimCounts all;
  double busy = 0;
  for (const RunSpec& job : first.plan.jobs)
    busy += timed_run(job.workload, job.dataset_bytes, job.num_procs, kIters,
                      all);
  rounds.add("sim.ns_per_access", busy * 1e9 / all.accesses);

  // The apps' own access generation, with no machine.
  double gen_s = 0;
  std::uint64_t generated = 0;
  for (const Matrix& m : matrices_)
    gen_s += time_s([&] {
      generated += generate_accesses(m.shape.app, m.shape.s0,
                                     m.shape.max_procs);
    });
  rounds.add("apps.ns_per_access", gen_s * 1e9 / generated);
}

LayerSweep::LayerSweep(const std::vector<Matrix>& matrices,
                       std::uint64_t seed)
    : matrices_(matrices),
      seed_(seed),
      runner_(make_runner()) {
  shared_ = cache_of(runner_, matrices, "", &keys_);
  for (const Matrix& m : matrices)
    mean_jobs_ += static_cast<double>(m.plan.jobs.size());
  mean_jobs_ /= static_cast<double>(matrices.size());
  start_serve(serve_, matrices, kLayerSocket);
  // A persistent run cache holding every job of the matrices, so a warm
  // collect of any of them only hits.
  std::filesystem::remove(kWarmCache);
  cache_of(runner_, matrices, kWarmCache, nullptr)->save();
  for (std::size_t i = 0; i < matrices.size(); ++i) {
    const std::string path = "reference-" + std::to_string(i) + ".dat";
    commit_archive(matrices[i].inputs, path);
    archive_bytes_.push_back(slurp(path));
    analysis_.push_back(
        render_analysis(matrices[i].report, matrices[i].inputs));
  }
}

void LayerSweep::round(std::size_t index, Result& result, Rounds& rounds,
                       ExactCounts& exact) {
  measure_simulator(rounds);
  measure_engine_and_model(result, rounds, exact);
  measure_warm_collect(result, rounds, exact);
  measure_serve(index, result, rounds, exact);
}

/// "engine: N jobs (M run, ..." → M; -1 when the banner is missing.
long simulated_runs(const std::string& collect_output) {
  static const std::regex banner(R"(engine: \d+ jobs \((\d+) run)");
  std::smatch m;
  if (!std::regex_search(collect_output, m, banner)) return -1;
  return std::stol(m[1]);
}

/// One warm collect through the CLI: `collect` against the persistent run
/// cache (journal on, two-phase publication), then `analyze` of the
/// archive; `seconds` receives the time of the two commands. Returns ""
/// when every output check passed, else what failed.
std::string LayerSweep::warm_collect(std::size_t matrix,
                                     double* seconds) const {
  const Shape& shape = matrices_[matrix].shape;
  std::vector<std::string> collect = {"collect", shape.app};
  for (const std::string& a : shape.matrix_args()) collect.push_back(a);
  collect.push_back(std::string("--cache=") + kWarmCache);
  collect.push_back(std::string("--out=") + kWarmOut);
  std::ostringstream collect_out, analyze_out;
  const Clock::time_point start = Clock::now();
  const int collect_rc = cli::run_command(collect, collect_out);
  const int analyze_rc = cli::run_command({"analyze", kWarmOut}, analyze_out);
  *seconds = seconds_since(start);
  if (collect_rc != 0 || analyze_rc != 0)
    return "exit codes " + std::to_string(collect_rc) + "/" +
           std::to_string(analyze_rc);
  if (simulated_runs(collect_out.str()) != 0) return "collect simulated";
  if (slurp(kWarmOut) != archive_bytes_[matrix])
    return "archive differs from the reference";
  if (!fsck_file(kWarmOut, false).clean()) return "archive fails fsck";
  if (analyze_out.str() != analysis_[matrix]) return "analyze output differs";
  return "";
}

void LayerSweep::measure_warm_collect(Result& result, Rounds& rounds,
                                      ExactCounts& exact) {
  CountingEnv env;
  std::vector<double> collect_ms;
  {
    const io::ScopedEnv scope(&env);
    for (std::size_t i = 0; i < matrices_.size(); ++i) {
      ++result.attempted;
      double seconds = 0.0;
      const std::string failure = warm_collect(i, &seconds);
      if (!failure.empty())
        result.fail(matrices_[i].shape.label() + ": warm collect: " +
                    failure);
      collect_ms.push_back(seconds * 1e3);
    }
  }
  const IoCounts io = env.counts();
  const double n = static_cast<double>(matrices_.size());
  exact.set(result, "io.fsyncs_per_collect",
            static_cast<double>(io.fsyncs) / n);
  exact.set(result, "io.writes_per_collect",
            static_cast<double>(io.writes) / n);
  exact.set(result, "io.bytes_written_per_collect",
            static_cast<double>(io.bytes_written) / n);
  exact.set(result, "io.renames_per_collect",
            static_cast<double>(io.renames) / n);
  rounds.add("io.fsync_ms_per_collect", io.fsync_seconds * 1e3 / n);
  rounds.add("durable.collect_ms", mean(collect_ms));
}

void LayerSweep::measure_engine_and_model(Result& result, Rounds& rounds,
                                          ExactCounts& exact) {
  // Engine replay overhead: collect against the warm cache, minus the
  // separately timed plan and assemble, per job.
  std::vector<double> plan_us, assemble_us, overhead_us, write_us, parse_us,
      analyze_us, whatif_us, render_us;
  double archive_bytes = 0;
  for (const Matrix& m : matrices_) {
    const std::vector<int> counts = default_proc_counts(m.shape.max_procs);
    const double t_plan = time_s(
        [&] { runner_.plan_matrix(m.shape.app, m.shape.s0, counts); });
    const double t_assemble =
        time_s([&] { assemble_matrix(m.plan, m.outcomes); });
    CampaignOptions options;
    options.shared_cache = shared_;
    CampaignEngine engine(runner_, options);
    const double t_collect =
        time_s([&] { engine.collect(m.shape.app, m.shape.s0, counts); });
    const double n = static_cast<double>(m.plan.jobs.size());
    plan_us.push_back(t_plan * 1e6);
    assemble_us.push_back(t_assemble * 1e6);
    overhead_us.push_back((t_collect - t_plan - t_assemble) * 1e6 / n);

    std::string bytes;
    write_us.push_back(time_s([&] {
                         std::ostringstream os;
                         write_inputs(m.inputs, os);
                         bytes = os.str();
                       }) *
                       1e6);
    archive_bytes += static_cast<double>(bytes.size());
    parse_us.push_back(time_s([&] {
                         std::istringstream is(bytes);
                         read_inputs(is);
                       }) *
                       1e6);
    ScalabilityReport report;
    analyze_us.push_back(time_s([&] { report = analyze(m.inputs); }) * 1e6);
    WhatIfParams params;
    params.l2_scale_k = 2.0;
    whatif_us.push_back(
        time_s([&] { what_if(report, m.inputs, params); }) * 1e6);
    render_us.push_back(
        time_s([&] { render_analysis(report, m.inputs); }) * 1e6);
  }
  rounds.add("runner.plan_us", mean(plan_us));
  rounds.add("runner.assemble_us", mean(assemble_us));
  rounds.add("engine.overhead_us_per_job", mean(overhead_us));
  rounds.add("archive.write_us", mean(write_us));
  rounds.add("archive.parse_us", mean(parse_us));
  exact.set(result, "archive.bytes",
            archive_bytes / static_cast<double>(matrices_.size()));
  rounds.add("model.analyze_us", mean(analyze_us));
  rounds.add("model.whatif_us", mean(whatif_us));
  rounds.add("model.render_us", mean(render_us));

  const double t_find = time_s([&] {
    for (const auto& [key, spec] : keys_)
      ST_CHECK(shared_->find(key, spec).has_value());
  });
  rounds.add("cache.find_us", t_find * 1e6 / static_cast<double>(keys_.size()));

  // Durability: the run-cache file of these matrices, its journal and the
  // two-phase archive commit.
  std::filesystem::remove(kLayerCache);
  cache_of(runner_, matrices_, kLayerCache, nullptr)->save();
  std::unique_ptr<RunCache> loaded;
  rounds.add("cache.load_ms", time_s([&] {
               loaded = std::make_unique<RunCache>(kLayerCache);
             }) * 1e3);
  rounds.add("cache.save_ms", time_s([&] { loaded->save(); }) * 1e3);
  exact.set(result, "cache.entries", static_cast<double>(loaded->size()));
  exact.set(result, "cache.size_in_matrices",
            static_cast<double>(loaded->size()) / mean_jobs_);
  std::vector<double> append_us, commit_ms;
  for (const Matrix& m : matrices_) {
    JournalWriter journal("layers.journal", /*append=*/false);
    journal.begin(matrix_signature(m.plan, runner_.base_config(),
                                   runner_.iterations),
                  m.plan);
    std::vector<std::uint64_t> job_keys;
    for (const RunSpec& spec : m.plan.jobs)
      job_keys.push_back(
          job_key_hash(spec, runner_.base_config(), runner_.iterations));
    const double t_append = time_s([&] {
      for (std::size_t j = 0; j < m.plan.jobs.size(); ++j)
        journal.append_run(j, job_keys[j], m.outcomes[j],
                           m.plan.jobs[j].want_validation);
    });
    append_us.push_back(t_append * 1e6 /
                        static_cast<double>(m.plan.jobs.size()));
    commit_ms.push_back(
        time_s([&] { commit_archive(m.inputs, "layers.dat", &journal); }) *
        1e3);
  }
  rounds.add("journal.append_us", mean(append_us));
  rounds.add("durable.commit_ms", mean(commit_ms));
}

void LayerSweep::measure_serve(std::size_t index, Result& result, Rounds& rounds,
                               ExactCounts& exact) {
  // One block of the serve-mix request sequence, fresh what-if factors
  // each round, against the layer service.
  std::vector<Shape> shapes;
  for (const Matrix& m : matrices_) shapes.push_back(m.shape);
  const ServeMix mix(shapes, seed_);
  std::vector<serve::Request> block;
  for (std::size_t i = 0; i < mix.block(); ++i)
    block.push_back(mix.request(mix.block() * index + i));
  const serve::ServiceStats before = serve_.service->stats();
  std::vector<double> parse_us, serialize_us, call_ms;
  for (const serve::Request& request : block) {
    ++result.attempted;
    const std::string line = serve::serialize_request(request);
    parse_us.push_back(time_s([&] { serve::parse_request(line); }) * 1e6);
    serve::Response response;
    call_ms.push_back(
        time_s([&] { response = serve_.service->call(request); }) * 1e3);
    if (response.status != serve::Status::kOk)
      result.fail("layer sweep: " + request.op + " " + request.args.front() +
                  " answered " + serve::status_name(response.status));
    serialize_us.push_back(
        time_s([&] { serve::serialize_response(response); }) * 1e6);
  }
  rounds.add("serve.parse_us", mean(parse_us));
  rounds.add("serve.serialize_us", mean(serialize_us));
  rounds.add("serve.call_ms", mean(call_ms));

  // Transport alone: pings over fresh connections; the resident-set growth
  // per request is the connection-thread leak.
  serve::Request ping;
  ping.op = "ping";
  std::vector<double> ping_ms;
  const double rss_before = rss_kb();
  for (int i = 0; i < kPings; ++i)
    ping_ms.push_back(
        time_s([&] { serve::socket_call(kLayerSocket, ping); }) * 1e3);
  rounds.add("serve.rss_kb_per_request", (rss_kb() - rss_before) / kPings);
  rounds.add("serve.ping_ms", quantile(ping_ms, 0.5));

  const serve::ServiceStats after = serve_.service->stats();
  const double hits =
      static_cast<double>(after.result_cache_hits - before.result_cache_hits);
  const double misses = static_cast<double>(after.result_cache_misses -
                                            before.result_cache_misses);
  exact.set(result, "serve.sim_runs",
            static_cast<double>(after.simulator_runs - before.simulator_runs));
  exact.set(result, "serve.result_cache_hit_ratio", hits / (hits + misses));
}

}  // namespace

}  // namespace perfbench
