// The benchmark's closed-loop workloads and the pieces the traced run
// shares with them. NOTES.md records why each workload and each shape
// dimension was chosen, and why warm-collect is not among them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/scaltool.hpp"
#include "engine/campaign.hpp"
#include "harness.hpp"
#include "runner/runner.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "serve/transport.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Iterations per simulated run. The CLI default (12) makes one cold
/// 32-processor campaign take about half a second here; 4 keeps every
/// run of the matrix and lets a run complete 100+ cold campaigns.
inline constexpr int kIters = 4;

/// Times setup is repeated per invocation; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Worker threads for simulation work: one per hardware thread.
int host_threads();

/// One matrix a workload operation targets. `s0` carries the seed's
/// per-shape jitter (see seeded_s0), so a shape repeats byte for byte
/// within a run while different seeds simulate slightly different data.
struct Shape {
  std::string app;
  std::size_t s0 = 0;
  int max_procs = 0;

  /// --size/--max-procs/--iters, as the CLI and the wire protocol take them.
  std::vector<std::string> matrix_args() const;
  std::string label() const;
};

/// The four applications every workload draws from.
const std::vector<std::string>& bench_apps();

/// `multiple` × the 64 KiB simulated L2 plus a seeded jitter of 0–7
/// half-KiB steps, drawn once per (seed, shape index).
std::size_t seeded_s0(int multiple, std::uint64_t seed, std::size_t shape);

std::vector<Shape> cold_shapes(std::uint64_t seed);   ///< 16 shapes
std::vector<Shape> serve_shapes(std::uint64_t seed);  ///< 4 matrices

/// The scaled Origin 2000 runner the CLI builds for `--iters=kIters`.
scaltool::ExperimentRunner make_runner();

/// The bytes `scaltool analyze` prints for a report (no --chart).
std::string render_analysis(const scaltool::ScalabilityReport& report,
                            const scaltool::ScalToolInputs& inputs);

/// Σ over the matrix's processor counts of |Base−MP estimate − speedshop
/// measurement| as a percentage of base accumulated cycles (the Figs.
/// 7/10/13 comparison); `points` receives the number of counts summed.
double mp_err_sum(const scaltool::ScalabilityReport& report,
                  const scaltool::ScalToolInputs& inputs, int* points);

/// Simulated loads plus stores over every job of a matrix (exact).
std::uint64_t matrix_accesses(std::span<const scaltool::JobOutcome> outcomes);

/// A simulated matrix kept from setup.
struct Matrix {
  Shape shape;
  scaltool::MatrixPlan plan;
  std::vector<scaltool::JobOutcome> outcomes;
  scaltool::ScalToolInputs inputs;
  scaltool::ScalabilityReport report;
  std::uint64_t accesses = 0;
};

/// Simulates every shape's matrix at host_threads() workers and analyses
/// it.
std::vector<Matrix> simulate_matrices(const scaltool::ExperimentRunner& runner,
                                      const std::vector<Shape>& shapes);

/// One cold-campaign operation: a fresh engine (empty in-memory run
/// cache) executes the Table 3 plan on `jobs` workers, then analyze and
/// the rendered report.
struct ColdOp {
  std::string text;
  scaltool::EngineStats stats;
  std::uint64_t accesses = 0;
  double err_sum = 0.0;
  int err_points = 0;
};
ColdOp cold_op(const scaltool::ExperimentRunner& runner, const Shape& shape,
               int jobs);

/// The serve-mix request sequence over `matrices`: per block of 12, each
/// app once as a repeated `analyze` and twice as a `whatif` whose `--l2x`
/// or `--tm-scale` factor is new in every block (a seeded golden-ratio
/// walk, so factors never repeat within a run). Request i is a pure
/// function of (seed, i); each client keeps its own copy.
class ServeMix {
 public:
  ServeMix(std::vector<Shape> matrices, std::uint64_t seed);
  std::size_t block() const { return 3 * matrices_.size(); }
  scaltool::serve::Request request(std::size_t i) const;

 private:
  std::vector<Shape> matrices_;
  StratifiedMix mix_;
  std::vector<double> offsets_;  ///< per shape: where its factor walk starts
};

/// `analyze <app> <matrix args>` as a wire request.
scaltool::serve::Request analyze_request(const Shape& shape);

/// The serving side of serve-mix: what `scaltool serve --socket=<socket>`
/// runs, with default options. Start-up asks every matrix's analyze at
/// once, so the service simulates them into its shared run cache (two
/// workers) and fills its result cache; CheckError unless each answer
/// matches the benchmark's own analysis of `matrices` byte for byte.
struct ServeFixture {
  std::map<std::string, std::string> analysis;  ///< app → analyze bytes
  std::unique_ptr<scaltool::serve::AnalysisService> service;
  std::unique_ptr<scaltool::serve::SocketServer> server;
};
void start_serve(ServeFixture& fixture, const std::vector<Matrix>& matrices,
                 const std::string& socket);

/// Runs the workload named in `options` (end-to-end or traced).
Result run_benchmark(const Options& options);

/// The traced run of each workload (traced.cpp).
Result traced_cold_campaign(const Options& options);
Result traced_serve_mix(const Options& options);

}  // namespace perfbench
