#pragma once

// Shared pieces of the end-to-end benchmark: run arguments, the metric
// report, summary statistics, the benchmark's own span log, the timing
// solver decorator, the in-process daemon stack (wired like tools/qrossd),
// and the TSP problem sets every workload draws from.
//
// Everything here times layers from OUTSIDE, at their public functions; no
// file of the library is instrumented for the benchmark.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "problems/tsp/instance.hpp"
#include "qross/facade.hpp"
#include "qubo/batch.hpp"
#include "service/solve_service.hpp"
#include "service/tune_service.hpp"
#include "solvers/solver.hpp"
#include "surrogate/pipeline.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< cache journal, socket and span file
};

// --- fixed workload parameters ----------------------------------------------
//
// Frozen so that two commits are measured on identical work.  They were sized
// for wall time on a 4-thread machine, never for the gap they yield.

/// Solver calls per tuning session and per random-search session.
inline constexpr std::size_t kTrials = 20;
/// DA batch shape of every solver call (tuner probes and solve jobs alike).
inline constexpr std::uint32_t kReplicas = 8;
inline constexpr std::uint32_t kSweeps = 5;
/// Relaxation-parameter box (prepared-instance units) for every session.
inline constexpr double kAMin = 1.0;
inline constexpr double kAMax = 100.0;
/// Gap charged while no feasible tour has been seen (the bench harness's
/// infeasible_gap convention).
inline constexpr double kInfeasibleGap = 1.0;
/// SolveService workers.  Workers + reactor + the load threads fit nproc = 4.
inline constexpr std::size_t kWorkers = 2;
inline constexpr std::size_t kCacheEntries = 1024;
/// Set-up is repeated at least kSetupRepeats times per run, and until
/// kSetupSeconds have been spent on it; setup_s is the median.
inline constexpr int kSetupRepeats = 3;
inline constexpr double kSetupSeconds = 1.0;
inline constexpr int kSetupMaxRepeats = 25;

/// True while another set-up repetition is due.
bool more_setups(const std::vector<double>& setup_s);
/// latency_ms_tail is the median over windows of this length of each
/// window's tail, so one stall in a run moves it by one window, not wholly.
inline constexpr double kTailWindowSeconds = 5.0;
/// The layer split must leave at most this share of op latency unaccounted.
inline constexpr double kAccountingBound = 0.25;
/// Traced runs alternate untraced and traced blocks of this length.
inline constexpr double kTraceBlockSeconds = 1.0;

/// The quality set: fixed held-out instances and session seeds that every
/// run tunes (or random-searches) first, so gap_at_3 / gap_at_20 compare two
/// commits on identical work.  The constant was fixed before any gap was
/// measured.  The run seed drives everything else (arrivals, hot set, the
/// instances of later sessions).
inline constexpr std::uint64_t kQualitySeed = 0x51A11;
/// Training corpus of the surrogate (fixed for the same reason).
inline constexpr std::uint64_t kCorpusSeed = 0xC0A905;
inline constexpr std::size_t kCorpusInstances = 4;

// --- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What the run prints: one JSON line with correct / attempted / failed /
/// metrics, plus human-readable lines before it.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records an output-check failure: the run exits non-zero without a
  /// result line.
  void fail(const std::string& message);
  void info(const std::string& line) const;
};

// --- statistics --------------------------------------------------------------

/// qross::quantile at p in [0, 100], and 0 for an empty sample (a layer a
/// workload does not exercise reads 0).  Means use qross::mean, which
/// already reads 0 for an empty sample.
double percentile(const std::vector<double>& values, double p);
double median(const std::vector<double>& values);

/// The highest of the ladder p99, p98, p95, p90, p75 that leaves at least ten
/// samples above it (50 when the sample is too small for any of them).  The
/// ladder stops at p99: on a shared 4-thread machine p99.9 measures the
/// host's hiccups rather than the stack.
double tail_percentile_for(std::size_t samples);

struct Distribution {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail_pct = 50.0;
  double tail = 0.0;
};
Distribution distribution(const std::vector<double>& values);

// --- spans ------------------------------------------------------------------

/// The benchmark's own span log: kept in memory, written as Chrome
/// trace-event JSON at exit.  Off unless the run is traced; the check on the
/// hot path is one relaxed atomic load.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    const char* cat = "";
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t id = 0;    ///< op / session id the span belongs to
    std::uint64_t work = 0;  ///< solver spans: replicas * sweeps * vars
  };

  static SpanLog& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void record(const char* name, const char* cat, Clock::time_point start,
              Clock::time_point end, std::uint64_t id = 0,
              std::uint64_t work = 0);
  std::vector<Span> snapshot() const;
  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex m_;
  std::vector<Span> spans_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span around one call into a layer.
class ScopedBenchSpan {
 public:
  ScopedBenchSpan(const char* name, const char* cat, std::uint64_t id = 0)
      : name_(name), cat_(cat), id_(id),
        armed_(SpanLog::instance().enabled()) {
    if (armed_) start_ = Clock::now();
  }
  ~ScopedBenchSpan() {
    if (armed_) {
      SpanLog::instance().record(name_, cat_, start_, Clock::now(), id_);
    }
  }
  ScopedBenchSpan(const ScopedBenchSpan&) = delete;
  ScopedBenchSpan& operator=(const ScopedBenchSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::uint64_t id_;
  bool armed_;
  Clock::time_point start_{};
};

/// Forwards name() and config_digest() so result-cache fingerprints are
/// unchanged, and records one "solve" span per kernel call while spans are
/// on.
class TimedSolver final : public qross::solvers::QuboSolver {
 public:
  explicit TimedSolver(qross::solvers::SolverPtr inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::uint64_t config_digest() const override {
    return inner_->config_digest();
  }
  qross::qubo::SolveBatch solve(
      const qross::qubo::QuboModel& model,
      const qross::solvers::SolveOptions& options) const override;

 private:
  qross::solvers::SolverPtr inner_;
};

/// The daemon's solver registry with every kernel wrapped in TimedSolver.
qross::solvers::SolverPtr timed_registry(const std::string& name);

// --- the in-process daemon ---------------------------------------------------

/// SolveService + (optional) TuneService + net::Server, constructed and torn
/// down in tools/qrossd.cpp's order.  The persistent cache journal is on.
class Stack {
 public:
  Stack(const qross::net::Endpoint& listen, const std::string& cache_path,
        std::optional<qross::core::QrossTuner> tuner);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const qross::net::Endpoint& endpoint() const { return endpoint_; }
  qross::net::Server& server() { return *server_; }
  qross::service::TuneService* tune() { return tune_.get(); }

 private:
  std::unique_ptr<qross::service::SolveService> service_;
  std::unique_ptr<qross::service::TuneService> tune_;
  std::unique_ptr<qross::net::Server> server_;
  qross::net::Endpoint endpoint_;
};

/// A connected client (throws std::runtime_error when the dial fails).
std::unique_ptr<qross::net::Client> connect_client(
    const qross::net::Endpoint& endpoint, const std::string& client_id);

// --- problem sets ------------------------------------------------------------

/// One TSP instance with everything a workload needs about it.
struct Problem {
  std::shared_ptr<const qross::tsp::TspInstance> original;
  /// The MVODM-prepared form that solve jobs are built from (null when the
  /// daemon prepares the instance itself, as tune sessions do).
  std::shared_ptr<const qross::surrogate::PreparedTspInstance> prepared;
  double optimum = 0.0;  ///< Held–Karp optimum, original metric

  const qross::tsp::TspInstance& instance() const { return *original; }
};

/// Seeded instances with their Held–Karp optima (the reference tours of
/// set-up), prepared for solve jobs when `prepare`.  Sizes cycle 10, 11, 12
/// cities and coordinates alternate the uniform and exponential generators,
/// so every run has the same size mix.
std::vector<Problem> make_problems(std::size_t count, std::uint64_t seed,
                                   bool prepare);

/// Gap of a best-so-far original length against the optimum.
double gap_of(double best_length, double optimum);

/// The solve options every tuner probe and solve job uses.
qross::solvers::SolveOptions probe_options();

/// QrossTuner::fit on the fixed corpus with the timed DA solver, inside a
/// "fit" span of the span log.
qross::core::QrossTuner fit_tuner();

struct FitSplit {
  double dataset_s = 0.0;
  double train_s = 0.0;
};
/// Splits the last "fit" span: the dataset phase ends with its last solver
/// call, training is the rest (0/0 when spans were off).
FitSplit fit_split();

// --- outcome checks ----------------------------------------------------------

/// Original tour length of the batch's best feasible replica, the one
/// QrossTuner scores (qubo::evaluate_batch's best_feasible; +inf when none),
/// after checking it decodes to a tour no shorter than the optimum.
double best_tour_length(const Problem& problem,
                        const qross::qubo::SolveBatch& batch, Report& report);
/// Reported energies equal QuboModel::energy of the returned assignments.
void check_energies(const qross::qubo::QuboModel& model,
                    const qross::qubo::SolveBatch& batch, Report& report);
bool same_batch(const qross::qubo::SolveBatch& a,
                const qross::qubo::SolveBatch& b);

// --- process figures ---------------------------------------------------------

double cpu_seconds();   ///< user + sys of this process (getrusage)
double rss_peak_mb();   ///< VmHWM

// --- daemon trace ------------------------------------------------------------

/// One event (span or instant) of the daemon's own obs trace, as
/// fetch_trace returns it.
struct DaemonSpan {
  std::string name;
  Clock::time_point start;
  double dur_us = 0.0;  ///< 0 for instants
  std::uint64_t trace_id = 0;
  std::uint32_t tid = 0;  ///< the recorder's small thread id
  bool instant = false;

  Clock::time_point end() const {
    return start +
           std::chrono::nanoseconds(static_cast<std::int64_t>(dur_us * 1e3));
  }
};
/// Every event (spans and instants) of the Chrome JSON of fetch_trace, with
/// timestamps mapped back onto this process's steady clock.  Callers parse a
/// trace once and filter by name and `instant`.
std::vector<DaemonSpan> parse_daemon_events(const std::string& json);

/// Busy time of the daemon's reactor inside any interval, by prefix sums
/// over its busy intervals: the frame_decode and frame_encode spans, plus
/// admission — from a frame_decode's end to the service instants (submit,
/// cache_hit, job_done) that the same thread records right after it.  The
/// reactor is one thread, so its intervals never overlap.
class ReactorBusy {
 public:
  explicit ReactorBusy(const std::vector<DaemonSpan>& events);
  /// Busy milliseconds within [from, to].
  double ms(Clock::time_point from, Clock::time_point to) const;

 private:
  double busy_until(Clock::time_point t) const;

  std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals_;
  std::vector<double> prefix_;
};

// --- traced runs -------------------------------------------------------------

/// Enables the daemon's obs::TraceRecorder and the span log together (the
/// whole set-up of a traced run records), or disables both.
void set_tracing(bool on);

/// Index of the trace block `t` falls in (even = untraced, odd = traced).
int block_index(Clock::time_point t0, Clock::time_point t);

/// Alternates untraced (even) and traced (odd) blocks of kTraceBlockSeconds
/// from `t0` on a small timer thread, so tracing overhead is measured
/// against interleaved untraced blocks rather than a drifting baseline.
/// Does nothing in untraced runs.
class TraceBlocks {
 public:
  TraceBlocks(bool active, Clock::time_point t0);
  ~TraceBlocks();  ///< stops the timer and leaves tracing on
  TraceBlocks(const TraceBlocks&) = delete;
  TraceBlocks& operator=(const TraceBlocks&) = delete;

 private:
  bool active_;
  std::atomic<bool> stop_{false};
  std::thread timer_;
};

// --- end-to-end summary ------------------------------------------------------

/// Everything the end-to-end metrics are computed from.
struct EndToEnd {
  std::vector<double> setup_s;
  double wall_s = 0.0;  ///< window: measurement start → last completion
  double cpu_s = 0.0;   ///< process user+sys over the window
  std::uint64_t sent = 0;
  std::vector<double> ok_latency_ms;  ///< one per op completed ok
  std::vector<double> ok_done_s;      ///< its completion, seconds from start
  double seconds = 0.0;               ///< the run's --seconds
  double limit_ms = 0.0;              ///< the workload's latency limit
  std::vector<double> session_s;
  double gap_at_3 = 0.0;
  double gap_at_20 = 0.0;
};

/// Sets the attempted / failed counts and, when `with_metrics`, adds every
/// end-to-end metric (see BENCHMARK.json).
void add_end_to_end(Report& report, const EndToEnd& e2e, bool with_metrics);

/// Every per-layer metric (see BENCHMARK.json), in one place so that all
/// workloads print the same set.  README.md says where each comes from on
/// each workload.
struct Layers {
  Distribution wire_ms;
  double submit_call_us_p50 = 0.0;
  double frames_per_op = 0.0;
  double inbound_ms_p50 = 0.0;
  double turnaround_ms_p50 = 0.0;
  double reactor_busy_ms_mean = 0.0;
  double result_flush_us_p50 = 0.0;
  double delivery_ms_p50 = 0.0;
  Distribution queue_wait_ms;
  double cache_hit_ratio = 0.0;
  double coalesced_ratio = 0.0;
  Distribution run_ms;
  double calls_per_op = 0.0;
  double flips_per_s = 0.0;
  double cache_stored_per_op = 0.0;
  double journal_append_us_p50 = 0.0;
  double rows_per_pass = 0.0;
  double combined_row_ratio = 0.0;
  double non_kernel_ms = 0.0;
  FitSplit fit;
  double overhead_pct = 0.0;
  double overhead_iqr_pct = 0.0;
  double lag_ms_tail = 0.0;
  double unaccounted_ms = 0.0;
  double accounted_latency_ms = 0.0;  ///< mean latency of the split ops
  std::size_t accounted_ops = 0;      ///< how many ops were split
  double ops_measured = 0.0;
  double tail_percentile = 0.0;
};

/// Adds every per-layer metric, and fails the run when no op could be split
/// into layers or when unaccounted_ms exceeds kAccountingBound of the split
/// ops' mean latency.
void add_per_layer(Report& report, const Layers& layers);

/// Service counter ratios over a window (after − before), per ok op.
void add_service_ratios(Layers& layers,
                        const qross::service::ServiceMetrics& before,
                        const qross::service::ServiceMetrics& after,
                        double ok_ops);

/// Median and interquartile range of per-block-pair tracing overhead.
struct Overhead {
  double pct = 0.0;
  double iqr_pct = 0.0;
};
/// `op_block` gives each op's block (even = untraced, odd = traced) and
/// `latency_ms` its latency; pairs (2i, 2i+1) are compared on their p50.
Overhead trace_overhead(const std::vector<int>& op_block,
                        const std::vector<double>& latency_ms);

}  // namespace perfbench
