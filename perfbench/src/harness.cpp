#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"
#include "problems/tsp/exact.hpp"
#include "problems/tsp/formulation.hpp"
#include "problems/tsp/generators.hpp"
#include "surrogate/dataset.hpp"

namespace perfbench {

namespace net = qross::net;
namespace service = qross::service;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool more_setups(const std::vector<double>& setup_s) {
  const auto n = static_cast<int>(setup_s.size());
  double spent = 0.0;
  for (const double s : setup_s) spent += s;
  return n < kSetupRepeats || (spent < kSetupSeconds && n < kSetupMaxRepeats);
}

// --- report -----------------------------------------------------------------

void Report::fail(const std::string& message) {
  correct = false;
  if (errors.size() < 20) errors.push_back(message);
}

void Report::info(const std::string& line) const {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

// --- statistics --------------------------------------------------------------

double percentile(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : qross::quantile(values, p / 100.0);
}

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

double tail_percentile_for(std::size_t samples) {
  for (const double p : {99.0, 98.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

Distribution distribution(const std::vector<double>& values) {
  Distribution d;
  d.samples = values.size();
  d.p50 = percentile(values, 50.0);
  d.tail_pct = tail_percentile_for(values.size());
  d.tail = percentile(values, d.tail_pct);
  return d;
}

// --- spans ------------------------------------------------------------------

SpanLog& SpanLog::instance() {
  static SpanLog* log = new SpanLog();  // leaked: spans outlive static teardown
  return *log;
}

void SpanLog::record(const char* name, const char* cat,
                     Clock::time_point start, Clock::time_point end,
                     std::uint64_t id, std::uint64_t work) {
  std::lock_guard<std::mutex> lock(m_);
  spans_.push_back({name, cat, start, end, id, work});
}

std::vector<SpanLog::Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(m_);
  return spans_;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  const auto spans = snapshot();
  std::ofstream out(path);
  if (!out.good()) return false;
  out << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                  i == 0 ? "" : ",", s.name, s.cat,
                  seconds_between(epoch_, s.start) * 1e6,
                  seconds_between(s.start, s.end) * 1e6,
                  static_cast<unsigned long long>(s.id));
    out << buf;
  }
  out << "]}\n";
  return out.good();
}

qross::qubo::SolveBatch TimedSolver::solve(
    const qross::qubo::QuboModel& model,
    const qross::solvers::SolveOptions& options) const {
  auto& log = SpanLog::instance();
  if (!log.enabled()) return inner_->solve(model, options);
  const auto start = Clock::now();
  auto batch = inner_->solve(model, options);
  log.record("solve", "solvers", start, Clock::now(), 0,
             options.num_replicas * options.num_sweeps * model.num_vars());
  return batch;
}

qross::solvers::SolverPtr timed_registry(const std::string& name) {
  auto inner = net::default_solver_registry(name);
  if (inner == nullptr) return nullptr;
  return std::make_shared<TimedSolver>(std::move(inner));
}

// --- stack -----------------------------------------------------------------

Stack::Stack(const net::Endpoint& listen, const std::string& cache_path,
             std::optional<qross::core::QrossTuner> tuner) {
  service::ServiceConfig service_config;
  service_config.num_workers = kWorkers;
  service_config.cache_capacity = kCacheEntries;
  service_config.cache_path = cache_path;
  service_ = std::make_unique<service::SolveService>(service_config);

  net::ServerConfig server_config;
  server_config.listen.push_back(listen);
  server_config.registry = timed_registry;
  if (tuner.has_value()) {
    tune_ = std::make_unique<service::TuneService>(std::move(*tuner),
                                                   *service_);
    server_config.tune = tune_.get();
  }
  server_ = std::make_unique<net::Server>(*service_, server_config);
  std::string error;
  if (!server_->start(&error)) {
    throw std::runtime_error("server start failed: " + error);
  }
  endpoint_ = server_->endpoints().front();
}

Stack::~Stack() {
  if (server_ != nullptr) {
    server_->drain(std::chrono::milliseconds(5000));
    server_->stop();
  }
  server_.reset();
  tune_.reset();
  service_.reset();
}

std::unique_ptr<net::Client> connect_client(const net::Endpoint& endpoint,
                                            const std::string& client_id) {
  net::ClientConfig config;
  config.server = endpoint;
  config.client_id = client_id;
  config.request_timeout_ms = 60000;
  auto client = std::make_unique<net::Client>(config);
  std::string error;
  if (!client->connect(&error)) {
    throw std::runtime_error("connect failed: " + error);
  }
  return client;
}

// --- problems ----------------------------------------------------------------

std::vector<Problem> make_problems(std::size_t count, std::uint64_t seed,
                                   bool prepare) {
  std::vector<Problem> problems;
  problems.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t cities = 10 + i % 3;
    const std::uint64_t child = qross::derive_seed(seed, i);
    auto instance = (i / 3) % 2 == 0
                        ? qross::tsp::generate_uniform(cities, child)
                        : qross::tsp::generate_exponential(cities, child);
    Problem p;
    p.optimum = qross::tsp::solve_held_karp(instance).length;
    if (prepare) {
      p.prepared =
          std::make_shared<qross::surrogate::PreparedTspInstance>(instance);
    }
    p.original =
        std::make_shared<const qross::tsp::TspInstance>(std::move(instance));
    problems.push_back(std::move(p));
  }
  return problems;
}

double gap_of(double best_length, double optimum) {
  if (!std::isfinite(best_length)) return kInfeasibleGap;
  return std::max(best_length / optimum - 1.0, 0.0);
}

qross::solvers::SolveOptions probe_options() {
  qross::solvers::SolveOptions options;
  options.num_replicas = kReplicas;
  options.num_sweeps = kSweeps;
  options.seed = 3;
  return options;
}

qross::core::QrossTuner fit_tuner() {
  const auto corpus = qross::tsp::generate_synthetic_dataset(
      kCorpusInstances, 10, 12, kCorpusSeed);
  qross::surrogate::SweepConfig sweep;
  sweep.slope_points = 5;
  sweep.plateau_points = 1;
  sweep.bisection_steps = 4;
  const ScopedBenchSpan span("fit", "qross");
  return qross::core::QrossTuner::fit(corpus, timed_registry("da"),
                                      probe_options(), sweep);
}

FitSplit fit_split() {
  // The last "fit" span and the solver spans inside it.
  const auto spans = SpanLog::instance().snapshot();
  const SpanLog::Span* fit = nullptr;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "fit") fit = &s;
  }
  FitSplit split;
  if (fit == nullptr) return split;
  Clock::time_point last_solve = fit->start;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "solve" && s.start >= fit->start &&
        s.end <= fit->end) {
      last_solve = std::max(last_solve, s.end);
    }
  }
  split.dataset_s = seconds_between(fit->start, last_solve);
  split.train_s = seconds_between(last_solve, fit->end);
  return split;
}

// --- checks ------------------------------------------------------------------

double best_tour_length(const Problem& problem,
                        const qross::qubo::SolveBatch& batch,
                        Report& report) {
  // Scored as QrossTuner scores a trial: only the best feasible replica by
  // the constrained problem's objective counts.
  const auto& prepared = *problem.prepared;
  const auto stats = qross::qubo::evaluate_batch(prepared.problem(), batch);
  if (!stats.has_feasible()) return std::numeric_limits<double>::infinity();
  const auto tour =
      qross::tsp::decode_tour(prepared.prepared(), *stats.best_feasible);
  if (!tour.has_value() || !problem.instance().is_valid_tour(*tour)) {
    report.fail("the best feasible assignment does not decode to a tour");
    return std::numeric_limits<double>::infinity();
  }
  const double length = problem.instance().tour_length(*tour);
  if (length < problem.optimum * (1.0 - 1e-9)) {
    report.fail("tour shorter than the Held-Karp optimum");
  }
  return length;
}

void check_energies(const qross::qubo::QuboModel& model,
                    const qross::qubo::SolveBatch& batch, Report& report) {
  for (const auto& r : batch.results) {
    const double expected = model.energy(r.assignment);
    if (std::abs(expected - r.qubo_energy) >
        1e-9 * (std::abs(expected) + 1.0)) {
      report.fail("reported energy " + std::to_string(r.qubo_energy) +
                  " != QuboModel::energy " + std::to_string(expected));
      return;
    }
  }
}

bool same_batch(const qross::qubo::SolveBatch& a,
                const qross::qubo::SolveBatch& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].assignment != b.results[i].assignment) return false;
    // Bit-identical, not merely equal: compare the IEEE representation.
    const double x = a.results[i].qubo_energy;
    const double y = b.results[i].qubo_energy;
    if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
  }
  return true;
}

// --- process figures ---------------------------------------------------------

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double rss_peak_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// --- daemon trace ------------------------------------------------------------

namespace {

/// Value of `"key":` inside one event object, or nullopt.
std::optional<std::string_view> field(std::string_view event,
                                      std::string_view key) {
  std::string needle(1, '"');
  needle.append(key).append("\":");
  const auto at = event.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  auto rest = event.substr(at + needle.size());
  if (!rest.empty() && rest.front() == '"') {
    rest.remove_prefix(1);
    return rest.substr(0, rest.find('"'));
  }
  return rest.substr(0, rest.find_first_of(",}"));
}

double number(std::optional<std::string_view> text) {
  return text ? std::strtod(std::string(*text).c_str(), nullptr) : 0.0;
}

DaemonSpan to_span(std::string_view event) {
  DaemonSpan span;
  span.name = std::string(field(event, "name").value_or(""));
  const auto epoch = qross::obs::TraceRecorder::instance().epoch();
  span.start = epoch + std::chrono::nanoseconds(static_cast<std::int64_t>(
                           number(field(event, "ts")) * 1e3));
  span.dur_us = number(field(event, "dur"));
  span.trace_id =
      static_cast<std::uint64_t>(number(field(event, "trace")));
  span.tid = static_cast<std::uint32_t>(number(field(event, "tid")));
  span.instant = field(event, "ph").value_or("") == "i";
  return span;
}

}  // namespace

std::vector<DaemonSpan> parse_daemon_events(const std::string& json) {
  // Every event is one flat object except for its nested "args" object.
  std::vector<DaemonSpan> events;
  std::size_t pos = json.find("{\"name\":");
  while (pos != std::string::npos) {
    const auto next = json.find("{\"name\":", pos + 1);
    events.push_back(to_span(std::string_view(json).substr(
        pos, (next == std::string::npos ? json.size() : next) - pos)));
    pos = next;
  }
  return events;
}

ReactorBusy::ReactorBusy(const std::vector<DaemonSpan>& events) {
  std::optional<std::uint32_t> reactor;
  for (const auto& e : events) {
    if (e.name == "frame_decode") reactor = e.tid;
  }
  if (!reactor) {
    prefix_.push_back(0.0);
    return;
  }
  std::vector<const DaemonSpan*> own;
  for (const auto& e : events) {
    if (e.tid == *reactor) own.push_back(&e);
  }
  std::stable_sort(own.begin(), own.end(),
                   [](const auto* a, const auto* b) {
                     return a->start < b->start;
                   });
  for (std::size_t i = 0; i < own.size(); ++i) {
    const auto& e = *own[i];
    if (e.instant) continue;
    if (e.name != "frame_decode" && e.name != "frame_encode") continue;
    auto end = e.end();
    if (e.name == "frame_decode") {
      // Admission follows the decode on the same thread, up to its last
      // service instant.
      for (std::size_t j = i + 1; j < own.size() && own[j]->instant; ++j) {
        const auto& n = own[j]->name;
        if (n != "submit" && n != "cache_hit" && n != "job_done") break;
        end = std::max(end, own[j]->start);
      }
    }
    intervals_.emplace_back(e.start, end);
  }
  std::sort(intervals_.begin(), intervals_.end());
  prefix_.push_back(0.0);
  for (const auto& [a, b] : intervals_) {
    prefix_.push_back(prefix_.back() + seconds_between(a, b));
  }
}

double ReactorBusy::ms(Clock::time_point from, Clock::time_point to) const {
  return (busy_until(to) - busy_until(from)) * 1e3;
}

double ReactorBusy::busy_until(Clock::time_point t) const {
  const auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), t,
      [](Clock::time_point v, const auto& iv) { return v < iv.first; });
  const auto i = static_cast<std::size_t>(it - intervals_.begin());
  if (i == 0) return 0.0;
  const auto& [a, b] = intervals_[i - 1];
  return prefix_[i - 1] + seconds_between(a, std::min(b, t));
}

void set_tracing(bool on) {
  auto& recorder = qross::obs::TraceRecorder::instance();
  if (on) {
    recorder.enable(1u << 18);
  } else {
    recorder.disable();
  }
  SpanLog::instance().set_enabled(on);
}

int block_index(Clock::time_point t0, Clock::time_point t) {
  return static_cast<int>(
      std::floor(std::max(0.0, seconds_between(t0, t)) / kTraceBlockSeconds));
}

TraceBlocks::TraceBlocks(bool active, Clock::time_point t0) : active_(active) {
  if (!active_) return;
  set_tracing(false);
  timer_ = std::thread([this, t0] {
    bool on = false;
    while (!stop_.load()) {
      const bool want = block_index(t0, Clock::now()) % 2 == 1;
      if (want != on) {
        set_tracing(want);
        on = want;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

TraceBlocks::~TraceBlocks() {
  if (!active_) return;
  stop_.store(true);
  timer_.join();
  set_tracing(true);
}

void add_end_to_end(Report& report, const EndToEnd& e2e, bool with_metrics) {
  const auto ok = static_cast<double>(e2e.ok_latency_ms.size());
  const auto sent = static_cast<double>(std::max<std::uint64_t>(e2e.sent, 1));
  std::size_t within = 0;
  for (const double l : e2e.ok_latency_ms) within += l <= e2e.limit_ms;
  const auto latency = distribution(e2e.ok_latency_ms);
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::floor(e2e.seconds / kTailWindowSeconds)));
  std::vector<std::vector<double>> per_window(windows);
  for (std::size_t i = 0; i < e2e.ok_latency_ms.size(); ++i) {
    const auto w = static_cast<std::size_t>(
        std::max(0.0, e2e.ok_done_s[i] / kTailWindowSeconds));
    per_window[std::min(w, windows - 1)].push_back(e2e.ok_latency_ms[i]);
  }
  std::vector<double> window_tails;
  std::string tails;
  for (const auto& sample : per_window) {
    if (sample.empty()) continue;
    const auto d = distribution(sample);
    window_tails.push_back(d.tail);
    tails += " p" + std::to_string(d.tail_pct).substr(0, 4) + "/" +
             std::to_string(d.samples);
  }
  report.attempted = e2e.sent;
  report.failed = e2e.sent - e2e.ok_latency_ms.size();
  report.info("ops sent " + std::to_string(e2e.sent) + ", ok " +
              std::to_string(e2e.ok_latency_ms.size()) +
              ", latency tail = median of window tails (percentile/samples):" +
              tails + ", limit " + std::to_string(e2e.limit_ms) + " ms");
  if (!with_metrics) return;
  report.add("setup_s", median(e2e.setup_s), "s");
  report.add("throughput_per_s", ok / e2e.wall_s, "1/s");
  report.add("latency_ms_p50", latency.p50, "ms");
  report.add("latency_ms_tail", median(window_tails), "ms");
  report.add("slo_ok_ratio", static_cast<double>(within) / sent, "ratio");
  report.add("ok_ratio", ok / sent, "ratio");
  report.add("cpu_ms_per_op", e2e.cpu_s * 1e3 / std::max(ok, 1.0), "ms");
  report.add("rss_peak_mb", rss_peak_mb(), "MB");
  report.add("session_s_p50", median(e2e.session_s), "s");
  report.add("gap_at_3", e2e.gap_at_3, "ratio");
  report.add("gap_at_20", e2e.gap_at_20, "ratio");
}

void add_per_layer(Report& report, const Layers& l) {
  if (l.accounted_ops == 0 || l.accounted_latency_ms <= 0.0) {
    report.fail("layer accounting: no op could be split into layers");
  } else {
    const double share = l.unaccounted_ms / l.accounted_latency_ms;
    report.info("layer accounting over " + std::to_string(l.accounted_ops) +
                " ops: " + std::to_string(l.unaccounted_ms) + " ms of " +
                std::to_string(l.accounted_latency_ms) +
                " ms mean op latency unaccounted (" +
                std::to_string(share * 100.0) + "%, bound " +
                std::to_string(kAccountingBound * 100.0) + "%)");
    if (std::abs(share) > kAccountingBound) {
      report.fail("layer accounting: unaccounted share " +
                  std::to_string(share * 100.0) + "% is over the bound");
    }
  }
  report.add("net.wire_ms_p50", l.wire_ms.p50, "ms");
  report.add("net.wire_ms_tail", l.wire_ms.tail, "ms");
  report.add("net.submit_call_us_p50", l.submit_call_us_p50, "us");
  report.add("net.frames_per_op", l.frames_per_op, "count");
  report.add("net.inbound_ms_p50", l.inbound_ms_p50, "ms");
  report.add("net.turnaround_ms_p50", l.turnaround_ms_p50, "ms");
  report.add("net.reactor_busy_ms_mean", l.reactor_busy_ms_mean, "ms");
  report.add("net.result_flush_us_p50", l.result_flush_us_p50, "us");
  report.add("net.delivery_ms_p50", l.delivery_ms_p50, "ms");
  report.add("service.queue_wait_ms_p50", l.queue_wait_ms.p50, "ms");
  report.add("service.queue_wait_ms_tail", l.queue_wait_ms.tail, "ms");
  report.add("service.cache_hit_ratio", l.cache_hit_ratio, "ratio");
  report.add("service.coalesced_ratio", l.coalesced_ratio, "ratio");
  report.add("solvers.run_ms_p50", l.run_ms.p50, "ms");
  report.add("solvers.run_ms_tail", l.run_ms.tail, "ms");
  report.add("solvers.calls_per_op", l.calls_per_op, "count");
  report.add("qubo.flips_per_s", l.flips_per_s, "1/s");
  report.add("io.cache_stored_per_op", l.cache_stored_per_op, "count");
  report.add("io.journal_append_us_p50", l.journal_append_us_p50, "us");
  report.add("surrogate.rows_per_pass", l.rows_per_pass, "count");
  report.add("surrogate.combined_row_ratio", l.combined_row_ratio, "ratio");
  report.add("qross.non_kernel_ms_per_trial", l.non_kernel_ms, "ms");
  report.add("solvers.fit_dataset_s", l.fit.dataset_s, "s");
  report.add("nn.fit_train_s", l.fit.train_s, "s");
  report.add("obs.trace_overhead_pct", l.overhead_pct, "%");
  report.add("obs.trace_overhead_iqr_pct", l.overhead_iqr_pct, "%");
  report.add("load.lag_ms_tail", l.lag_ms_tail, "ms");
  report.add("unaccounted_ms", l.unaccounted_ms, "ms");
  report.add("load.ops_measured", l.ops_measured, "count");
  report.add("load.tail_percentile", l.tail_percentile, "pct");
}

void add_service_ratios(Layers& layers,
                        const qross::service::ServiceMetrics& before,
                        const qross::service::ServiceMetrics& after,
                        double ok_ops) {
  const auto delta = [](std::size_t a, std::size_t b) {
    return static_cast<double>(b - a);
  };
  const double hits = delta(before.cache_hits, after.cache_hits);
  const double lookups =
      hits + delta(before.cache_misses, after.cache_misses);
  const double submitted = delta(before.submitted, after.submitted);
  layers.cache_hit_ratio = lookups > 0.0 ? hits / lookups : 0.0;
  layers.coalesced_ratio =
      submitted > 0.0 ? delta(before.coalesced, after.coalesced) / submitted
                      : 0.0;
  const double ops = std::max(ok_ops, 1.0);
  layers.calls_per_op =
      delta(before.solver_invocations, after.solver_invocations) / ops;
  layers.cache_stored_per_op =
      delta(before.cache_stored, after.cache_stored) / ops;
}

Overhead trace_overhead(const std::vector<int>& op_block,
                        const std::vector<double>& latency_ms) {
  int blocks = 0;
  for (const int b : op_block) blocks = std::max(blocks, b + 1);
  std::vector<std::vector<double>> per_block(static_cast<std::size_t>(blocks));
  for (std::size_t i = 0; i < op_block.size(); ++i) {
    if (op_block[i] >= 0) {
      per_block[static_cast<std::size_t>(op_block[i])].push_back(latency_ms[i]);
    }
  }
  std::vector<double> pairs;
  for (std::size_t b = 0; b + 1 < per_block.size(); b += 2) {
    if (per_block[b].empty() || per_block[b + 1].empty()) continue;
    const double untraced = median(per_block[b]);
    const double traced = median(per_block[b + 1]);
    if (untraced > 0.0) pairs.push_back((traced / untraced - 1.0) * 100.0);
  }
  Overhead o;
  o.pct = median(pairs);
  o.iqr_pct = percentile(pairs, 75.0) - percentile(pairs, 25.0);
  return o;
}

}  // namespace perfbench
