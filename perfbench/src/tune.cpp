// Workload `tune`: the paper's product over the wire.
//
// Closed loop over a Unix socket.  Two connections, each on its own thread,
// run composed 20-trial DA tuning sessions back to back on distinct 10–12
// city instances.  The surrogate is trained at set-up with QrossTuner::fit.
// One op is one trial; its latency is the gap between the arrivals of
// consecutive TuneStatus frames (the first from the submit).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace net = qross::net;

namespace {

constexpr std::size_t kQualitySessions = 64;  // 32 per connection
// More distinct instances than a run has sessions, so the run's cost does not
// hinge on a few instances the seed happened to draw.
constexpr std::size_t kLoadProblems = 240;
constexpr std::size_t kConnections = 2;
constexpr double kTrialLimitMs = 50.0;

struct World {
  std::vector<Problem> quality;
  std::vector<Problem> load;
  std::unique_ptr<Stack> stack;
  std::vector<std::unique_ptr<net::Client>> clients;
};

std::unique_ptr<World> build_world(const RunArgs& args) {
  auto world = std::make_unique<World>();
  auto tuner = fit_tuner();
  world->quality = make_problems(kQualitySessions, kQualitySeed, false);
  world->load =
      make_problems(kLoadProblems, qross::derive_seed(args.seed, 1), false);
  const auto listen =
      net::Endpoint::parse("unix:" + args.work_dir + "/tune.sock");
  world->stack = std::make_unique<Stack>(
      *listen, args.work_dir + "/cache.qsnap", std::move(tuner));
  for (std::size_t c = 0; c < kConnections; ++c) {
    world->clients.push_back(connect_client(world->stack->endpoint(),
                                            "tune-" + std::to_string(c)));
  }
  return world;
}

struct Session {
  const Problem* problem = nullptr;
  int quality_index = -1;  ///< index into the quality set, -1 for load
  std::uint64_t trace_id = 0;
  Clock::time_point submit;
  Clock::time_point result_at;
  double submit_call_us = 0.0;
  double lag_ms = 0.0;  ///< previous result → this submit (closed loop)
  std::vector<Clock::time_point> trial_at;  ///< TuneStatus arrivals
  bool ok = false;
  std::string error;
  net::TuneResultFrame result;
};

/// Runs one session to completion on `client`; false on a transport failure
/// (recorded in s.error — the load threads never touch the shared Report).
bool run_session(net::Client& client, Session& s, std::uint64_t seed) {
  net::RemoteTune request;
  request.solver = "da";
  request.instance = net::pack_tsp_instance(s.problem->instance());
  request.instance_name = s.problem->instance().name();
  request.trials = kTrials;
  request.a_min = kAMin;
  request.a_max = kAMax;
  request.seed = seed;
  request.trace_id = s.trace_id;

  s.submit = Clock::now();
  auto tag = [&] {
    const ScopedBenchSpan span("submit_tune", "net", s.trace_id);
    return client.submit_tune(request);
  }();
  s.submit_call_us = seconds_between(s.submit, Clock::now()) * 1e6;
  if (!tag.ok()) {
    s.error = "submit_tune: " + tag.error().message;
    return false;
  }
  auto last_progress = Clock::now();
  while (s.trial_at.size() < kTrials) {
    std::string error;
    const bool alive = [&] {
      const ScopedBenchSpan span("poll", "net", s.trace_id);
      return client.poll(200, &error);
    }();
    const auto now = Clock::now();
    if (!alive) {
      s.error = "poll: " + error;
      return false;
    }
    const std::size_t arrived = client.tune_status(tag.value()).size();
    if (arrived > s.trial_at.size()) last_progress = now;
    while (s.trial_at.size() < arrived) s.trial_at.push_back(now);
    // A session the server ended early stops streaming; tune_wait reports
    // how it ended.
    if (seconds_between(last_progress, now) > 30.0) break;
  }
  auto result = [&] {
    const ScopedBenchSpan span("tune_wait", "net", s.trace_id);
    return client.tune_wait(tag.value());
  }();
  s.result_at = Clock::now();
  if (!result.ok()) {
    s.error = "tune_wait: " + result.error().message;
    return false;
  }
  s.result = std::move(result).value();
  s.ok = s.result.status == net::kTuneDone && s.trial_at.size() == kTrials;
  return true;
}

/// Output checks of one finished session.
void check_session(const Session& s, Report& report) {
  if (!s.ok) {
    report.fail("session " + std::to_string(s.trace_id) + " did not finish: " +
                s.error + s.result.error);
    return;
  }
  const auto& r = s.result;
  if (r.trials.size() != kTrials) report.fail("session trial count");
  if (r.best_tour.empty()) return;  // infeasible outcome: nothing to check
  std::vector<std::size_t> tour(r.best_tour.begin(), r.best_tour.end());
  const auto& instance = s.problem->instance();
  if (!instance.is_valid_tour(tour)) {
    report.fail("best_tour is not a permutation");
    return;
  }
  const double length = instance.tour_length(tour);
  if (std::abs(length - r.best_length) > 1e-9 * r.best_length) {
    report.fail("best_tour length " + std::to_string(length) +
                " != best_length " + std::to_string(r.best_length));
  }
  if (r.best_length < s.problem->optimum * (1.0 - 1e-9)) {
    report.fail("best_length below the Held-Karp optimum");
  }
}

}  // namespace

Report run_tune(const RunArgs& args, Clock::time_point process_start) {
  Report report;
  set_tracing(args.trace);
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  while (more_setups(setup_s)) {
    world.reset();
    std::filesystem::remove_all(args.work_dir + "/cache.qsnap");
    const auto start = setup_s.empty() ? process_start : Clock::now();
    world = build_world(args);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  const FitSplit fit = fit_split();

  // --- measurement -----------------------------------------------------------
  std::vector<std::vector<Session>> sessions(kConnections);
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  std::atomic<std::uint64_t> next_load{0};
  {
    TraceBlocks blocks(args.trace, t0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        auto& client = *world->clients[c];
        Clock::time_point previous = t0;
        for (std::size_t q = c;; q += kConnections) {
          const bool quality = q < kQualitySessions;
          if (!quality && seconds_between(t0, Clock::now()) >= args.seconds) {
            break;
          }
          Session s;
          std::uint64_t seed;
          if (quality) {
            s.problem = &world->quality[q];
            s.quality_index = static_cast<int>(q);
            seed = qross::derive_seed(kQualitySeed, q);
          } else {
            const auto k = next_load.fetch_add(1);
            s.problem = &world->load[k % world->load.size()];
            seed = qross::derive_seed(args.seed, 1000 + k);
          }
          s.trace_id = 1 + c + kConnections * sessions[c].size();
          const auto lag_from = previous;
          const bool alive = run_session(client, s, seed);
          s.lag_ms = seconds_between(lag_from, s.submit) * 1e3;
          previous = s.result_at;
          sessions[c].push_back(std::move(s));
          if (!alive) break;
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double cpu_s = cpu_seconds() - cpu0;

  // --- outputs ---------------------------------------------------------------
  EndToEnd e2e;
  e2e.setup_s = setup_s;
  e2e.cpu_s = cpu_s;
  e2e.limit_ms = kTrialLimitMs;
  e2e.seconds = args.seconds;
  std::vector<double> gap3(kQualitySessions, kInfeasibleGap);
  std::vector<double> gap20(kQualitySessions, kInfeasibleGap);
  Clock::time_point t_end = t0;
  std::vector<int> op_block;
  std::vector<double> wire_ms, submit_us, lag_ms;
  for (const auto& per_conn : sessions) {
    for (const auto& s : per_conn) {
      check_session(s, report);
      e2e.sent += kTrials;
      t_end = std::max(t_end, s.result_at);
      submit_us.push_back(s.submit_call_us);
      lag_ms.push_back(s.lag_ms);
      if (!s.ok) continue;
      e2e.session_s.push_back(seconds_between(s.submit, s.result_at));
      wire_ms.push_back(seconds_between(s.submit, s.result_at) * 1e3 -
                        s.result.wall_ms);
      Clock::time_point previous = s.submit;
      for (const auto at : s.trial_at) {
        const double l = seconds_between(previous, at) * 1e3;
        e2e.ok_latency_ms.push_back(l);
        e2e.ok_done_s.push_back(seconds_between(t0, at));
        op_block.push_back(block_index(t0, at));
        previous = at;
      }
      if (s.quality_index >= 0 && s.result.trials.size() == kTrials) {
        const auto q = static_cast<std::size_t>(s.quality_index);
        gap3[q] = gap_of(s.result.trials[2].best_length_so_far,
                         s.problem->optimum);
        gap20[q] = gap_of(s.result.trials[kTrials - 1].best_length_so_far,
                          s.problem->optimum);
      }
    }
  }
  e2e.wall_s = seconds_between(t0, t_end);
  e2e.gap_at_3 = qross::mean(gap3);
  e2e.gap_at_20 = qross::mean(gap20);

  auto& client = *world->clients[0];
  const auto metrics = client.fetch_metrics();
  if (!metrics.ok()) {
    report.fail("fetch_metrics: " + metrics.error().message);
    return report;
  }
  const auto& sm = metrics.value().service;
  report_environment(report, sm.simd_kernel, kConnections);

  add_end_to_end(report, e2e, !args.trace);
  if (!args.trace) return report;

  // --- per-layer (traced run) ------------------------------------------------
  const auto trace = client.fetch_trace();
  if (!trace.ok()) {
    report.fail("fetch_trace: " + trace.error().message);
    return report;
  }
  const auto traced = [&](Clock::time_point t) {
    return block_index(t0, t) % 2 == 1;
  };
  // Daemon spans: probe queue waits, journal appends, and the final
  // TuneResult flush of each session (matched to the client by trace id).
  std::map<std::uint64_t, const Session*> by_trace;
  for (const auto& per_conn : sessions) {
    for (const auto& s : per_conn) by_trace[s.trace_id] = &s;
  }
  const auto events = parse_daemon_events(trace.value());
  const ReactorBusy reactor(events);
  std::vector<double> queue_ms, journal_us, flush_us, delivery_ms, inbound_ms,
      reactor_ms, turnaround_ms;
  std::map<std::uint64_t, Clock::time_point> first_probe, last_kernel_end;
  for (const auto& d : events) {
    if (d.instant) {
      if (d.name == "submit" && !first_probe.contains(d.trace_id)) {
        first_probe[d.trace_id] = d.start;
      }
    } else if (d.name == "kernel") {
      last_kernel_end[d.trace_id] = d.end();
    }
  }
  for (const auto& d : events) {
    if (d.instant) continue;
    if (d.name == "queue" && traced(d.start)) {
      queue_ms.push_back(d.dur_us / 1e3);
    } else if (d.name == "journal_append") {
      journal_us.push_back(d.dur_us);
    } else if (d.name == "tune_result_flush") {
      const auto it = by_trace.find(d.trace_id);
      if (it == by_trace.end() || !it->second->ok) continue;
      flush_us.push_back(d.dur_us);
      // Last probe done → result flush: the last strategy step, session
      // teardown and the reactor's wake-up.
      if (const auto k = last_kernel_end.find(d.trace_id);
          k != last_kernel_end.end()) {
        turnaround_ms.push_back(seconds_between(k->second, d.start) * 1e3);
      }
      // Per trial: the reactor time spent on frames while the session ran.
      reactor_ms.push_back(reactor.ms(it->second->submit, d.start) /
                           static_cast<double>(kTrials));
      delivery_ms.push_back(
          seconds_between(d.end(), it->second->result_at) * 1e3);
    }
  }
  for (const auto& [trace_id, at] : first_probe) {
    const auto it = by_trace.find(trace_id);
    if (it == by_trace.end()) continue;
    const auto& s = *it->second;
    inbound_ms.push_back(
        (seconds_between(s.submit, at) - s.submit_call_us * 1e-6) * 1e3);
  }
  std::vector<double> run_ms, flips_per_s;
  for (const auto& s : SpanLog::instance().snapshot()) {
    if (std::string_view(s.name) != "solve" || s.start < t0) continue;
    const double dur = seconds_between(s.start, s.end);
    if (traced(s.start)) run_ms.push_back(dur * 1e3);
    flips_per_s.push_back(static_cast<double>(s.work) / dur);
  }
  std::vector<double> traced_latency;
  for (std::size_t i = 0; i < op_block.size(); ++i) {
    if (op_block[i] % 2 == 1) traced_latency.push_back(e2e.ok_latency_ms[i]);
  }

  const auto ok_ops = static_cast<double>(e2e.ok_latency_ms.size());
  const auto stats = world->stack->server().stats();
  const auto surrogate = world->stack->tune()->evaluator().stats();
  const auto overhead = trace_overhead(op_block, e2e.ok_latency_ms);
  Layers layers;
  layers.wire_ms = distribution(wire_ms);
  layers.submit_call_us_p50 = median(submit_us);
  layers.frames_per_op =
      static_cast<double>(stats.frames_sent + stats.frames_received) / ok_ops;
  layers.inbound_ms_p50 = median(inbound_ms);
  layers.turnaround_ms_p50 = median(turnaround_ms);
  layers.reactor_busy_ms_mean = qross::mean(reactor_ms);
  layers.result_flush_us_p50 = median(flush_us);
  layers.delivery_ms_p50 = median(delivery_ms);
  layers.queue_wait_ms = distribution(queue_ms);
  add_service_ratios(layers, qross::service::ServiceMetrics{}, sm, ok_ops);
  layers.run_ms = distribution(run_ms);
  layers.flips_per_s = median(flips_per_s);
  layers.journal_append_us_p50 = median(journal_us);
  layers.rows_per_pass = static_cast<double>(surrogate.rows) /
                         static_cast<double>(std::max<std::uint64_t>(
                             surrogate.passes, 1));
  layers.combined_row_ratio =
      static_cast<double>(surrogate.combined_rows) /
      static_cast<double>(std::max<std::uint64_t>(surrogate.rows, 1));
  // From outside, a trial splits into probe queue wait and kernel time; the
  // surrogate, strategy and status-frame legs are what remains, so for this
  // workload the non-kernel time IS the unaccounted remainder.
  layers.non_kernel_ms = qross::mean(traced_latency) - qross::mean(run_ms) -
                         qross::mean(queue_ms);
  layers.unaccounted_ms = layers.non_kernel_ms;
  layers.accounted_latency_ms = qross::mean(traced_latency);
  layers.accounted_ops = traced_latency.size();
  layers.fit = fit;
  layers.overhead_pct = overhead.pct;
  layers.overhead_iqr_pct = overhead.iqr_pct;
  layers.lag_ms_tail = distribution(lag_ms).tail;
  layers.ops_measured = ok_ops;
  layers.tail_percentile = tail_percentile_for(e2e.ok_latency_ms.size());
  add_per_layer(report, layers);
  return report;
}

}  // namespace perfbench
