// Workloads `solve-open` and `solve-warm`: raw DA solve jobs over TCP.
//
// Every job is one solver call on a TSP QUBO (10–12 cities, 100–144
// variables) at a relaxation parameter drawn by random search, so 20
// consecutive fresh jobs on one instance form a random-search session — the
// paper's Random baseline served through the solve path, scored with the
// same gap_at_3 / gap_at_20 as the tune workload.
//
//   solve-open  open-loop Poisson arrivals from one generator thread on one
//               connection; mostly fresh jobs plus a hot share.  Ops are
//               timed from their due time.
//   solve-warm  closed loop: two connections, each keeping a fixed window of
//               jobs outstanding, every job drawn from a hot set pre-warmed
//               at set-up, so no kernel runs while measuring.

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "harness.hpp"
#include "tuning/random_search.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace net = qross::net;

namespace {

// solve-open: the offered rate, frozen so every commit sees the same load.
// The knee of this stack on a 4-thread machine (2 workers) is near 160/s;
// closer to it the queue amplifies the host's speed noise past the tail's
// bound (README.md).
constexpr double kOpenRatePerSec = 80.0;
constexpr double kOpenHotShare = 0.2;
constexpr std::size_t kOpenHotJobs = 16;
constexpr std::size_t kOpenQualitySessions = 64;
constexpr double kOpenLimitMs = 100.0;
constexpr double kDrainSeconds = 30.0;
constexpr std::size_t kEnergySamples = 64;

// solve-warm: the hot set is the quality sessions' jobs, far below the
// result cache's kCacheEntries.  Connections and window are chosen, not
// copied from a client: `remote batch` pipelines a whole jobs file on one
// connection and then waits, which alternates a send and a receive phase.
// A steady window keeps the load stationary.  On a 4-thread machine, two
// connections with windows of 1, 8 and 32 gave about 3700, 4200 and 4100
// ops/s at p50 0.5, 3.5 and 14 ms: 8 is the smallest window at the
// throughput plateau, and a larger one only adds queueing.  One connection
// with a window of 16 gave 3600 ops/s, so two connections keep the reactor
// on more than one socket; their two load threads and the reactor fit the
// budget, since every job is a hit and the workers idle.
constexpr std::size_t kWarmQualitySessions = 8;
constexpr std::size_t kWarmConnections = 2;
constexpr std::size_t kWarmWindow = 8;
constexpr double kWarmLimitMs = 20.0;

/// One solve job: a call of a random-search session, or a hot repeat.
struct JobSpec {
  const Problem* problem = nullptr;
  double a = 0.0;
  std::uint64_t solve_seed = 0;
  int session = -1;  ///< random-search session, -1 for hot repeats
  int hot = -1;      ///< index into the hot set, -1 for fresh jobs

  net::RemoteJob remote(std::uint64_t trace_id) const {
    net::RemoteJob job;
    job.solver = "da";
    job.model = problem->prepared->problem().to_qubo(a);
    job.num_replicas = kReplicas;
    job.num_sweeps = kSweeps;
    job.seed = solve_seed;
    job.trace_id = trace_id;
    return job;
  }
};

/// The 20 calls of random-search session `session` on `problem`.
void append_session(std::vector<JobSpec>& jobs, const Problem& problem,
                    int session, std::uint64_t session_seed) {
  qross::tuning::RandomSearch search(kAMin, kAMax, session_seed);
  for (std::size_t k = 0; k < kTrials; ++k) {
    JobSpec job;
    job.problem = &problem;
    job.a = search.propose();
    job.solve_seed = qross::derive_seed(session_seed, k);
    job.session = session;
    jobs.push_back(job);
  }
}

/// What happened to one op.  Kept small, and kept in a deque (OpLog) that
/// grows by fixed blocks: solve-warm records over 100k ops in a run, and
/// their records count in rss_peak_mb, which must follow the stack rather
/// than the benchmark's bookkeeping.
struct Op {
  std::uint32_t job = 0;  ///< index into the job list
  Clock::time_point due;
  Clock::time_point submitted;
  Clock::time_point done;
  double submit_call_us = 0.0;
  double lag_ms = 0.0;
  int connection = 0;
  std::uint64_t trace_id = 0;  ///< stamps the daemon's spans of this op
  bool resolved = false;
  // The fields of its ResultFrame that the benchmark reads.
  qross::service::JobStatus status = qross::service::JobStatus::failed;
  bool cache_hit = false;
  double wait_ms = 0.0;
  double run_ms = 0.0;
  std::shared_ptr<const qross::qubo::SolveBatch> batch;

  bool ok() const {
    return resolved && status == qross::service::JobStatus::done;
  }
};

using OpLog = std::deque<Op>;

/// Gaps of random-search sessions [0, sessions): best feasible tour after 3
/// and after 20 calls.  Calls of a session are in job-list order.
std::pair<double, double> session_gaps(const std::vector<JobSpec>& jobs,
                                       const std::vector<const Op*>& by_job,
                                       int sessions, Report& report) {
  std::vector<double> best(static_cast<std::size_t>(sessions),
                           std::numeric_limits<double>::infinity());
  std::vector<std::size_t> calls(static_cast<std::size_t>(sessions), 0);
  std::vector<double> gap3(best.size(), kInfeasibleGap);
  std::vector<double> gap20(best.size(), kInfeasibleGap);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& spec = jobs[j];
    if (spec.session < 0 || spec.session >= sessions) continue;
    const auto s = static_cast<std::size_t>(spec.session);
    const Op* op = by_job[j];
    if (op == nullptr || !op->ok() || op->batch == nullptr) {
      report.fail("quality-set job " + std::to_string(j) + " did not finish");
      continue;
    }
    best[s] = std::min(
        best[s], best_tour_length(*spec.problem, *op->batch, report));
    ++calls[s];
    if (calls[s] == 3) gap3[s] = gap_of(best[s], spec.problem->optimum);
    if (calls[s] == kTrials) gap20[s] = gap_of(best[s], spec.problem->optimum);
  }
  return {qross::mean(gap3), qross::mean(gap20)};
}

/// Checks shared by both workloads: every ok batch has the requested
/// replica count; a seeded sample of energies equals QuboModel::energy.
void check_results(const std::vector<JobSpec>& jobs,
                   const OpLog& ops, std::uint64_t seed,
                   Report& report) {
  for (const auto& op : ops) {
    if (op.ok() && (op.batch == nullptr ||
                    op.batch->size() != kReplicas)) {
      report.fail("an ok result does not carry " + std::to_string(kReplicas) +
                  " replicas");
    }
  }
  if (ops.empty()) return;
  qross::Rng rng(qross::derive_seed(seed, 3));
  for (std::size_t i = 0; i < kEnergySamples; ++i) {
    const auto& op = ops[rng.uniform_int(ops.size())];
    if (!op.ok() || op.batch == nullptr) continue;
    const auto& spec = jobs[op.job];
    check_energies(spec.problem->prepared->problem().to_qubo(spec.a),
                   *op.batch, report);
  }
}

/// Per-op layer split of a solve op (traced blocks only).  The client's
/// clock, the ResultFrame and the daemon's trace share one steady_clock in
/// one process.  The op's latency is split into
///   lag (open loop) | submit call | inbound: call end → admission |
///   queue wait | kernel | reactor busy between completion and flush |
///   result flush | delivery: flush end → client receipt;
/// the time between completion and flush that no reactor span covers
/// (its wake-up, socket reads) is the unaccounted remainder.  `turnaround`
/// is that whole completion → flush interval, busy and unaccounted parts
/// together.
struct Accounting {
  std::vector<double> inbound_ms, turnaround_ms, reactor_ms, flush_us,
      delivery_ms, latency_ms, unaccounted_ms;
};

Accounting account(const OpLog& ops,
                   const std::vector<DaemonSpan>& events, Clock::time_point t0,
                   bool open_loop) {
  std::map<std::uint64_t, Clock::time_point> admitted;
  std::map<std::uint64_t, DaemonSpan> flushes;
  for (const auto& d : events) {
    if (d.instant && d.name == "submit") admitted[d.trace_id] = d.start;
    if (!d.instant && d.name == "result_flush") flushes[d.trace_id] = d;
  }
  const ReactorBusy reactor(events);
  Accounting a;
  for (const auto& op : ops) {
    if (!op.ok()) continue;
    if (block_index(t0, op.submitted) % 2 != 1 ||
        block_index(t0, op.done) != block_index(t0, op.submitted)) {
      continue;  // not wholly inside one traced block
    }
    const auto adm = admitted.find(op.trace_id);
    const auto fl = flushes.find(op.trace_id);
    if (adm == admitted.end() || fl == flushes.end()) continue;
    const auto call_end =
        op.submitted + std::chrono::nanoseconds(
                           static_cast<std::int64_t>(op.submit_call_us * 1e3));
    const double inbound = seconds_between(call_end, adm->second) * 1e3;
    const double delivery = seconds_between(fl->second.end(), op.done) * 1e3;
    const double turnaround =
        seconds_between(adm->second, fl->second.start) * 1e3 -
        op.wait_ms - op.run_ms;
    // The part of completion → flush the reactor spent on other frames.
    const auto completed =
        adm->second + std::chrono::nanoseconds(static_cast<std::int64_t>(
                          (op.wait_ms + op.run_ms) * 1e6));
    const double reactor_ms = reactor.ms(completed, fl->second.start);
    const double latency =
        seconds_between(open_loop ? op.due : op.submitted, op.done) * 1e3;
    const double accounted = op.lag_ms * (open_loop ? 1.0 : 0.0) +
                             op.submit_call_us / 1e3 + inbound +
                             op.wait_ms + op.run_ms +
                             reactor_ms + fl->second.dur_us / 1e3 + delivery;
    a.inbound_ms.push_back(inbound);
    a.turnaround_ms.push_back(turnaround);
    a.reactor_ms.push_back(reactor_ms);
    a.flush_us.push_back(fl->second.dur_us);
    a.delivery_ms.push_back(delivery);
    a.latency_ms.push_back(latency);
    a.unaccounted_ms.push_back(latency - accounted);
  }
  return a;
}

/// Per-layer figures common to both solve workloads.  `kernel_ops` are the
/// ops whose queue wait and kernel time describe the workload's solver
/// layers (the measured ops for solve-open, the pre-warm for solve-warm).
Layers solve_layers(const OpLog& ops,
                    const std::vector<const Op*>& kernel_ops,
                    const std::vector<JobSpec>& jobs,
                    const std::vector<DaemonSpan>& events,
                    const std::vector<DaemonSpan>& journal_events,
                    Clock::time_point t0, bool open_loop) {
  Layers layers;
  std::vector<double> wire, submit_us, lag, non_kernel, latency;
  std::vector<int> block;
  for (const auto& op : ops) {
    submit_us.push_back(op.submit_call_us);
    lag.push_back(op.lag_ms);
    if (!op.ok()) continue;
    const double client_ms = seconds_between(op.submitted, op.done) * 1e3;
    wire.push_back(client_ms - op.wait_ms - op.run_ms);
    latency.push_back(
        seconds_between(open_loop ? op.due : op.submitted, op.done) * 1e3);
    block.push_back(block_index(t0, op.done));
    if (block.back() % 2 == 1) non_kernel.push_back(wire.back());
  }
  std::vector<double> queue, run, flips;
  for (const Op* op : kernel_ops) {
    if (!op->ok()) continue;
    queue.push_back(op->wait_ms);
    if (op->cache_hit || op->run_ms <= 0.0) continue;
    run.push_back(op->run_ms);
    const auto vars = jobs[op->job].problem->instance().num_cities();
    flips.push_back(static_cast<double>(kReplicas * kSweeps * vars * vars) /
                    (op->run_ms / 1e3));
  }
  std::vector<double> journal;
  for (const auto& d : journal_events) {
    if (!d.instant && d.name == "journal_append") journal.push_back(d.dur_us);
  }
  const auto acc = account(ops, events, t0, open_loop);
  const auto overhead = trace_overhead(block, latency);
  layers.wire_ms = distribution(wire);
  layers.submit_call_us_p50 = median(submit_us);
  layers.inbound_ms_p50 = median(acc.inbound_ms);
  layers.turnaround_ms_p50 = median(acc.turnaround_ms);
  layers.reactor_busy_ms_mean = qross::mean(acc.reactor_ms);
  layers.result_flush_us_p50 = median(acc.flush_us);
  layers.delivery_ms_p50 = median(acc.delivery_ms);
  layers.queue_wait_ms = distribution(queue);
  layers.run_ms = distribution(run);
  layers.flips_per_s = median(flips);
  layers.journal_append_us_p50 = median(journal);
  layers.non_kernel_ms = qross::mean(non_kernel);
  layers.unaccounted_ms = qross::mean(acc.unaccounted_ms);
  layers.accounted_latency_ms = qross::mean(acc.latency_ms);
  layers.accounted_ops = acc.latency_ms.size();
  layers.overhead_pct = overhead.pct;
  layers.overhead_iqr_pct = overhead.iqr_pct;
  layers.lag_ms_tail = distribution(lag).tail;
  layers.ops_measured = static_cast<double>(latency.size());
  layers.tail_percentile = tail_percentile_for(latency.size());
  return layers;
}

/// Drains every result that has arrived on `client` and stamps it.
template <typename OnResult>
bool pump(net::Client& client, int timeout_ms, std::string* error,
          OnResult&& on_result) {
  const bool alive = [&] {
    const ScopedBenchSpan span("poll", "net");
    return client.poll(timeout_ms, error);
  }();
  const auto now = Clock::now();
  for (auto& r : client.take_ready_results()) on_result(std::move(r), now);
  return alive;
}

/// Sends one job and stamps the op.
bool submit(net::Client& client, const JobSpec& spec, Op& op,
            std::uint64_t trace_id, std::map<std::uint64_t, Op*>& by_tag,
            std::string* error) {
  const auto job = spec.remote(trace_id);
  op.trace_id = trace_id;
  op.submitted = Clock::now();
  auto tag = [&] {
    const ScopedBenchSpan span("submit_job", "net", trace_id);
    return client.submit_job(job);
  }();
  op.submit_call_us = seconds_between(op.submitted, Clock::now()) * 1e6;
  if (!tag.ok()) {
    *error = "submit_job: " + tag.error().message;
    return false;
  }
  by_tag[tag.value()] = &op;
  return true;
}

void finish(Op& op, net::ResultFrame result, Clock::time_point now) {
  op.done = now;
  op.resolved = true;
  op.status = result.status;
  op.cache_hit = result.cache_hit;
  op.wait_ms = result.wait_ms;
  op.run_ms = result.run_ms;
  op.batch = std::move(result.batch);
}

/// Latencies and completion times of the ok ops.
void add_latencies(EndToEnd& e2e, const OpLog& ops,
                   Clock::time_point t0, bool open_loop) {
  e2e.ok_latency_ms.reserve(ops.size());
  e2e.ok_done_s.reserve(ops.size());
  for (const auto& op : ops) {
    if (!op.ok()) continue;
    e2e.ok_latency_ms.push_back(
        seconds_between(open_loop ? op.due : op.submitted, op.done) * 1e3);
    e2e.ok_done_s.push_back(seconds_between(t0, op.done));
  }
}

/// solve-open: for each random-search session whose kTrials calls all
/// finished ok, the sum of their latencies (due → done) — the time a client
/// calling them one after another would spend.  The calls' spread over the
/// arrival schedule is left out, so the figure is the stack's alone.
std::vector<double> session_latency_sums(const std::vector<JobSpec>& jobs,
                                         const OpLog& ops) {
  std::map<int, std::pair<std::size_t, double>> per_session;
  for (const auto& op : ops) {
    const int session = jobs[op.job].session;
    if (session < 0 || !op.ok()) continue;
    auto& [calls, sum_s] = per_session[session];
    ++calls;
    sum_s += seconds_between(op.due, op.done);
  }
  std::vector<double> out;
  for (const auto& [session, entry] : per_session) {
    if (entry.first == kTrials) out.push_back(entry.second);
  }
  return out;
}

/// solve-warm: wall time of each run of kTrials consecutive ops on one
/// connection, first submit → last completion.
std::vector<double> op_groups(const OpLog& ops) {
  std::map<int, std::vector<const Op*>> per_conn;
  for (const auto& op : ops) per_conn[op.connection].push_back(&op);
  std::vector<double> out;
  for (const auto& [conn, list] : per_conn) {
    for (std::size_t i = 0; i + kTrials <= list.size(); i += kTrials) {
      bool ok = true;
      Clock::time_point last = list[i]->done;
      for (std::size_t k = i; k < i + kTrials; ++k) {
        ok = ok && list[k]->ok();
        last = std::max(last, list[k]->done);
      }
      if (ok) out.push_back(seconds_between(list[i]->submitted, last));
    }
  }
  return out;
}

double frames_between(const net::ServerStats& before,
                      const net::ServerStats& after) {
  return static_cast<double>(after.frames_sent + after.frames_received -
                             before.frames_sent - before.frames_received);
}

std::string work_file(const RunArgs& args, const char* name) {
  return args.work_dir + "/" + name;
}

}  // namespace

// --- solve-open --------------------------------------------------------------

Report run_solve_open(const RunArgs& args, Clock::time_point process_start) {
  Report report;
  set_tracing(args.trace);

  struct World {
    std::vector<Problem> quality, load;
    std::vector<JobSpec> jobs;         // fresh sessions, then the hot set
    std::vector<std::size_t> arrival;  // job index of each arrival
    std::vector<double> due_s;         // arrival offsets
    std::unique_ptr<Stack> stack;
    std::unique_ptr<net::Client> client;
  };
  const auto build = [&] {
    auto w = std::make_unique<World>();
    // The arrival plan first: it fixes how many fresh sessions are needed.
    // Exactly rate * seconds Poisson arrivals, their gaps rescaled to span
    // the window, so every seed offers the same number of jobs.
    qross::Rng rng(qross::derive_seed(args.seed, 2));
    const auto count =
        static_cast<std::size_t>(std::llround(kOpenRatePerSec * args.seconds));
    std::vector<double> gaps(count + 1);
    double total = 0.0;
    for (auto& g : gaps) total += g = rng.exponential(kOpenRatePerSec);
    std::size_t fresh = 0;
    std::vector<int> hot_pick;
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      t += gaps[i] * args.seconds / total;
      w->due_s.push_back(t);
      hot_pick.push_back(rng.bernoulli(kOpenHotShare)
                             ? static_cast<int>(rng.uniform_int(kOpenHotJobs))
                             : -1);
      if (hot_pick.back() < 0) ++fresh;
    }
    const std::size_t sessions = (fresh + kTrials - 1) / kTrials;
    const std::size_t load_sessions =
        sessions > kOpenQualitySessions ? sessions - kOpenQualitySessions : 0;
    w->quality = make_problems(kOpenQualitySessions, kQualitySeed, true);
    w->load = make_problems(std::max<std::size_t>(load_sessions, 1),
                            qross::derive_seed(args.seed, 1), true);
    for (std::size_t s = 0; s < sessions; ++s) {
      const bool quality = s < kOpenQualitySessions;
      append_session(
          w->jobs,
          quality ? w->quality[s] : w->load[s - kOpenQualitySessions],
          static_cast<int>(s),
          quality ? qross::derive_seed(kQualitySeed, s)
                  : qross::derive_seed(args.seed, 1000 + s));
    }
    const std::size_t hot_base = w->jobs.size();
    qross::Rng hot_rng(qross::derive_seed(args.seed, 4));
    for (std::size_t h = 0; h < kOpenHotJobs; ++h) {
      JobSpec job;
      job.problem = &w->load[h % w->load.size()];
      job.a = hot_rng.uniform(kAMin, kAMax);
      job.solve_seed = qross::derive_seed(args.seed, 5000 + h);
      job.hot = static_cast<int>(h);
      w->jobs.push_back(job);
    }
    std::size_t next_fresh = 0;
    for (const int h : hot_pick) {
      w->arrival.push_back(h >= 0 ? hot_base + static_cast<std::size_t>(h)
                                  : next_fresh++);
    }
    w->stack = std::make_unique<Stack>(
        *net::Endpoint::parse("tcp:127.0.0.1:0"),
        work_file(args, "cache.qsnap"), std::nullopt);
    w->client = connect_client(w->stack->endpoint(), "open");
    return w;
  };
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  while (more_setups(setup_s)) {
    world.reset();
    std::filesystem::remove_all(work_file(args, "cache.qsnap"));
    const auto start = setup_s.empty() ? process_start : Clock::now();
    world = build();
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  auto& client = *world->client;
  const auto before = client.fetch_metrics();
  if (!before.ok()) throw std::runtime_error("fetch_metrics failed");
  const auto frames_before = world->stack->server().stats();

  // --- measurement: one generator thread (this one), one connection ---------
  const std::size_t n = world->arrival.size();
  OpLog ops(n);
  std::map<std::uint64_t, Op*> by_tag;
  std::size_t outstanding = 0;
  std::string error;
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  {
    TraceBlocks blocks(args.trace, t0);
    const auto on_result = [&](net::ResultFrame r, Clock::time_point now) {
      const auto it = by_tag.find(r.tag);
      if (it == by_tag.end()) return;
      finish(*it->second, std::move(r), now);
      by_tag.erase(it);
      --outstanding;
    };
    std::size_t next = 0;
    const auto drain_deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(args.seconds + kDrainSeconds));
    while (error.empty()) {
      const auto now = Clock::now();
      int wait_ms = 100;
      if (next < n) {
        Op& op = ops[next];
        op.job = static_cast<std::uint32_t>(world->arrival[next]);
        op.due = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(world->due_s[next]));
        if (now >= op.due) {
          if (!submit(client, world->jobs[op.job], op, next + 1, by_tag,
                      &error)) {
            break;
          }
          op.lag_ms = seconds_between(op.due, op.submitted) * 1e3;
          ++outstanding;
          ++next;
          continue;
        }
        wait_ms = static_cast<int>(seconds_between(now, op.due) * 1e3);
      } else if (outstanding == 0 || now > drain_deadline) {
        break;
      }
      if (!pump(client, std::min(wait_ms, 100), &error, on_result)) break;
    }
  }
  const double cpu_s = cpu_seconds() - cpu0;
  if (!error.empty()) report.fail(error);

  // --- outputs ---------------------------------------------------------------
  std::vector<const Op*> by_job(world->jobs.size(), nullptr);
  std::map<int, const Op*> first_hot;
  Clock::time_point t_end = t0;
  for (const auto& op : ops) {
    if (op.resolved) t_end = std::max(t_end, op.done);
    if (!op.ok()) continue;
    const auto& spec = world->jobs[op.job];
    if (by_job[op.job] == nullptr) by_job[op.job] = &op;
    if (spec.hot >= 0 && op.batch != nullptr) {
      const auto [it, first] = first_hot.emplace(spec.hot, &op);
      if (!first && !same_batch(*it->second->batch, *op.batch)) {
        report.fail("hot job result differs from its first result");
      }
    }
  }
  check_results(world->jobs, ops, args.seed, report);
  const auto [gap3, gap20] = session_gaps(
      world->jobs, by_job, static_cast<int>(kOpenQualitySessions), report);

  EndToEnd e2e;
  e2e.setup_s = setup_s;
  e2e.wall_s = seconds_between(t0, t_end);
  e2e.cpu_s = cpu_s;
  e2e.sent = n;
  e2e.seconds = args.seconds;
  add_latencies(e2e, ops, t0, true);
  e2e.limit_ms = kOpenLimitMs;
  e2e.session_s = session_latency_sums(world->jobs, ops);
  e2e.gap_at_3 = gap3;
  e2e.gap_at_20 = gap20;

  const auto after = client.fetch_metrics();
  if (!after.ok()) throw std::runtime_error("fetch_metrics failed");
  report_environment(report, after.value().service.simd_kernel, 1);
  add_end_to_end(report, e2e, !args.trace);
  if (!args.trace) return report;
  const auto trace = client.fetch_trace();
  if (!trace.ok()) throw std::runtime_error("fetch_trace failed");
  std::vector<const Op*> kernel_ops;
  for (const auto& op : ops) kernel_ops.push_back(&op);
  const auto events = parse_daemon_events(trace.value());
  Layers layers =
      solve_layers(ops, kernel_ops, world->jobs, events, events, t0, true);
  const double ok_ops = static_cast<double>(e2e.ok_latency_ms.size());
  const auto frames_after = world->stack->server().stats();
  layers.frames_per_op =
      frames_between(frames_before, frames_after) / std::max(ok_ops, 1.0);
  add_service_ratios(layers, before.value().service, after.value().service,
                     ok_ops);
  world.reset();
  qross::core::QrossTuner standalone = fit_tuner();  // the fit layers' figures
  (void)standalone;
  layers.fit = fit_split();
  add_per_layer(report, layers);
  return report;
}

// --- solve-warm --------------------------------------------------------------

Report run_solve_warm(const RunArgs& args, Clock::time_point process_start) {
  Report report;
  set_tracing(args.trace);

  struct World {
    std::vector<Problem> quality;
    std::vector<JobSpec> jobs;   // the hot set
    OpLog prewarm;               // first result of every hot job
    std::unique_ptr<Stack> stack;
    std::vector<std::unique_ptr<net::Client>> clients;
  };
  const auto build = [&] {
    auto w = std::make_unique<World>();
    w->quality = make_problems(kWarmQualitySessions, kQualitySeed, true);
    for (std::size_t s = 0; s < kWarmQualitySessions; ++s) {
      append_session(w->jobs, w->quality[s], static_cast<int>(s),
                     qross::derive_seed(kQualitySeed, s));
    }
    w->stack = std::make_unique<Stack>(
        *net::Endpoint::parse("tcp:127.0.0.1:0"),
        work_file(args, "cache.qsnap"), std::nullopt);
    for (std::size_t c = 0; c < kWarmConnections; ++c) {
      w->clients.push_back(connect_client(w->stack->endpoint(),
                                          "warm-" + std::to_string(c)));
    }
    // Pre-warm: every hot job once, a worker's worth of jobs in flight.
    auto& client = *w->clients[0];
    w->prewarm.resize(w->jobs.size());
    std::map<std::uint64_t, Op*> by_tag;
    std::size_t next = 0;
    std::size_t outstanding = 0;
    std::string error;
    while (error.empty() && (next < w->jobs.size() || outstanding > 0)) {
      while (next < w->jobs.size() && outstanding < 2 * kWorkers) {
        w->prewarm[next].job = static_cast<std::uint32_t>(next);
        if (!submit(client, w->jobs[next], w->prewarm[next], next + 1, by_tag,
                    &error)) {
          break;
        }
        ++next;
        ++outstanding;
      }
      pump(client, 100, &error, [&](net::ResultFrame r, Clock::time_point now) {
        const auto it = by_tag.find(r.tag);
        if (it == by_tag.end()) return;
        finish(*it->second, std::move(r), now);
        by_tag.erase(it);
        --outstanding;
      });
    }
    if (!error.empty()) throw std::runtime_error("pre-warm: " + error);
    return w;
  };
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  while (more_setups(setup_s)) {
    world.reset();
    std::filesystem::remove_all(work_file(args, "cache.qsnap"));
    const auto start = setup_s.empty() ? process_start : Clock::now();
    world = build();
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  const auto before = world->clients[0]->fetch_metrics();
  if (!before.ok()) throw std::runtime_error("fetch_metrics failed");
  std::vector<DaemonSpan> setup_events;
  if (args.trace) {
    const auto fetched = world->clients[0]->fetch_trace();
    if (!fetched.ok()) throw std::runtime_error("fetch_trace failed");
    setup_events = parse_daemon_events(fetched.value());
  }
  const auto frames_before = world->stack->server().stats();

  // --- measurement: per connection, a window of kWarmWindow outstanding ------
  // Results are checked as they arrive (cache hit, bit-identical to the
  // pre-warm result, replica count) and their batches dropped, so memory
  // stays flat however many round trips the window completes.
  std::vector<OpLog> per_conn(kWarmConnections);
  std::vector<std::string> errors(kWarmConnections);
  std::vector<std::size_t> mismatches(kWarmConnections, 0);
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  {
    TraceBlocks blocks(args.trace, t0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kWarmConnections; ++c) {
      threads.emplace_back([&, c] {
        auto& client = *world->clients[c];
        auto& ops = per_conn[c];
        qross::Rng pick(qross::derive_seed(args.seed, 10 + c));
        std::map<std::uint64_t, Op*> by_tag;
        Clock::time_point slot_free = t0;
        std::size_t outstanding = 0;
        auto& error = errors[c];
        while (error.empty()) {
          const bool sending = seconds_between(t0, Clock::now()) < args.seconds;
          while (sending && outstanding < kWarmWindow) {
            Op& op = ops.emplace_back();
            op.connection = static_cast<int>(c);
            op.job = static_cast<std::uint32_t>(
                pick.uniform_int(world->jobs.size()));
            const std::uint64_t trace_id =
                (static_cast<std::uint64_t>(c + 1) << 40) + ops.size();
            if (!submit(client, world->jobs[op.job], op, trace_id, by_tag,
                        &error)) {
              break;
            }
            op.lag_ms = seconds_between(slot_free, op.submitted) * 1e3;
            ++outstanding;
          }
          if (!sending && outstanding == 0) break;
          pump(client, 100, &error,
               [&](net::ResultFrame r, Clock::time_point now) {
                 const auto it = by_tag.find(r.tag);
                 if (it == by_tag.end()) return;
                 Op& op = *it->second;
                 finish(op, std::move(r), now);
                 by_tag.erase(it);
                 --outstanding;
                 slot_free = now;
                 if (op.ok()) {
                   const auto& first = world->prewarm[op.job];
                   if (!op.cache_hit || !first.ok() || first.batch == nullptr ||
                       op.batch == nullptr ||
                       !same_batch(*first.batch, *op.batch)) {
                     ++mismatches[c];
                   }
                   op.batch.reset();  // checked; keep the op small
                 }
               });
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double cpu_s = cpu_seconds() - cpu0;
  for (std::size_t c = 0; c < kWarmConnections; ++c) {
    if (!errors[c].empty()) report.fail(errors[c]);
    if (mismatches[c] > 0) {
      report.fail(std::to_string(mismatches[c]) +
                  " results were not cache hits bit-identical to the first "
                  "result of their job");
    }
  }

  // --- outputs ---------------------------------------------------------------
  // Merged block by block: the blocks each pop frees are reused by the
  // merged log, so the records are never held twice.
  OpLog ops;
  for (auto& list : per_conn) {
    while (!list.empty()) {
      ops.push_back(std::move(list.front()));
      list.pop_front();
    }
  }
  Clock::time_point t_end = t0;
  for (const auto& op : ops) {
    if (op.resolved) t_end = std::max(t_end, op.done);
  }
  // Hits are bit-identical to the pre-warm results, so checking the
  // pre-warm batches covers every measured result too.
  check_results(world->jobs, world->prewarm, args.seed, report);
  std::vector<const Op*> by_job;
  for (const auto& op : world->prewarm) by_job.push_back(&op);
  const auto [gap3, gap20] = session_gaps(
      world->jobs, by_job, static_cast<int>(kWarmQualitySessions), report);

  EndToEnd e2e;
  e2e.setup_s = setup_s;
  e2e.wall_s = seconds_between(t0, t_end);
  e2e.cpu_s = cpu_s;
  e2e.sent = ops.size();
  e2e.seconds = args.seconds;
  add_latencies(e2e, ops, t0, false);
  e2e.limit_ms = kWarmLimitMs;
  e2e.session_s = op_groups(ops);
  e2e.gap_at_3 = gap3;
  e2e.gap_at_20 = gap20;

  auto& client = *world->clients[0];
  const auto after = client.fetch_metrics();
  if (!after.ok()) throw std::runtime_error("fetch_metrics failed");
  report_environment(report, after.value().service.simd_kernel,
                     kWarmConnections);
  add_end_to_end(report, e2e, !args.trace);
  if (!args.trace) return report;
  const auto trace = client.fetch_trace();
  if (!trace.ok()) throw std::runtime_error("fetch_trace failed");
  std::vector<const Op*> kernel_ops;
  for (const auto& op : world->prewarm) kernel_ops.push_back(&op);
  // The pre-warm's journal appends were read right after set-up: the trace
  // ring wraps many times over while the hits are measured.
  Layers layers =
      solve_layers(ops, kernel_ops, world->jobs,
                   parse_daemon_events(trace.value()), setup_events, t0, false);
  const double ok_ops = static_cast<double>(e2e.ok_latency_ms.size());
  const auto frames_after = world->stack->server().stats();
  layers.frames_per_op =
      frames_between(frames_before, frames_after) / std::max(ok_ops, 1.0);
  add_service_ratios(layers, before.value().service, after.value().service,
                     ok_ops);
  world.reset();
  qross::core::QrossTuner standalone = fit_tuner();  // the fit layers' figures
  (void)standalone;
  layers.fit = fit_split();
  add_per_layer(report, layers);
  return report;
}

}  // namespace perfbench
