// iw_perfbench: the repository benchmark's binary. One run measures one
// workload (campaign, big_ring or service) for a given number of seconds and
// prints, as its last stdout line, one JSON object with the operations
// attempted and failed, whether every output check held, and the metrics:
// the end-to-end set untraced (--trace 0), the per-layer set traced
// (--trace 1). perfbench/run.py builds this binary and runs it; see
// perfbench/README.md for the workloads, metrics and checks.
//
//   iw_perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                --run-dir=<private dir> [--spans-out=<file>]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "bench_util.hpp"
#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "sweep/runner.hpp"

namespace pb {
namespace {

namespace sweep = iw::sweep;

const Clock::time_point g_process_start = Clock::now();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos)
      throw std::invalid_argument("expected --key=value, got '" + a + "'");
    kv[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  Args args;
  for (const auto& [k, v] : kv) {
    if (k == "workload") args.workload = v;
    else if (k == "seed") args.seed = std::stoull(v);
    else if (k == "seconds") args.seconds = std::stod(v);
    else if (k == "trace") args.trace = v == "1";
    else if (k == "run-dir") args.run_dir = v;
    else if (k == "spans-out") args.spans_out = v;
    else throw std::invalid_argument("unknown flag --" + k);
  }
  if (args.run_dir.empty()) throw std::invalid_argument("--run-dir is required");
  if (args.workload != "campaign" && args.workload != "big_ring" &&
      args.workload != "service")
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  return args;
}

// --- job generation -----------------------------------------------------------

/// Seeded source of rounds. A catalog round is every scenario once under a
/// fresh campaign seed (seeded order), then every (scenario, seed) pair of
/// the round resubmitted once (another seeded order). A ring round is the
/// big ring under a fresh seed, then resubmitted. Jobs of one pair share
/// a pair id, unique within the source.
class JobSource {
 public:
  explicit JobSource(std::uint64_t seed) : rng_(seed) {}

  std::vector<Job> catalog_round() { return catalog_round(rng_.next_u64()); }

  std::vector<Job> catalog_round(std::uint64_t campaign_seed) {
    const auto& catalog = sweep::scenario_catalog();
    const std::size_t base = rounds_++ * catalog.size();
    std::vector<Job> jobs;
    for (const bool resubmit : {false, true})
      for (const std::size_t s : shuffled(catalog.size())) {
        sweep::SweepSpec spec = catalog[s].spec;
        spec.campaign_seed = campaign_seed;
        jobs.push_back(make_job(spec, catalog[s].oracle, resubmit, base + s));
      }
    return jobs;
  }

  std::vector<Job> ring_round() { return ring_round(rng_.next_u64()); }

  static std::vector<Job> ring_round(std::uint64_t campaign_seed) {
    const sweep::SweepSpec spec = big_ring_spec(campaign_seed, "emmy-smt-on");
    return {make_job(spec, scale_bounds(), false, 0),
            make_job(spec, scale_bounds(), true, 0)};
  }

  /// The scale_wave-shaped big ring: np 20480, 20 steps, one 12 ms delay,
  /// 8 KiB eager messages, ppn 2, 8 nodes per switch, fast-forward off.
  static sweep::SweepSpec big_ring_spec(std::uint64_t campaign_seed,
                                        const std::string& noise) {
    sweep::SweepSpec spec = sweep::find_scenario("scale_wave")->spec;
    spec.np = {20480};
    spec.system_noise = noise;
    spec.ffwd = "off";
    spec.campaign_seed = campaign_seed;
    return spec;
  }

  static const sweep::OracleBounds& scale_bounds() {
    return sweep::find_scenario("scale_wave")->oracle;
  }

  std::uint64_t next_seed() { return rng_.next_u64(); }
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.next_u64() % n);
  }

 private:
  std::vector<std::size_t> shuffled(std::size_t n) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[pick(i)]);
    return order;
  }

  iw::Rng rng_;
  std::size_t rounds_ = 0;  ///< numbers the pairs of each round apart
};

// --- shared run state -----------------------------------------------------------

struct RunStats {
  double timed_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t rank_steps = 0;
  /// Throughput of each whole round (service: each daemon lifetime). Every
  /// round has the same job mix, so their median is a throughput that a
  /// burst of interference on the shared machine does not move.
  std::vector<double> points_per_s, rank_steps_per_s;
  std::vector<double> cold_ms, warm_ms, first_ms;
  double setup_s = 0.0;
  // Traced extras.
  double busy_s = 0.0, busy_elapsed_s = 0.0;
  std::vector<double> accept_ms, status_rtt_ms;
  double parse_s = 0.0, cache_key_s = 0.0, replay_ms = 0.0;
  std::size_t parses = 0, cache_keys = 0, replay_records = 0;
  std::uint64_t hits = 0, service_points = 0;
  std::size_t cache_entries = 0;
};

class Output {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::cout << out << std::endl;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Records when the first record reached the sink, then forwards it to the
/// JSONL file sink (the runner calls write() under its collector lock).
class StampedJsonl final : public sweep::RecordSink {
 public:
  explicit StampedJsonl(const std::string& path) : inner_(path) {}
  void write(const sweep::SweepRecord& rec) override {
    if (!stamped_) first_ = Clock::now();
    stamped_ = true;
    inner_.write(rec);
  }
  [[nodiscard]] Clock::time_point first() const { return first_; }

 private:
  sweep::JsonlSink inner_;
  Clock::time_point first_{};
  bool stamped_ = false;
};

struct JobTiming {
  double latency_ms = 0.0;
  double first_ms = 0.0;
};

/// One scenario campaign as sweep_runner makes it: run_campaign over the
/// spec with the records streamed to a JSONL file, closed when the job ends.
JobTiming campaign_job(const Job& job, const std::string& path, int threads,
                       iw::obs::MetricsRegistry* metrics) {
  const auto start = Clock::now();
  auto sink = std::make_unique<StampedJsonl>(path);
  sweep::RunnerOptions options;
  options.threads = threads;
  options.metrics = metrics;
  options.sinks = {sink.get()};
  (void)sweep::run_campaign(job.spec, options);
  const Clock::time_point first = sink->first();
  sink.reset();
  const auto end = Clock::now();
  return {seconds_between(start, end) * 1e3,
          seconds_between(start, first) * 1e3};
}

/// One big-ring job: expansion, one WaveRunner on this thread, the record
/// reduced, serialized and written to a JSONL file.
JobTiming ring_job(const Job& job, const std::string& path,
                   iw::core::WaveRunner& lab) {
  const auto start = Clock::now();
  Clock::time_point first{};
  {
    sweep::JsonlSink sink(path);
    for (const sweep::SweepPoint& pt : sweep::expand(job.spec)) {
      const sweep::SweepRecord rec = sweep::reduce(pt, lab.run(pt.exp));
      if (first == Clock::time_point{}) first = Clock::now();
      sink.write(rec);
    }
  }
  const auto end = Clock::now();
  return {seconds_between(start, end) * 1e3,
          seconds_between(start, first) * 1e3};
}

/// Where a round started: the run's timed wall, records and rank-steps.
struct RoundStart {
  double timed_s;
  std::uint64_t records, rank_steps;
};

RoundStart round_start(const RunStats& stats) {
  return {stats.timed_s, stats.records, stats.rank_steps};
}

/// Closes one round: its records and rank-steps over its timed wall.
void end_round(RunStats& stats, const RoundStart& start) {
  const double wall = stats.timed_s - start.timed_s;
  stats.points_per_s.push_back(
      static_cast<double>(stats.records - start.records) / wall);
  stats.rank_steps_per_s.push_back(
      static_cast<double>(stats.rank_steps - start.rank_steps) / wall);
}

/// Setup: process start -> the first timed operation, the workload's untimed
/// warm-up included. Called once, right before the timed loop.
void end_setup(RunStats& stats) {
  stats.setup_s = seconds_between(g_process_start, Clock::now());
}

// --- campaign ---------------------------------------------------------------------

void run_campaign_workload(const Args& args, JobSource& source,
                           RunStats& stats, Tally& tally) {
  const std::string path = args.run_dir + "/campaign.jsonl";
  JobSource warm_source(args.seed ^ 0x9E3779B97F4A7C15ull);
  const auto warm_jobs = warm_source.catalog_round(warm_source.next_seed());
  for (std::size_t i = 0; i < warm_jobs.size() / 2; ++i)
    (void)campaign_job(warm_jobs[i], path, 2, nullptr);
  end_setup(stats);

  bool self_checked = false;
  while (stats.timed_s < args.seconds) {
    const std::vector<Job> jobs = source.catalog_round();
    const RoundStart start = round_start(stats);
    std::vector<std::vector<std::string>> streams;
    for (const Job& job : jobs) {
      iw::obs::MetricsRegistry registry;
      const JobTiming t =
          campaign_job(job, path, 2, args.trace ? &registry : nullptr);
      stats.timed_s += t.latency_ms * 1e-3;
      streams.push_back(read_lines(path));
      tally.job(true, "");
      tally.points += job.points;
      stats.records += streams.back().size();
      stats.rank_steps += job.rank_steps;
      (job.resubmit ? stats.warm_ms : stats.cold_ms).push_back(t.latency_ms);
      if (!job.resubmit) stats.first_ms.push_back(t.first_ms);
      if (args.trace) {
        stats.busy_s +=
            registry.gauge(iw::obs::MetricId::sweep_worker_busy_seconds);
        stats.busy_elapsed_s +=
            registry.gauge(iw::obs::MetricId::sweep_elapsed_seconds);
      }
    }
    end_round(stats, start);
    const char* pair_check = "resubmitted campaign is byte-identical";
    check_pairs(jobs, streams, tally, pair_check);
    if (!self_checked) self_check(jobs, streams, pair_check, tally);
    self_checked = true;
  }

  // Thread identity, once per run: a 2-worker catalog pass is byte-identical
  // to a 1-worker pass. The self-check flips one byte of the last 2-worker
  // stream and the comparison must see it.
  bool identical = true;
  std::vector<std::string> one, two;
  for (std::size_t i = 0; i < warm_jobs.size() / 2; ++i) {
    (void)campaign_job(warm_jobs[i], path, 1, nullptr);
    one = read_lines(path);
    (void)campaign_job(warm_jobs[i], path, 2, nullptr);
    two = read_lines(path);
    identical = identical && same_bytes(one, two);
  }
  tally.check(identical, "2-worker campaign equals 1-worker campaign");
  tally.check(!same_bytes(one, flip_one_byte(two, two.size() / 2)),
              "self-check: thread identity catches one flipped byte");
}

// --- big_ring ---------------------------------------------------------------------

/// Columns a fast-forwarded run may legitimately report differently: engine
/// cost and fast-forward accounting, and the transport counters of the
/// events it never simulates.
bool ffwd_may_differ(const std::string& column) {
  static const char* const names[] = {
      "events_processed", "peak_events_pending", "ffwd_skips",
      "ffwd_time_skipped_us", "eager_demotions", "nic_backlogged",
      "deferred_pushes", "unexpected_eager", "unexpected_rts"};
  for (const char* n : names)
    if (column == n) return true;
  return false;
}

/// The fast-forwarded run skipped work and agrees with the full simulation
/// on every other column.
bool ffwd_twin_agrees(const sweep::SweepRecord& full,
                      const sweep::SweepRecord& fast) {
  bool agree = fast.ffwd_skips > 0;
  const auto& schema = sweep::record_schema();
  for (std::size_t c = 0; c < schema.size(); ++c)
    if (!ffwd_may_differ(schema[c].name))
      agree = agree &&
              sweep::column_value(full, c) == sweep::column_value(fast, c);
  return agree;
}

void run_ring_workload(const Args& args, JobSource& source, RunStats& stats,
                       Tally& tally) {
  const std::string path = args.run_dir + "/big_ring.jsonl";
  iw::core::WaveRunner lab;
  JobSource warm_source(args.seed ^ 0x9E3779B97F4A7C15ull);
  const auto warm_jobs = JobSource::ring_round(warm_source.next_seed());
  (void)ring_job(warm_jobs[0], path, lab);
  end_setup(stats);

  bool self_checked = false;
  while (stats.timed_s < args.seconds) {
    const std::vector<Job> jobs = source.ring_round();
    const RoundStart start = round_start(stats);
    std::vector<std::vector<std::string>> streams;
    for (const Job& job : jobs) {
      const JobTiming t = ring_job(job, path, lab);
      stats.timed_s += t.latency_ms * 1e-3;
      streams.push_back(read_lines(path));
      tally.job(true, "");
      tally.points += job.points;
      stats.records += streams.back().size();
      stats.rank_steps += job.rank_steps;
      (job.resubmit ? stats.warm_ms : stats.cold_ms).push_back(t.latency_ms);
      if (!job.resubmit) stats.first_ms.push_back(t.first_ms);
    }
    end_round(stats, start);
    const char* pair_check = "repeated ring point is byte-identical";
    check_pairs(jobs, streams, tally, pair_check);
    if (!self_checked) self_check(jobs, streams, pair_check, tally);
    self_checked = true;
  }

  // Noise-free twin: the full simulation and ffwd=force agree on every
  // physics column.
  sweep::SweepSpec twin = JobSource::big_ring_spec(warm_source.next_seed(), "none");
  const sweep::SweepPoint full_pt = sweep::expand(twin).front();
  const sweep::SweepRecord full = sweep::reduce(full_pt, lab.run(full_pt.exp));
  twin.ffwd = "force";
  const sweep::SweepPoint fast_pt = sweep::expand(twin).front();
  const sweep::SweepRecord fast = sweep::reduce(fast_pt, lab.run(fast_pt.exp));
  tally.check(ffwd_twin_agrees(full, fast),
              "noise-free big ring equals its ffwd=force run");
  sweep::SweepRecord off = fast;
  off.cycle_us *= 1.0 + 1e-6;
  tally.check(!ffwd_twin_agrees(full, off),
              "self-check: ffwd twin check catches a cycle off by 1e-6");
}

// --- service ----------------------------------------------------------------------

/// Rounds per daemon lifetime. The cache and the finished-job table only
/// grow, so the daemon is restarted every few rounds: peak memory then
/// depends on the job mix, not on how many rounds fit into the run.
constexpr int kRoundsPerEpoch = 4;

constexpr const char* kReplayCheck = "cached replay is byte-identical";

/// The self-checks of the service's own checks, on one daemon lifetime:
/// the round checks (check_pairs on the streams as received), the done-line
/// counts with one count off, and the recompute comparison with one byte of
/// the served stream flipped.
void service_self_check(const std::vector<Job>& jobs, const EpochResult& epoch,
                        std::size_t recomputed_job,
                        const std::vector<std::string>& recomputed,
                        Tally& tally) {
  std::vector<std::vector<std::string>> streams;
  for (const JobOutcome& o : epoch.outcomes) streams.push_back(o.lines);
  self_check(jobs, streams, kReplayCheck, tally);
  JobOutcome off = epoch.outcomes.front();
  off.computed += 1;
  tally.check(!done_line_holds(jobs.front(), off),
              "self-check: done-line check catches a count off by one");
  const auto& served = epoch.outcomes[recomputed_job].lines;
  tally.check(!same_bytes(recomputed, flip_one_byte(served, served.size() / 2)),
              "self-check: recompute comparison catches one flipped byte");
}

void account_service(const std::vector<Job>& jobs, const EpochResult& epoch,
                     RunStats& stats, Tally& tally, bool timed) {
  std::vector<std::vector<std::string>> streams;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobOutcome& o = epoch.outcomes[i];
    tally.job(o.ok, o.error);
    tally.points += jobs[i].points;
    streams.push_back(o.lines);
    tally.check(done_line_holds(jobs[i], o),
                "done line: cache_hits + computed = records = points");
    if (!o.ok) continue;
    stats.service_points += o.records;
    stats.hits += o.cache_hits;
    stats.accept_ms.push_back(o.accept_ms);
    if (o.cached_at_submit == o.records && o.records > 0) {
      stats.replay_ms += o.latency_ms;
      stats.replay_records += o.records;
    }
    if (!timed) continue;
    stats.records += o.records;
    stats.rank_steps += jobs[i].rank_steps;
    if (o.cache_hits == 0) {
      stats.cold_ms.push_back(o.latency_ms);
      stats.first_ms.push_back(o.first_record_ms);
    } else if (o.computed == 0) {
      stats.warm_ms.push_back(o.latency_ms);
    }
  }
  // Cache transparency: the two jobs of a pair stream the same bytes,
  // whichever of them computed and whichever replayed.
  check_pairs(jobs, streams, tally, kReplayCheck);
  stats.cache_entries = std::max(stats.cache_entries, epoch.cache_entries);
  stats.status_rtt_ms.insert(stats.status_rtt_ms.end(),
                             epoch.status_rtt_ms.begin(),
                             epoch.status_rtt_ms.end());
  stats.parse_s += epoch.parse_s;
  stats.parses += epoch.parses;
  stats.cache_key_s += epoch.cache_key_s;
  stats.cache_keys += epoch.cache_keys;
}

void run_service_workload(const Args& args, JobSource& source, RunStats& stats,
                          Tally& tally) {
  EpochOptions options;
  options.socket_path = args.run_dir + "/idlewaved.sock";
  options.traced = args.trace;
  JobSource warm_source(args.seed ^ 0x9E3779B97F4A7C15ull);
  auto warm_jobs = warm_source.catalog_round(warm_source.next_seed());
  warm_jobs.resize(warm_jobs.size() / 2);
  EpochOptions warm_options = options;
  warm_options.clients = 1;
  warm_options.traced = false;
  (void)run_service_epoch(warm_jobs, warm_options);
  end_setup(stats);

  const std::string path = args.run_dir + "/recompute.jsonl";
  bool self_checked = false;
  while (stats.timed_s < args.seconds) {
    std::vector<Job> jobs;
    for (int r = 0; r < kRoundsPerEpoch; ++r) {
      const auto round = source.catalog_round();
      jobs.insert(jobs.end(), round.begin(), round.end());
    }
    const EpochResult epoch = run_service_epoch(jobs, options);
    const RoundStart start = round_start(stats);
    stats.timed_s += epoch.wall_s;
    account_service(jobs, epoch, stats, tally, true);
    end_round(stats, start);

    // Recompute apart: one seeded cold stream per epoch, recomputed through
    // run_campaign and a JSONL sink, must match byte for byte.
    std::vector<std::size_t> cold;
    for (std::size_t i = 0; i < jobs.size(); ++i)
      if (epoch.outcomes[i].ok && epoch.outcomes[i].cache_hits == 0)
        cold.push_back(i);
    if (cold.empty()) {
      tally.check(false, "a daemon lifetime has a cold job to recompute");
      continue;
    }
    const std::size_t i = cold[source.pick(cold.size())];
    (void)campaign_job(jobs[i], path, 2, nullptr);
    const std::vector<std::string> recomputed = read_lines(path);
    tally.check(same_bytes(recomputed, epoch.outcomes[i].lines),
                "service stream equals a run_campaign recompute");
    if (!self_checked)
      service_self_check(jobs, epoch, i, recomputed, tally);
    self_checked = true;
  }
}

// --- traced extras ------------------------------------------------------------------

/// Per-layer attribution over `jobs`: the untraced WaveRunner reference and
/// the span-instrumented pass, whose records must be equal. The two passes
/// alternate three times; the overhead ratio is the median of the pairs'
/// ratios and the layer figures come from the last traced pass.
void attribute(const Args& args, const std::vector<Job>& jobs,
               Output& out, Tally& tally) {
  std::vector<Span> spans;
  spans.reserve(16 * 1024);
  LayerTotals t;
  std::vector<double> reference_s, ratios;
  bool equal = true;
  for (int pair = 0; pair < 3; ++pair) {
    std::vector<std::string> reference, traced;
    reference_s.push_back(run_reference(jobs, reference));
    spans.clear();
    t = run_attributed(jobs, spans, traced);
    equal = equal && reference == traced && !traced.empty();
    ratios.push_back((t.expand_s + t.point_s) / reference_s.back());
  }
  tally.check(equal, "attributed records equal the WaveRunner records");
  if (!args.spans_out.empty()) write_spans(args.spans_out, spans);

  const double n = static_cast<double>(std::max<std::size_t>(t.points, 1));
  const double single_s = median(reference_s);
  std::cout << "# attribution over " << t.points << " points: untraced "
            << "single-thread WaveRunner pass " << single_s << " s ("
            << n / single_s << " points/s), traced pass "
            << t.expand_s + t.point_s << " s\n";
  out.add("sweep.expand_us_per_point", t.expand_s * 1e6 / n, "us");
  out.add("sweep.reduce_us_per_point", t.reduce_s * 1e6 / n, "us");
  out.add("sweep.serialize_us_per_record", t.serialize_s * 1e6 / n, "us");
  out.add("sweep.record_bytes", static_cast<double>(t.record_bytes) / n,
          "bytes");
  out.add("core.cluster_reset_us_per_point", t.reset_s * 1e6 / n, "us");
  out.add("workload.build_us_per_point", t.build_s * 1e6 / n, "us");
  out.add("core.engine_ms_per_point", t.engine_s * 1e3 / n, "ms");
  out.add("core.analyze_us_per_point", t.analyze_s * 1e6 / n, "us");
  out.add("core.point_remainder_us_per_point", t.remainder_s * 1e6 / n, "us");
  out.add("core.ffwd_skips_per_point", static_cast<double>(t.ffwd_skips) / n,
          "count");
  out.add("sim.ns_per_event",
          t.engine_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(t.events, 1)),
          "ns");
  out.add("sim.events_per_rank_step",
          static_cast<double>(t.events) /
              static_cast<double>(std::max<std::uint64_t>(t.rank_steps, 1)),
          "count");
  out.add("sim.peak_pending", static_cast<double>(t.peak_pending), "count");
  out.add("mpi.trace_bytes_per_rank",
          static_cast<double>(t.trace_bytes) /
              static_cast<double>(std::max<std::uint64_t>(t.ranks, 1)),
          "bytes");
  out.add("alloc.per_point", static_cast<double>(t.alloc.calls) / n, "count");
  out.add("alloc.bytes_per_point", static_cast<double>(t.alloc.bytes) / n,
          "bytes");
  out.add("trace.overhead_ratio", median(ratios), "ratio");
  out.add("trace.remainder_ratio", t.remainder_s / t.point_s, "ratio");
}

void service_layer_metrics(const RunStats& stats, Output& out) {
  std::vector<double> accept = stats.accept_ms, rtt = stats.status_rtt_ms;
  out.add("protocol.parse_us_per_submit",
          stats.parse_s * 1e6 / static_cast<double>(std::max<std::size_t>(stats.parses, 1)),
          "us");
  out.add("service.cache_key_us_per_point",
          stats.cache_key_s * 1e6 /
              static_cast<double>(std::max<std::size_t>(stats.cache_keys, 1)),
          "us");
  out.add("service.accept_ms_p50", median(accept), "ms");
  out.add("service.replay_us_per_record",
          stats.replay_ms * 1e3 /
              static_cast<double>(std::max<std::size_t>(stats.replay_records, 1)),
          "us");
  out.add("service.status_rtt_ms_p50", median(rtt), "ms");
  out.add("service.cache_hit_ratio",
          static_cast<double>(stats.hits) /
              static_cast<double>(std::max<std::uint64_t>(stats.service_points, 1)),
          "ratio");
  out.add("service.cache_entries", static_cast<double>(stats.cache_entries),
          "count");
}

/// Pins this process, and so every thread it starts later, to the `n`
/// highest CPUs it may run on. On a shared host, how many cores the other
/// tenants leave free changes from minute to minute: unpinned multi-threaded
/// runs moved by 1.2-2x, runs on 2 pinned CPUs still spread by up to 28%
/// between seeds, and runs on one CPU held within 8%. So timed runs use one
/// CPU, where the workers, daemon threads and clients are time-sliced, and
/// traced runs use one CPU per worker, so that the layer metrics
/// (sweep.worker_busy_ratio, the service round trips) see the workers run in
/// parallel.
void pin_cpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu)
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      --n;
    }
  if (sched_setaffinity(0, sizeof chosen, &chosen) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

int run(int argc, char** argv) {
  if (const int rc = iw::bench::refuse_if_instrumented("iw_perfbench"))
    return rc;
  const Args args = parse_args(argc, argv);
  pin_cpus(args.trace && args.workload != "big_ring" ? 2 : 1);
  JobSource source(args.seed);
  RunStats stats;
  Tally tally;

  if (args.workload == "campaign")
    run_campaign_workload(args, source, stats, tally);
  else if (args.workload == "big_ring")
    run_ring_workload(args, source, stats, tally);
  else
    run_service_workload(args, source, stats, tally);

  Output out;
  if (!args.trace) {
    out.add("points_per_s", median(stats.points_per_s), "1/s");
    out.add("rank_steps_per_s", median(stats.rank_steps_per_s), "1/s");
    out.add("cold_job_ms_p50", median(stats.cold_ms), "ms");
    out.add("warm_job_ms_p50", median(stats.warm_ms), "ms");
    out.add("first_record_ms_p50", median(stats.first_ms), "ms");
    out.add("setup_s", stats.setup_s, "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Attribution over one fresh round's computing jobs; the layers the
    // workload's own path does not cross are driven with the same jobs.
    std::vector<Job> round = args.workload == "big_ring" ? source.ring_round()
                                                         : source.catalog_round();
    std::vector<Job> fresh;
    for (const Job& j : round)
      if (!j.resubmit) fresh.push_back(j);
    attribute(args, fresh, out, tally);

    if (args.workload != "campaign") {
      const int threads = args.workload == "big_ring" ? 1 : 2;
      for (const Job& job : fresh) {
        iw::obs::MetricsRegistry registry;
        (void)campaign_job(job, args.run_dir + "/busy.jsonl", threads,
                           &registry);
        stats.busy_s +=
            registry.gauge(iw::obs::MetricId::sweep_worker_busy_seconds);
        stats.busy_elapsed_s +=
            registry.gauge(iw::obs::MetricId::sweep_elapsed_seconds);
      }
    }
    out.add("sweep.worker_busy_ratio", stats.busy_s / stats.busy_elapsed_s,
            "ratio");

    if (args.workload != "service") {
      EpochOptions options;
      options.socket_path = args.run_dir + "/idlewaved.sock";
      options.clients = 1;
      options.traced = true;
      account_service(round, run_service_epoch(round, options), stats, tally,
                      false);
    }
    service_layer_metrics(stats, out);
  }

  std::cout << "# jobs " << tally.jobs << " (failed " << tally.jobs_failed
            << "), points " << tally.points << ", checks " << tally.checks
            << " (failed " << tally.checks_failed << "), timed "
            << stats.timed_s << " s, noisy front-fit misses (not gated) "
            << tally.fit_misses_noisy << "\n";
  for (const std::string& note : tally.notes) std::cerr << note << "\n";
  out.print(tally.checks_failed == 0, tally.jobs + tally.checks,
            tally.jobs_failed + tally.checks_failed);
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  return iw::bench::guarded_main(pb::run, argc, argv);
}
