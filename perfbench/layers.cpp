// The traced attribution pass: every point of a job list driven through the
// library's public layer calls in the order core::WaveRunner makes them,
// with one span per call, recorded from this file (the library itself is
// not instrumented). The records it produces must equal the untraced
// WaveRunner records byte for byte, so the attribution measures the same
// work the end-to-end run does.
#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "core/fast_forward.hpp"
#include "core/idle_wave.hpp"
#include "core/speed_model.hpp"
#include "workload/grid2d.hpp"
#include "workload/ring.hpp"

namespace pb {
namespace {

namespace core = iw::core;
namespace sweep = iw::sweep;
namespace workload = iw::workload;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Recorder {
 public:
  explicit Recorder(std::vector<Span>& spans) : spans_(spans) {}

  int open(const char* name, int parent) {
    spans_.push_back(Span{name, now_ns(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `i` and returns its duration in seconds.
  double close(int i) {
    Span& s = spans_[static_cast<std::size_t>(i)];
    s.end_ns = now_ns();
    return static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
  }
  template <class Fn>
  double timed(const char* name, int parent, Fn&& fn) {
    const int i = open(name, parent);
    fn();
    return close(i);
  }

 private:
  std::vector<Span>& spans_;
};

void copy_transport_stats(core::WaveResult& r, const core::Cluster& c) {
  const auto& s = c.transport_stats();
  r.eager_demotions = s.eager_fallbacks + s.credit_stalls;
  r.nic_backlogged = s.nic_backlogged;
  r.deferred_pushes = s.deferred_pushes;
  r.unexpected_eager = s.unexpected_eager;
  r.unexpected_rts = s.unexpected_rts;
}

// Wave analysis of a ring run — the observables core::run_wave_experiment
// derives, through the public analysis calls.
void analyze_ring(core::WaveResult& r, const core::WaveExperiment& exp) {
  r.protocol = exp.cluster.transport.protocol_by_size(
      exp.ring.msg_bytes, exp.cluster.fabric.eager_limit_bytes);
  if (exp.delays.empty()) return;
  const int inj = exp.delays.front().rank;
  r.injection_time = core::injection_begin(r.trace, inj);
  core::WaveProbe probe;
  probe.injection_rank = inj;
  probe.injection_time = r.injection_time;
  probe.min_idle = exp.min_idle;
  probe.boundary = exp.ring.boundary;
  const bool both_ways =
      exp.ring.direction == workload::Direction::bidirectional ||
      r.protocol == iw::mpi::WireProtocol::rendezvous;
  const int n = exp.ring.ranks;
  if (exp.ring.boundary == workload::Boundary::periodic)
    probe.max_hops = both_ways ? std::max(1, n / 2 - 1) : n - 1;
  probe.direction = +1;
  r.up = core::analyze_wave(r.trace, probe);
  if (both_ways || exp.ring.boundary == workload::Boundary::open) {
    probe.direction = -1;
    r.down = core::analyze_wave(r.trace, probe);
  }
  const int far_rank = (inj + n / 2) % n;
  if (exp.ring.steps >= 4)
    r.measured_cycle =
        core::measured_cycle(r.trace, far_rank, 1, exp.ring.steps - 1);
  if (r.measured_cycle.ns() > 0)
    r.predicted_speed =
        static_cast<double>(core::sigma_factor(exp.ring.direction, r.protocol,
                                               exp.cluster.transport)) *
        static_cast<double>(exp.ring.distance) / r.measured_cycle.sec();
}

void analyze_grid(core::WaveResult& r, const core::WaveExperiment& exp) {
  const workload::Grid2DSpec& g = *exp.grid;
  r.protocol = exp.cluster.transport.protocol_by_size(
      g.msg_bytes, exp.cluster.fabric.eager_limit_bytes);
  if (exp.delays.empty()) return;
  const int inj = exp.delays.front().rank;
  r.injection_time = core::injection_begin(r.trace, inj);
  const auto [x0, y0] = workload::grid_coords(g, inj);
  core::WaveProbe probe;
  probe.injection_rank = inj;
  probe.injection_time = r.injection_time;
  probe.min_idle = exp.min_idle;
  probe.boundary = workload::Boundary::open;
  const int wrap_limit = g.boundary == workload::Boundary::periodic
                             ? std::max(1, g.px / 2 - 1)
                             : g.px;
  probe.direction = +1;
  probe.max_hops = std::min(wrap_limit, g.px - 1 - x0);
  if (probe.max_hops > 0) r.up = core::analyze_wave(r.trace, probe);
  probe.direction = -1;
  probe.max_hops = std::min(wrap_limit, x0);
  if (probe.max_hops > 0) r.down = core::analyze_wave(r.trace, probe);
  const int corners[] = {0, g.ranks() - 1, workload::grid_rank(g, g.px - 1, 0),
                         workload::grid_rank(g, 0, g.py - 1)};
  int far_rank = 0, far_dist = -1;
  for (const int c : corners) {
    const int dist = workload::grid_distance(g, inj, c);
    if (dist > far_dist) {
      far_dist = dist;
      far_rank = c;
    }
  }
  if (g.steps >= 4)
    r.measured_cycle = core::measured_cycle(r.trace, far_rank, 1, g.steps - 1);
  if (r.measured_cycle.ns() > 0)
    r.predicted_speed =
        static_cast<double>(core::sigma_factor(
            workload::Direction::bidirectional, r.protocol,
            exp.cluster.transport)) /
        r.measured_cycle.sec();
}

}  // namespace

LayerTotals run_attributed(const std::vector<Job>& jobs,
                           std::vector<Span>& spans,
                           std::vector<std::string>& lines) {
  LayerTotals t;
  Recorder rec(spans);
  std::unique_ptr<core::Cluster> cluster;
  alloc_count_begin();
  for (const Job& job : jobs) {
    const int job_span = rec.open("job", -1);
    std::vector<sweep::SweepPoint> points;
    t.expand_s += rec.timed("sweep.expand", job_span,
                            [&] { points = sweep::expand(job.spec); });
    for (const sweep::SweepPoint& pt : points) {
      const core::WaveExperiment& exp = pt.exp;
      const int p = rec.open("point", job_span);
      double children = rec.timed("core.cluster_reset", p, [&] {
        if (cluster == nullptr)
          cluster = std::make_unique<core::Cluster>(exp.cluster);
        else
          cluster->reset(exp.cluster);
      });
      t.reset_s += children;

      std::vector<iw::mpi::Program> programs;
      std::optional<iw::mpi::Trace> trace;
      std::uint64_t skips = 0;
      iw::Duration skipped = iw::Duration::zero();
      bool ffwd = false;
      core::FastForwardPlan plan;
      if (!exp.grid && exp.ffwd != core::FfwdMode::off) {
        // The fast-forward planner decides per point; its cost is engine
        // time (it builds the active ranks' programs itself).
        const double s = rec.timed("core.engine", p, [&] {
          plan = core::plan_fast_forward(exp);
          if (exp.ffwd == core::FfwdMode::force && !plan.eligible)
            throw std::invalid_argument("ffwd=force on an ineligible point: " +
                                        plan.reason);
          ffwd = plan.eligible &&
                 (exp.ffwd == core::FfwdMode::force ||
                  plan.active_count < static_cast<std::size_t>(exp.ring.ranks));
          if (!ffwd) return;
          core::FastForwardResult ff =
              core::run_ring_fast_forward(*cluster, exp, plan);
          skips = ff.skips;
          skipped = ff.time_skipped;
          trace.emplace(std::move(ff.trace));
        });
        t.engine_s += s;
        children += s;
      }
      if (!ffwd) {
        double s = rec.timed("workload.build", p, [&] {
          programs = exp.grid ? workload::build_grid2d(*exp.grid, exp.delays)
                              : workload::build_ring(exp.ring, exp.delays);
        });
        t.build_s += s;
        children += s;
        s = rec.timed("core.engine", p, [&] {
          trace.emplace(cluster->run(programs, exp.injected_noise));
        });
        t.engine_s += s;
        children += s;
      }

      core::WaveResult result{std::move(*trace),
                              {},
                              {},
                              iw::mpi::WireProtocol::eager,
                              iw::Duration::zero(),
                              0.0,
                              iw::SimTime::zero(),
                              0,
                              0};
      double s = rec.timed("core.analyze", p, [&] {
        result.events_processed = cluster->events_processed();
        result.peak_events_pending = cluster->peak_events_pending();
        result.ffwd_skips = skips;
        result.ffwd_time_skipped = skipped;
        copy_transport_stats(result, *cluster);
        if (exp.grid)
          analyze_grid(result, exp);
        else
          analyze_ring(result, exp);
      });
      t.analyze_s += s;
      children += s;

      sweep::SweepRecord record;
      s = rec.timed("sweep.reduce", p,
                    [&] { record = sweep::reduce(pt, result); });
      t.reduce_s += s;
      children += s;
      std::string line;
      s = rec.timed("sweep.serialize", p,
                    [&] { line = sweep::record_json_line(record); });
      t.serialize_s += s;
      children += s;

      const double whole = rec.close(p);
      t.point_s += whole;
      t.remainder_s += std::max(0.0, whole - children);
      t.points += 1;
      t.events += result.events_processed;
      t.peak_pending = std::max<std::uint64_t>(t.peak_pending,
                                               result.peak_events_pending);
      t.ffwd_skips += result.ffwd_skips;
      t.trace_bytes += result.trace.bytes_used();
      const int ranks = exp.grid ? exp.grid->ranks() : exp.ring.ranks;
      const int steps = exp.grid ? exp.grid->steps : exp.ring.steps;
      t.ranks += static_cast<std::uint64_t>(ranks);
      t.rank_steps += static_cast<std::uint64_t>(ranks) *
                      static_cast<std::uint64_t>(steps);
      t.record_bytes += line.size();
      lines.push_back(std::move(line));
    }
    rec.close(job_span);
    t.jobs += 1;
  }
  t.alloc = alloc_count_end();
  return t;
}

double run_reference(const std::vector<Job>& jobs,
                     std::vector<std::string>& lines) {
  const auto start = Clock::now();
  core::WaveRunner lab;
  for (const Job& job : jobs)
    for (const sweep::SweepPoint& pt : sweep::expand(job.spec))
      lines.push_back(
          sweep::record_json_line(sweep::reduce(pt, lab.run(pt.exp))));
  return seconds_between(start, Clock::now());
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().begin_ns;
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"begin_ns\":" << s.begin_ns - t0
        << ",\"end_ns\":" << s.end_ns - t0 << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace pb
