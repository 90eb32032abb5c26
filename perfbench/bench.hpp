// Shared pieces of the idlewave benchmark binary: jobs, clocks, tallies,
// output checks, the counting allocator and the span-instrumented point
// pipeline. See perfbench/README.md for what each workload measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sweep/record.hpp"
#include "sweep/scenario.hpp"
#include "sweep/spec.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (0 when empty); `v` is reordered.
[[nodiscard]] double median(std::vector<double>& v);

/// One unit of client work: a whole campaign spec whose records the caller
/// waits for. `resubmit` marks a (spec, seed) pair an earlier job of the
/// same round already sent.
struct Job {
  iw::sweep::SweepSpec spec;
  const iw::sweep::OracleBounds* bounds = nullptr;
  bool resubmit = false;
  std::size_t pair = 0;  ///< the (spec, seed) pair's id
  std::size_t points = 0;
  std::uint64_t rank_steps = 0;  ///< sum of np * steps over the points
};

[[nodiscard]] Job make_job(const iw::sweep::SweepSpec& spec,
                           const iw::sweep::OracleBounds& bounds,
                           bool resubmit, std::size_t pair);

/// Operations attempted and failed, and the reason of the first failures.
struct Tally {
  std::uint64_t jobs = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t checks = 0;
  std::uint64_t checks_failed = 0;
  std::uint64_t points = 0;
  /// Records with injected noise whose qualifying front fit lies farther
  /// off Eq. 2 than the scenario allows. Reported, not a check: it happens
  /// on some seeds only (see checks.cpp, fit_exempt).
  std::uint64_t fit_misses_noisy = 0;
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what);
  void job(bool ok, const std::string& what);
};

// --- output checks (checks.cpp) ---------------------------------------------

/// The record columns the physics checks read, parsed from a record line.
struct RecordView {
  std::uint64_t index = 0;
  std::string workload, direction, protocol, rdv_flavor;
  double delay_ms = 0, noise_E_percent = 0, cycle_us = 0, v_eq2 = 0, v_up = 0,
         front_r2_up = 0;
  int survival_up_hops = 0;
};

/// Parses the columns above from one record line; false on malformed input.
[[nodiscard]] bool parse_record_line(const std::string& line, RecordView& v);

/// Record shape, Eq. 2, fit and Eq. 1 over one job's record lines.
void check_stream(const Job& job, const std::vector<std::string>& lines,
                  Tally& tally);

/// The byte-identity comparison every identity check uses: both streams
/// hold records and are equal line for line, byte for byte.
[[nodiscard]] bool same_bytes(const std::vector<std::string>& a,
                              const std::vector<std::string>& b);

/// Checks a run of jobs that came with a fresh and a resubmitted half:
/// every stream passes check_stream, and the resubmitted stream of a pair
/// is byte-identical to the fresh one (the check is named `what`).
void check_pairs(const std::vector<Job>& jobs,
                 const std::vector<std::vector<std::string>>& streams,
                 Tally& tally, const std::string& what);

/// `lines` with one byte of line `k` flipped: a digit becomes another digit,
/// so the line still parses and only the identity comparisons can see it.
/// An empty stream comes back unchanged.
[[nodiscard]] std::vector<std::string> flip_one_byte(
    std::vector<std::string> lines, std::size_t k);

/// Perturbs one field of one record, drops one record and flips one byte of
/// one resubmitted line, and passes each perturbed round through
/// check_pairs: every check must fail on its own perturbation.
void self_check(const std::vector<Job>& jobs,
                const std::vector<std::vector<std::string>>& streams,
                const std::string& pair_check, Tally& tally);

// --- counting allocator (alloc.cpp) ----------------------------------------

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
/// Starts counting operator new calls (all threads) from zero.
void alloc_count_begin();
/// Stops counting and returns the counts since alloc_count_begin().
AllocCount alloc_count_end();

// --- span-instrumented point pipeline (layers.cpp) ---------------------------

/// One recorded span: a layer call the benchmark made, with its parent.
struct Span {
  const char* name = "";
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the span list, -1 for a root
};

/// Per-layer totals of one attribution pass.
struct LayerTotals {
  std::size_t points = 0;
  std::size_t jobs = 0;
  double expand_s = 0, reset_s = 0, build_s = 0, engine_s = 0, analyze_s = 0,
         reduce_s = 0, serialize_s = 0, point_s = 0, remainder_s = 0;
  std::uint64_t events = 0, rank_steps = 0, peak_pending = 0,
                ffwd_skips = 0, trace_bytes = 0, ranks = 0, record_bytes = 0;
  AllocCount alloc;
};

/// Runs every point of `jobs` through the public layer calls in the order
/// core::WaveRunner makes them (Cluster construct/reset, workload build,
/// Cluster::run or the fast-forward path, wave analysis, sweep::reduce,
/// record serialization), single-threaded, recording one span per call.
/// Appends each record line to `lines`.
LayerTotals run_attributed(const std::vector<Job>& jobs,
                           std::vector<Span>& spans,
                           std::vector<std::string>& lines);

/// The untraced reference: the same points through core::WaveRunner on one
/// thread. Appends each record line to `lines`; returns wall seconds.
double run_reference(const std::vector<Job>& jobs,
                     std::vector<std::string>& lines);

/// Writes spans as a JSON array (one object per span) to `path`.
void write_spans(const std::string& path, const std::vector<Span>& spans);

// --- in-process idlewaved and its clients (service_client.cpp) --------------

/// What one client saw of one job, on the client's clock.
struct JobOutcome {
  bool ok = false;
  std::string error;
  double accept_ms = 0;        ///< submit line sent -> "accepted" line read
  double first_record_ms = 0;  ///< submit line sent -> first record line
  double latency_ms = 0;       ///< submit line sent -> terminal line read
  bool has_record = false;
  std::size_t cached_at_submit = 0;  ///< "accepted" line's cached count
  std::size_t records = 0, cache_hits = 0, computed = 0;  ///< "done" line
  std::vector<std::string> lines;  ///< record lines, as received
};

/// The `done` line's counts: cache_hits + computed = records = points, and
/// the client received that many record lines.
[[nodiscard]] bool done_line_holds(const Job& job, const JobOutcome& outcome);

struct EpochOptions {
  std::string socket_path;
  int clients = 2;
  /// Traced: time the client's own parse_request / cache-key calls for each
  /// submit and run a status prober connection while jobs stream.
  bool traced = false;
};

struct EpochResult {
  double wall_s = 0;  ///< first submit -> last terminal line, all clients
  std::vector<JobOutcome> outcomes;  ///< index-aligned with the jobs
  std::size_t cache_entries = 0;
  std::vector<double> status_rtt_ms;
  double parse_s = 0;
  std::size_t parses = 0;
  double cache_key_s = 0;
  std::size_t cache_keys = 0;
};

/// Starts a service::Server on `socket_path`, lets `clients` closed-loop
/// client threads take the jobs in order (each sends its next submit only
/// after the previous job's terminal line), then stops the server.
EpochResult run_service_epoch(const std::vector<Job>& jobs,
                              const EpochOptions& options);

}  // namespace pb
