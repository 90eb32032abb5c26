// An in-process idlewaved (service::Server on an AF_UNIX socket) and the
// closed-loop clients that drive it through the line protocol.
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <exception>
#include <latch>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/framing.hpp"
#include "support/json.hpp"

namespace pb {
namespace {

/// The in-process daemon's scheduler threads (ServiceOptions.threads).
constexpr int kServiceThreads = 2;
/// A job with no terminal line this long after its submit counts as failed.
constexpr double kJobDeadlineS = 60.0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

/// One client connection with a line reader that honours a deadline.
class Connection {
 public:
  explicit Connection(const std::string& path) : fd_(iw::unix_connect(path)) {}

  [[nodiscard]] bool send(const std::string& line) {
    return iw::send_line(fd_.get(), line);
  }

  /// Next complete line; false on disconnect or when `deadline` passes.
  bool next_line(std::string& line, Clock::time_point deadline) {
    char buf[64 * 1024];
    while (!in_.next_line(line)) {
      const double left_ms = ms_between(Clock::now(), deadline);
      if (left_ms <= 0.0) return false;
      pollfd p{fd_.get(), POLLIN, 0};
      const int r = ::poll(&p, 1, static_cast<int>(left_ms) + 1);
      if (r < 0) return false;
      if (r == 0) continue;
      const ssize_t n = ::read(fd_.get(), buf, sizeof buf);
      if (n <= 0) return false;
      in_.feed(buf, static_cast<std::size_t>(n));
    }
    return true;
  }

 private:
  iw::ScopedFd fd_;
  iw::LineBuffer in_;
};

std::size_t field(const iw::json::Value& doc, const char* key) {
  const iw::json::Value* f = doc.find(key);
  return f != nullptr && f->is(iw::json::Value::Kind::number)
             ? static_cast<std::size_t>(f->number)
             : 0;
}

/// Submits one job and reads its stream up to the terminal line.
JobOutcome run_job(Connection& conn, const std::string& client,
                   const Job& job, double deadline_s) {
  JobOutcome out;
  const std::string submit = iw::service::submit_line(client, 0, job.spec);
  const auto sent = Clock::now();
  if (!conn.send(submit)) {
    out.error = "submit send failed";
    return out;
  }
  const auto deadline =
      sent + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(deadline_s));
  std::string line;
  while (conn.next_line(line, deadline)) {
    const auto now = Clock::now();
    if (iw::service::is_record_line(line)) {
      if (!out.has_record) out.first_record_ms = ms_between(sent, now);
      out.has_record = true;
      out.lines.push_back(std::move(line));
      continue;
    }
    iw::json::Value doc;
    try {
      doc = iw::json::parse(line, "control line");
    } catch (const std::exception& e) {
      out.error = e.what();
      return out;
    }
    const iw::json::Value* type = doc.find("type");
    const std::string t = type != nullptr ? type->text : "";
    if (t == "accepted") {
      out.accept_ms = ms_between(sent, now);
      out.cached_at_submit = field(doc, "cached");
      continue;
    }
    out.latency_ms = ms_between(sent, now);
    if (t == "done") {
      out.records = field(doc, "records");
      out.cache_hits = field(doc, "cache_hits");
      out.computed = field(doc, "computed");
      out.ok = true;
    } else {
      out.error = "terminal line: " + line;
    }
    return out;
  }
  out.error = "no terminal line within the deadline";
  return out;
}

}  // namespace

EpochResult run_service_epoch(const std::vector<Job>& jobs,
                              const EpochOptions& options) {
  EpochResult result;
  result.outcomes.resize(jobs.size());

  iw::service::ServerOptions server_options;
  server_options.socket_path = options.socket_path;
  server_options.service.threads = kServiceThreads;
  iw::service::Server server(server_options);
  server.start();

  std::atomic<std::size_t> next{0};
  std::atomic<bool> clients_done{false};
  std::latch connected(options.clients + (options.traced ? 1 : 0));
  std::latch go(1);
  std::mutex mu;  // guards the traced parse/cache-key totals
  std::exception_ptr error;

  const auto fail = [&](bool counted) {
    if (!counted) connected.count_down();
    std::lock_guard<std::mutex> lock(mu);
    if (!error) error = std::current_exception();
  };

  const auto client = [&](int id) {
    bool counted = false;
    try {
      Connection conn(options.socket_path);
      const std::string name = "client" + std::to_string(id);
      connected.count_down();
      counted = true;
      go.wait();
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= jobs.size()) break;
        const Job& job = jobs[i];
        if (options.traced) {
          // The client's own calls into the protocol and cache layers, on
          // the inputs this job submits (outside the job's latency clock).
          const std::string line = iw::service::submit_line(name, 0, job.spec);
          const auto points = iw::sweep::expand(job.spec);
          const auto t0 = Clock::now();
          const iw::service::Request req = iw::service::parse_request(line);
          const auto t1 = Clock::now();
          std::size_t key_bytes = 0;
          for (const auto& pt : points)
            key_bytes += iw::service::canonical_point_key(req.spec, pt).size();
          const auto t2 = Clock::now();
          std::lock_guard<std::mutex> lock(mu);
          result.parse_s += seconds_between(t0, t1);
          result.parses += 1;
          result.cache_key_s += seconds_between(t1, t2);
          result.cache_keys += key_bytes > 0 ? points.size() : 0;
        }
        result.outcomes[i] = run_job(conn, name, job, kJobDeadlineS);
        if (!result.outcomes[i].ok) conn = Connection(options.socket_path);
      }
    } catch (...) {
      fail(counted);
    }
  };

  // Status round trips sent while jobs stream (traced runs only).
  const auto prober = [&] {
    bool counted = false;
    try {
      Connection conn(options.socket_path);
      connected.count_down();
      counted = true;
      go.wait();
      std::string line;
      while (!clients_done.load()) {
        const auto sent = Clock::now();
        if (!conn.send(iw::service::status_line())) break;
        if (!conn.next_line(line, sent + std::chrono::seconds(10))) break;
        result.status_rtt_ms.push_back(ms_between(sent, Clock::now()));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    } catch (...) {
      fail(counted);
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < options.clients; ++c) threads.emplace_back(client, c);
  std::thread probe_thread;
  if (options.traced) probe_thread = std::thread(prober);
  connected.wait();
  const auto start = Clock::now();
  go.count_down();
  for (std::thread& t : threads) t.join();
  result.wall_s = seconds_between(start, Clock::now());
  clients_done.store(true);
  if (probe_thread.joinable()) probe_thread.join();
  result.cache_entries = server.service().cache_size();
  server.stop();
  server.wait();
  if (error) std::rethrow_exception(error);
  return result;
}

}  // namespace pb
