// serve-mixed: the condsched_served daemon as a child process, driven
// from one generator thread over its framed JSON protocol.
//
// Phase 1 is an open loop at a fixed rate well below capacity; latency
// is timed from each request's due time. Phase 2 is a closed loop with
// more connections than daemon workers; it measures capacity. About half
// of all requests re-issue an earlier workload index (exact-hit reads),
// the rest are fresh indices the daemon computes and caches (writes).
// Every request asks for the table CSV, and every response is checked.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cmath>
#include <ctime>
#include <functional>
#include <optional>
#include <thread>
#include <unordered_map>

#include "cpg/canonical.hpp"
#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "io/table_csv.hpp"
#include "openloop.hpp"
#include "pipeline.hpp"
#include "support/error.hpp"
#include "support/frame.hpp"
#include "support/json.hpp"
#include "support/socket.hpp"
#include "support/thread_pool.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Daemon request workers. With its event loop and this generator the
/// workload keeps four runnable threads on a 4-core host.
constexpr std::size_t kDaemonWorkers = 2;
constexpr std::size_t kOpenConnections = 2;
/// More closed-loop connections than workers, so the queue never idles.
constexpr std::size_t kClosedConnections = 3;
/// Open-loop rate: well below the daemon's capacity for this mix on two
/// workers (700-1000/s in the closed loop), so queueing does not magnify
/// host noise.
constexpr double kOpenRate = 200.0;
constexpr double kOpenShare = 0.6;  ///< of --seconds; the rest is closed
constexpr double kRepeatFrac = 0.5;
/// Warm-up indices sit far above the plan's, so warm-up never pre-fills
/// the cache entries the measured phases read.
constexpr std::uint64_t kWarmupFirst = 1000000000;
/// Cold warm-up requests per set-up (about 0.2 s of daemon work).
constexpr std::size_t kWarmupRequests = 128;
constexpr int kSetups = 5;
/// Requests whose generation, canonical key and CSV the traced run
/// times in-process, the layers a daemon request passes through.
constexpr std::size_t kLayerSample = 200;

cps::BatchConfig daemon_workload(std::uint64_t seed) {
  // Mirrors condsched_served's defaults (60 processes, 10 paths, serial
  // merges) with --seed base_seed_of(seed): request index i answers
  // exactly run_batch_item(workload, i).
  cps::BatchConfig c;
  c.base_seed = base_seed_of(seed);
  c.synthesis.merge.execution = cps::MergeExecution::kSerial;
  return c;
}

/// Seeded request plan: fresh indices 0, 1, 2, ... interleaved with
/// repeats of earlier ones, early indices repeated most (zipf-ish).
class RequestPlan {
 public:
  explicit RequestPlan(std::uint64_t seed) : rng_(seed ^ 0x5eedull) {}
  struct Next {
    std::uint64_t index;
    bool repeat;
  };
  Next next() {
    if (fresh_ > 0 && rng_.unit() < kRepeatFrac) {
      const double u = rng_.unit();
      const auto rank = static_cast<std::uint64_t>(
          u * u * static_cast<double>(fresh_));
      return {std::min(rank, fresh_ - 1), true};
    }
    return {fresh_++, false};
  }

 private:
  SplitMix rng_;
  std::uint64_t fresh_ = 0;
};

/// The daemon child process. Stopped (SIGTERM, graceful drain) and
/// reaped on stop() or destruction; killed by the kernel if the benchmark
/// process dies first.
class Daemon {
 public:
  Daemon(const RunOptions& options, const std::string& socket) {
    const std::string log = options.out_dir + "/daemon.log";
    const std::string seed = std::to_string(base_seed_of(options.seed));
    const std::string threads = std::to_string(kDaemonWorkers);
    std::vector<std::string> args = {options.daemon, "--socket", socket,
                                     "--threads", threads, "--seed", seed};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ == 0) {
      // The daemon must not outlive the benchmark, however it ends.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
      execv(argv[0], argv.data());
      _exit(127);
    }
    if (pid_ < 0) throw cps::Error("fork failed");
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }

  /// Wait until the socket accepts connections; false if the daemon
  /// exited or did not come up in time.
  bool wait_ready(const std::string& socket) {
    const auto end = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < end) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      try {
        cps::unix_connect(socket);
        return true;
      } catch (const cps::Error&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return false;
  }

  /// Graceful stop; true when the daemon exited with status 0.
  bool stop() {
    if (pid_ <= 0) return true;
    kill(pid_, SIGTERM);
    int status = 0;
    const auto end = Clock::now() + std::chrono::seconds(10);
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() >= end) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  int pid_ = -1;
};

/// One request and what came back.
struct Record {
  std::uint64_t id = 0;
  std::uint64_t index = 0;
  bool repeat = false;
  int phase = 0;  ///< 0 warm-up, 1 open loop, 2 closed loop
  RequestTimes t;
  bool answered = false;
  std::string status;
  std::uint64_t json = 0;
  std::uint64_t csv = 0;
};

/// Raw text of the object value of top-level member `key` in a compact
/// JSON document, or empty when absent.
std::string raw_object_member(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = doc.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = doc.find('{', at + needle.size());
  if (begin == std::string::npos) return {};
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = begin; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++depth;
    if (c == '}' && --depth == 0) return doc.substr(begin, i - begin + 1);
  }
  return {};
}

/// Single-threaded multiplexing client over several connections. The
/// measured phases poll it without sleeping (pump(0)), so the generator's
/// own wake-up latency is not part of any measured latency; it spins on
/// one of the four cores the workload is sized for.
class Client {
 public:
  Client(const std::string& socket, std::size_t connections, Tracer* tracer,
         Clock::time_point origin)
      : tracer_(tracer), origin_(origin) {
    for (std::size_t i = 0; i < connections; ++i) {
      conns_.push_back(Conn{cps::unix_connect(socket), cps::FrameDecoder()});
    }
  }

  double now_ms() const { return ms_between(origin_, Clock::now()); }
  std::size_t inflight() const { return inflight_.size(); }
  std::size_t connections() const { return conns_.size(); }
  std::vector<Record>& done() { return done_; }

  /// Give up on every request still in flight: they join done()
  /// unanswered.
  void abandon() {
    for (auto& entry : inflight_) {
      done_.push_back(std::move(entry.second.record));
    }
    inflight_.clear();
  }
  bool broken() const { return broken_; }

  void send(std::size_t conn, Record r) {
    const double e0 = now_ms();
    cps::JsonWriter w(0);
    w.begin_object();
    w.field("id", r.id);
    w.field("op", "run");
    w.field("index", r.index);
    w.field("csv", true);
    w.end_object();
    const std::string frame = cps::encode_frame(w.str());
    const double e1 = now_ms();
    if (!cps::write_all(conns_[conn].fd.get(), frame.data(), frame.size())) {
      broken_ = true;
    }
    r.t.sent_ms = now_ms();
    if (r.phase != 1) r.t.due_ms = e0;  // closed loop: timed from send
    Pending p{std::move(r), e0, e1};
    inflight_.emplace(p.record.id, std::move(p));
  }

  /// Read what arrives within `timeout_ms`; completed requests go to
  /// done() and `on_complete(conn)` is called for each.
  void pump(double timeout_ms,
            const std::function<void(std::size_t)>& on_complete) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) fds.push_back({c.fd.get(), POLLIN, 0});
    timespec ts{};
    const double t = std::max(0.0, timeout_ms);
    ts.tv_sec = static_cast<time_t>(t / 1000.0);
    ts.tv_nsec = static_cast<long>(std::fmod(t, 1000.0) * 1e6);
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) return;
    char buf[65536];
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const double r0 = now_ms();
      const ssize_t n = recv(fds[i].fd, buf, sizeof buf, MSG_DONTWAIT);
      const double r1 = now_ms();
      if (n <= 0) {
        if (n == 0 || (errno != EAGAIN && errno != EINTR)) broken_ = true;
        continue;
      }
      if (!conns_[i].decoder.feed(buf, static_cast<std::size_t>(n))) {
        broken_ = true;
        continue;
      }
      while (auto payload = conns_[i].decoder.next()) {
        // Issue the connection's next request before decoding this
        // response, so the client's decode is off the closed loop's
        // critical path.
        if (peek_id(*payload) < kControlIds) on_complete(i);
        complete(*payload, r0, r1);
      }
    }
  }

  /// Daemon counters through the stats op (on connection 0, idle).
  std::optional<cps::JsonValue> stats() {
    const std::uint64_t id = next_control_id_++;
    const std::string frame = cps::encode_frame(
        "{\"id\":" + std::to_string(id) + ",\"op\":\"stats\"}");
    if (!cps::write_all(conns_[0].fd.get(), frame.data(), frame.size())) {
      broken_ = true;
      return std::nullopt;
    }
    control_.reset();
    const auto end = Clock::now() + std::chrono::seconds(10);
    while (!control_ && !broken_ && Clock::now() < end) {
      pump(100.0, [](std::size_t) {});
    }
    return std::move(control_);
  }

 private:
  struct Conn {
    cps::UnixFd fd;
    cps::FrameDecoder decoder;
  };
  struct Pending {
    Record record;
    double encode_start_ms;
    double encode_end_ms;
  };

  /// The response's id from its first member, without a full parse
  /// (responses are compact and start with {"id": N); 0 when absent.
  static std::uint64_t peek_id(const std::string& payload) {
    const std::size_t at = payload.find("\"id\":");
    if (at == std::string::npos || at > 2) return 0;
    return std::strtoull(payload.c_str() + at + 5, nullptr, 10);
  }

  void complete(const std::string& payload, double read0, double read1) {
    const double d0 = now_ms();
    std::optional<cps::JsonValue> doc;
    try {
      doc = cps::JsonValue::parse(payload);
    } catch (const std::exception&) {
      broken_ = true;
      return;
    }
    const cps::JsonValue* id = doc->find("id");
    if (id == nullptr || id->kind() != cps::JsonValue::Kind::kNumber) {
      broken_ = true;
      return;
    }
    const auto key = static_cast<std::uint64_t>(id->as_int());
    if (key >= kControlIds) {
      control_ = std::move(doc);
      return;
    }
    const auto it = inflight_.find(key);
    if (it == inflight_.end()) {
      broken_ = true;
      return;
    }
    Pending p = std::move(it->second);
    inflight_.erase(it);
    Record& r = p.record;
    r.t.recv_ms = read1;
    r.answered = true;
    const auto is_string = [](const cps::JsonValue* v) {
      return v != nullptr && v->kind() == cps::JsonValue::Kind::kString;
    };
    const cps::JsonValue* status = doc->find("status");
    r.status = is_string(status) ? status->as_string() : "?";
    r.json = fnv1a(raw_object_member(payload, "item"));
    const cps::JsonValue* csv = doc->find("table_csv");
    r.csv = is_string(csv) ? fnv1a(csv->as_string()) : 0;
    const double d1 = now_ms();
    if (tracer_ != nullptr) {
      const double start = std::min(r.t.due_ms, p.encode_start_ms);
      const std::int64_t root =
          tracer_->record("request", -1, r.id, start, d1);
      tracer_->record("serve.client.encode", root, r.id, p.encode_start_ms,
                      p.encode_end_ms);
      tracer_->record("serve.client.send", root, r.id, p.encode_end_ms,
                      r.t.sent_ms);
      tracer_->record("serve.client.wait", root, r.id, r.t.sent_ms,
                      std::max(r.t.sent_ms, read0));
      tracer_->record("serve.client.recv", root, r.id,
                      std::max(r.t.sent_ms, read0), read1);
      tracer_->record("support.json.parse", root, r.id, d0, d1);
    }
    done_.push_back(std::move(r));
  }

  static constexpr std::uint64_t kControlIds = std::uint64_t{1} << 52;

  Tracer* tracer_;
  Clock::time_point origin_;
  std::vector<Conn> conns_;
  std::unordered_map<std::uint64_t, Pending> inflight_;
  std::vector<Record> done_;
  std::optional<cps::JsonValue> control_;
  std::uint64_t next_control_id_ = kControlIds;
  bool broken_ = false;
};

/// Wait for every in-flight response (bounded).
void drain(Client& client) {
  const auto end = Clock::now() + std::chrono::seconds(30);
  while (client.inflight() > 0 && !client.broken() && Clock::now() < end) {
    client.pump(50.0, [](std::size_t) {});
  }
}

/// Closed loop over every connection of `client`: each connection keeps
/// one request in flight while `more()` holds.
void closed_loop(Client& client, std::uint64_t* next_id, int phase,
                 const std::function<bool()>& more,
                 const std::function<Record(std::uint64_t)>& make) {
  const auto issue = [&](std::size_t conn) {
    Record r = make((*next_id)++);
    r.phase = phase;
    client.send(conn, std::move(r));
  };
  for (std::size_t c = 0; c < client.connections() && more(); ++c) issue(c);
  while (client.inflight() > 0 && !client.broken()) {
    client.pump(0.0, [&](std::size_t conn) {
      if (more()) issue(conn);
    });
  }
}

std::uint64_t member_u64(const cps::JsonValue& doc, const char* object,
                         const char* key) {
  const cps::JsonValue* o = doc.find(object);
  const cps::JsonValue* v = o != nullptr ? o->find(key) : nullptr;
  return v != nullptr && v->kind() == cps::JsonValue::Kind::kNumber
             ? static_cast<std::uint64_t>(v->as_int())
             : 0;
}

/// Daemon counter deltas of one phase.
struct StatsDelta {
  double exact_hits = 0, exact_misses = 0;
  double prefix_hits = 0, prefix_misses = 0;
  double evictions = 0, shed = 0, expired = 0;
  double peak_queue_depth = 0;

  static StatsDelta between(const cps::JsonValue& a, const cps::JsonValue& b) {
    const auto d = [&](const char* o, const char* k) {
      return static_cast<double>(member_u64(b, o, k) - member_u64(a, o, k));
    };
    StatsDelta s;
    s.exact_hits = d("cache", "hits");
    s.exact_misses = d("cache", "misses");
    s.prefix_hits = d("cache", "prefix_hits");
    s.prefix_misses = d("cache", "prefix_misses");
    s.evictions = d("cache", "evictions");
    s.shed = d("server", "shed_overload");
    s.expired = d("server", "expired_queued");
    // A high-water mark, not a counter: report the level after the phase.
    s.peak_queue_depth =
        static_cast<double>(member_u64(b, "server", "peak_queue_depth"));
    return s;
  }
};

Expected oracle_item(const cps::BatchConfig& workload, std::uint64_t index) {
  std::string csv;
  const cps::BatchItem item =
      cps::run_batch_item(workload, index, nullptr, nullptr, &csv);
  Expected e;
  e.ok = item.ok;
  if (item.ok) {
    e.json = fnv1a(item_json(item));
    e.csv = fnv1a(csv);
  } else {
    e.code = cps::to_string(item.code);
  }
  return e;
}

}  // namespace

RunResult run_serve_mixed(const RunOptions& options) {
  RunResult out;
  const cps::BatchConfig workload = daemon_workload(options.seed);
  const std::size_t warmup = options.scale >= 1 ? kWarmupRequests : 4;
  const double open_rate = options.scale >= 1 ? kOpenRate : 50.0;
  const std::string socket =
      options.out_dir + "/served-" + std::to_string(getpid()) + ".sock";
  // Oracle results, computed after the daemon has exited (below) for
  // every requested index the golden file does not list.
  std::vector<std::uint64_t> indices;
  std::vector<Expected> computed;
  Expectations expectations(options, [&](std::uint64_t index) {
    const auto it = std::lower_bound(indices.begin(), indices.end(), index);
    return computed[static_cast<std::size_t>(it - indices.begin())];
  });

  if (options.write_golden) {
    // Golden range: the warm-up indices and fresh indices 0-4095 (a
    // 30 s run reaches more; those fall back to the oracle).
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < warmup; ++i) keys.push_back(kWarmupFirst + i);
    for (std::uint64_t i = 0; i < 4096; ++i) keys.push_back(i);
    out.correct = write_golden_file(options, keys, [&](std::uint64_t i) {
      return oracle_item(workload, i);
    });
    out.attempted = keys.size();
    return out;
  }
  if (!expectations.usable()) {
    out.correct = false;
    out.note("missing golden file " + golden_path(options));
    return out;
  }

  std::optional<Tracer> tracer;
  if (options.trace) tracer.emplace();
  const Clock::time_point origin = Clock::now();
  std::vector<Record> records;
  std::uint64_t next_id = 1;

  // Set-up: daemon start, connections, a fixed warm-up of cold requests
  // on indices the plan never uses, and a stats round trip; several
  // times, keeping the last daemon.
  std::optional<Daemon> daemon;
  std::optional<Client> client;
  std::vector<double> setups;
  bool daemon_ok = true;
  for (int rep = 0; rep < kSetups && daemon_ok; ++rep) {
    if (daemon) {
      client.reset();
      daemon_ok = daemon->stop();
      daemon.reset();
    }
    unlink(socket.c_str());
    const auto t0 = Clock::now();
    daemon.emplace(options, socket);
    if (!daemon->wait_ready(socket)) {
      daemon_ok = false;
      break;
    }
    client.emplace(socket, kClosedConnections, nullptr, origin);
    std::uint64_t w = 0;
    closed_loop(
        *client, &next_id, 0, [&] { return w < warmup; },
        [&](std::uint64_t id) {
          Record r;
          r.id = id;
          r.index = kWarmupFirst + w++;
          return r;
        });
    daemon_ok = client->stats().has_value() && !client->broken();
    setups.push_back(s_between(t0, Clock::now()));
    client->abandon();
    for (Record& r : client->done()) records.push_back(std::move(r));
    client->done().clear();
  }
  if (!daemon_ok) {
    out.correct = false;
    out.note("daemon failed to start or serve; see " + options.out_dir +
             "/daemon.log");
    return out;
  }
  const double setup_s = median(setups);

  // Measured phases on fresh connections that carry the tracer.
  client.emplace(socket, kClosedConnections,
                 tracer ? &*tracer : nullptr, origin);
  RequestPlan plan(options.seed);
  const auto make = [&](std::uint64_t id) {
    const RequestPlan::Next n = plan.next();
    Record r;
    r.id = id;
    r.index = n.index;
    r.repeat = n.repeat;
    return r;
  };
  const std::optional<cps::JsonValue> s0 = client->stats();
  const double cpu0 = cpu_seconds(daemon->pid());

  // Phase 1: open loop over kOpenConnections, one request per period.
  const double open_s = kOpenShare * options.seconds;
  const double open_t0 = client->now_ms();
  {
    const OpenLoopClock clock(client->now_ms(), open_rate);
    const double end = clock.due_ms(0) + 1000.0 * open_s;
    for (std::uint64_t i = 0;; ++i) {
      const double due = clock.due_ms(i);
      if (due >= end || client->broken()) break;
      while (client->now_ms() < due) client->pump(0.0, [](std::size_t) {});
      Record r = make(next_id++);
      r.phase = 1;
      r.t.due_ms = due;
      client->send(i % kOpenConnections, std::move(r));
    }
    drain(*client);
  }
  const std::optional<cps::JsonValue> s1 = client->stats();

  // Phase 2: closed loop on every connection.
  const double closed_t0 = client->now_ms();
  const double closed_end =
      closed_t0 + 1000.0 * (1.0 - kOpenShare) * options.seconds;
  closed_loop(
      *client, &next_id, 2, [&] { return client->now_ms() < closed_end; },
      make);
  const double closed_wall_s = (client->now_ms() - closed_t0) / 1000.0;
  const double phases_ms = client->now_ms() - open_t0;
  const std::optional<cps::JsonValue> s2 = client->stats();
  const double daemon_cpu_s = cpu_seconds(daemon->pid()) - cpu0;
  const double daemon_rss = peak_rss_mb(daemon->pid());
  const bool broken = client->broken() || !s0 || !s1 || !s2;
  client->abandon();
  for (Record& r : client->done()) records.push_back(std::move(r));
  client.reset();
  const bool clean_exit = daemon->stop();
  daemon.reset();
  unlink(socket.c_str());

  // Check every response, against the golden file or the oracle,
  // computed here over a small pool.
  for (const Record& r : records) {
    if (!expectations.listed(r.index)) indices.push_back(r.index);
  }
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  computed.resize(indices.size());
  {
    cps::ThreadPool oracle_pool(kDaemonWorkers);
    oracle_pool.parallel_for(indices.size(), [&](std::size_t i) {
      computed[i] = oracle_item(workload, indices[i]);
    });
  }
  // Every request sent is attempted; an unanswered one is a failure.
  // ok_frac covers the measured phases; warm-up results are checked too.
  std::size_t timed_attempted = 0;
  std::size_t timed_ok = 0;
  std::size_t closed_ok = 0;
  std::size_t warmups = 0;
  std::size_t mismatches = 0;
  std::size_t expected_failures = 0;
  std::vector<double> cold_ms;
  std::vector<double> hit_ms;
  std::vector<double> late_ms;
  for (const Record& r : records) {
    const Expected& e = expectations.get(r.index);
    const Verdict verdict =
        r.answered ? judge(e, r.status == "ok", r.status, r.json, r.csv)
                   : Verdict::kMismatch;
    if (verdict == Verdict::kExpectedFailure) ++expected_failures;
    if (verdict == Verdict::kMismatch && mismatches++ < 5) {
      out.note("mismatch: request " + std::to_string(r.id) + " index " +
               std::to_string(r.index) + " status " +
               (r.answered ? r.status : "unanswered"));
    }
    if (r.phase == 0) {
      ++warmups;
      continue;
    }
    ++timed_attempted;
    if (verdict == Verdict::kOk) {
      ++timed_ok;
      if (r.phase == 2) ++closed_ok;
    }
    if (r.phase == 1) late_ms.push_back(lateness_ms(r.t));
    if (r.phase == 1 && r.answered) {
      (r.repeat ? hit_ms : cold_ms).push_back(open_loop_latency_ms(r.t));
    }
  }
  out.attempted = records.size();
  out.failed = mismatches;
  out.expected_failures = expected_failures;
  out.correct = mismatches == 0 && !broken && clean_exit;
  if (broken) out.note("connection or stats failure during the phases");
  if (!clean_exit) out.note("daemon did not exit cleanly");
  out.note("samples: open-loop cold=" + std::to_string(cold_ms.size()) +
           " hit=" + std::to_string(hit_ms.size()) +
           " closed-loop ok=" + std::to_string(closed_ok) +
           " warm-up=" + std::to_string(warmups) +
           " oracle items=" + std::to_string(expectations.oracle_calls()));

  if (!options.trace) {
    out.add("setup_s", setup_s, "s");
    out.add("graphs_per_s", static_cast<double>(closed_ok) / closed_wall_s,
            "1/s");
    out.add("cpu_ms_per_graph",
            1000.0 * daemon_cpu_s /
                static_cast<double>(std::max<std::size_t>(timed_attempted, 1)),
            "ms");
    out.add("peak_rss_mb", daemon_rss, "MiB");
    out.add("ok_frac",
            static_cast<double>(timed_ok) /
                static_cast<double>(std::max<std::size_t>(timed_attempted, 1)),
            "fraction");
    out.add("cold_p50_ms", percentile(cold_ms, 0.50), "ms");
    out.add("hit_p50_ms", percentile(hit_ms, 0.50), "ms");
    return out;
  }

  // Per-layer values: client spans, stats deltas over both phases, and
  // the in-process cost of the layers each daemon request passes
  // through (graph generation, canonical key + digest, table CSV).
  LayerValues v;
  const auto totals = tracer->totals();
  const auto mean_self = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.self_ms / static_cast<double>(it->second.count);
  };
  v["serve.client.encode_ms"] = mean_self("serve.client.encode");
  v["serve.client.send_ms"] = mean_self("serve.client.send");
  v["serve.client.wait_ms"] = mean_self("serve.client.wait");
  v["serve.client.recv_ms"] = mean_self("serve.client.recv");
  v["support.json.parse_ms"] = mean_self("support.json.parse");
  v["trace.coverage"] = root_coverage(tracer->spans());
  if (!broken) {
    // Hit ratios over the open loop, where the latencies they explain are
    // measured (the exact tier does not reach its byte bound there); the
    // rest over both phases.
    const StatsDelta open = StatsDelta::between(*s0, *s1);
    const StatsDelta closed = StatsDelta::between(*s1, *s2);
    const StatsDelta d = StatsDelta::between(*s0, *s2);
    v["sched.cache.exact_hit_ratio"] =
        open.exact_hits / std::max(1.0, open.exact_hits + open.exact_misses);
    v["sched.cache.prefix_hit_ratio"] =
        open.prefix_hits /
        std::max(1.0, open.prefix_hits + open.prefix_misses);
    v["sched.cache.evictions"] = d.evictions;
    v["serve.shed"] = d.shed;
    v["serve.expired"] = d.expired;
    v["serve.peak_queue_depth"] = d.peak_queue_depth;
    out.note("per phase: exact hits/lookups open loop " +
             std::to_string(static_cast<long>(open.exact_hits)) + "/" +
             std::to_string(
                 static_cast<long>(open.exact_hits + open.exact_misses)) +
             ", closed loop " +
             std::to_string(static_cast<long>(closed.exact_hits)) + "/" +
             std::to_string(
                 static_cast<long>(closed.exact_hits + closed.exact_misses)));
    out.note("bases: exact lookups=" +
             std::to_string(static_cast<long>(d.exact_hits + d.exact_misses)) +
             " prefix lookups=" +
             std::to_string(
                 static_cast<long>(d.prefix_hits + d.prefix_misses)) +
             " planned repeats=" +
             std::to_string(hit_ms.size()) + " of open-loop " +
             std::to_string(hit_ms.size() + cold_ms.size()));
  }
  v["loadgen.late_p99_ms"] = percentile(late_ms, 0.99);
  // The open-loop tails spread too widely between runs on a shared host
  // to gate on, so the traced run reports them as layer metrics.
  v["serve.cold_p99_ms"] = percentile(cold_ms, 0.99);
  v["serve.hit_p99_ms"] = percentile(hit_ms, 0.99);

  // Tracing overhead: the cost of recording one span, times the spans
  // this run recorded, over the traced phases' wall time.
  {
    Tracer probe;
    const auto t0 = Clock::now();
    for (int i = 0; i < 10000; ++i) probe.record("probe", -1, 0, 0.0, 1.0);
    const double per_span_ms = ms_between(t0, Clock::now()) / 10000.0;
    v["trace.overhead_frac"] =
        per_span_ms * static_cast<double>(tracer->spans().size()) /
        phases_ms;
  }

  std::vector<std::uint64_t> sample;
  for (const Record& r : records) {
    if (r.phase == 1 && !r.repeat && sample.size() < kLayerSample) {
      sample.push_back(r.index);
    }
  }
  double gen_ms = 0.0;
  double canonical_ms = 0.0;
  double csv_ms = 0.0;
  double csv_bytes = 0.0;
  for (const std::uint64_t index : sample) {
    const auto g0 = Clock::now();
    cps::Rng rng(workload.base_seed + index);
    const cps::Architecture arch =
        cps::generate_random_architecture(rng, workload.arch);
    const cps::Cpg g = cps::generate_random_cpg(arch, workload.cpg, rng);
    const auto g1 = Clock::now();
    const cps::Digest128 key = cps::digest_of(cps::canonical_encoding(g));
    (void)key;
    const auto g2 = Clock::now();
    // The options run_batch_item runs a daemon request with.
    cps::CoSynthesisOptions o = workload.synthesis;
    o.subtree_frontier = 4;
    o.keep_paths = false;
    const cps::CoSynthesisResult r = cps::schedule_cpg(g, o);
    const auto c0 = Clock::now();
    csv_bytes += static_cast<double>(cps::table_csv_string(r.table).size());
    csv_ms += ms_between(c0, Clock::now());
    gen_ms += ms_between(g0, g1);
    canonical_ms += ms_between(g1, g2);
  }
  const double n = std::max<double>(1.0, static_cast<double>(sample.size()));
  v["gen.generate_ms"] = gen_ms / n;
  v["cpg.canonical_ms"] = canonical_ms / n;
  v["io.table_csv_ms"] = csv_ms / n;
  v["io.table_csv_bytes"] = csv_bytes / n;
  emit_layers(out, v);
  out.note("layer sample: " + std::to_string(sample.size()) +
           " cold indices timed in-process (gen, canonical key, CSV)");
  dump_spans(options, *tracer, out);
  return out;
}

}  // namespace perfbench
