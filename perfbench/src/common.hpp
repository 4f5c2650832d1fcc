// Shared plumbing of the perfbench binary: clocks, the benchmark's own
// seeded random stream, output digests, golden files, process
// resource readers, percentile summaries and the result record every
// workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64: the benchmark's own stream for request plans and graph
/// shapes, so a change to the library's generator cannot silently
/// change which requests a workload issues.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// 64-bit FNV-1a. Output digests are the benchmark's own, so a change to
/// the library's content hash does not invalidate the golden files.
std::uint64_t fnv1a(const std::string& bytes);
std::string hex64(std::uint64_t v);

/// Expected outcome of one item: either digests of its item JSON and
/// table CSV, or a failure with its typed code.
struct Expected {
  bool ok = false;
  std::uint64_t json = 0;
  std::uint64_t csv = 0;
  std::string code;  ///< typed failure code when !ok
};

/// Golden file: one line per item, "<key> <json-hex> <csv-hex>" or
/// "<key> FAIL <code>". Lines starting with '#' are comments.
using Golden = std::map<std::uint64_t, Expected>;
std::optional<Golden> read_golden(const std::string& path);
bool write_golden(const std::string& path, const Golden& golden,
                  const std::string& header);

/// Outcome of checking one produced result against its expectation.
enum class Verdict { kOk, kExpectedFailure, kMismatch };

/// The known req-2 defect class: an item whose merged table fails
/// validation ("incoherent table"). Such items are expected failures —
/// counted against ok_frac, never against correctness — so a fix raises
/// ok_frac instead of tripping the golden check.
inline bool is_known_defect_code(const std::string& code) {
  return code == "validation_failed";
}

Verdict judge(const Expected& expected, bool ok, const std::string& code,
              std::uint64_t json, std::uint64_t csv);

/// User+system CPU seconds of a process (`pid` 0 = this process).
double cpu_seconds(int pid = 0);
/// VmHWM of a process in MiB (`pid` 0 = this process).
double peak_rss_mb(int pid = 0);

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// What one workload run reports.
struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t expected_failures = 0;
  /// Ordered (name, value, unit) triples.
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Free-form notes printed before the result line (sample counts,
  /// bases of ratios, mismatches).
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Options every workload receives.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Work scale: 1 = the committed workload; smaller values shrink item
  /// sets and phases (the benchmark's own tests run at 0).
  int scale = 1;
  std::string golden_dir;  ///< where <workload>.golden lives
  std::string out_dir;     ///< span dumps, daemon sockets and logs
  std::string daemon;      ///< path of the condsched_served binary
  std::string host;        ///< host fingerprint (JSON), heads span dumps
  bool write_golden = false;
};

/// The seed whose outputs the committed golden files describe.
constexpr std::uint64_t kDefaultSeed = 1;

/// Derive a workload's base graph seed from the benchmark seed.
inline std::uint64_t base_seed_of(std::uint64_t seed) {
  return seed * 1000003ull;
}

std::string golden_path(const RunOptions& options);

/// Per-layer values of a traced run, keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// Add every per-layer metric, in the benchmark's fixed order, to
/// `result`: the measured value where the workload exercises the layer,
/// 0 where the layer is idle on it.
void emit_layers(RunResult& result, const LayerValues& values);

}  // namespace perfbench
