#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::optional<Golden> read_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Golden golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t key = 0;
    std::string a;
    std::string b;
    if (!(fields >> key >> a >> b)) return std::nullopt;
    Expected e;
    if (a == "FAIL") {
      e.code = b;
    } else {
      e.ok = true;
      e.json = std::stoull(a, nullptr, 16);
      e.csv = std::stoull(b, nullptr, 16);
    }
    golden[key] = e;
  }
  return golden;
}

bool write_golden(const std::string& path, const Golden& golden,
                  const std::string& header) {
  std::ofstream out(path);
  if (!out) return false;
  out << header;
  for (const auto& [key, e] : golden) {
    if (e.ok) {
      out << key << ' ' << hex64(e.json) << ' ' << hex64(e.csv) << '\n';
    } else {
      out << key << " FAIL " << e.code << '\n';
    }
  }
  return static_cast<bool>(out);
}

Verdict judge(const Expected& expected, bool ok, const std::string& code,
              std::uint64_t json, std::uint64_t csv) {
  if (expected.ok) {
    return ok && json == expected.json && csv == expected.csv
               ? Verdict::kOk
               : Verdict::kMismatch;
  }
  // Expected failure: the same typed failure again is the known defect;
  // a success must be checked by validation (the caller's job) and is
  // never a golden mismatch.
  if (!ok && code == expected.code && is_known_defect_code(code)) {
    return Verdict::kExpectedFailure;
  }
  return Verdict::kMismatch;
}

namespace {

std::string proc_path(int pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

}  // namespace

double cpu_seconds(int pid) {
  std::ifstream in(proc_path(pid, "stat"));
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(int pid) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t at =
      rank < 1.0 ? 0 : std::min(values.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return values[at];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

std::string golden_path(const RunOptions& options) {
  return options.golden_dir + "/" + options.workload + ".golden";
}

void emit_layers(RunResult& result, const LayerValues& values) {
  static const char* const kLayers[][2] = {
      {"gen.generate_ms", "ms"},
      {"cpg.expand_ms", "ms"},
      {"cpg.enumerate_ms", "ms"},
      {"cpg.paths", "count"},
      {"cpg.canonical_ms", "ms"},
      {"sched.engine_ms", "ms"},
      {"sched.engine_runs", "count"},
      {"sched.tree.prefix_resumes", "count"},
      {"sched.tree.resumed_steps", "count"},
      {"sched.workspace.resume_ratio", "fraction"},
      {"sched.merge_ms", "ms"},
      {"sched.merge.adjustments", "count"},
      {"sched.merge.locks", "count"},
      {"sched.merge.conflicts", "count"},
      {"sched.merge.spec_hit_ratio", "fraction"},
      {"sched.validate_ms", "ms"},
      {"sched.delay_ms", "ms"},
      {"sched.driver.unattributed_frac", "fraction"},
      {"cond.cover_cache.hit_ratio", "fraction"},
      {"sched.cache.exact_hit_ratio", "fraction"},
      {"sched.cache.prefix_hit_ratio", "fraction"},
      {"sched.cache.evictions", "count"},
      {"io.table_csv_ms", "ms"},
      {"io.table_csv_bytes", "bytes"},
      {"support.pool.executed", "count"},
      {"support.pool.steals", "count"},
      {"support.pool.help_runs", "count"},
      {"support.json.parse_ms", "ms"},
      {"serve.client.encode_ms", "ms"},
      {"serve.client.send_ms", "ms"},
      {"serve.client.wait_ms", "ms"},
      {"serve.client.recv_ms", "ms"},
      {"serve.shed", "count"},
      {"serve.expired", "count"},
      {"serve.peak_queue_depth", "count"},
      {"serve.cold_p99_ms", "ms"},
      {"serve.hit_p99_ms", "ms"},
      {"loadgen.late_p99_ms", "ms"},
      {"trace.coverage", "fraction"},
      {"trace.overhead_frac", "fraction"},
  };
  for (const auto& layer : kLayers) {
    const auto it = values.find(layer[0]);
    result.add(layer[0], it == values.end() ? 0.0 : it->second, layer[1]);
  }
}

}  // namespace perfbench
