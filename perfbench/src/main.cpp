// perfbench: runs one workload of the benchmark and prints its metrics.
//
//   perfbench --workload batch-paper|batch-deep|serve-mixed --seed N
//             --seconds S --trace 0|1 --golden-dir DIR --out-dir DIR
//             --daemon PATH [--scale 0|1] [--source-id ID] [--write-golden]
//
// Standard output: a host fingerprint line, note lines, then one JSON
// result line {"correct", "attempted", "failed", "metrics"} as the last
// line. Exit status 0 when every result passed its check, 1 when a check
// failed, 2 on a usage error. perfbench/run.py builds this binary and
// the daemon from source and passes the paths.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "support/json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string fingerprint(const RunOptions& o, const std::string& source_id) {
  cps::JsonWriter w(0);
  w.begin_object();
  w.field("workload", o.workload);
  w.field("seed", o.seed);
  w.field("seconds", o.seconds);
  w.field("trace", o.trace);
  w.field("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  w.field("cpu_model", cpu_model());
  w.field("compiler", std::string("gcc ") + __VERSION__);
  w.field("build_type", PERFBENCH_BUILD_TYPE);
  w.field("source_id", source_id);
  w.end_object();
  return w.str();
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --golden-dir DIR --out-dir DIR --daemon PATH "
               "[--scale 0|1] [--source-id ID] [--write-golden]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-golden") {
      o.write_golden = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
      } else if (flag == "--scale") {
        o.scale = std::stoi(value);
      } else if (flag == "--golden-dir") {
        o.golden_dir = value;
      } else if (flag == "--out-dir") {
        o.out_dir = value;
      } else if (flag == "--daemon") {
        o.daemon = value;
      } else if (flag == "--source-id") {
        source_id = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.seconds <= 0.0) return usage("--seconds must be positive");
  if (o.golden_dir.empty() || o.out_dir.empty()) {
    return usage("--golden-dir and --out-dir are required");
  }

  o.host = fingerprint(o, source_id);
  RunResult r;
  try {
    if (o.workload == "batch-paper") {
      r = run_batch_paper(o);
    } else if (o.workload == "batch-deep") {
      r = run_batch_deep(o);
    } else if (o.workload == "serve-mixed") {
      if (o.daemon.empty()) return usage("serve-mixed needs --daemon");
      r = run_serve_mixed(o);
    } else {
      return usage("unknown workload '" + o.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what()
              << '\n';
    return 1;
  }

  std::cout << "host: " << o.host << '\n';
  for (const std::string& note : r.notes) std::cout << "note: " << note << '\n';
  std::cout << "note: expected failures (known defect, see NOTES.md): "
            << r.expected_failures << '\n';
  if (o.write_golden) {
    std::cout << "golden: wrote " << r.attempted << " expectations to "
              << golden_path(o) << '\n';
    return r.correct ? 0 : 1;
  }
  std::string line = "{\"correct\": " +
                     std::string(r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i != 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return r.correct ? 0 : 1;
}
