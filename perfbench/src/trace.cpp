#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

/// Length of the union of intervals, each clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (open && a <= run_end) {
      run_end = std::max(run_end, b);
      continue;
    }
    if (open) total += run_end - run_start;
    run_start = a;
    run_end = b;
    open = true;
  }
  if (open) total += run_end - run_start;
  return total;
}

std::vector<std::vector<std::pair<double, double>>> children_of(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                            s.end_ms);
    }
  }
  return kids;
}

}  // namespace

std::vector<double> self_times(const std::vector<Span>& spans) {
  const auto kids = children_of(spans);
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out[i] = (s.end_ms - s.start_ms) - covered(kids[i], s.start_ms, s.end_ms);
  }
  return out;
}

double root_coverage(const std::vector<Span>& spans) {
  const auto kids = children_of(spans);
  double wall = 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0) continue;
    wall += s.end_ms - s.start_ms;
    cov += covered(kids[i], s.start_ms, s.end_ms);
  }
  return wall > 0.0 ? cov / wall : 0.0;
}

std::int64_t Tracer::open(const std::string& name, std::int64_t parent,
                          std::uint64_t item) {
  const double t = now_ms();
  return record(name, parent, item, t, t);
}

void Tracer::close(std::int64_t span) {
  spans_[static_cast<std::size_t>(span)].end_ms = now_ms();
}

std::int64_t Tracer::record(const std::string& name, std::int64_t parent,
                            std::uint64_t item, double start_ms,
                            double end_ms) {
  spans_.push_back(Span{name, start_ms, end_ms, parent, item});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const std::vector<double> self = self_times(spans_);
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    t.self_ms += self[i];
    ++t.count;
  }
  return out;
}

bool Tracer::dump(const std::string& path,
                  const std::string& header_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << header_json << '\n';
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms
        << ",\"parent\":" << s.parent << ",\"item\":" << s.item << "}\n";
  }
  return static_cast<bool>(out);
}

void dump_spans(const RunOptions& options, const Tracer& tracer,
                RunResult& out) {
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  if (tracer.dump(path, options.host)) {
    out.note("spans: " + std::to_string(tracer.spans().size()) + " -> " +
             path);
  }
  std::string report = "self time by span (total ms / count):";
  for (const auto& [name, t] : tracer.totals()) {
    report += " " + name + "=" + std::to_string(t.self_ms) + "/" +
              std::to_string(t.count);
  }
  out.note(report);
}

}  // namespace perfbench
