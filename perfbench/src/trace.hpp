// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark around its calls into each layer of the program, kept in
// memory, and written out when the run ends. One Tracer is used from one
// thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start_ms = 0.0;  ///< relative to the tracer's origin
  double end_ms = 0.0;
  std::int64_t parent = -1;  ///< index of the causing span, -1 = root
  std::uint64_t item = 0;    ///< item or request id
};

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once; children
/// are clipped to the parent's interval).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Fraction of the roots' wall time covered by their direct children.
double root_coverage(const std::vector<Span>& spans);

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  double now_ms() const { return ms_between(origin_, Clock::now()); }

  /// Open a span now; returns its index. close() ends it.
  std::int64_t open(const std::string& name, std::int64_t parent,
                    std::uint64_t item);
  void close(std::int64_t span);
  /// Record a finished span with explicit times (ms from origin).
  std::int64_t record(const std::string& name, std::int64_t parent,
                      std::uint64_t item, double start_ms, double end_ms);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed self time (ms) and span count.
  struct Totals {
    double self_ms = 0.0;
    std::size_t count = 0;
  };
  std::map<std::string, Totals> totals() const;

  /// Write every span as one JSON object per line, after a header line.
  bool dump(const std::string& path, const std::string& header_json) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction. A null
/// tracer records nothing, so untraced callers share the traced code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::int64_t parent,
             std::uint64_t item)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, parent, item) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  std::int64_t index_;
};

/// Write the traced run's spans to <out_dir>/spans-<workload>-<seed>.jsonl
/// (the host fingerprint first), note where they went, and note the self
/// time and count of every span name.
void dump_spans(const RunOptions& options, const Tracer& tracer,
                RunResult& out);

}  // namespace perfbench
