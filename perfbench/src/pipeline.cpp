#include "pipeline.hpp"

#include <optional>

#include "cpg/flat_graph.hpp"
#include "cpg/paths.hpp"
#include "io/table_csv.hpp"
#include "sched/delay.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/merge.hpp"
#include "sched/table_validate.hpp"
#include "serve/protocol.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace perfbench {

std::string item_json(const cps::BatchItem& item) {
  return cps::batch_item_to_json(item, cps::serve_item_json_options());
}

std::string result_json(const cps::CoSynthesisResult& result) {
  cps::JsonWriter w(0);
  const cps::MergeStats& m = result.merge_stats;
  w.begin_object();
  w.field("status", cps::to_string(result.status));
  w.field("paths", result.path_count);
  w.field("table_entries", result.table.entry_count());
  w.field("delta_m", static_cast<std::int64_t>(result.delays.delta_m));
  w.field("delta_max", static_cast<std::int64_t>(result.delays.delta_max));
  w.field("increase_percent", result.delays.increase_percent);
  w.key("merge").begin_object();
  w.field("backsteps", m.backsteps);
  w.field("adjustments", m.adjustments);
  w.field("locks", m.locks);
  w.field("conflicts", m.conflicts);
  w.field("conflict_moves", m.conflict_moves);
  w.field("unresolved_conflicts", m.unresolved_conflicts);
  w.field("relaxed_locks", m.relaxed_locks);
  w.field("column_clashes", m.column_clashes);
  w.field("speculative_hits", m.speculative_hits);
  w.field("speculative_misses", m.speculative_misses);
  w.end_object();
  w.end_object();
  return w.str();
}

Expectations::Expectations(const RunOptions& options, Oracle oracle)
    : oracle_(std::move(oracle)) {
  if (options.seed == kDefaultSeed && !options.write_golden) {
    golden_ = read_golden(golden_path(options));
    usable_ = golden_.has_value();
  }
}

const Expected& Expectations::get(std::uint64_t key) {
  if (golden_) {
    const auto it = golden_->find(key);
    if (it != golden_->end()) return it->second;
  }
  auto it = memo_.find(key);
  if (it == memo_.end()) {
    ++oracle_calls_;
    it = memo_.emplace(key, oracle_(key)).first;
  }
  return it->second;
}

bool write_golden_file(const RunOptions& options,
                       const std::vector<std::uint64_t>& keys,
                       const Expectations::Oracle& oracle) {
  Golden golden;
  for (const std::uint64_t key : keys) golden[key] = oracle(key);
  const std::string header =
      "# " + options.workload + " expected outputs for --seed " +
      std::to_string(kDefaultSeed) +
      ": <item> <item-json fnv1a64> <table-csv fnv1a64>, or "
      "<item> FAIL <code> for a known-defect item.\n"
      "# Regenerate with: python3 perfbench/run.py --workload " +
      options.workload + " --write-golden\n";
  return write_golden(golden_path(options), golden, header);
}

std::string error_code_of(const std::exception& e) {
  if (const auto* err = dynamic_cast<const cps::Error*>(&e)) {
    return cps::to_string(err->code());
  }
  return cps::to_string(cps::ErrorCode::kInternal);
}

Decomposed decompose(const cps::Cpg& g, const cps::MergeOptions& merge,
                     Tracer* tracer, std::int64_t parent, std::uint64_t item) {
  Decomposed out;
  std::optional<cps::FlatGraph> flat;
  {
    const ScopedSpan s(tracer, "cpg.expand", parent, item);
    flat.emplace(cps::FlatGraph::expand(g));
  }
  std::vector<cps::AltPath> paths;
  {
    const ScopedSpan s(tracer, "cpg.enumerate", parent, item);
    cps::PathEnumerator enumerator(g);
    while (auto path = enumerator.next()) paths.push_back(std::move(*path));
  }
  std::vector<cps::PathSchedule> schedules;
  {
    const ScopedSpan s(tracer, "sched.engine", parent, item);
    cps::EngineWorkspace workspace;
    schedules.reserve(paths.size());
    for (const cps::AltPath& path : paths) {
      schedules.push_back(cps::schedule_path(
          *flat, path, cps::PriorityPolicy::kCriticalPath, nullptr,
          merge.ready, nullptr, &workspace));
    }
  }
  std::optional<cps::MergeResult> merged;
  {
    const ScopedSpan s(tracer, "sched.merge", parent, item);
    merged.emplace(cps::merge_schedules(*flat, paths, schedules, merge));
  }
  if (!merged->ok) return out;
  {
    const ScopedSpan s(tracer, "sched.validate", parent, item);
    out.valid = cps::validate_table(*flat, merged->table, paths).ok;
  }
  if (!out.valid) return out;
  {
    const ScopedSpan s(tracer, "sched.delay", parent, item);
    const cps::DelayReport delays =
        cps::delay_report(*flat, paths, schedules, merged->table);
    (void)delays;
  }
  {
    const ScopedSpan s(tracer, "io.table_csv", parent, item);
    out.csv = cps::table_csv_string(merged->table);
  }
  return out;
}

}  // namespace perfbench
