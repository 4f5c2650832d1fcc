// Checking the program's outputs: item digests, expectation sources
// (golden files or an offline oracle), and the stage-by-stage
// decomposition of schedule_cpg through the program's public stage
// functions.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "common.hpp"
#include "cpg/cpg.hpp"
#include "sched/batch_driver.hpp"
#include "sched/driver.hpp"
#include "trace.hpp"

namespace perfbench {

/// Item JSON the checks digest: the serve protocol's serialization (no
/// timing, no reuse or resume counters), compact.
std::string item_json(const cps::BatchItem& item);

/// Result summary of a schedule_cpg call (the batch-deep item JSON):
/// delays, table size and the deterministic merge counters.
std::string result_json(const cps::CoSynthesisResult& result);

/// Where expectations come from: the committed golden file for the
/// default seed, an offline oracle otherwise (and for keys the golden
/// file does not list). Oracle results are memoized.
class Expectations {
 public:
  using Oracle = std::function<Expected(std::uint64_t key)>;
  Expectations(const RunOptions& options, Oracle oracle);

  /// False when the default seed's golden file is missing or unreadable.
  bool usable() const { return usable_; }
  const Expected& get(std::uint64_t key);
  /// Whether the golden file lists `key` (false without a golden file).
  bool listed(std::uint64_t key) const {
    return golden_ && golden_->count(key) != 0;
  }
  /// Keys answered by the oracle instead of the golden file.
  std::size_t oracle_calls() const { return oracle_calls_; }
  bool golden() const { return golden_.has_value(); }

 private:
  Oracle oracle_;
  std::optional<Golden> golden_;
  Golden memo_;
  bool usable_ = true;
  std::size_t oracle_calls_ = 0;
};

/// Run the oracle over `keys` and write the golden file of `options`.
bool write_golden_file(const RunOptions& options,
                       const std::vector<std::uint64_t>& keys,
                       const Expectations::Oracle& oracle);

/// Stage-by-stage run of one graph through the public stage functions:
/// FlatGraph::expand, PathEnumerator, schedule_path, merge_schedules,
/// validate_table, delay_report, table_csv_string. Spans go to `tracer`
/// (children of `parent`) when it is non-null.
struct Decomposed {
  bool valid = false;
  std::string csv;
};
Decomposed decompose(const cps::Cpg& g, const cps::MergeOptions& merge,
                     Tracer* tracer, std::int64_t parent, std::uint64_t item);

/// Typed code of a caught library error, as the item JSON names it.
std::string error_code_of(const std::exception& e);

}  // namespace perfbench
