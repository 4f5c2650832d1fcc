// E5 — Fig. 6: execution time of the schedule-merging algorithm as a
// function of the number of merged schedules, for 60/80/120-node graphs.
//
// Paper reference (SPARCstation 20, 1998): 0.05s .. 0.25s, growing with
// the number of merged schedules and only weakly with the node count.
// Absolute times on a modern machine are far smaller; the *shape* is the
// reproduction target. The per-path list scheduling itself is also timed
// (paper: < 0.003 s for 120-node graphs).
//
// --compare additionally re-merges every graph with the production
// MergeExecution::kSpeculative walk (the serial walk plus its rule-3
// lock-set audit) and verifies that the table, every non-audit merge
// statistic and the walk's cover-cache and workspace counters equal the
// kSerial run's, and that every adjustment was audited once; any
// difference exits non-zero (CI equivalence gate). It reports the audit's
// hit/miss split and the audited walk's total wall clock.
//
// --compare-resume does the same for the incremental-rescheduling knob:
// it re-merges every graph serially with EngineResume::kFromScratch (the
// retained reference) and verifies the table and the merge statistics
// equal the --resume mode's; any mismatch exits non-zero (CI equivalence
// gate). --resume scratch|checkpoint selects the engine-resume mode of
// the timed merges (default: checkpoint, the production default).
//
// --json-out FILE writes the measurements in a stable machine-readable
// schema (see write_json below); --baseline FILE reads a previous
// --json-out dump (e.g. the committed BENCH_baseline.json) and reports the
// schedule+merge speedup of this run against it. The baseline comparison
// is informational only — it never fails the run, so CI stays robust to
// host-speed differences.
#include <chrono>
#include <fstream>
#include <iostream>

#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "sched/driver.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table_format.hpp"

namespace {

using namespace cps;
using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0)
      .count();
}

/// One (nodes, paths) cell of the measurement grid.
struct CellResult {
  std::size_t nodes = 0;
  std::size_t paths = 0;
  double merge_serial_ms = 0.0;  // mean over the cell's graphs
  double sched_ms = 0.0;
  double merge_scratch_ms = 0.0;  // --compare-resume only
  double conditions_mean = 0.0;
};

/// Counters of the --compare audit, summed over the run.
struct AuditTotals {
  double merge_ms = 0.0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t adjustments = 0;
};

bool same_merge_stats(const MergeStats& a, const MergeStats& b) {
  return a.backsteps == b.backsteps && a.adjustments == b.adjustments &&
         a.locks == b.locks && a.conflicts == b.conflicts &&
         a.conflict_moves == b.conflict_moves &&
         a.unresolved_conflicts == b.unresolved_conflicts &&
         a.relaxed_locks == b.relaxed_locks &&
         a.column_clashes == b.column_clashes;
}

bool same_walk_counters(const MergeResult& a, const MergeResult& b) {
  const CoverCacheStats& c = a.cover_cache;
  const CoverCacheStats& d = b.cover_cache;
  const WorkspaceStats& v = a.workspace;
  const WorkspaceStats& w = b.workspace;
  return c.hits == d.hits && c.misses == d.misses &&
         c.entries == d.entries && c.resets == d.resets &&
         v.runs == w.runs && v.reuse_hits == w.reuse_hits &&
         v.resumes == w.resumes && v.full_reuses == w.full_reuses &&
         v.from_scratch == w.from_scratch &&
         v.resumed_steps == w.resumed_steps &&
         v.checkpoints == w.checkpoints;
}

/// Machine-readable dump (schema_version 3): config, per-cell means, and
/// run totals. The config block names the engine (heap/linear), the
/// per-path scheduling walk (tree/list) and the resume mode, so committed
/// trajectory points (BENCH_baseline.json, BENCH_pr4.json, ...) are
/// self-describing instead of requiring CHANGES.md archaeology.
std::string cells_to_json(const CliParser& cli, bool compare,
                          bool compare_resume, std::size_t graphs_per_cell,
                          const std::vector<CellResult>& cells,
                          double total_serial_ms, const AuditTotals& audit,
                          double total_scratch_ms, double total_sched_ms) {
  JsonWriter w(2);
  w.begin_object();
  w.field("schema_version", 3);
  w.field("bench", "bench_fig6_merge_time");
  w.key("config").begin_object();
  w.field("graphs_per_cell", graphs_per_cell);
  w.field("seed", cli.get_int("seed"));
  w.field("nodes", cli.get_string("nodes"));
  w.field("paths", cli.get_string("paths"));
  w.field("compare", compare);
  w.field("engine", cli.get_string("engine"));
  w.field("sched", cli.get_string("sched"));
  w.field("resume", cli.get_string("resume"));
  w.field("compare_resume", compare_resume);
  w.end_object();
  w.key("cells").begin_array();
  for (const CellResult& cell : cells) {
    w.begin_object();
    w.field("nodes", cell.nodes);
    w.field("paths", cell.paths);
    w.field("conditions_mean", cell.conditions_mean);
    w.field("sched_ms", cell.sched_ms);
    w.field("merge_serial_ms", cell.merge_serial_ms);
    if (compare_resume) {
      w.field("merge_scratch_ms", cell.merge_scratch_ms);
      w.field("resume_speedup", cell.merge_scratch_ms /
                                    std::max(cell.merge_serial_ms, 1e-9));
    }
    w.end_object();
  }
  w.end_array();
  w.key("totals").begin_object();
  w.field("sched_ms", total_sched_ms);
  w.field("merge_serial_ms", total_serial_ms);
  w.field("sched_plus_merge_ms", total_sched_ms + total_serial_ms);
  if (compare) {
    w.field("merge_speculative_ms", audit.merge_ms);
    w.field("speculative_hits", audit.hits);
    w.field("speculative_misses", audit.misses);
  }
  if (compare_resume) {
    w.field("merge_scratch_ms", total_scratch_ms);
    w.field("resume_speedup",
            total_scratch_ms / std::max(total_serial_ms, 1e-9));
  }
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

/// Report this run against a committed --json-out dump. Informational:
/// prints the ratio (baseline slower => ratio > 1) and never fails. Only
/// runs with the baseline's exact workload are compared — a ratio across
/// different graph counts or sizes would be meaningless.
void report_against_baseline(std::ostream& os, const std::string& path,
                             const CliParser& cli,
                             std::size_t graphs_per_cell, double sched_ms,
                             double serial_ms) {
  JsonValue baseline;
  try {
    baseline = JsonValue::parse_file(path);
  } catch (const ParseError& e) {
    os << "baseline " << path << " not usable (" << e.what()
              << ") — skipping comparison\n";
    return;
  }
  try {
    const JsonValue& config = baseline.at("config");
    const bool same_workload =
        config.at("graphs_per_cell").as_int() ==
            static_cast<std::int64_t>(graphs_per_cell) &&
        config.at("seed").as_int() == cli.get_int("seed") &&
        config.at("nodes").as_string() == cli.get_string("nodes") &&
        config.at("paths").as_string() == cli.get_string("paths");
    if (!same_workload) {
      os << "baseline " << path
         << " measures a different workload (graphs="
         << config.at("graphs_per_cell").as_int() << " seed="
         << config.at("seed").as_int() << " nodes="
         << config.at("nodes").as_string() << " paths="
         << config.at("paths").as_string() << ") — skipping comparison\n";
      return;
    }
    const double base =
        baseline.at("totals").at("sched_plus_merge_ms").as_number();
    const double ours = sched_ms + serial_ms;
    os << "baseline " << path << ": schedule+merge " << format_double(base, 1)
       << " ms -> " << format_double(ours, 1) << " ms, speedup "
       << format_double(base / std::max(ours, 1e-9), 2) << "x\n";
  } catch (const ParseError& e) {
    os << "baseline " << path << " has an unexpected schema (" << e.what()
       << ") — skipping comparison\n";
  }
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("Fig. 6: execution time of schedule merging");
  cli.add_flag("graphs", "8", "graphs per (nodes, paths) cell");
  cli.add_flag("seed", "42", "base random seed");
  cli.add_flag("nodes", "60,80,120", "comma-separated node counts");
  cli.add_flag("paths", "10,12,18,24,32",
               "comma-separated merged-schedule counts");
  cli.add_bool("compare",
               "re-merge with the audited kSpeculative walk, verify its "
               "table and counters equal the kSerial run's, report the "
               "audit (exits non-zero on any mismatch)");
  cli.add_flag("engine", "heap",
               "ready-list engine for scheduling and merging: 'heap' "
               "(production) or 'linear' (pre-heap reference)");
  cli.add_flag("sched", "tree",
               "per-path scheduling walk: 'tree' (guard-trie chain with "
               "checkpointed shared-prefix reuse, production default) or "
               "'list' (independent from-scratch runs)");
  cli.add_flag("resume", "checkpoint",
               "engine resume mode of the timed merges: 'checkpoint' "
               "(incremental prefix rescheduling, production default) or "
               "'scratch' (reference)");
  cli.add_bool("compare-resume",
               "re-merge serially with EngineResume::kFromScratch, verify "
               "the tables and merge statistics equal the --resume mode's, "
               "report the speedup (exits non-zero on any mismatch)");
  cli.add_flag("json-out", "",
               "write the measurements (stable schema) as JSON to FILE "
               "(- = stdout)");
  cli.add_flag("baseline", "BENCH_baseline.json",
               "previous --json-out dump to report a speedup against "
               "(skipped silently when the file does not exist; empty = "
               "off)");
  if (!cli.parse(argc, argv)) return 0;
  const auto graphs_per_cell = cli.get_count("graphs", 1);
  const bool compare = cli.get_bool("compare");
  const bool compare_resume = cli.get_bool("compare-resume");
  const std::string resume_name = cli.get_string("resume");
  if (resume_name != "checkpoint" && resume_name != "scratch") {
    throw cps::ParseError("--resume must be 'checkpoint' or 'scratch', got '" +
                          resume_name + "'");
  }
  const EngineResume resume = resume_name == "scratch"
                                  ? EngineResume::kFromScratch
                                  : EngineResume::kCheckpoint;
  const std::string engine_name = cli.get_string("engine");
  if (engine_name != "heap" && engine_name != "linear") {
    throw cps::ParseError("--engine must be 'heap' or 'linear', got '" +
                          engine_name + "'");
  }
  const ReadySelection engine = engine_name == "linear"
                                    ? ReadySelection::kLinearScan
                                    : ReadySelection::kHeap;
  const std::string sched_name = cli.get_string("sched");
  if (sched_name != "tree" && sched_name != "list") {
    throw cps::ParseError("--sched must be 'tree' or 'list', got '" +
                          sched_name + "'");
  }
  const bool tree_sched = sched_name == "tree";
  const std::vector<std::size_t> node_counts = cli.get_count_list("nodes");
  const std::vector<std::size_t> path_counts = cli.get_count_list("paths");

  AsciiTable merge_time("Fig. 6 — serial schedule merging time "
                        "(milliseconds)");
  AsciiTable sched_time(
      "Per-path list scheduling time, all paths together (milliseconds)");
  std::vector<std::string> head{"nodes \\ merged schedules"};
  for (std::size_t p : path_counts) head.push_back(std::to_string(p));
  merge_time.header(head);
  sched_time.header(head);

  double total_serial_ms = 0.0;
  AuditTotals audit;
  double total_scratch_ms = 0.0;
  double total_sched_ms = 0.0;
  std::vector<CellResult> cells;
  bool all_identical = true;
  WorkspaceStats merge_workspace;
  std::size_t sched_resumes = 0;
  std::size_t sched_resumed_steps = 0;

  // One engine workspace for all per-path scheduling, so buffer
  // allocations stay out of the timed regions.
  EngineWorkspace sched_ws;

  std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  for (std::size_t nodes : node_counts) {
    std::vector<std::string> mrow{std::to_string(nodes)};
    std::vector<std::string> srow{std::to_string(nodes)};
    for (std::size_t paths : path_counts) {
      StatAccumulator merge_ms;
      StatAccumulator sched_ms;
      StatAccumulator scratch_ms;
      StatAccumulator conditions;
      for (std::size_t i = 0; i < graphs_per_cell; ++i) {
        Rng rng(++seed);
        const Architecture arch = generate_random_architecture(rng);
        RandomCpgParams params;
        params.process_count = nodes;
        params.path_count = paths;
        const Cpg g = generate_random_cpg(arch, params, rng);
        const FlatGraph fg = FlatGraph::expand(g);
        conditions.add(static_cast<double>(g.conditions().size()));

        // Enumeration streams, but its cost is excluded from the
        // list-scheduling figure (the paper quotes them separately).
        // --sched tree chains one EngineHistory across the leaves (the
        // driver's guard-trie serial walk); --sched list runs each path
        // from scratch.
        std::vector<AltPath> alt;
        std::vector<PathSchedule> schedules;
        CoverCache cache;
        EngineHistory sched_chain;
        PathEnumerator en(g);
        double cell_sched_ms = 0.0;
        while (auto path = en.next()) {
          alt.push_back(std::move(*path));
          const auto t_sched = clock_type::now();
          EngineRequest req = make_path_request(
              fg, alt.back(), PriorityPolicy::kCriticalPath, nullptr,
              engine, &cache);
          if (tree_sched) {
            req.resume = EngineResume::kCheckpoint;
            req.history = &sched_chain;
          }
          EngineResult res = run_list_scheduler(fg, req, sched_ws);
          if (!res.feasible) {
            std::cerr << "ERROR: path unschedulable: " << res.reason << '\n';
            return 1;
          }
          sched_resumes += res.resumed ? 1 : 0;
          sched_resumed_steps += res.resumed_steps;
          schedules.push_back(std::move(res.schedule));
          cell_sched_ms += ms_since(t_sched);
        }
        sched_ms.add(cell_sched_ms);

        MergeOptions serial;
        serial.ready = engine;
        serial.execution = MergeExecution::kSerial;
        serial.resume = resume;
        auto t0 = clock_type::now();
        const MergeResult serial_result =
            merge_schedules(fg, alt, schedules, serial);
        merge_ms.add(ms_since(t0));
        merge_workspace += serial_result.workspace;
        if (!serial_result.ok) {
          all_identical = false;
          std::cerr << "ERROR: serial merge infeasible (nodes=" << nodes
                    << " paths=" << paths << " seed=" << seed
                    << "): " << serial_result.error << "\n";
        }

        if (compare) {
          MergeOptions audited = serial;
          audited.execution = MergeExecution::kSpeculative;
          t0 = clock_type::now();
          const MergeResult audited_result =
              merge_schedules(fg, alt, schedules, audited);
          audit.merge_ms += ms_since(t0);
          audit.hits += audited_result.stats.speculative_hits;
          audit.misses += audited_result.stats.speculative_misses;
          audit.adjustments += audited_result.stats.adjustments;
          if (!audited_result.ok) {
            all_identical = false;
            std::cerr << "ERROR: speculative merge infeasible (nodes="
                      << nodes << " paths=" << paths << " seed=" << seed
                      << "): " << audited_result.error << "\n";
          }
          if (serial_result.table != audited_result.table ||
              !same_merge_stats(serial_result.stats, audited_result.stats) ||
              !same_walk_counters(serial_result, audited_result) ||
              audited_result.stats.speculative_hits +
                      audited_result.stats.speculative_misses !=
                  audited_result.stats.adjustments) {
            all_identical = false;
            std::cerr << "ERROR: speculative merge diverged from the "
                         "serial reference (nodes="
                      << nodes << " paths=" << paths << " seed=" << seed
                      << ")\n";
          }
        }
        if (compare_resume) {
          MergeOptions scratch;
          scratch.ready = engine;
          scratch.execution = MergeExecution::kSerial;
          scratch.resume = EngineResume::kFromScratch;
          t0 = clock_type::now();
          const MergeResult scratch_result =
              merge_schedules(fg, alt, schedules, scratch);
          scratch_ms.add(ms_since(t0));
          if (!scratch_result.ok) {
            all_identical = false;
            std::cerr << "ERROR: from-scratch merge infeasible (nodes="
                      << nodes << " paths=" << paths << " seed=" << seed
                      << "): " << scratch_result.error << "\n";
          }
          if (serial_result.table != scratch_result.table ||
              !same_merge_stats(serial_result.stats, scratch_result.stats)) {
            all_identical = false;
            std::cerr << "ERROR: " << resume_name
                      << "-resume merge diverged from the from-scratch "
                         "reference (nodes="
                      << nodes << " paths=" << paths << " seed=" << seed
                      << ")\n";
          }
        }
      }
      mrow.push_back(format_double(merge_ms.mean(), 3));
      srow.push_back(format_double(sched_ms.mean(), 3));
      CellResult cell;
      cell.nodes = nodes;
      cell.paths = paths;
      cell.merge_serial_ms = merge_ms.mean();
      cell.sched_ms = sched_ms.mean();
      if (compare_resume) cell.merge_scratch_ms = scratch_ms.mean();
      cell.conditions_mean = conditions.mean();
      cells.push_back(cell);
      total_serial_ms += merge_ms.mean() * graphs_per_cell;
      if (compare_resume) {
        total_scratch_ms += scratch_ms.mean() * graphs_per_cell;
      }
      total_sched_ms += sched_ms.mean() * graphs_per_cell;
    }
    merge_time.add_row(mrow);
    sched_time.add_row(srow);
  }

  // With --json-out - the JSON owns stdout; the human report moves to
  // stderr (same convention as bench_batch_throughput).
  std::ostream& human =
      cli.get_string("json-out") == "-" ? std::cerr : std::cout;
  human << "=== E5: Fig. 6 reproduction (" << graphs_per_cell
        << " graphs per cell) ===\n\n";
  merge_time.render(human);
  human << '\n';
  sched_time.render(human);
  if (compare) {
    human << "\nlock-set audit (kSpeculative): " << audit.hits << " hits, "
          << audit.misses << " misses over " << audit.adjustments
          << " adjustments; total merge wall clock: serial "
          << format_double(total_serial_ms, 1) << " ms, audited "
          << format_double(audit.merge_ms, 1) << " ms\n";
    human << (all_identical
                  ? "tables and counters: identical across execution "
                    "modes\n"
                  : "tables or counters: DIVERGED — see errors above\n");
  }
  if (compare_resume) {
    human << "\nresume modes: serial merge " << resume_name << " "
          << format_double(total_serial_ms, 1) << " ms vs from-scratch "
          << format_double(total_scratch_ms, 1) << " ms, speedup "
          << format_double(total_scratch_ms /
                               std::max(total_serial_ms, 1e-9),
                           2)
          << "x\n";
    human << (all_identical
                  ? "tables and merge statistics: identical across resume "
                    "modes\n"
                  : "tables: DIVERGED — see errors above\n");
  }
  human << "\nengine workspace (serial merges): " << merge_workspace.runs
        << " runs, " << merge_workspace.reuse_hits << " buffer reuses, "
        << merge_workspace.resumes << " checkpoint resumes ("
        << merge_workspace.resumed_steps << " steps skipped), "
        << merge_workspace.full_reuses << " full reuses\n";
  if (tree_sched) {
    human << "per-path scheduling (guard-trie chain): " << sched_resumes
          << " prefix resumes (" << sched_resumed_steps
          << " steps skipped)\n";
  }

  const std::string json_path = cli.get_string("json-out");
  if (!json_path.empty()) {
    const std::string json =
        cells_to_json(cli, compare, compare_resume, graphs_per_cell, cells,
                      total_serial_ms, audit, total_scratch_ms,
                      total_sched_ms);
    if (!JsonWriter::write_output(json_path, json)) return 1;
  }
  const std::string baseline_path = cli.get_string("baseline");
  if (!baseline_path.empty() && std::ifstream(baseline_path).good()) {
    human << '\n';
    report_against_baseline(human, baseline_path, cli, graphs_per_cell,
                            total_sched_ms, total_serial_ms);
  }

  if ((compare || compare_resume) && !all_identical) return 1;
  human << "\npaper shape: merge time grows with the number of merged "
           "schedules (0.05s..0.25s\non a 1998 SPARCstation 20) and "
           "depends only weakly on the node count.\n";
  return 0;
} catch (const cps::ParseError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
