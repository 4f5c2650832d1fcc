// batch-paper and batch-deep: the offline uses of the program.
//
// batch-paper is the paper's §6 experiment mix run through
// run_batch_item on one shared ThreadPool, across items. batch-deep
// schedules balanced deep condition nests one graph at a time through
// schedule_cpg, with the pool used inside each item.
#include <algorithm>
#include <atomic>
#include <map>
#include <optional>

#include "cpg/builder.hpp"
#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "io/table_csv.hpp"
#include "pipeline.hpp"
#include "support/thread_pool.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Pool workers of both batch workloads. The calling thread takes part
/// in parallel_for and helps run nested tasks, so the workload keeps
/// kPoolWorkers + 1 runnable threads on a 4-core host.
constexpr std::size_t kPoolWorkers = 2;
/// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 5;
/// Bound on the passes over the item set one timed phase can make (the
/// result slots are allocated up front).
constexpr std::size_t kMaxPasses = 200;

/// One produced result, digested for the output check.
struct Produced {
  std::uint64_t key = 0;
  bool ok = false;
  std::string code;
  std::uint64_t json = 0;
  std::uint64_t csv = 0;
  double ms = 0.0;      ///< wall time of the call that produced it
  bool repeat = false;  ///< the run produced this key before
};

/// Tally of checked results.
struct Tally {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t expected_failures = 0;
  std::size_t mismatches = 0;
};

// ------------------------------------------------------------ batch-paper

struct PaperCell {
  std::size_t nodes;
  std::size_t paths;
  cps::TimeDistribution distribution;
};

/// The paper's §6 grid: {60, 80, 120} processes x {10, 12, 18, 24, 32}
/// alternative paths x {uniform, exponential} execution times.
std::vector<PaperCell> paper_cells() {
  std::vector<PaperCell> cells;
  for (std::size_t nodes : {60, 80, 120}) {
    for (std::size_t paths : {10, 12, 18, 24, 32}) {
      for (auto d : {cps::TimeDistribution::kUniform,
                     cps::TimeDistribution::kExponential}) {
        cells.push_back({nodes, paths, d});
      }
    }
  }
  return cells;
}

/// Key of the pinned known-defect item (see PaperMix).
constexpr std::uint64_t kDefectKey = std::uint64_t{1} << 32;

/// Seeded item k < size() - 1 belongs to cell k % 30, so any prefix of
/// the item order is a representative slice of the mix; graph k is drawn
/// from Rng(base_seed + k) on a random 1-ASIC, 1-11 PE, 1-8 bus
/// architecture (RandomArchParams defaults). The last item is pinned for
/// every seed: graph seed 1008 of the 120-process, 18-path, uniform cell,
/// whose merged table fails validation (requirement 2, "incoherent
/// table"). It stays in the data as an expected failure, so a fix of
/// that defect raises ok_frac.
struct PaperMix {
  std::vector<cps::BatchConfig> configs;  ///< one per cell
  cps::BatchConfig defect;
  std::size_t seeded = 0;

  PaperMix(std::uint64_t seed, std::size_t graphs_per_cell) {
    for (const PaperCell& cell : paper_cells()) {
      cps::BatchConfig c;
      c.base_seed = base_seed_of(seed);
      c.cpg.process_count = cell.nodes;
      c.cpg.path_count = cell.paths;
      c.cpg.distribution = cell.distribution;
      configs.push_back(c);
    }
    seeded = graphs_per_cell * configs.size();
    defect.base_seed = 1008;
    defect.cpg.process_count = 120;
    defect.cpg.path_count = 18;
  }
  std::size_t size() const { return seeded + 1; }
  /// Key of the i-th item of the (cyclic) item order.
  std::uint64_t key(std::size_t i) const {
    const std::size_t at = i % size();
    return at < seeded ? at : kDefectKey;
  }
  const cps::BatchConfig& config(std::uint64_t k) const {
    return k == kDefectKey ? defect : configs[k % configs.size()];
  }
  /// Index handed to run_batch_item: the graph seed is base_seed + index.
  static std::size_t index(std::uint64_t k) { return k == kDefectKey ? 0 : k; }
};

Produced run_paper_item(const PaperMix& mix, std::uint64_t k,
                        cps::ThreadPool* pool) {
  std::string csv;
  const auto t0 = Clock::now();
  const cps::BatchItem item = cps::run_batch_item(
      mix.config(k), PaperMix::index(k), pool, nullptr, &csv);
  const double ms = ms_between(t0, Clock::now());
  Produced p;
  p.ms = ms;
  p.key = k;
  p.ok = item.ok;
  p.code = cps::to_string(item.code);
  if (item.ok) {
    p.json = fnv1a(item_json(item));
    p.csv = fnv1a(csv);
  }
  return p;
}

Expected expected_of(const Produced& p) {
  Expected e;
  e.ok = p.ok;
  e.json = p.json;
  e.csv = p.csv;
  if (!p.ok) e.code = p.code;
  return e;
}

/// A graph of the mix, regenerated exactly as run_batch_item draws it.
cps::Cpg paper_graph(const PaperMix& mix, std::uint64_t k) {
  const cps::BatchConfig& c = mix.config(k);
  cps::Rng rng(c.base_seed + PaperMix::index(k));
  const cps::Architecture arch = cps::generate_random_architecture(rng, c.arch);
  return cps::generate_random_cpg(arch, c.cpg, rng);
}

// ------------------------------------------------------------- batch-deep

/// A balanced deep condition nest: `regions` sequential regions, each a
/// disjunction whose two arms share their durations and join in a
/// conjunction, on two processors plus a broadcast bus. Every sibling
/// pair of leaves shares its guard prefix and its priorities, which is
/// the regime where guard-trie prefix resumes fire.
cps::Cpg deep_nest_cpg(std::size_t nodes, std::size_t paths, SplitMix& rng) {
  std::size_t regions = 1;
  while ((std::size_t{1} << regions) < paths && regions < 12) ++regions;
  cps::Architecture arch;
  arch.add_processor("cpu0");
  arch.add_processor("cpu1");
  arch.add_bus("bus");
  arch.set_cond_broadcast_time(1);
  cps::CpgBuilder b(arch);
  const std::size_t per_arm = std::max<std::size_t>(
      1, (nodes > 2 * regions ? nodes - 2 * regions : regions) /
             (2 * regions));
  std::optional<cps::ProcessId> prev;
  for (std::size_t i = 0; i < regions; ++i) {
    const std::string n = std::to_string(i);
    const auto pe = static_cast<cps::PeId>(i % 2);
    const cps::CondId c = b.add_condition("C" + n);
    const cps::ProcessId d =
        b.add_process("D" + n, pe, static_cast<cps::Time>(1 + rng.below(6)));
    if (prev) b.add_edge(*prev, d, /*comm_time=*/2);
    std::vector<cps::Time> durations(per_arm);
    for (cps::Time& t : durations) {
      t = static_cast<cps::Time>(1 + rng.below(9));
    }
    const cps::ProcessId join = b.add_process("J" + n, pe, 1);
    for (bool arm : {true, false}) {
      cps::ProcessId head = d;
      for (std::size_t k = 0; k < per_arm; ++k) {
        const cps::ProcessId p = b.add_process(
            (arm ? "T" : "F") + n + "_" + std::to_string(k), pe,
            durations[k]);
        if (k == 0) {
          b.add_cond_edge(head, p, cps::Literal{c, arm});
        } else {
          b.add_edge(head, p);
        }
        head = p;
      }
      b.add_edge(head, join);
    }
    b.mark_conjunction(join);
    prev = join;
  }
  return b.build();
}

/// Subtree decomposition pinned for batch-deep items, so every counter
/// is a pure function of the graph whatever the pool size.
constexpr std::size_t kDeepFrontier = 4;

/// Graph j of the deep set: 240/280/320 processes, 64 or 128 leaves.
struct DeepSet {
  std::vector<cps::Cpg> graphs;

  DeepSet(std::uint64_t seed, std::size_t count) {
    for (std::size_t j = 0; j < count; ++j) {
      SplitMix rng(base_seed_of(seed) + j);
      graphs.push_back(deep_nest_cpg(240 + 40 * (j % 3),
                                     j % 2 == 0 ? 64 : 128, rng));
    }
  }
};

cps::CoSynthesisOptions deep_options(cps::ThreadPool* pool) {
  cps::CoSynthesisOptions o;
  o.schedule_pool = pool;
  o.subtree_frontier = kDeepFrontier;
  o.keep_paths = false;
  return o;
}

Produced digest_result(std::uint64_t key, const cps::CoSynthesisResult& r) {
  Produced p;
  p.key = key;
  p.ok = true;
  p.code = cps::to_string(r.status);
  p.json = fnv1a(result_json(r));
  p.csv = fnv1a(cps::table_csv_string(r.table));
  return p;
}

Produced run_deep_item(const cps::Cpg& g, std::uint64_t key,
                       const cps::CoSynthesisOptions& options) {
  const auto t0 = Clock::now();
  try {
    const cps::CoSynthesisResult r = cps::schedule_cpg(g, options);
    const double ms = ms_between(t0, Clock::now());
    Produced p = digest_result(key, r);
    p.ms = ms;
    return p;
  } catch (const std::exception& e) {
    Produced p;
    p.key = key;
    p.code = error_code_of(e);
    return p;
  }
}

// ------------------------------------------------------------- checking

/// Check every produced result. An expected failure that now succeeds
/// is accepted only when the stage-by-stage run validates the graph and
/// renders the same table CSV.
Tally check_all(const std::vector<Produced>& produced,
                Expectations& expectations,
                const std::function<std::optional<std::uint64_t>(
                    std::uint64_t)>& validated_csv,
                RunResult& out) {
  Tally t;
  for (const Produced& p : produced) {
    ++t.attempted;
    const Expected& e = expectations.get(p.key);
    Verdict v = judge(e, p.ok, p.code, p.json, p.csv);
    if (v == Verdict::kMismatch && !e.ok && p.ok &&
        is_known_defect_code(e.code)) {
      const auto csv = validated_csv(p.key);
      if (csv && *csv == p.csv) v = Verdict::kOk;
    }
    switch (v) {
      case Verdict::kOk: ++t.ok; break;
      case Verdict::kExpectedFailure: ++t.expected_failures; break;
      case Verdict::kMismatch:
        if (t.mismatches++ < 5) {
          out.note("mismatch: item " + std::to_string(p.key) + " ok=" +
                   (p.ok ? "true" : "false") + " code=" + p.code);
        }
        break;
    }
  }
  return t;
}

/// Check the warm-up and timed results and fill the end-to-end metrics.
/// Warm-up results count as attempts and must pass their checks, but only
/// the timed phase feeds the metrics.
void fill_end_to_end(RunResult& out, const std::vector<Produced>& warm,
                     const std::vector<Produced>& timed,
                     Expectations& expectations,
                     const std::function<std::optional<std::uint64_t>(
                         std::uint64_t)>& validated_csv,
                     double setup_s, double wall_s, double cpu_s,
                     double rss_mb) {
  const Tally w = check_all(warm, expectations, validated_csv, out);
  const Tally t = check_all(timed, expectations, validated_csv, out);
  out.attempted = w.attempted + t.attempted;
  out.failed = w.mismatches + t.mismatches;
  out.expected_failures = w.expected_failures + t.expected_failures;
  out.correct = out.failed == 0;
  out.add("setup_s", setup_s, "s");
  out.add("graphs_per_s", static_cast<double>(t.ok) / wall_s, "1/s");
  out.add("cpu_ms_per_graph",
          1000.0 * cpu_s / static_cast<double>(std::max<std::size_t>(
                               t.attempted, 1)),
          "ms");
  out.add("peak_rss_mb", rss_mb, "MiB");
  out.add("ok_frac",
          static_cast<double>(t.ok) /
              static_cast<double>(std::max<std::size_t>(t.attempted, 1)),
          "fraction");
  // Item latency. Every batch item runs the whole pipeline (the cache is
  // off), so "cold" is every item and "hit" the items whose key this run
  // produced before: on the batch workloads they are recomputed, the
  // case that bypasses cache work.
  std::vector<double> cold;
  std::vector<double> hit;
  for (const Produced& p : timed) {
    cold.push_back(p.ms);
    if (p.repeat) hit.push_back(p.ms);
  }
  out.add("cold_p50_ms", median(cold), "ms");
  out.add("hit_p50_ms", median(hit), "ms");
  out.note("samples: cold=" + std::to_string(cold.size()) +
           " hit=" + std::to_string(hit.size()));
  out.note("timed results: attempted=" + std::to_string(t.attempted) +
           " ok=" + std::to_string(t.ok) +
           " mismatches=" + std::to_string(t.mismatches) + "; expectations " +
           (expectations.golden() ? "golden" : "oracle") + ", oracle items " +
           std::to_string(expectations.oracle_calls()));
}

/// Run `body(i)` over i = 0, 1, 2, ... on the pool until `seconds` have
/// passed (or max_items ran); returns the results and the phase wall
/// time. Items already started when time is up run to completion and
/// count. Each thread appends to its own result list.
std::vector<Produced> timed_parallel(
    cps::ThreadPool& pool, double seconds, std::size_t max_items,
    const std::function<Produced(std::size_t)>& body, double* wall_s) {
  // Reserved up front, so no reallocation inside the phase moves
  // peak_rss_mb.
  std::vector<std::vector<Produced>> per_thread(pool.thread_count() + 1);
  for (auto& list : per_thread) list.reserve(max_items / per_thread.size());
  std::atomic<bool> stop{false};
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  pool.parallel_for(
      max_items,
      [&](std::size_t i) {
        if (stop.load(std::memory_order_relaxed)) return;
        Produced p = body(i);
        const std::size_t w = pool.worker_index();
        per_thread[w == cps::ThreadPool::kNotAWorker ? pool.thread_count() : w]
            .push_back(std::move(p));
        if (Clock::now() >= end) stop.store(true, std::memory_order_relaxed);
      },
      cps::TaskPriority::kLow);
  *wall_s = s_between(t0, Clock::now());
  std::vector<Produced> out;
  for (auto& list : per_thread) {
    for (auto& p : list) out.push_back(std::move(p));
  }
  return out;
}

std::size_t paper_graphs_per_cell(int scale) { return scale >= 1 ? 36 : 1; }
std::size_t deep_set_size(int scale) { return scale >= 1 ? 36 : 2; }

/// Per-layer values every batch workload derives the same way from the
/// traced spans and the production counters.
struct LayerAccumulator {
  double items = 0;
  double unattributed_num = 0;
  double unattributed_den = 0;
  double engine_runs = 0;
  double resumes = 0;
  double resumed_steps = 0;
  double workspace_runs = 0;
  double workspace_resumes = 0;
  double adjustments = 0;
  double locks = 0;
  double conflicts = 0;
  double spec_hits = 0;
  double spec_misses = 0;
  double cover_hits = 0;
  double cover_lookups = 0;
  double paths = 0;
  double csv_bytes = 0;

  void add(const cps::CoSynthesisResult& r, double wall_ms) {
    ++items;
    const cps::StageTimings& t = r.timings;
    unattributed_num += wall_ms - (t.expand_ms + t.enumerate_ms +
                                   t.schedule_ms + t.merge_ms +
                                   t.validate_ms);
    unattributed_den += wall_ms;
    engine_runs += static_cast<double>(r.workspace.runs +
                                       r.merge_workspace.runs);
    resumes += static_cast<double>(r.tree.prefix_resumes);
    resumed_steps += static_cast<double>(r.tree.resumed_steps);
    workspace_runs += static_cast<double>(r.workspace.runs);
    workspace_resumes += static_cast<double>(r.workspace.resumes);
    adjustments += static_cast<double>(r.merge_stats.adjustments);
    locks += static_cast<double>(r.merge_stats.locks);
    conflicts += static_cast<double>(r.merge_stats.conflicts);
    spec_hits += static_cast<double>(r.merge_stats.speculative_hits);
    spec_misses += static_cast<double>(r.merge_stats.speculative_misses);
    cover_hits += static_cast<double>(r.cover_cache.hits);
    cover_lookups +=
        static_cast<double>(r.cover_cache.hits + r.cover_cache.misses);
    paths += static_cast<double>(r.path_count);
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Fill the per-layer metrics of a traced batch run; notes give each
/// ratio with its base.
void fill_batch_layers(RunResult& out, const Tracer& tracer,
                       const LayerAccumulator& a, const cps::PoolStats& pool,
                       double traced_production_ms, double untraced_ms) {
  const auto totals = tracer.totals();
  const auto mean_self = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.self_ms / static_cast<double>(it->second.count);
  };
  const double n = std::max(a.items, 1.0);
  LayerValues v;
  v["gen.generate_ms"] = mean_self("gen.generate");
  v["cpg.expand_ms"] = mean_self("cpg.expand");
  v["cpg.enumerate_ms"] = mean_self("cpg.enumerate");
  v["cpg.paths"] = a.paths;
  v["sched.engine_ms"] = mean_self("sched.engine");
  v["sched.engine_runs"] = a.engine_runs;
  v["sched.tree.prefix_resumes"] = a.resumes;
  v["sched.tree.resumed_steps"] = a.resumed_steps;
  v["sched.workspace.resume_ratio"] = ratio(a.workspace_resumes,
                                            a.workspace_runs);
  v["sched.merge_ms"] = mean_self("sched.merge");
  v["sched.merge.adjustments"] = a.adjustments;
  v["sched.merge.locks"] = a.locks;
  v["sched.merge.conflicts"] = a.conflicts;
  v["sched.merge.spec_hit_ratio"] =
      ratio(a.spec_hits, a.spec_hits + a.spec_misses);
  v["sched.validate_ms"] = mean_self("sched.validate");
  v["sched.delay_ms"] = mean_self("sched.delay");
  v["sched.driver.unattributed_frac"] =
      ratio(a.unattributed_num, a.unattributed_den);
  v["cond.cover_cache.hit_ratio"] = ratio(a.cover_hits, a.cover_lookups);
  v["io.table_csv_ms"] = mean_self("io.table_csv");
  v["io.table_csv_bytes"] = a.csv_bytes / n;
  v["support.pool.executed"] = static_cast<double>(pool.executed);
  v["support.pool.steals"] = static_cast<double>(pool.steals);
  v["support.pool.help_runs"] = static_cast<double>(pool.help_runs);
  v["trace.coverage"] = root_coverage(tracer.spans());
  v["trace.overhead_frac"] =
      untraced_ms > 0.0 ? traced_production_ms / untraced_ms - 1.0 : 0.0;
  emit_layers(out, v);
  out.note("bases: items=" + std::to_string(static_cast<long>(a.items)) +
           " paths=" + std::to_string(static_cast<long>(a.paths)) +
           " per-path engine runs=" +
           std::to_string(static_cast<long>(a.workspace_runs)) +
           " all engine runs=" +
           std::to_string(static_cast<long>(a.engine_runs)) +
           " speculative hits+misses=" +
           std::to_string(static_cast<long>(a.spec_hits + a.spec_misses)) +
           " cover-cache lookups=" +
           std::to_string(static_cast<long>(a.cover_lookups)) +
           " schedule_cpg wall ms=" + std::to_string(a.unattributed_den) +
           " untraced production ms=" + std::to_string(untraced_ms));
}

/// The traced pass of a batch workload: every item once through
/// schedule_cpg and the table CSV with spans, then again stage by stage;
/// the decomposed table must equal the production table byte for byte.
struct TracedPass {
  Tracer tracer;
  LayerAccumulator acc;
  double production_ms = 0.0;  ///< generation + schedule_cpg + CSV
  std::size_t decomposed_mismatches = 0;

  /// Run one item under its open root span `item`, whose production part
  /// began at `start_ms` (tracer time). `json_of` renders the item JSON.
  Produced run(std::uint64_t key, std::int64_t item, double start_ms,
               const cps::Cpg& g, const cps::CoSynthesisOptions& o,
               const std::function<std::string(const cps::CoSynthesisResult&)>&
                   json_of) {
    Produced p;
    p.key = key;
    std::optional<cps::CoSynthesisResult> r;
    double wall = 0.0;
    {
      const ScopedSpan s(&tracer, "sched.schedule_cpg", item, key);
      const double t0 = tracer.now_ms();
      try {
        r.emplace(cps::schedule_cpg(g, o));
      } catch (const std::exception& e) {
        p.code = error_code_of(e);
      }
      wall = tracer.now_ms() - t0;
    }
    std::string csv;
    if (r) {
      {
        const ScopedSpan s(&tracer, "io.table_csv", item, key);
        csv = cps::table_csv_string(r->table);
      }
      acc.add(*r, wall);
      acc.csv_bytes += static_cast<double>(csv.size());
      p.ok = true;
      p.code = cps::to_string(r->status);
      p.json = fnv1a(json_of(*r));
      p.csv = fnv1a(csv);
    }
    production_ms += tracer.now_ms() - start_ms;
    cps::MergeOptions merge = o.merge;
    merge.pool = o.schedule_pool;
    const ScopedSpan d(&tracer, "decomposed", item, key);
    const Decomposed dec = decompose(g, merge, &tracer, d.index(), key);
    if (dec.valid != p.ok || dec.csv != csv) ++decomposed_mismatches;
    return p;
  }

  /// Check everything the traced run produced and fill the per-layer
  /// metrics.
  void finish(const RunOptions& options,
              const std::vector<Produced>& produced,
              Expectations& expectations,
              const std::function<std::optional<std::uint64_t>(
                  std::uint64_t)>& validated_csv,
              const cps::PoolStats& pool, double untraced_ms,
              RunResult& out) {
    const Tally t = check_all(produced, expectations, validated_csv, out);
    out.attempted = t.attempted;
    out.failed = t.mismatches + decomposed_mismatches;
    out.expected_failures = t.expected_failures;
    out.correct = out.failed == 0;
    out.note("decomposed-vs-production table mismatches: " +
             std::to_string(decomposed_mismatches));
    fill_batch_layers(out, tracer, acc, pool, production_ms, untraced_ms);
    dump_spans(options, tracer, out);
  }
};

}  // namespace

// --------------------------------------------------------------------------

RunResult run_batch_paper(const RunOptions& options) {
  RunResult out;
  const PaperMix mix(options.seed, paper_graphs_per_cell(options.scale));
  const std::size_t set = mix.size();
  std::optional<cps::ThreadPool> pool;
  // Oracle results for a non-default seed, computed after the timed
  // phase across items on the pool (see prefill below).
  std::map<std::uint64_t, Expected> prefilled;
  Expectations expectations(options, [&](std::uint64_t k) {
    const auto it = prefilled.find(k);
    return it != prefilled.end() ? it->second
                                 : expected_of(run_paper_item(mix, k, &*pool));
  });
  const auto prefill = [&] {
    if (expectations.golden()) return;
    std::vector<Expected> computed(set);
    pool->parallel_for(
        set,
        [&](std::size_t i) {
          computed[i] = expected_of(run_paper_item(mix, mix.key(i), &*pool));
        },
        cps::TaskPriority::kLow);
    for (std::size_t i = 0; i < set; ++i) prefilled[mix.key(i)] = computed[i];
  };
  const auto validated_csv =
      [&](std::uint64_t k) -> std::optional<std::uint64_t> {
    const cps::Cpg g = paper_graph(mix, k);
    cps::MergeOptions merge;
    merge.pool = &*pool;
    const Decomposed d = decompose(g, merge, nullptr, -1, k);
    if (!d.valid) return std::nullopt;
    return fnv1a(d.csv);
  };

  if (options.write_golden) {
    pool.emplace(kPoolWorkers);
    std::vector<std::uint64_t> keys(set);
    for (std::size_t i = 0; i < set; ++i) keys[i] = mix.key(i);
    out.correct = write_golden_file(options, keys, [&](std::uint64_t k) {
      return expected_of(run_paper_item(mix, k, &*pool));
    });
    out.attempted = set;
    return out;
  }
  if (!expectations.usable()) {
    out.correct = false;
    out.note("missing golden file " + golden_path(options));
    return out;
  }

  // Set-up: a fresh pool plus two warm-up items per cell, several times.
  std::vector<Produced> produced;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    const auto t0 = Clock::now();
    pool.reset();
    pool.emplace(kPoolWorkers);
    std::vector<Produced> warm(std::min(set, 2 * mix.configs.size()));
    pool->parallel_for(
        warm.size(),
        [&](std::size_t k) { warm[k] = run_paper_item(mix, k, &*pool); },
        cps::TaskPriority::kLow);
    setups.push_back(s_between(t0, Clock::now()));
    produced.insert(produced.end(), warm.begin(), warm.end());
  }
  const double setup_s = median(setups);

  if (!options.trace) {
    const double cpu0 = cpu_seconds();
    double wall_s = 0.0;
    std::vector<Produced> timed = timed_parallel(
        *pool, options.seconds, set * kMaxPasses,
        [&](std::size_t i) {
          Produced p = run_paper_item(mix, mix.key(i), &*pool);
          p.repeat = i >= mix.size();
          return p;
        },
        &wall_s);
    const double cpu_s = cpu_seconds() - cpu0;
    const double rss = peak_rss_mb();
    prefill();
    fill_end_to_end(out, produced, timed, expectations, validated_csv,
                    setup_s, wall_s, cpu_s, rss);
    return out;
  }

  // Traced run. Reference passes first (no spans): one across items, for
  // the pool counters, and one item by item, the base of the tracing
  // overhead. Then every item once through gen + schedule_cpg + CSV with
  // spans, and again stage by stage; the two tables must be equal.
  const cps::PoolStats pool0 = pool->stats();
  {
    std::vector<Produced> pass(set);
    pool->parallel_for(
        set,
        [&](std::size_t i) {
          pass[i] = run_paper_item(mix, mix.key(i), &*pool);
        },
        cps::TaskPriority::kLow);
    produced.insert(produced.end(), pass.begin(), pass.end());
  }
  const cps::PoolStats pool_delta = pool->stats().delta_since(pool0);
  double untraced_ms = 0.0;
  for (std::size_t i = 0; i < set; ++i) {
    const auto t0 = Clock::now();
    produced.push_back(run_paper_item(mix, mix.key(i), &*pool));
    untraced_ms += ms_between(t0, Clock::now());
  }

  TracedPass traced;
  for (std::size_t i = 0; i < set; ++i) {
    const std::uint64_t k = mix.key(i);
    const cps::BatchConfig& c = mix.config(k);
    const ScopedSpan item(&traced.tracer, "item", -1, k);
    const double start = traced.tracer.now_ms();
    std::optional<cps::Cpg> g;
    {
      const ScopedSpan s(&traced.tracer, "gen.generate", item.index(), k);
      g.emplace(paper_graph(mix, k));
    }
    // The options run_batch_item applies to every item (its subtree
    // frontier is kBatchSubtreeFrontier in sched/batch_driver.cpp).
    cps::CoSynthesisOptions o = c.synthesis;
    o.schedule_pool = &*pool;
    o.keep_paths = false;
    o.subtree_frontier = 4;
    // The item JSON run_batch_item would build from this result.
    const auto json_of = [&](const cps::CoSynthesisResult& r) {
      cps::BatchItem bi;
      bi.index = PaperMix::index(k);
      bi.seed = c.base_seed + bi.index;
      bi.ok = true;
      bi.code = r.status;
      bi.attempts = 1;
      bi.coverage = r.coverage;
      bi.total_leaves = r.total_leaves;
      bi.processes = g->process_count();
      bi.tasks = r.flat->task_count();
      bi.conditions = g->conditions().size();
      bi.paths = r.path_count;
      bi.table_entries = r.table.entry_count();
      bi.delta_m = r.delays.delta_m;
      bi.delta_max = r.delays.delta_max;
      bi.increase_percent = r.delays.increase_percent;
      bi.merge = r.merge_stats;
      return item_json(bi);
    };
    produced.push_back(traced.run(k, item.index(), start, *g, o, json_of));
  }
  prefill();
  traced.finish(options, produced, expectations, validated_csv, pool_delta,
                untraced_ms, out);
  return out;
}

RunResult run_batch_deep(const RunOptions& options) {
  RunResult out;
  const DeepSet set(options.seed, deep_set_size(options.scale));
  const std::size_t n = set.graphs.size();
  std::optional<cps::ThreadPool> pool;
  // Oracle: the same graph with the subtree jobs run inline and the
  // merge's speculation on the pool — another execution of one
  // decomposition, which must give the same bytes.
  const auto oracle = [&](std::uint64_t j) {
    cps::CoSynthesisOptions o = deep_options(nullptr);
    o.merge.pool = &*pool;
    return expected_of(run_deep_item(set.graphs[j], j, o));
  };
  Expectations expectations(options, oracle);
  const auto validated_csv =
      [&](std::uint64_t j) -> std::optional<std::uint64_t> {
    cps::MergeOptions merge;
    merge.pool = &*pool;
    const Decomposed d = decompose(set.graphs[j], merge, nullptr, -1, j);
    if (!d.valid) return std::nullopt;
    return fnv1a(d.csv);
  };

  if (options.write_golden) {
    pool.emplace(kPoolWorkers);
    std::vector<std::uint64_t> keys(n);
    for (std::size_t j = 0; j < n; ++j) keys[j] = j;
    out.correct = write_golden_file(options, keys, oracle);
    out.attempted = n;
    return out;
  }
  if (!expectations.usable()) {
    out.correct = false;
    out.note("missing golden file " + golden_path(options));
    return out;
  }

  // Set-up: build the graph set and a fresh pool, then co-synthesize the
  // first four graphs once; several times.
  std::vector<Produced> produced;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    const auto t0 = Clock::now();
    const DeepSet fresh(options.seed, n);
    pool.reset();
    pool.emplace(kPoolWorkers);
    for (std::size_t j = 0; j < std::min<std::size_t>(4, n); ++j) {
      produced.push_back(
          run_deep_item(fresh.graphs[j], j, deep_options(&*pool)));
    }
    setups.push_back(s_between(t0, Clock::now()));
  }
  const double setup_s = median(setups);

  if (!options.trace) {
    const double cpu0 = cpu_seconds();
    std::vector<Produced> timed;
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(options.seconds));
    for (std::size_t i = 0; Clock::now() < end; ++i) {
      timed.push_back(
          run_deep_item(set.graphs[i % n], i % n, deep_options(&*pool)));
      timed.back().repeat = i >= n;
    }
    const double wall_s = s_between(t0, Clock::now());
    const double cpu_s = cpu_seconds() - cpu0;
    const double rss = peak_rss_mb();
    fill_end_to_end(out, produced, timed, expectations, validated_csv,
                    setup_s, wall_s, cpu_s, rss);
    return out;
  }

  // Traced run: an untraced reference pass (pool counters, overhead
  // base), then every graph with spans through schedule_cpg and again
  // stage by stage.
  const cps::PoolStats pool0 = pool->stats();
  double untraced_ms = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const auto t0 = Clock::now();
    produced.push_back(run_deep_item(set.graphs[j], j, deep_options(&*pool)));
    untraced_ms += ms_between(t0, Clock::now());
  }
  const cps::PoolStats pool_delta = pool->stats().delta_since(pool0);

  TracedPass traced;
  for (std::size_t j = 0; j < n; ++j) {
    const ScopedSpan item(&traced.tracer, "item", -1, j);
    produced.push_back(traced.run(j, item.index(), traced.tracer.now_ms(),
                                  set.graphs[j], deep_options(&*pool),
                                  result_json));
  }
  traced.finish(options, produced, expectations, validated_csv, pool_delta,
                untraced_ms, out);
  return out;
}

}  // namespace perfbench
