// ScheduleCache (content-addressed, with a persistent tier): cache-on
// runs are byte-identical to cache-off runs at every thread count, repeat
// runs replay from memory and from the persistent store, corrupt store
// entries degrade to recomputes, and digest collisions are impossible to
// act on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "sched/batch_driver.hpp"
#include "sched/schedule_cache.hpp"
#include "support/json.hpp"

namespace {

using namespace cps;
namespace fs = std::filesystem;

BatchConfig small_config() {
  BatchConfig config;
  config.count = 6;
  config.base_seed = 17;
  config.cpg.process_count = 20;
  config.cpg.path_count = 4;
  return config;
}

BatchJsonOptions deterministic_json() {
  BatchJsonOptions options;
  options.include_timing = false;
  return options;
}

std::string run_json(BatchConfig config, std::size_t threads,
                     ScheduleCache* cache) {
  config.threads = threads;
  config.cache = cache;
  return batch_result_to_json(run_batch(config), deterministic_json());
}

/// Unique temp directory removed on scope exit.
struct TempDir {
  TempDir() {
    path = fs::temp_directory_path() /
           ("cps_sched_cache_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

TEST(ScheduleCache, CacheOnIsByteIdenticalToCacheOffAtEveryThreadCount) {
  const BatchConfig config = small_config();
  const std::string oracle = run_json(config, 1, nullptr);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(run_json(config, threads, nullptr), oracle)
        << "cache-off, threads=" << threads;
    // Fresh cache (first, cold run) ...
    ScheduleCache cold;
    EXPECT_EQ(run_json(config, threads, &cold), oracle)
        << "cold cache, threads=" << threads;
    // ... and a warm cache replaying every item.
    ScheduleCache warm;
    run_json(config, 1, &warm);
    EXPECT_EQ(run_json(config, threads, &warm), oracle)
        << "warm cache, threads=" << threads;
  }
}

TEST(ScheduleCache, SecondRunReplaysEveryItemFromTheExactTier) {
  const BatchConfig config = small_config();
  ScheduleCache cache;
  const std::string first = run_json(config, 2, &cache);
  const ScheduleCacheStats after_first = cache.stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.misses, config.count);
  EXPECT_EQ(after_first.insertions, config.count);

  const std::string second = run_json(config, 2, &cache);
  EXPECT_EQ(second, first);
  const ScheduleCacheStats after_second = cache.stats();
  EXPECT_EQ(after_second.hits, config.count);
  EXPECT_EQ(after_second.misses, config.count);  // unchanged
}

TEST(ScheduleCache, ResultAffectingOptionChangesMissTheExactTier) {
  BatchConfig config = small_config();
  ScheduleCache cache;
  run_json(config, 1, &cache);
  // Same graphs, different result-affecting option: must not replay.
  config.synthesis.merge.ready = ReadySelection::kLinearScan;
  run_json(config, 1, &cache);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().insertions, 2 * config.count);
}

TEST(ScheduleCache, WarmStoreSurvivesARestart) {
  const BatchConfig config = small_config();
  TempDir dir;
  ScheduleCacheOptions options;
  options.store_dir = dir.path.string();

  std::string first;
  {
    ScheduleCache cache(options);
    first = run_json(config, 2, &cache);
    EXPECT_EQ(cache.stats().insertions, config.count);
  }
  // "Restart": a fresh instance with empty memory over the same store.
  ScheduleCache reopened(options);
  const std::string second = run_json(config, 2, &reopened);
  EXPECT_EQ(second, first);
  const ScheduleCacheStats stats = reopened.stats();
  EXPECT_EQ(stats.hits, config.count);
  EXPECT_EQ(stats.store_hits, config.count);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(ScheduleCache, CorruptStoreEntriesDegradeToRecomputes) {
  const BatchConfig config = small_config();
  TempDir dir;
  ScheduleCacheOptions options;
  options.store_dir = dir.path.string();
  std::string first;
  {
    ScheduleCache cache(options);
    first = run_json(config, 1, &cache);
  }
  // Flip one byte in every store entry.
  std::size_t mutilated = 0;
  for (const auto& shard : fs::directory_iterator(dir.path)) {
    if (!shard.is_directory()) continue;
    for (const auto& entry : fs::directory_iterator(shard.path())) {
      std::fstream f(entry.path(),
                     std::ios::in | std::ios::out | std::ios::binary);
      char c = 0;
      f.seekg(-1, std::ios::end);
      f.get(c);
      f.seekp(-1, std::ios::end);
      f.put(static_cast<char>(c ^ 0x5a));
      ++mutilated;
    }
  }
  ASSERT_EQ(mutilated, config.count);

  ScheduleCache reopened(options);
  const std::string second = run_json(config, 1, &reopened);
  EXPECT_EQ(second, first);  // recomputed, not failed
  const ScheduleCacheStats stats = reopened.stats();
  EXPECT_EQ(stats.store_errors, config.count);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.insertions, config.count);  // repaired by write-through

  // The re-inserted entries are valid again: one more restart replays.
  ScheduleCache repaired(options);
  EXPECT_EQ(run_json(config, 1, &repaired), first);
  EXPECT_EQ(repaired.stats().store_hits, config.count);
}

TEST(ScheduleCache, DigestCollisionsDegradeToMisses) {
  ScheduleCache cache;
  const std::string key_a = "key encoding A";
  const std::string key_b = "key encoding B (same digest, by fiat)";
  const Digest128 digest = digest_of(key_a);
  cache.insert(digest, key_a, "payload A");

  // A lookup with the same digest but different key bytes must MISS —
  // the full key encoding is compared, the digest is only an index.
  std::string payload;
  EXPECT_FALSE(cache.lookup(digest, key_b, &payload));
  EXPECT_TRUE(cache.lookup(digest, key_a, &payload));
  EXPECT_EQ(payload, "payload A");
}

TEST(ScheduleCache, CsvIsReplayedByteForByteOnExactHits) {
  const BatchConfig base = small_config();
  BatchConfig config = base;
  ScheduleCache cache;
  config.cache = &cache;

  std::string cold_csv;
  const BatchItem cold =
      run_batch_item(config, 2, nullptr, nullptr, &cold_csv);
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_FALSE(cold_csv.empty());

  std::string warm_csv;
  const BatchItem warm =
      run_batch_item(config, 2, nullptr, nullptr, &warm_csv);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm_csv, cold_csv);
  EXPECT_EQ(cache.stats().hits, 1u);

  // And the cache-off CSV is the same bytes (the recorded CSV is not a
  // variant rendering).
  BatchConfig off = base;
  std::string off_csv;
  const BatchItem plain = run_batch_item(off, 2, nullptr, nullptr, &off_csv);
  ASSERT_TRUE(plain.ok);
  EXPECT_EQ(off_csv, cold_csv);
  EXPECT_EQ(warm.table_entries, plain.table_entries);
  EXPECT_EQ(warm.delta_m, plain.delta_m);
}

TEST(ScheduleCache, SharedCacheIsThreadSafeUnderConcurrentBatches) {
  // Concurrent batches over the SAME items race their inserts: whether a
  // given item replays or computes cold is a legitimate race, but a
  // replay carries exactly the bytes a cold run produces (counters
  // included), so every output must match the cache-off oracle.
  BatchConfig config = small_config();
  ScheduleCache cache;
  const auto shared_run = [&](ScheduleCache* c) {
    BatchConfig run = config;
    run.threads = 2;
    run.cache = c;
    return batch_result_to_json(run_batch(run), deterministic_json());
  };
  const std::string oracle = shared_run(nullptr);
  std::vector<std::string> outputs(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < outputs.size(); ++t) {
    threads.emplace_back([&, t] { outputs[t] = shared_run(&cache); });
  }
  for (auto& t : threads) t.join();
  for (const std::string& out : outputs) EXPECT_EQ(out, oracle);
  // Every item was either computed-and-inserted or replayed; nothing
  // was lost or double-counted past the request total.
  const ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, outputs.size() * config.count);
}

TEST(ScheduleCache, InMemoryEvictionResetsTheTierDeterministically) {
  ScheduleCacheOptions options;
  options.max_entries = 2;
  ScheduleCache cache;  // default: large bound, no evictions below
  ScheduleCache bounded(options);
  for (int i = 0; i < 5; ++i) {
    const std::string key = "key " + std::to_string(i);
    bounded.insert(digest_of(key), key, "payload");
  }
  // Crossing the bound drops the whole tier (CoverCache idiom): never
  // more than max_entries resident, eviction counter advanced.
  const ScheduleCacheStats stats = bounded.stats();
  EXPECT_LE(stats.entries, 2u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.insertions, 5u);
}

}  // namespace
