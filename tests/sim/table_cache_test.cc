// TableCache: status reason codes, LRU pruning under --cache-max-bytes, and the
// observability mirror (events + counters match the returned statuses).

#include "src/sim/table_cache.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/obs/jsonl.h"
#include "src/obs/metrics.h"
#include "src/obs/observer.h"

namespace jockey {
namespace {

namespace fs = std::filesystem;

CompletionTable SmallTable(int buckets) {
  CompletionTable table({10, 50}, buckets);
  for (int b = 0; b <= buckets; ++b) {
    double p = static_cast<double>(b) / buckets;
    table.AddSample(p, 0, 100.0 * (1.0 - p));
    table.AddSample(p, 1, 40.0 * (1.0 - p));
  }
  table.Freeze();
  return table;
}

class TableCacheTest : public testing::Test {
 protected:
  // ctest runs each test as its own process, in parallel under -j: a directory
  // per test name and pid keeps one test's SetUp/TearDown off another's entries.
  void SetUp() override {
    dir_ = testing::TempDir() + "table_cache_status_test_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
           std::to_string(::getpid());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(TableCacheTest, DisabledCacheReportsDisabled) {
  TableCache cache("");
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.Load(1).status.code, CacheCode::kDisabled);
  EXPECT_EQ(cache.Store(1, SmallTable(8)).code, CacheCode::kDisabled);
}

TEST_F(TableCacheTest, MissThenStoreThenHit) {
  TableCache cache(dir_);
  TableCache::LoadResult miss = cache.Load(42);
  EXPECT_EQ(miss.status.code, CacheCode::kMiss);
  EXPECT_FALSE(miss.status.ok());
  EXPECT_FALSE(miss.table.has_value());

  CacheStatus stored = cache.Store(42, SmallTable(8));
  EXPECT_EQ(stored.code, CacheCode::kStored);
  EXPECT_TRUE(stored.ok());

  TableCache::LoadResult hit = cache.Load(42);
  EXPECT_EQ(hit.status.code, CacheCode::kHit);
  ASSERT_TRUE(hit.table.has_value());
  EXPECT_TRUE(hit.table->frozen());
  EXPECT_EQ(hit.table->num_buckets(), 8);
}

TEST_F(TableCacheTest, CorruptEntryReportsCorruptWithMessage) {
  TableCache cache(dir_);
  ASSERT_TRUE(cache.Store(7, SmallTable(8)).ok());
  std::FILE* f = std::fopen(cache.PathForKey(7).c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage", f);
  std::fclose(f);
  TableCache::LoadResult result = cache.Load(7);
  EXPECT_EQ(result.status.code, CacheCode::kCorrupt);
  EXPECT_FALSE(result.status.message.empty());
  EXPECT_FALSE(result.table.has_value());
}

TEST_F(TableCacheTest, StatusesMirrorIntoEventsAndCounters) {
  VectorSink sink;
  MetricsRegistry metrics;
  TableCacheOptions options;
  options.observer = Observer(&sink, &metrics);
  TableCache cache(dir_, options);

  cache.Load(1);                       // miss
  cache.Store(1, SmallTable(8));       // stored
  cache.Load(1);                       // hit
  EXPECT_EQ(metrics.CounterValue("table_cache.misses"), 1);
  EXPECT_EQ(metrics.CounterValue("table_cache.stores"), 1);
  EXPECT_EQ(metrics.CounterValue("table_cache.hits"), 1);

  ASSERT_EQ(sink.events().size(), 3u);
  const auto& miss = std::get<TableCacheLookupEvent>(sink.events()[0].payload);
  EXPECT_EQ(miss.code, CacheCode::kMiss);
  EXPECT_EQ(miss.key, 1u);
  const auto& store = std::get<TableCacheStoreEvent>(sink.events()[1].payload);
  EXPECT_EQ(store.code, CacheCode::kStored);
  EXPECT_GT(store.bytes, 0u);
  const auto& hit = std::get<TableCacheLookupEvent>(sink.events()[2].payload);
  EXPECT_EQ(hit.code, CacheCode::kHit);
  EXPECT_EQ(hit.bytes, store.bytes);
  // Offline events carry simulated time 0 — no wall clock leaks into the trace.
  for (const TraceEvent& event : sink.events()) {
    EXPECT_EQ(event.time_seconds, 0.0);
  }
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".cpa") {
      total += entry.file_size();
    }
  }
  return total;
}

TEST_F(TableCacheTest, PruneEvictsLeastRecentlyUsedFirst) {
  VectorSink sink;
  MetricsRegistry metrics;
  TableCacheOptions options;
  TableCache probe(dir_);
  ASSERT_TRUE(probe.Store(99, SmallTable(32)).ok());
  uint64_t entry_bytes = fs::file_size(probe.PathForKey(99));
  fs::remove_all(dir_);

  // Budget for two entries; storing a third must evict exactly one.
  options.max_bytes = 2 * entry_bytes + entry_bytes / 2;
  options.observer = Observer(&sink, &metrics);
  TableCache cache(dir_, options);
  ASSERT_TRUE(cache.Store(1, SmallTable(32)).ok());
  ASSERT_TRUE(cache.Store(2, SmallTable(32)).ok());
  // Touch entry 1 so entry 2 becomes the least recently used...
  fs::last_write_time(cache.PathForKey(1),
                      fs::last_write_time(cache.PathForKey(2)) + std::chrono::seconds(2));
  ASSERT_TRUE(cache.Store(3, SmallTable(32)).ok());

  EXPECT_EQ(metrics.CounterValue("table_cache.evictions"), 1);
  EXPECT_FALSE(fs::exists(cache.PathForKey(2)));  // LRU victim
  EXPECT_TRUE(fs::exists(cache.PathForKey(1)));
  EXPECT_TRUE(fs::exists(cache.PathForKey(3)));
  EXPECT_LE(DirBytes(dir_), options.max_bytes);

  bool saw_evict = false;
  for (const TraceEvent& event : sink.events()) {
    if (const auto* evict = std::get_if<TableCacheEvictEvent>(&event.payload)) {
      saw_evict = true;
      EXPECT_EQ(evict->key, 2u);
      EXPECT_GT(evict->bytes, 0u);
    }
  }
  EXPECT_TRUE(saw_evict);
}

TEST_F(TableCacheTest, HitRefreshesLruPosition) {
  TableCacheOptions options;
  TableCache probe(dir_);
  ASSERT_TRUE(probe.Store(99, SmallTable(32)).ok());
  uint64_t entry_bytes = fs::file_size(probe.PathForKey(99));
  fs::remove_all(dir_);

  options.max_bytes = 2 * entry_bytes + entry_bytes / 2;
  TableCache cache(dir_, options);
  ASSERT_TRUE(cache.Store(1, SmallTable(32)).ok());
  ASSERT_TRUE(cache.Store(2, SmallTable(32)).ok());
  // Make entry 1 stale, then *load* it: the hit must move it to the front so entry 2
  // becomes the victim of the next store.
  fs::last_write_time(cache.PathForKey(1),
                      fs::last_write_time(cache.PathForKey(1)) - std::chrono::hours(1));
  ASSERT_EQ(cache.Load(1).status.code, CacheCode::kHit);
  fs::last_write_time(cache.PathForKey(2),
                      fs::last_write_time(cache.PathForKey(1)) - std::chrono::seconds(2));
  ASSERT_TRUE(cache.Store(3, SmallTable(32)).ok());
  EXPECT_TRUE(fs::exists(cache.PathForKey(1)));
  EXPECT_FALSE(fs::exists(cache.PathForKey(2)));
}

TEST_F(TableCacheTest, NewestEntryIsNeverEvicted) {
  TableCacheOptions options;
  options.max_bytes = 1;  // smaller than any entry
  TableCache cache(dir_, options);
  ASSERT_TRUE(cache.Store(5, SmallTable(32)).ok());
  // The sole (newest) entry survives even though it exceeds the budget.
  EXPECT_TRUE(fs::exists(cache.PathForKey(5)));
  EXPECT_EQ(cache.Load(5).status.code, CacheCode::kHit);
}

TEST_F(TableCacheTest, UnboundedCacheNeverPrunes) {
  TableCache cache(dir_);
  for (uint64_t key = 1; key <= 5; ++key) {
    ASSERT_TRUE(cache.Store(key, SmallTable(16)).ok());
  }
  EXPECT_EQ(cache.PruneToLimit(), 0);
  for (uint64_t key = 1; key <= 5; ++key) {
    EXPECT_TRUE(fs::exists(cache.PathForKey(key)));
  }
}

}  // namespace
}  // namespace jockey
