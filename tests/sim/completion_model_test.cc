// Properties of the offline C(p, a) estimation (builder + table together).

#include "src/core/completion_model.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "src/core/experiment.h"
#include "src/sim/table_cache.h"
#include "src/workload/job_generator.h"

namespace jockey {
namespace {

struct Built {
  JobTemplate tmpl;
  JobProfile profile;
  CompletionTable table;
};

Built Build(uint64_t seed, CompletionModelConfig config = CompletionModelConfig(),
            CompletionModelBuildStats* stats = nullptr) {
  JobShapeSpec spec;
  spec.name = "cm";
  spec.num_stages = 7;
  spec.num_barriers = 2;
  spec.num_vertices = 250;
  spec.seed = seed;
  JobTemplate tmpl = GenerateJob(spec);
  Rng gen(seed + 1);
  RunTrace trace;
  for (int s = 0; s < tmpl.graph.num_stages(); ++s) {
    for (int i = 0; i < tmpl.graph.stage(s).num_tasks; ++i) {
      double d = tmpl.runtime[static_cast<size_t>(s)].SampleSeconds(gen);
      trace.tasks.push_back({{s, i}, 0.0, 1.0, 1.0 + d, 0, 0.0});
    }
  }
  trace.finish_time = 1.0;
  JobProfile profile = JobProfile::FromTrace(tmpl.graph, trace);
  auto indicator = MakeIndicator(IndicatorKind::kTotalWorkWithQ, tmpl.graph, profile);
  config.seed = seed + 2;
  CompletionTable table = BuildCompletionTable(tmpl.graph, profile, *indicator, config, stats);
  return Built{std::move(tmpl), std::move(profile), std::move(table)};
}

TEST(CompletionModelTest, TableIsWellPopulated) {
  Built built = Build(11);
  // Every allocation column contributed runs_per_allocation completion samples plus
  // progress samples throughout each run.
  EXPECT_GT(built.table.TotalSamples(),
            built.table.allocations().size() * 10u /* runs */ * 2u);
}

TEST(CompletionModelTest, MedianRemainingDecreasesWithProgress) {
  Built built = Build(13);
  for (double a : {10.0, 40.0, 100.0}) {
    double early = built.table.Predict(0.05, a, 0.5);
    double mid = built.table.Predict(0.5, a, 0.5);
    double late = built.table.Predict(0.9, a, 0.5);
    EXPECT_GT(early, mid) << "allocation " << a;
    EXPECT_GT(mid, late) << "allocation " << a;
  }
}

TEST(CompletionModelTest, FreshJobPredictionDecreasesWithAllocation) {
  Built built = Build(17);
  double prev = 1e18;
  for (double a : {2.0, 10.0, 25.0, 60.0, 100.0}) {
    double pred = built.table.Predict(0.0, a, 0.5);
    EXPECT_LT(pred, prev * 1.05) << "allocation " << a;  // small MC noise allowed
    prev = pred;
  }
  EXPECT_LT(built.table.Predict(0.0, 100.0, 0.5),
            0.5 * built.table.Predict(0.0, 2.0, 0.5));
}

TEST(CompletionModelTest, HighQuantileDominatesMedian) {
  Built built = Build(19);
  for (double p : {0.0, 0.3, 0.7}) {
    for (double a : {5.0, 30.0, 90.0}) {
      EXPECT_GE(built.table.Predict(p, a, 1.0) + 1e-9, built.table.Predict(p, a, 0.5));
    }
  }
}

TEST(CompletionModelTest, DeterministicForSeed) {
  Built a = Build(23);
  Built b = Build(23);
  for (double p : {0.0, 0.4, 0.8}) {
    for (double alloc : {5.0, 50.0}) {
      EXPECT_DOUBLE_EQ(a.table.Predict(p, alloc, 1.0), b.table.Predict(p, alloc, 1.0));
    }
  }
}

TEST(CompletionModelTest, MoreRunsRefineNotShift) {
  CompletionModelConfig few;
  few.runs_per_allocation = 4;
  CompletionModelConfig many;
  many.runs_per_allocation = 16;
  Built coarse = Build(29, few);
  Built fine = Build(29, many);
  // The medians from a coarse and a fine table agree within Monte Carlo tolerance.
  for (double a : {10.0, 50.0}) {
    double c = coarse.table.Predict(0.0, a, 0.5);
    double f = fine.table.Predict(0.0, a, 0.5);
    EXPECT_NEAR(c / f, 1.0, 0.25) << "allocation " << a;
  }
}

std::string Serialized(const CompletionTable& table) {
  std::ostringstream os(std::ios::binary);
  table.Save(os);
  return os.str();
}

// The regression test for the old order-dependent rng.Fork() chain: every build —
// serial or parallel, any thread count — must produce byte-identical frozen tables,
// because each (allocation, run) pair now draws from a counter-based seed.
TEST(CompletionModelTest, ParallelBuildIsBitIdenticalToSerial) {
  Built serial = Build(31, [] {
    CompletionModelConfig config;
    config.threads = 1;
    return config;
  }());
  for (int threads : {2, 3, 8}) {
    CompletionModelConfig config;
    config.threads = threads;
    Built parallel = Build(31, config);
    EXPECT_EQ(Serialized(serial.table), Serialized(parallel.table)) << threads << " threads";
  }
}

TEST(CompletionModelTest, BuilderReturnsFrozenTable) {
  Built built = Build(37);
  EXPECT_TRUE(built.table.frozen());
  EXPECT_GT(built.table.TotalSamples(), 0u);
}

TEST(CompletionModelTest, BuildStatsReportThreadsAndRuns) {
  CompletionModelConfig config;
  config.threads = 2;
  config.runs_per_allocation = 3;
  CompletionModelBuildStats stats;
  Built built = Build(41, config, &stats);
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_EQ(stats.threads_used, 2);
  EXPECT_EQ(stats.simulated_runs,
            static_cast<int>(config.allocation_grid.size()) * config.runs_per_allocation);
}

TEST(CompletionModelTest, PersistentCacheHitSkipsSimulationAndMatchesBytes) {
  std::string dir = testing::TempDir() + "jockey_table_cache_test";
  std::filesystem::remove_all(dir);

  CompletionModelConfig config;
  config.cache_dir = dir;
  CompletionModelBuildStats cold_stats;
  Built cold = Build(43, config, &cold_stats);
  EXPECT_FALSE(cold_stats.cache_hit);
  EXPECT_GT(cold_stats.simulated_runs, 0);

  CompletionModelBuildStats warm_stats;
  Built warm = Build(43, config, &warm_stats);
  EXPECT_TRUE(warm_stats.cache_hit);
  EXPECT_EQ(warm_stats.simulated_runs, 0);
  EXPECT_EQ(Serialized(cold.table), Serialized(warm.table));

  // A different seed is a different key: back to a miss.
  CompletionModelBuildStats other_stats;
  Built other = Build(44, config, &other_stats);
  EXPECT_FALSE(other_stats.cache_hit);
  EXPECT_NE(Serialized(other.table), Serialized(cold.table));

  std::filesystem::remove_all(dir);
}

TEST(CompletionModelTest, CorruptCacheEntryIsAMissNotACrash) {
  std::string dir = testing::TempDir() + "jockey_table_cache_corrupt";
  std::filesystem::remove_all(dir);
  CompletionModelConfig config;
  config.cache_dir = dir;
  Built cold = Build(47, config);

  // Truncate every entry in the cache dir.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::FILE* f = std::fopen(entry.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("corrupt", f);
    std::fclose(f);
  }
  CompletionModelBuildStats stats;
  Built rebuilt = Build(47, config, &stats);
  EXPECT_FALSE(stats.cache_hit);  // corrupt entry rebuilt from scratch
  EXPECT_EQ(Serialized(cold.table), Serialized(rebuilt.table));
  std::filesystem::remove_all(dir);
}

// Golden output of the C(p, a) build, recorded on the standard library's
// std::mt19937_64 and a binary-heap event queue: any change to a random stream,
// to the event order or to the task wake-up order moves it.
//  - Tables: FNV-1a over Save() bytes of two small Table 2 jobs, trained as the
//    scenario catalog trains them (training seed = shape seed + 500, the
//    total-work-with-queueing indicator), at one and at four build threads.
//  - Runs: ten JobSimulator::Run completion times of job A's trained model across
//    the allocation range, each on its own counter-seeded stream, with progress
//    sampling on, and the number of progress samples they took.
TEST(CompletionModelGoldenTest, CatalogTablesAndRunsMatchRecordedOutput) {
  const struct {
    JobShapeSpec spec;
    uint64_t table_hash;
  } jobs[] = {{JobSpecA(), 0x5e241541dc7a9788ULL}, {JobSpecB(), 0xbcc95dd3c15fa889ULL}};
  for (const auto& job : jobs) {
    for (int threads : {1, 4}) {
      TrainingOptions options;
      options.seed = job.spec.seed + 500;
      options.jockey.indicator = IndicatorKind::kTotalWorkWithQ;
      options.jockey.model.threads = threads;
      TrainedJob trained = TrainJob(GenerateJob(job.spec), options);
      const uint64_t hash = HashString(Serialized(trained.jockey->table()));
      EXPECT_EQ(hash, job.table_hash)
          << job.spec.name << " at " << threads << " threads: 0x" << std::hex << hash;
      if (job.spec.name != "jobA" || threads != 1) {
        continue;
      }
      const double want[] = {0x1.15c6c0532c208p+15, 0x1.9b8964f365bf6p+11,
                             0x1.f338318a41804p+10, 0x1.fc74f934737f7p+10,
                             0x1.6106a22750b61p+10, 0x1.240a4a81cf342p+10,
                             0x1.8c11363592f4ap+10, 0x1.85c56b5ab01aap+10,
                             0x1.942fef52b7876p+10, 0x1.5454e8f5eb7b6p+10};
      JobSimulator sim(trained.jockey->graph(), trained.jockey->profile());
      int samples = 0;
      for (int r = 0; r < 10; ++r) {
        Rng rng(Rng::CounterSeed(7, static_cast<uint64_t>(r), 0));
        SimRunResult result =
            sim.Run(1 + 11 * r, rng, [&](SimTime, const std::vector<double>&) { ++samples; });
        EXPECT_EQ(result.completion_seconds, want[r]) << "run " << r;
      }
      EXPECT_EQ(samples, 3443);
    }
  }
}

}  // namespace
}  // namespace jockey
