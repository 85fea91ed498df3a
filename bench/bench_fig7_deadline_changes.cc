// Fig 7 + "Adapting to changes in deadlines": ten minutes after the start of each of
// the seven jobs, the deadline is cut in half, doubled, or tripled.
//
// Paper: "In each run, Jockey met the new deadline. In the runs where we lowered the
// deadline by half, the policy had to increase resource allocation by 148% on
// average. In the runs where we doubled or tripled the deadline, the policy released
// 63% or 83% (respectively) of the allocated resources on average."

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/util/table_printer.h"

namespace jockey {
namespace {

// Mean granted allocation in a time window of the run's timeline.
double MeanAllocation(const ExperimentResult& r, double from, double to) {
  double sum = 0.0;
  int n = 0;
  for (const auto& s : r.run.timeline) {
    if (s.time >= from && s.time < to) {
      sum += s.guaranteed;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

}  // namespace
}  // namespace jockey

int main() {
  using namespace jockey;
  std::printf("Fig 7: adapting to deadline changes 10 minutes into the run\n\n");

  std::vector<BenchJob> jobs = TrainEvaluationJobs();
  struct Change {
    const char* name;
    double factor;
  };
  std::vector<Change> changes = {{"halved", 0.5}, {"doubled", 2.0}, {"tripled", 3.0}};

  TablePrinter table({"change", "runs", "met new deadline", "allocation change after 10min"});
  for (const Change& change : changes) {
    int runs = 0;
    int met = 0;
    double total_change = 0.0;
    for (const auto& job : jobs) {
      // Use the long deadline as the base so halving stays feasible.
      double base = job.deadline_long;
      ExperimentOptions options;
      options.deadline_seconds = base;
      options.deadline_change = DeadlineChange(600.0, base * change.factor);
      options.policy = PolicyKind::kJockey;
      options.jitter_input = false;
      options.seed = 17 + job.spec.seed;
      ExperimentResult r = RunExperiment(job.trained, options);
      ++runs;
      met += r.met_deadline ? 1 : 0;
      double before = MeanAllocation(r, 0.0, 600.0);
      double after = MeanAllocation(r, 660.0, r.completion_seconds);
      if (before > 0.0 && after > 0.0) {
        total_change += (after - before) / before;
      }
    }
    double avg_change = total_change / runs;
    std::string signed_change = avg_change >= 0 ? "+" : "";
    signed_change.append(FormatPercent(avg_change, 0));
    table.AddRow({change.name, std::to_string(runs),
                  std::to_string(met) + "/" + std::to_string(runs), signed_change});
  }
  table.Print(std::cout);
  std::printf("\n(paper: all runs met the new deadline; halving raised allocation by\n");
  std::printf(" 148%% on average, doubling/tripling released 63%%/83%% of resources)\n");
  return 0;
}
