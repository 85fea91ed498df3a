// Shared pieces of the end-to-end benchmark driver: clocks, quantiles, the check
// ledger, the per-layer ledger, and the workload interface.
//
// Everything here lives in the benchmark's own files and reaches the library only
// through its public headers; layer time is measured around calls into each
// module, never inside it.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace jockey {
class Jockey;
class MetricsRegistry;
}

namespace perfbench {

// Wall seconds on the monotonic clock.
double Now();
// CPU seconds (user + system) used so far by every thread of this process.
double CpuNow();
// Peak resident set of this process, MB.
double PeakRssMb();

// Linear interpolation between order statistics (numpy's default); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

std::string ReadFileOrThrow(const std::string& path);
void WriteFileOrThrow(const std::string& path, const std::string& bytes);

// Operations attempted and failed, with a loud message naming the workload and the
// item for every failure. An operation is one episode or one fleet job; a check
// that covers several operations (a whole scenario's trace, say) fails each.
class Checks {
 public:
  explicit Checks(std::string workload) : workload_(std::move(workload)) {}

  void Attempt(int64_t operations) { attempted_ += operations; }
  // Marks operation `op` of the current pass failed; `item` names what was checked.
  void Fail(const std::string& op, const std::string& item, const std::string& message);
  // Closes a pass: its distinct failed operations join the failed count.
  void EndPass();

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::string workload_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::set<std::string> pass_failed_;
  std::vector<std::string> messages_;
};

// The simulated outcome of one pass. Deterministic for a given input set; every
// pass of a run must reproduce the first pass's digest exactly.
struct Outcomes {
  std::vector<double> latency_ratios;  // completion / deadline, per SLO job
  int misses = 0;
  double oracle_excess_sum = 0.0;
  std::string digest;  // byte-exact fingerprint (summary JSON / completions)

  void Add(double latency_ratio, bool met, double frac_above_oracle);
};

// Per-layer ledger of the traced run. `Attribute` adds self time to a layer (the
// layer sums must never exceed wall time); `Add` and `Sample` record named metrics.
class Layers {
 public:
  void Attribute(const std::string& layer, double seconds) { self_[layer] += seconds; }
  void Add(const std::string& metric, double value) { values_[metric] += value; }
  void Sample(const std::string& metric, double value) { samples_[metric].push_back(value); }

  double Get(const std::string& metric) const;
  const std::vector<double>& Samples(const std::string& metric) const;
  const std::map<std::string, double>& self() const { return self_; }

  // Counts one Jockey construction: its wall time, CPU time, worker threads and
  // whether the table cache served it.
  void Build(double wall, double cpu, int threads, bool cache_hit, int simulated_runs);
  // Adds the registry's cluster and control counters, and the sum of its fault.*
  // counters as fault.injected.
  void AddCounters(const jockey::MetricsRegistry& metrics);

 private:
  std::map<std::string, double> self_;
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
};

// Times one call into a layer: the layer's self time grows by the elapsed wall
// time, and so does `metric` when given.
class Span {
 public:
  Span(Layers* layers, const char* layer, const char* metric = nullptr);
  ~Span() { Close(); }
  // Ends the span early.
  void Close();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layers* layers_;
  const char* layer_;
  const char* metric_;
  double start_ = 0.0;
};

// Runs one training (a training cluster run plus a Jockey construction) and, in the
// per-layer run, books it: the table build to the sim layer, the rest to
// cluster.train_run_s. A call that trained nothing (a catalog hit) is booked to the
// scenario layer. The build's share is read from the library's own `table_build`
// profiler scope, the only way to split a catalog training from outside the catalog.
void TimedTraining(Layers* layers, const std::function<const jockey::Jockey&()>& train);

// Runs `call` with the library profiler on and returns the seconds the library
// booked under its top-level profiler scope `scope` during the call.
double ProfiledSeconds(const char* scope, const std::function<void()>& call);

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the state the timed passes need. Called several times per run (set-up
  // time is reported as the median), each call starting from scratch. `layers` is
  // non-null only in the per-layer run.
  virtual void Setup(Layers* layers) = 0;
  // One timed pass over the whole input set.
  virtual void Pass(Layers* layers, Outcomes& outcomes, Checks& checks) = 0;
};

struct WorkloadArgs {
  std::string inputs_dir;  // generated inputs of this workload and seed
  std::string work_dir;    // scratch space inside the checkout
  // The deliberate defect a negative test plants: "truncate_trace", "fleet_cap",
  // "arbiter_mismatch", "arbiter_overadmit" (a cell that throws), or empty for none.
  std::string inject;
};

std::unique_ptr<Workload> MakeScenarioWorkload(const WorkloadArgs& args, bool traced_warm);
std::unique_ptr<Workload> MakeFleetWorkload(const WorkloadArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
