// The closed-loop workload interface the runner drives.
//
// A run builds one instance (timed as set-up), then loops: draw the next
// operation's inputs from the seeded Rng (untimed), execute the operation
// (timed), check its outputs and read its work counts (untimed). The next
// operation starts only after the previous one returned: one client, one
// process. In a traced run every other operation is followed by replays of
// its inputs through the layers below, each inside its own span.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "util/status.h"

namespace tripriv {

class ThreadPool;

namespace perfbench {

/// What one operation did.
struct OpOutcome {
  /// Work items the operation completed (reads, mutations, queries, rows).
  uint64_t items = 0;
  /// An outcome that should not occur without injected faults: kUnavailable,
  /// a deadline miss, a shed, a DP-degraded answer, a failover, a corrupt
  /// answer, a dropped batch.
  bool failed = false;
  /// Deterministic refusals the workload expects (query-set-size policy
  /// refusals, k-gate refusals); they must repeat exactly per seed.
  uint64_t expected_refusals = 0;
  /// Deterministic work counts, named by Workload::CountNames().
  std::vector<uint64_t> counts;
};

struct WorkloadOptions {
  uint64_t seed = 1;
  ThreadPool* pool = nullptr;
  /// stat_query only: execute through a serial QueryService::Submit loop
  /// instead of the BatchExecutor (the reference the batch path must match).
  bool serial_reference = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds tables, protection, replicas and services. `tracer` (traced
  /// runs only) records set-up spans of interest under kSetupOp.
  virtual Status Setup(Tracer* tracer) = 0;
  /// Draws the next operation's inputs.
  virtual void NextInput() = 0;
  /// Runs the operation. `tracer`/`op_span` are set on traced operations;
  /// the workload wraps its top-level layer call in a span under `op_span`.
  virtual void Execute(Tracer* tracer, int op_span) = 0;
  /// Verifies the last operation's outputs; a non-OK status is a wrong
  /// answer and fails the run.
  virtual Status Check(OpOutcome* out) = 0;
  /// Traced runs: replays the last operation's inputs through the layers
  /// below the one Execute called (spans only; outputs are checked too).
  /// Called after every operation of a traced run, with a null tracer
  /// after the untraced ones.
  virtual Status Replay(Tracer* tracer) = 0;
  /// Names of OpOutcome::counts.
  virtual std::vector<std::string> CountNames() const = 0;
  /// Whether the thread-pool dispatch counts of an operation must repeat on
  /// a replay of the same inputs (false when the replay takes a different,
  /// serial path).
  virtual bool ReplayRepeatsPoolCounts() const { return true; }
  /// Leading operations that run and are checked but not timed.
  virtual size_t WarmupOps() const { return 1; }
  /// Operations a fresh instance replays to check that work counts repeat
  /// per seed (0: the workload checks repetition within the run instead).
  virtual size_t ReplayOps() const = 0;
  /// Bytes of the PIR replica the stream-read baseline must cover (0 when
  /// the workload serves no PIR).
  virtual size_t ReplicaBytes() const { return 0; }
  /// Adds the workload's per-layer metrics, derived from the traced run's
  /// span summaries and from the timed operations' outcomes.
  virtual void LayerMetrics(const std::map<std::string, Tracer::Summary>& spans,
                            const std::vector<OpOutcome>& outcomes,
                            std::map<std::string, double>* metrics) const = 0;
};

std::unique_ptr<Workload> MakePirServe(const WorkloadOptions& options);
std::unique_ptr<Workload> MakeEpochChurn(const WorkloadOptions& options);
std::unique_ptr<Workload> MakeStatQuery(const WorkloadOptions& options);
std::unique_ptr<Workload> MakeTable2(const WorkloadOptions& options);

/// Sum of count `name` over `outcomes` divided by `denominator` (0 when
/// the name is unknown or the denominator is 0).
double CountPer(const std::vector<std::string>& names,
                const std::vector<OpOutcome>& outcomes, const std::string& name,
                double denominator);

/// Median total (or self) milliseconds of span `name`; 0 when absent.
double SpanMs(const std::map<std::string, Tracer::Summary>& spans,
              const std::string& name, bool self = false);

}  // namespace perfbench
}  // namespace tripriv
