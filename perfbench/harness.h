// Shared machinery of the end-to-end benchmark: wall and CPU timers, the
// in-memory span recorder of the traced run, per-operation records,
// order statistics, host provenance, and the stream-read baseline.
//
// Everything here lives outside src/: the library keeps its simulated
// clocks, and the benchmark alone reads steady_clock around calls into the
// public API of each layer.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/annotations.h"
#include "util/status.h"

namespace tripriv {

class ThreadPool;

namespace perfbench {

/// Nanoseconds on the monotonic clock.
uint64_t NowNs();
/// Process CPU time (user + system, all threads) in nanoseconds.
uint64_t ProcessCpuNs();
/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

/// One recorded span. `parent` indexes the recorder's span list (-1 for a
/// root). Replayed layer calls run after the operation they mirror; their
/// `parent` names the layer above them on the same input, and self time
/// subtracts them from that parent (see README.md, "Self time").
struct Span {
  uint32_t name = 0;
  int32_t parent = -1;
  uint64_t op = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Operation id of spans recorded while building the system under test.
inline constexpr uint64_t kSetupOp = UINT64_MAX;

/// In-memory span store, written out once when the run ends.
class Tracer {
 public:
  /// Opens a span under `parent` (-1 = root) for the current operation.
  int Begin(const std::string& name, int parent = -1);
  void End(int span);
  void set_op(uint64_t op) { op_ = op; }

  /// Per span name: the median over operations of the per-operation total
  /// duration, and of the per-operation self time (duration minus the
  /// durations of the spans whose parent it is), in milliseconds. Only
  /// operations in which the name occurs count.
  struct Summary {
    double total_ms = 0.0;
    double self_ms = 0.0;
    size_t ops = 0;
    size_t spans = 0;
  };
  std::map<std::string, Summary> Summarize() const;

  /// The span list as JSON (names, start/end relative to the first span).
  std::string ToJson() const;

 private:
  uint32_t Intern(const std::string& name);

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
  uint64_t op_ = kSetupOp;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent = -1)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double Median(std::vector<double> v);

/// The highest percentile of `v` with at least ten samples above it: the
/// sample at sorted index n - 11. With ten or fewer samples no percentile
/// qualifies and the maximum is returned with percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
};
Tail TailLatency(std::vector<double> v);

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuJiffies {
  uint64_t user = 0;
  uint64_t system = 0;
  uint64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();
/// The 1-minute load average (-1 when unreadable).
double LoadAverage1m();

/// Median read bandwidth, in GB/s, of XOR-reducing a `bytes`-sized buffer
/// of random words over `reps` passes: inline on the caller when `pool` is
/// null, else sharded across it. Only the rate leaves this function.
TRIPRIV_SANITIZES(aggregate, timing)
double StreamReadGbps(size_t bytes, ThreadPool* pool, int reps);

/// Minimal JSON string escaping for names and notes.
std::string JsonString(const std::string& s);

}  // namespace perfbench
}  // namespace tripriv
