// tripriv_perfbench: the end-to-end benchmark binary (perfbench/run.py
// builds and runs it; see perfbench/README.md).
//
//   tripriv_perfbench --workload <pir_serve|epoch_churn|stat_query|table2>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     [--trace-out <file>]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer metrics of a traced run. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is 0 only when every output check passed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/annotations.h"
#include "harness.h"
#include "util/checksum.h"
#include "util/thread_pool.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace tripriv {
namespace perfbench {

double CountPer(const std::vector<std::string>& names,
                const std::vector<OpOutcome>& outcomes, const std::string& name,
                double denominator) {
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end() || denominator <= 0.0) return 0.0;
  const size_t index = static_cast<size_t>(it - names.begin());
  double sum = 0.0;
  for (const OpOutcome& outcome : outcomes) {
    if (index < outcome.counts.size()) {
      sum += static_cast<double>(outcome.counts[index]);
    }
  }
  return sum / denominator;
}

double SpanMs(const std::map<std::string, Tracer::Summary>& spans,
              const std::string& name, bool self) {
  const auto it = spans.find(name);
  if (it == spans.end()) return 0.0;
  return self ? it->second.self_ms : it->second.total_ms;
}

namespace {

constexpr const char* kEndToEnd[] = {
    "setup_s",       "op_p50_ms",   "op_tail_ms", "items_per_s",
    "cpu_ms_per_op", "peak_rss_mb", "ok_share",
};

/// Every per-layer metric, in BENCHMARK.json order. A layer the workload
/// bypasses reads 0.
constexpr const char* kPerLayer[] = {
    "util.pool.parallel_fors_per_op",
    "util.pool.shards_per_op",
    "pir.xor_answer_us",
    "pir.bytes_xored_per_read",
    "pir.xor_gbps",
    "pir.stream_read_gbps_1w",
    "pir.stream_read_gbps_4w",
    "pir.xor_roofline_share",
    "pir.failover_read_batch_ms",
    "pir.failovers",
    "pir.corrupt_detected",
    "pir.epoch.render_ms",
    "pir.epoch.read_batch_ms",
    "pir.epoch.replica_builds_per_flip",
    "pir.upload_bits_per_read",
    "pir.download_bits_per_read",
    "service.executor.pir_batch_ms",
    "service.executor.pir_batch_self_ms",
    "service.executor.query_batch_ms",
    "service.executor.query_batch_self_ms",
    "service.prepare_ms_per_query",
    "service.submit_ms_per_query",
    "service.wal.bytes_per_query",
    "service.wal.records_per_op",
    "service.protected_answers",
    "service.policy_refusals",
    "service.dp_answers",
    "querydb.query_set_rows_per_query",
    "service.epoch.flip_ms",
    "service.epoch.flip_other_ms",
    "service.epoch.flips_refused",
    "table.apply_mutations_ms",
    "table.checksum_ms",
    "sdc.incremental_mdav_ms",
    "sdc.rows_reclustered_per_flip",
    "sdc.partitioned_mdav_ms",
    "sdc.mondrian_ms",
    "attack.linkage_ms",
    "attack.disclosure_ms",
    "attack.nussbaum_ms",
    "attack.fingerprint_ms",
    "attack.profiling_ms",
    "attack.trials_per_run",
    "attack.scoreboard_other_ms",
    "trace.overhead_ms",
    "failed_share",
    "wal_bytes_per_op",
};

constexpr const char* kUnits[][2] = {
    {"setup_s", "s"},         {"op_p50_ms", "ms"},   {"op_tail_ms", "ms"},
    {"items_per_s", "1/s"},   {"cpu_ms_per_op", "ms"}, {"peak_rss_mb", "MB"},
    {"ok_share", "share"},
};

std::string UnitOf(const std::string& name) {
  for (const auto& entry : kUnits) {
    if (name == entry[0]) return entry[1];
  }
  auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_us")) return "us";
  if (ends("_ms") || ends("_ms_per_query")) return "ms";
  if (ends("gbps") || ends("gbps_1w") || ends("gbps_4w")) return "GB/s";
  if (ends("_share")) return "share";
  if (ends("bits_per_read")) return "bits";
  if (name.find("bytes") != std::string::npos) return "B";
  return "count";
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Parallel stages share one pool of this many workers, the host's nproc
/// when the benchmark was defined; fixed so runs on any host do the same
/// work.
constexpr size_t kWorkers = 4;

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0;
}

std::unique_ptr<Workload> Make(const std::string& name,
                               const WorkloadOptions& options) {
  if (name == "pir_serve") return MakePirServe(options);
  if (name == "epoch_churn") return MakeEpochChurn(options);
  if (name == "stat_query") return MakeStatQuery(options);
  if (name == "table2") return MakeTable2(options);
  return nullptr;
}

struct PoolCounts {
  uint64_t parallel_fors = 0;
  uint64_t items = 0;
  uint64_t shards = 0;
};
PoolCounts ReadPool(const ThreadPool& pool) {
  return {pool.parallel_fors(), pool.items_dispatched(),
          pool.shards_dispatched()};
}

/// One executed operation as the runner saw it.
struct OpRecord {
  OpOutcome outcome;
  PoolCounts pool;
  double latency_ms = 0.0;
  double cpu_ms = 0.0;
  bool traced = false;
};

/// Every significant digit of `v`, for the result line.
std::string Full(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Fixed(double v, int digits = 6) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// Runs set-up on a fresh instance and appends its wall time in seconds.
/// Only the time leaves this function.
TRIPRIV_SANITIZES(aggregate, timing)
Status TimedSetup(Workload* w, Tracer* tracer, std::vector<double>* samples) {
  const uint64_t t0 = NowNs();
  TRIPRIV_RETURN_IF_ERROR(w->Setup(tracer));
  samples->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  return Status::OK();
}

/// Executes and checks one operation. Answers stay inside the workload;
/// only timings, work counts and the check's verdict leave it.
TRIPRIV_SANITIZES(aggregate, count)
Status RunOp(Workload* w, ThreadPool* pool, Tracer* tracer, uint64_t op,
             OpRecord* rec) {
  w->NextInput();
  int op_span = -1;
  if (tracer != nullptr) {
    tracer->set_op(op);
    op_span = tracer->Begin("op");
  }
  const PoolCounts p0 = ReadPool(*pool);
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = NowNs();
  w->Execute(tracer, op_span);
  const uint64_t t1 = NowNs();
  const uint64_t cpu1 = ProcessCpuNs();
  const PoolCounts p1 = ReadPool(*pool);
  if (tracer != nullptr) tracer->End(op_span);
  rec->latency_ms = static_cast<double>(t1 - t0) / 1e6;
  rec->cpu_ms = static_cast<double>(cpu1 - cpu0) / 1e6;
  rec->pool = {p1.parallel_fors - p0.parallel_fors, p1.items - p0.items,
               p1.shards - p0.shards};
  rec->traced = tracer != nullptr;
  return w->Check(&rec->outcome);
}

bool SameCounts(const OpRecord& a, const OpRecord& b, bool compare_pool) {
  if (a.outcome.counts != b.outcome.counts) return false;
  if (a.outcome.expected_refusals != b.outcome.expected_refusals) return false;
  if (a.outcome.failed != b.outcome.failed) return false;
  if (!compare_pool) return true;
  return a.pool.parallel_fors == b.pool.parallel_fors &&
         a.pool.items == b.pool.items && a.pool.shards == b.pool.shards;
}

/// FNV-1a over the work counts of the first `n` operations.
uint64_t CountsDigest(const std::vector<OpRecord>& ops, size_t n) {
  std::string bytes;
  for (size_t i = 0; i < std::min(n, ops.size()); ++i) {
    const OpRecord& r = ops[i];
    std::vector<uint64_t> words = r.outcome.counts;
    words.push_back(r.outcome.expected_refusals);
    words.push_back(r.outcome.failed ? 1 : 0);
    words.push_back(r.pool.parallel_fors);
    words.push_back(r.pool.items);
    words.push_back(r.pool.shards);
    for (uint64_t w : words) {
      bytes.append(reinterpret_cast<const char*>(&w), sizeof(w));
    }
  }
  return Fnv1a64(bytes.data(), bytes.size());
}

/// Work counts must repeat per seed. A fresh instance replays the first
/// `replay_ops` operations and must reproduce their counts (stat_query
/// replays through its serial Submit reference, which dispatches nothing
/// to the pool). With `replay_ops` = 0 every operation has the same input,
/// so each must repeat the first.
Status CheckCountsRepeat(const std::string& workload, WorkloadOptions options,
                         size_t replay_ops, const std::vector<OpRecord>& ops) {
  if (replay_ops == 0) {
    for (size_t i = 1; i < ops.size(); ++i) {
      if (!SameCounts(ops[0], ops[i], true)) {
        return Status::Internal("work counts of operation " +
                                std::to_string(i) +
                                " differ from operation 0 on identical input");
      }
    }
    return Status::OK();
  }
  options.serial_reference = true;
  std::unique_ptr<Workload> replay = Make(workload, options);
  TRIPRIV_RETURN_IF_ERROR(replay->Setup(nullptr));
  for (size_t i = 0; i < std::min(replay_ops, ops.size()); ++i) {
    OpRecord rec;
    TRIPRIV_RETURN_IF_ERROR(RunOp(replay.get(), options.pool, nullptr, i, &rec));
    if (!SameCounts(ops[i], rec, replay->ReplayRepeatsPoolCounts())) {
      return Status::Internal("work counts of operation " + std::to_string(i) +
                              " did not repeat on a replay of the same seed");
    }
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: tripriv_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "tripriv_perfbench: built without NDEBUG (build type %s); "
               "refusing to report timings from a debug build\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif

  ThreadPool pool(kWorkers);
  WorkloadOptions wopts;
  wopts.seed = options.seed;
  wopts.pool = &pool;
  if (Make(options.workload, wopts) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  bool correct = true;
  std::string failure;
  auto fail = [&](const std::string& why) {
    if (correct) failure = why;
    correct = false;
  };

  // Set-up is timed on fresh instances before the loop, while the process
  // heap is in the same state on every run: at least three set-ups, and up
  // to nine while they take under two seconds in all. The last instance
  // serves the run. A traced run sets up once, under its tracer.
  Tracer tracer;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  Status st;
  for (double total = 0.0;;) {
    w.reset();
    w = Make(options.workload, wopts);
    st = TimedSetup(w.get(), options.trace ? &tracer : nullptr, &setup_s);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    total += setup_s.back();
    if (options.trace || (setup_s.size() >= 3 &&
                          (setup_s.size() >= 9 || total >= 2.0))) {
      break;
    }
  }
  const std::vector<std::string> count_names = w->CountNames();
  const size_t warmup = w->WarmupOps();

  double stream_1w = 0.0;
  double stream_4w = 0.0;
  if (options.trace && w->ReplicaBytes() > 0) {
    stream_1w = StreamReadGbps(w->ReplicaBytes(), nullptr, 15);
    stream_4w = StreamReadGbps(w->ReplicaBytes(), &pool, 15);
  }

  // The closed loop.
  std::vector<OpRecord> ops;
  const double load_start = LoadAverage1m();
  const CpuJiffies j0 = ReadCpuJiffies();
  const uint64_t loop_start = NowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(options.seconds * 1e9);
  // A traced run needs both a traced and an untraced timed operation to
  // report the tracing overhead.
  const uint64_t min_ops = warmup + (options.trace ? 2 : 1);
  for (uint64_t op = 0;; ++op) {
    if (op >= min_ops && NowNs() - loop_start >= budget_ns) break;
    const bool traced = options.trace && op % 2 == 0;
    OpRecord rec;
    st = RunOp(w.get(), &pool, traced ? &tracer : nullptr, op, &rec);
    if (!st.ok()) {
      fail(st.message());
      break;
    }
    ops.push_back(rec);
    if (options.trace) {
      st = w->Replay(traced ? &tracer : nullptr);
      if (!st.ok()) {
        fail(st.message());
        break;
      }
    }
  }
  const CpuJiffies j1 = ReadCpuJiffies();
  const double load_end = LoadAverage1m();
  const double peak_rss = PeakRssMb();
  // Host calibration for the provenance line, taken after the peak RSS is
  // read: a host whose memory system is shared with busy neighbours shows
  // it here even when steal reads 0.
  const double host_stream_gbps = StreamReadGbps(size_t{64} << 20, nullptr, 5);

  // Timed operations exclude the warm-up.
  std::vector<double> latencies;
  std::vector<double> traced_lat;
  std::vector<double> untraced_lat;
  std::vector<OpOutcome> outcomes;
  double lat_sum = 0.0;
  double cpu_sum = 0.0;
  double items = 0.0;
  uint64_t failed = 0;
  uint64_t expected_refusals = 0;
  double parallel_fors = 0.0;
  double shards = 0.0;
  for (size_t i = warmup; i < ops.size(); ++i) {
    const OpRecord& r = ops[i];
    latencies.push_back(r.latency_ms);
    (r.traced ? traced_lat : untraced_lat).push_back(r.latency_ms);
    outcomes.push_back(r.outcome);
    lat_sum += r.latency_ms;
    cpu_sum += r.cpu_ms;
    items += static_cast<double>(r.outcome.items);
    failed += r.outcome.failed ? 1 : 0;
    expected_refusals += r.outcome.expected_refusals;
    parallel_fors += static_cast<double>(r.pool.parallel_fors);
    shards += static_cast<double>(r.pool.shards);
  }
  const uint64_t attempted = latencies.size();
  const size_t replay_ops = w->ReplayOps();
  const size_t digest_ops = std::max<size_t>(replay_ops, 1);
  const uint64_t counts_digest = CountsDigest(ops, digest_ops);
  std::map<std::string, Tracer::Summary> spans;
  std::map<std::string, double> layer;
  if (options.trace) {
    spans = tracer.Summarize();
    w->LayerMetrics(spans, outcomes, &layer);
  }
  w.reset();

  if (correct && !options.trace) {
    st = CheckCountsRepeat(options.workload, wopts, replay_ops, ops);
    if (!st.ok()) fail(st.message());
  }

  std::map<std::string, double> metrics;
  const Tail tail = TailLatency(latencies);
  if (!options.trace) {
    metrics["setup_s"] = Median(setup_s);
    metrics["op_p50_ms"] = Median(latencies);
    metrics["op_tail_ms"] = tail.value;
    metrics["items_per_s"] = lat_sum > 0 ? items / (lat_sum / 1000.0) : 0.0;
    metrics["cpu_ms_per_op"] =
        attempted > 0 ? cpu_sum / static_cast<double>(attempted) : 0.0;
    metrics["peak_rss_mb"] = peak_rss;
    metrics["ok_share"] =
        attempted > 0 ? 1.0 - static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                      : 0.0;
  } else {
    for (const char* name : kPerLayer) metrics[name] = 0.0;
    const double n = static_cast<double>(std::max<uint64_t>(attempted, 1));
    metrics["util.pool.parallel_fors_per_op"] = parallel_fors / n;
    metrics["util.pool.shards_per_op"] = shards / n;
    metrics["pir.stream_read_gbps_1w"] = stream_1w;
    metrics["pir.stream_read_gbps_4w"] = stream_4w;
    metrics["failed_share"] = static_cast<double>(failed) / n;
    metrics["wal_bytes_per_op"] =
        CountPer(count_names, outcomes, "wal_bytes", n);
    metrics["trace.overhead_ms"] = Median(traced_lat) - Median(untraced_lat);
    for (const auto& [name, value] : layer) metrics[name] = value;
    if (stream_4w > 0) {
      metrics["pir.xor_roofline_share"] = metrics["pir.xor_gbps"] / stream_4w;
    }
  }

  // Provenance.
  const uint64_t user = j1.user - j0.user;
  const uint64_t steal = j1.steal - j0.steal;
  std::ostringstream prov;
  prov << "{\"workload\":" << JsonString(options.workload)
       << ",\"seed\":" << options.seed << ",\"seconds\":" << options.seconds
       << ",\"trace\":" << (options.trace ? 1 : 0)
       << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
       << ",\"ndebug\":true"
       << ",\"compiler\":" << JsonString(std::string("gcc-compatible ") + __VERSION__)
       << ",\"cxx_flags\":" << JsonString(PERFBENCH_CXX_FLAGS)
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"workers\":" << kWorkers
       << ",\"cpu_user_jiffies\":" << user
       << ",\"cpu_system_jiffies\":" << (j1.system - j0.system)
       << ",\"cpu_steal_jiffies\":" << steal
       << ",\"steal_over_user\":"
       << Fixed(user > 0 ? static_cast<double>(steal) / static_cast<double>(user)
                         : 0.0, 4)
       << ",\"host_stream_gbps_1w_64mib\":" << Fixed(host_stream_gbps, 3)
       << ",\"loadavg_1m_start\":" << Fixed(load_start, 2)
       << ",\"loadavg_1m_end\":" << Fixed(load_end, 2) << "}";
  std::printf("provenance %s\n", prov.str().c_str());
  std::printf("setup samples (s):");
  for (double s : setup_s) std::printf(" %s", Fixed(s, 4).c_str());
  std::printf("\n");
  std::printf("operations: %llu timed after %zu warm-up; %llu failed; "
              "%llu expected refusals\n",
              static_cast<unsigned long long>(attempted), warmup,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(expected_refusals));
  std::printf("op_tail_ms is p%s over %zu samples\n",
              Fixed(tail.percentile, 2).c_str(), tail.samples);
  std::printf("work counts over the first %zu operations: digest %016llx\n",
              std::min(digest_ops, ops.size()),
              static_cast<unsigned long long>(counts_digest));
  for (size_t c = 0; c < count_names.size(); ++c) {
    double total = 0;
    for (const OpOutcome& o : outcomes) {
      total += c < o.counts.size() ? static_cast<double>(o.counts[c]) : 0.0;
    }
    std::printf("count %s per op: %s\n", count_names[c].c_str(),
                Fixed(outcomes.empty() ? 0.0 : total / outcomes.size(), 3)
                    .c_str());
  }
  if (options.trace) {
    std::printf("span                                   ops   total_ms    self_ms\n");
    for (const auto& [name, s] : spans) {
      std::printf("%-36s %6zu %10s %10s\n", name.c_str(), s.ops,
                  Fixed(s.total_ms, 4).c_str(), Fixed(s.self_ms, 4).c_str());
    }
    std::printf("tracing overhead: traced %s ms vs untraced %s ms op p50\n",
                Fixed(Median(traced_lat), 4).c_str(),
                Fixed(Median(untraced_lat), 4).c_str());
  }
  if (!correct) std::printf("CHECK FAILED: %s\n", failure.c_str());
  for (const auto& [name, value] : metrics) {
    std::printf("metric %-40s %s %s\n", name.c_str(), Fixed(value, 6).c_str(),
                UnitOf(name).c_str());
  }

  if (options.trace && !options.trace_out.empty()) {
    std::ofstream out(options.trace_out);
    out << "{\"provenance\":" << prov.str() << ",\n\"summary\":{";
    bool first = true;
    for (const auto& [name, s] : spans) {
      out << (first ? "" : ",") << "\n" << JsonString(name)
          << ":{\"ops\":" << s.ops << ",\"spans\":" << s.spans
          << ",\"total_ms\":" << Fixed(s.total_ms, 6)
          << ",\"self_ms\":" << Fixed(s.self_ms, 6) << "}";
      first = false;
    }
    out << "},\n\"spans\":" << tracer.ToJson() << "}\n";
  }

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name) {
    json << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
         << Full(metrics[name]) << ", \"unit\": " << JsonString(UnitOf(name))
         << "}";
    first = false;
  };
  if (options.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace tripriv

int main(int argc, char** argv) { return tripriv::perfbench::Main(argc, argv); }
