#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "util/random.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint32_t Tracer::Intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

int Tracer::Begin(const std::string& name, int parent) {
  Span span;
  span.name = Intern(name);
  span.parent = parent;
  span.op = op_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

std::map<std::string, Tracer::Summary> Tracer::Summarize() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  // (name, op) -> accumulated total / self milliseconds and span count.
  struct Acc {
    double total = 0.0;
    double self = 0.0;
    size_t spans = 0;
  };
  std::map<std::pair<uint32_t, uint64_t>, Acc> per_op;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double ms = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    Acc& acc = per_op[{span.name, span.op}];
    acc.total += ms;
    acc.self += ms - child_ms[i];
    acc.spans += 1;
  }
  std::map<uint32_t, std::vector<const Acc*>> by_name;
  for (const auto& [key, acc] : per_op) by_name[key.first].push_back(&acc);
  std::map<std::string, Summary> out;
  for (const auto& [name, accs] : by_name) {
    std::vector<double> totals;
    std::vector<double> selves;
    Summary summary;
    for (const Acc* acc : accs) {
      totals.push_back(acc->total);
      selves.push_back(acc->self);
      summary.spans += acc->spans;
    }
    summary.total_ms = Median(totals);
    summary.self_ms = Median(selves);
    summary.ops = accs.size();
    out[names_[name]] = summary;
  }
  return out;
}

std::string Tracer::ToJson() const {
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ",\n";
    os << "{\"id\":" << i << ",\"name\":" << JsonString(names_[s.name])
       << ",\"parent\":" << s.parent << ",\"op\":";
    if (s.op == kSetupOp) {
      os << "\"setup\"";
    } else {
      os << s.op;
    }
    os << ",\"start_ns\":" << (s.start_ns - origin)
       << ",\"end_ns\":" << (s.end_ns - origin) << "}";
  }
  os << "]";
  return os.str();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailLatency(std::vector<double> v) {
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= 10) {
    tail.value = v.back();
    return tail;
  }
  tail.value = v[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

CpuJiffies ReadCpuJiffies() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string label;
  uint64_t nice = 0, idle = 0, iowait = 0, irq = 0, softirq = 0;
  if (in >> label && label == "cpu") {
    in >> j.user >> nice >> j.system >> idle >> iowait >> irq >> softirq >>
        j.steal;
  }
  return j;
}

double LoadAverage1m() {
  std::ifstream in("/proc/loadavg");
  double load = -1.0;
  if (!(in >> load)) return -1.0;
  return load;
}

namespace {
// Keeps the stream reduction observable so it cannot be optimized away.
volatile uint64_t g_stream_sink = 0;
}  // namespace

double StreamReadGbps(size_t bytes, ThreadPool* pool, int reps) {
  const size_t words = std::max<size_t>(1, (bytes + 7) / 8);
  std::vector<uint64_t> buffer(words);
  Rng rng(0x57AEu);
  for (uint64_t& w : buffer) w = rng.NextU64();
  std::vector<double> gbps;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<uint64_t> partial(pool == nullptr ? 1 : pool->NumShards(words),
                                  0);
    const uint64_t t0 = NowNs();
    auto sweep = [&](size_t shard, size_t begin, size_t end) {
      uint64_t acc = 0;
      for (size_t i = begin; i < end; ++i) acc ^= buffer[i];
      partial[shard] = acc;
    };
    if (pool == nullptr) {
      sweep(0, 0, words);
    } else {
      pool->ParallelFor(words, sweep);
    }
    const uint64_t t1 = NowNs();
    uint64_t acc = 0;
    for (uint64_t p : partial) acc ^= p;
    g_stream_sink = g_stream_sink ^ acc;
    gbps.push_back(static_cast<double>(words * 8) /
                   static_cast<double>(std::max<uint64_t>(1, t1 - t0)));
  }
  return Median(gbps);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace perfbench
}  // namespace tripriv
