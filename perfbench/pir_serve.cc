// pir_serve: the Section 6 read path. A 2^17-row census table is masked
// with partitioned MDAV (k = 5); its records are served by a flat failover
// PIR client (2 replica pairs) behind QueryService, and each operation is
// one BatchExecutor PIR batch of 64 Zipf(1.1) indices.

#include <algorithm>
#include <memory>
#include <optional>

#include "pir/epoch_pir.h"
#include "pir/it_pir.h"
#include "sdc/partitioned_mdav.h"
#include "service/audit_wal.h"
#include "service/batch_executor.h"
#include "service/pir_failover.h"
#include "service/query_service.h"
#include "table/datasets.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/workload.h"
#include "workload.h"

namespace tripriv {
namespace perfbench {
namespace {

constexpr size_t kRows = size_t{1} << 17;
constexpr size_t kMdavK = 5;
constexpr size_t kPairs = 2;
constexpr size_t kBatch = 64;
constexpr double kZipfS = 1.1;

class PirServe final : public Workload {
 public:
  explicit PirServe(const WorkloadOptions& options)
      : options_(options), rng_(options.seed ^ 0x5E12E5ull),
        selection_rng_(options.seed ^ 0xA11CEull), zipf_(kRows, kZipfS) {}

  Status Setup(Tracer* tracer) override {
    const DataTable census = MakeCensus(kRows, options_.seed);
    std::vector<size_t> numeric_qis;
    for (size_t c : census.schema().QuasiIdentifierIndices()) {
      if (census.schema().attribute(c).type != AttributeType::kCategorical) {
        numeric_qis.push_back(c);
      }
    }
    std::optional<MicroaggregationResult> masked;
    {
      ScopedSpan span(tracer, "sdc.partitioned_mdav");
      TRIPRIV_ASSIGN_OR_RETURN(
          masked, PartitionedMdav(census, kMdavK, numeric_qis, options_.pool));
    }
    records_ = SnapshotRecords(masked->table);
    TRIPRIV_ASSIGN_OR_RETURN(
        QueryService service,
        QueryService::Create(std::move(masked->table), QueryServiceConfig{},
                             &wal_io_));
    service_ = std::make_unique<QueryService>(std::move(service));
    TRIPRIV_ASSIGN_OR_RETURN(
        FailoverPirClient pir,
        FailoverPirClient::Build(records_, kPairs, RetryPolicy{},
                                 service_->sim_clock(),
                                 options_.seed ^ 0x9151ull));
    pir_ = std::make_unique<FailoverPirClient>(std::move(pir));
    service_->AttachPirBackend(pir_.get());
    executor_ = std::make_unique<BatchExecutor>(service_.get(), options_.pool);
    return Status::OK();
  }

  void NextInput() override {
    indices_.resize(kBatch);
    for (size_t& index : indices_) {
      // Odd multiplier mod 2^17 is a bijection: hot ranks land scattered
      // across the table instead of clustering at its head.
      index = static_cast<size_t>((zipf_.Sample(&rng_) * 0x9E3779B1ull + 7) %
                                  kRows);
    }
  }

  void Execute(Tracer* tracer, int op_span) override {
    before_ = Snapshot();
    ScopedSpan span(tracer, "service.executor.pir_batch", op_span);
    executor_span_ = span.id();
    answers_ = executor_->ExecutePirBatch(indices_, Deadline());
  }

  Status Check(OpOutcome* out) override {
    if (answers_.size() != indices_.size()) {
      return Status::Internal("pir_serve: answer count differs from batch size");
    }
    for (size_t i = 0; i < answers_.size(); ++i) {
      if (!answers_[i].ok()) {
        out->failed = true;
        continue;
      }
      if (*answers_[i] != records_[indices_[i]]) {
        return Status::Internal("pir_serve: a PIR answer differs from the "
                                "masked record it indexes");
      }
    }
    const Counters after = Snapshot();
    out->items = answers_.size();
    out->counts = {after.bytes_xored - before_.bytes_xored,
                   after.queries - before_.queries,
                   after.failovers - before_.failovers,
                   after.corrupt - before_.corrupt};
    if (after.failovers != before_.failovers ||
        after.corrupt != before_.corrupt) {
      out->failed = true;
    }
    return Status::OK();
  }

  Status Replay(Tracer* tracer) override {
    if (tracer == nullptr) return Status::OK();
    {
      ScopedSpan span(tracer, "pir.failover_read_batch", executor_span_);
      answers_ = pir_->ReadBatch(indices_, Deadline(), options_.pool);
    }
    for (size_t i = 0; i < answers_.size(); ++i) {
      if (!answers_[i].ok() || *answers_[i] != records_[indices_[i]]) {
        return Status::Internal("pir_serve: replayed failover batch read a "
                                "wrong or missing record");
      }
    }
    const std::vector<uint8_t> selection =
        RandomSelectionBits(pir_->num_records(), &selection_rng_);
    size_t selected = 0;
    for (uint8_t byte : selection) {
      selected += static_cast<size_t>(__builtin_popcount(byte));
    }
    const uint64_t t0 = NowNs();
    Result<std::vector<uint8_t>> answer = Status::Internal("not run");
    {
      ScopedSpan span(tracer, "pir.xor_answer");
      answer = pir_->server(0).ComputeAnswer(selection, options_.pool);
    }
    const uint64_t t1 = NowNs();
    if (!answer.ok()) return answer.status();
    const double bytes =
        static_cast<double>(selected * pir_->server(0).record_size());
    xor_gbps_.push_back(bytes / static_cast<double>(std::max<uint64_t>(1, t1 - t0)));
    return Status::OK();
  }

  std::vector<std::string> CountNames() const override {
    return {"bytes_xored", "queries_answered", "failovers", "corrupt_detected"};
  }
  size_t ReplayOps() const override { return 8; }
  size_t ReplicaBytes() const override {
    return records_.empty() ? 0 : records_.size() * pir_->server(0).record_size();
  }

  void LayerMetrics(const std::map<std::string, Tracer::Summary>& spans,
                    const std::vector<OpOutcome>& outcomes,
                    std::map<std::string, double>* m) const override {
    const std::vector<std::string> names = CountNames();
    const double reads = static_cast<double>(outcomes.size() * kBatch);
    (*m)["pir.xor_answer_us"] = SpanMs(spans, "pir.xor_answer") * 1000.0;
    (*m)["pir.bytes_xored_per_read"] =
        CountPer(names, outcomes, "bytes_xored", reads);
    (*m)["pir.xor_gbps"] = Median(xor_gbps_);
    (*m)["pir.failover_read_batch_ms"] =
        SpanMs(spans, "pir.failover_read_batch");
    (*m)["pir.failovers"] = CountPer(names, outcomes, "failovers", 1.0);
    (*m)["pir.corrupt_detected"] =
        CountPer(names, outcomes, "corrupt_detected", 1.0);
    (*m)["service.executor.pir_batch_ms"] =
        SpanMs(spans, "service.executor.pir_batch");
    (*m)["service.executor.pir_batch_self_ms"] =
        SpanMs(spans, "service.executor.pir_batch", /*self=*/true);
    (*m)["sdc.partitioned_mdav_ms"] = SpanMs(spans, "sdc.partitioned_mdav");
  }

 private:
  struct Counters {
    uint64_t bytes_xored = 0;
    uint64_t queries = 0;
    uint64_t failovers = 0;
    uint64_t corrupt = 0;
  };
  Counters Snapshot() const {
    return {pir_->total_bytes_xored(), pir_->total_queries_answered(),
            pir_->failovers(), pir_->corrupt_answers_detected()};
  }

  WorkloadOptions options_;
  Rng rng_;
  Rng selection_rng_;
  ZipfSampler zipf_;
  MemWalIo wal_io_;
  std::vector<std::vector<uint8_t>> records_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<FailoverPirClient> pir_;
  std::unique_ptr<BatchExecutor> executor_;
  std::vector<size_t> indices_;
  std::vector<Result<std::vector<uint8_t>>> answers_;
  Counters before_;
  int executor_span_ = -1;
  std::vector<double> xor_gbps_;
};

}  // namespace

std::unique_ptr<Workload> MakePirServe(const WorkloadOptions& options) {
  return std::make_unique<PirServe>(options);
}

}  // namespace perfbench
}  // namespace tripriv
