// stat_query: the statistical query-control ladder. A QueryService over a
// 20000-row census in query-set-size mode; each operation is one
// BatchExecutor query batch of 32 queries from the traffic simulator's three
// shape families (age range, education floor, region equality), keyed
// Zipf(1.1) over 750 keys.
//
// The audit WAL journals every admitted query set as 8-byte row ids, about
// 43 KB per query here, and an in-memory WAL device holds all of it. So
// that memory and WAL reallocations do not depend on how many operations a
// host completes in the run, the run starts a fresh service on a fresh WAL
// (untimed) once the WAL passes kSegmentWalBytes. Query-set-size control
// keeps no audit state across queries, so every answer is the one a single
// long-lived service gives.

#include <memory>
#include <string>

#include "querydb/query.h"
#include "service/audit_wal.h"
#include "service/batch_executor.h"
#include "service/query_service.h"
#include "table/datasets.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/workload.h"
#include "workload.h"

namespace tripriv {
namespace perfbench {
namespace {

constexpr size_t kRows = 20000;
constexpr size_t kBatch = 32;
constexpr uint64_t kKeys = 750;
constexpr double kZipfS = 1.1;
constexpr size_t kSegmentWalBytes = size_t{12} << 20;

/// The traffic simulator's key -> query-shape map: three families over the
/// census table with literals folded to a handful of values.
StatQuery QueryForKey(uint64_t key) {
  StatQuery query;
  query.table = "census";
  const uint64_t variant = key / 3;
  switch (key % 3) {
    case 0: {
      const int64_t lo = 18 + static_cast<int64_t>(variant % 55);
      query.where = Predicate::And(
          Predicate::Compare("age", CompareOp::kGe, Value(lo)),
          Predicate::Compare("age", CompareOp::kLe, Value(lo + 12)));
      break;
    }
    case 1: {
      const int64_t floor = 1 + static_cast<int64_t>(variant % 12);
      query.where =
          Predicate::Compare("education", CompareOp::kGe, Value(floor));
      break;
    }
    default:
      query.where = Predicate::Compare(
          "region", CompareOp::kEq, Value("R" + std::to_string(variant % 12)));
      break;
  }
  return query;
}

class StatQueryWorkload final : public Workload {
 public:
  explicit StatQueryWorkload(const WorkloadOptions& options)
      : options_(options), rng_(options.seed ^ 0x57A7ull), zipf_(kKeys, kZipfS) {}

  Status Setup(Tracer* tracer) override {
    table_ = MakeCensus(kRows, options_.seed);
    shadow_enabled_ = tracer != nullptr;
    return StartSegment();
  }

  void NextInput() override {
    if (wal_io_->size() >= kSegmentWalBytes) {
      // Untimed: a fresh service and WAL for the next segment.
      const Status started = StartSegment();
      TRIPRIV_CHECK(started.ok()) << started.ToString();
    }
    queries_.clear();
    for (size_t i = 0; i < kBatch; ++i) {
      queries_.push_back(QueryForKey(zipf_.Sample(&rng_)));
    }
  }

  void Execute(Tracer* tracer, int op_span) override {
    before_ = Snapshot();
    ScopedSpan span(tracer, "service.executor.query_batch", op_span);
    executor_span_ = span.id();
    if (options_.serial_reference) {
      answers_.clear();
      for (const StatQuery& query : queries_) {
        answers_.push_back(service_->Submit(query));
      }
    } else {
      answers_ = executor_->ExecuteQueryBatch(queries_);
    }
  }

  Status Check(OpOutcome* out) override {
    if (answers_.size() != queries_.size()) {
      return Status::Internal("stat_query: answer count differs from batch");
    }
    const Counters after = Snapshot();
    const uint64_t policy = after.policy_refusals - before_.policy_refusals;
    const uint64_t refusals = after.refusals - before_.refusals;
    const uint64_t dp = after.dp_answers - before_.dp_answers;
    out->items = answers_.size();
    out->expected_refusals = policy;
    out->failed = refusals != policy || dp > 0;
    out->counts = {after.protected_answers - before_.protected_answers,
                   policy,
                   dp,
                   refusals - policy,
                   after.wal_bytes - before_.wal_bytes,
                   after.wal_records - before_.wal_records};
    uint64_t protected_seen = 0;
    for (const ServiceAnswer& answer : answers_) {
      if (answer.tier == AnswerTier::kProtected) ++protected_seen;
    }
    if (protected_seen != out->counts[0]) {
      return Status::Internal("stat_query: answer tiers disagree with the "
                              "service's own counters");
    }
    return Status::OK();
  }

  Status Replay(Tracer* tracer) override {
    // The service layer on the same inputs: a shadow service that has seen
    // exactly the same query sequence runs Prepare and SubmitPrepared
    // serially, one span per call; its tiers must match the batch's.
    // Untraced operations only advance the shadow.
    if (tracer == nullptr) {
      for (const StatQuery& query : queries_) shadow_->Submit(query);
      return Status::OK();
    }
    uint64_t rows = 0;
    for (size_t i = 0; i < queries_.size(); ++i) {
      PreparedQuery prepared;
      {
        ScopedSpan span(tracer, "service.prepare", executor_span_);
        prepared = shadow_->Prepare(queries_[i]);
      }
      if (prepared.rows.ok()) rows += prepared.rows->size();
      ServiceAnswer answer;
      {
        ScopedSpan span(tracer, "service.submit", executor_span_);
        answer = shadow_->SubmitPrepared(queries_[i], std::move(prepared));
      }
      if (answer.tier != answers_[i].tier) {
        return Status::Internal("stat_query: the serial service path answered "
                                "at a different tier than the batch path");
      }
    }
    query_set_rows_ += rows;
    replayed_queries_ += queries_.size();
    return Status::OK();
  }

  std::vector<std::string> CountNames() const override {
    return {"protected_answers", "policy_refusals", "dp_answers",
            "other_refusals",    "wal_bytes",       "wal_records"};
  }
  bool ReplayRepeatsPoolCounts() const override { return false; }
  size_t ReplayOps() const override { return 16; }

  void LayerMetrics(const std::map<std::string, Tracer::Summary>& spans,
                    const std::vector<OpOutcome>& outcomes,
                    std::map<std::string, double>* m) const override {
    const std::vector<std::string> names = CountNames();
    const double ops = static_cast<double>(outcomes.size());
    const double queries = ops * static_cast<double>(kBatch);
    (*m)["service.executor.query_batch_ms"] =
        SpanMs(spans, "service.executor.query_batch");
    (*m)["service.executor.query_batch_self_ms"] =
        SpanMs(spans, "service.executor.query_batch", /*self=*/true);
    (*m)["service.prepare_ms_per_query"] =
        SpanMs(spans, "service.prepare") / static_cast<double>(kBatch);
    (*m)["service.submit_ms_per_query"] =
        SpanMs(spans, "service.submit") / static_cast<double>(kBatch);
    (*m)["service.wal.bytes_per_query"] =
        CountPer(names, outcomes, "wal_bytes", queries);
    (*m)["service.wal.records_per_op"] =
        CountPer(names, outcomes, "wal_records", ops);
    (*m)["service.protected_answers"] =
        CountPer(names, outcomes, "protected_answers", ops);
    (*m)["service.policy_refusals"] =
        CountPer(names, outcomes, "policy_refusals", ops);
    (*m)["service.dp_answers"] = CountPer(names, outcomes, "dp_answers", ops);
    (*m)["querydb.query_set_rows_per_query"] =
        replayed_queries_ == 0 ? 0.0
                               : static_cast<double>(query_set_rows_) /
                                     static_cast<double>(replayed_queries_);
  }

 private:
  struct Counters {
    uint64_t protected_answers = 0;
    uint64_t policy_refusals = 0;
    uint64_t refusals = 0;
    uint64_t dp_answers = 0;
    uint64_t wal_bytes = 0;
    uint64_t wal_records = 0;
  };
  Counters Snapshot() const {
    const ServiceStats& s = service_->stats();
    return {s.protected_answers, s.policy_refusals, s.refusals, s.dp_answers,
            wal_io_->size(), service_->wal().records_appended()};
  }

  static QueryServiceConfig Config() {
    QueryServiceConfig config;
    config.protection.mode = ProtectionMode::kQuerySetSize;
    // No request may expire under the SimClock cost model, and admission
    // never sheds: this workload times the ladder, not its shedding.
    config.default_deadline_ticks = UINT64_MAX / 4;
    config.admission.capacity = 1 << 20;
    return config;
  }

  Status StartSegment() {
    executor_.reset();
    service_.reset();
    wal_io_ = std::make_unique<MemWalIo>();
    TRIPRIV_ASSIGN_OR_RETURN(QueryService service,
                             QueryService::Create(table_, Config(), wal_io_.get()));
    service_ = std::make_unique<QueryService>(std::move(service));
    executor_ = std::make_unique<BatchExecutor>(service_.get(), options_.pool);
    if (shadow_enabled_) {
      shadow_.reset();
      shadow_wal_io_ = std::make_unique<MemWalIo>();
      TRIPRIV_ASSIGN_OR_RETURN(
          QueryService shadow,
          QueryService::Create(table_, Config(), shadow_wal_io_.get()));
      shadow_ = std::make_unique<QueryService>(std::move(shadow));
    }
    return Status::OK();
  }

  WorkloadOptions options_;
  Rng rng_;
  ZipfSampler zipf_;
  DataTable table_;
  std::unique_ptr<MemWalIo> wal_io_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<BatchExecutor> executor_;
  bool shadow_enabled_ = false;
  std::unique_ptr<MemWalIo> shadow_wal_io_;
  std::unique_ptr<QueryService> shadow_;
  std::vector<StatQuery> queries_;
  std::vector<ServiceAnswer> answers_;
  Counters before_;
  int executor_span_ = -1;
  uint64_t query_set_rows_ = 0;
  uint64_t replayed_queries_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeStatQuery(const WorkloadOptions& options) {
  return std::make_unique<StatQueryWorkload>(options);
}

}  // namespace perfbench
}  // namespace tripriv
