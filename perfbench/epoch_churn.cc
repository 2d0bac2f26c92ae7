// epoch_churn: writes beside reads. An EpochedDatabase over a 20000-row
// clinical trial (k = 25, QI columns {0, 1}); each operation submits 64
// mutations (Zipf-hot updates plus equal inserts and deletes, so the row
// count holds), flips the epoch on the pool, and reads 16 rows of the new
// epoch through EpochPirReader.

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "pir/epoch_pir.h"
#include "pir/it_pir.h"
#include "sdc/incremental_mdav.h"
#include "service/audit_wal.h"
#include "service/epoch_service.h"
#include "table/datasets.h"
#include "table/mutation.h"
#include "table/versioned_table.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/workload.h"
#include "workload.h"

namespace tripriv {
namespace perfbench {
namespace {

constexpr size_t kRows = 20000;
constexpr size_t kK = 25;
constexpr size_t kUpdates = 48;
constexpr size_t kDeletes = 8;
constexpr size_t kInserts = 8;
constexpr size_t kReads = 16;
constexpr double kZipfS = 1.1;

/// The text SnapshotRecords renders for one row (before zero padding).
std::string RowText(const DataTable& table, size_t r) {
  std::string text;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) text.push_back('|');
    text += table.at(r, c).ToDisplayString();
  }
  return text;
}

class EpochChurn final : public Workload {
 public:
  explicit EpochChurn(const WorkloadOptions& options)
      : options_(options), rng_(options.seed ^ 0xC4012Eull),
        read_rng_(options.seed ^ 0x2EADull),
        selection_rng_(options.seed ^ 0xA11CEull), zipf_(kRows, kZipfS) {}

  Status Setup(Tracer* /*tracer*/) override {
    EpochConfig config;
    config.k = kK;
    config.qi_cols = {0, 1};
    config.max_pending_mutations = 4096;
    TRIPRIV_ASSIGN_OR_RETURN(
        EpochedDatabase db,
        EpochedDatabase::Create(MakeClinicalTrial(kRows, options_.seed), config,
                                &wal_io_, &store_));
    db_ = std::make_unique<EpochedDatabase>(std::move(db));
    reader_ = std::make_unique<EpochPirReader>(db_->manager());
    // Render the first epoch's replicas so the first operation, like every
    // later one, pays exactly one rebuild (the one its flip causes).
    TRIPRIV_ASSIGN_OR_RETURN(auto warm,
                             reader_->ReadBatch({0}, &read_rng_, options_.pool));
    (void)warm;
    return Status::OK();
  }

  void NextInput() override {
    const PinnedEpoch current = db_->Pin();
    const std::vector<uint64_t>& uids = current->uids;
    batch_.clear();
    std::unordered_set<uint64_t> touched;
    for (size_t i = 0; i < kUpdates; ++i) {
      const uint64_t uid = uids[zipf_.Sample(&rng_) % uids.size()];
      touched.insert(uid);
      batch_.push_back(RowMutation::Update(uid, RandomRow()));
    }
    for (size_t i = 0; i < kDeletes; ++i) {
      uint64_t uid = uids[rng_.UniformU64(uids.size())];
      while (touched.count(uid) > 0) uid = uids[rng_.UniformU64(uids.size())];
      touched.insert(uid);
      batch_.push_back(RowMutation::Delete(uid));
    }
    for (size_t i = 0; i < kInserts; ++i) {
      batch_.push_back(RowMutation::Insert(RandomRow()));
    }
    reads_.resize(kReads);
    for (size_t& r : reads_) {
      r = static_cast<size_t>(rng_.UniformU64(uids.size()));
    }
  }

  void Execute(Tracer* tracer, int op_span) override {
    before_ = Snapshot();
    if (tracer != nullptr) pre_flip_ = db_->Pin();
    submit_failures_ = 0;
    for (const RowMutation& mutation : batch_) {
      if (!db_->SubmitMutation(mutation).ok()) ++submit_failures_;
    }
    {
      ScopedSpan span(tracer, "service.epoch.flip", op_span);
      flip_span_ = span.id();
      flipped_ = db_->Flip(options_.pool);
    }
    ScopedSpan span(tracer, "pir.epoch.read_after_flip", op_span);
    read_ = reader_->ReadBatch(reads_, &read_rng_, options_.pool);
  }

  Status Check(OpOutcome* out) override {
    const Counters after = Snapshot();
    out->items = batch_.size();
    out->counts = {after.rows_reclustered - before_.rows_reclustered,
                   after.wal_bytes - before_.wal_bytes,
                   after.wal_records - before_.wal_records,
                   after.replica_builds - before_.replica_builds,
                   after.upload_bits - before_.upload_bits,
                   after.download_bits - before_.download_bits,
                   after.committed - before_.committed,
                   after.refused - before_.refused};
    if (submit_failures_ > 0) out->failed = true;
    if (!flipped_.ok()) {
      if (flipped_.status().code() == StatusCode::kFailedPrecondition) {
        out->expected_refusals = 1;  // the k-gate held the old epoch
      } else {
        out->failed = true;
      }
    }
    if (!read_.ok()) {
      out->failed = true;
      return Status::OK();
    }
    const PinnedEpoch current = db_->Pin();
    if (reader_->last_served_epoch() != current->epoch) {
      return Status::Internal("epoch_churn: reads were not served from the "
                              "epoch the flip published");
    }
    TRIPRIV_RETURN_IF_ERROR(VerifyEpoch(*current));
    for (size_t i = 0; i < reads_.size(); ++i) {
      if (RecordToString((*read_)[i]) !=
          RowText(current->protected_table, reads_[i])) {
        return Status::Internal("epoch_churn: a PIR read differs from the "
                                "protected row it indexes");
      }
    }
    return Status::OK();
  }

  Status Replay(Tracer* tracer) override {
    if (tracer == nullptr) return Status::OK();
    if (!pre_flip_.valid()) return Status::Internal("no pre-flip epoch pinned");
    {
      // The flip's build phases, replayed on the pinned pre-flip epoch.
      DataTable base = pre_flip_->base;
      std::vector<uint64_t> uids = pre_flip_->uids;
      uint64_t next_uid = pre_flip_->next_uid;
      Result<MutationApplyResult> applied = Status::Internal("not run");
      {
        ScopedSpan span(tracer, "table.apply_mutations", flip_span_);
        applied = ApplyMutations(batch_, &base, &uids, &next_uid);
      }
      TRIPRIV_RETURN_IF_ERROR(applied.status());
      std::unordered_map<uint64_t, size_t> prev_group;
      prev_group.reserve(pre_flip_->uids.size());
      for (size_t r = 0; r < pre_flip_->uids.size(); ++r) {
        prev_group[pre_flip_->uids[r]] = pre_flip_->group_of_row[r];
      }
      Result<IncrementalMdavResult> maintained = Status::Internal("not run");
      {
        ScopedSpan span(tracer, "sdc.incremental_mdav", flip_span_);
        maintained = IncrementalMdav(base, uids, db_->config().qi_cols, kK,
                                     prev_group, applied->dirty_uids,
                                     options_.pool);
      }
      TRIPRIV_RETURN_IF_ERROR(maintained.status());
      uint64_t checksum = 0;
      {
        ScopedSpan span(tracer, "table.checksum", flip_span_);
        checksum = TableChecksum(maintained->protected_table);
      }
      const PinnedEpoch current = db_->Pin();
      if (flipped_.ok() && checksum != current->protected_checksum) {
        return Status::Internal("epoch_churn: replayed flip built a different "
                                "protected table than the committed epoch");
      }
    }
    pre_flip_.Release();

    const PinnedEpoch current = db_->Pin();
    std::optional<XorPirServer> replica;
    {
      ScopedSpan span(tracer, "pir.epoch.render");
      auto records = SnapshotRecords(current->protected_table);
      TRIPRIV_ASSIGN_OR_RETURN(XorPirServer a, XorPirServer::Create(records));
      TRIPRIV_ASSIGN_OR_RETURN(XorPirServer b,
                               XorPirServer::Create(std::move(records)));
      replica.emplace(std::move(b));
    }
    const std::vector<uint8_t> selection =
        RandomSelectionBits(replica->num_records(), &selection_rng_);
    size_t selected = 0;
    for (uint8_t byte : selection) {
      selected += static_cast<size_t>(__builtin_popcount(byte));
    }
    const uint64_t t0 = NowNs();
    Result<std::vector<uint8_t>> answer = Status::Internal("not run");
    {
      ScopedSpan span(tracer, "pir.xor_answer");
      answer = replica->ComputeAnswer(selection, options_.pool);
    }
    const uint64_t t1 = NowNs();
    TRIPRIV_RETURN_IF_ERROR(answer.status());
    xor_gbps_.push_back(
        static_cast<double>(selected * replica->record_size()) /
        static_cast<double>(std::max<uint64_t>(1, t1 - t0)));

    Result<std::vector<std::vector<uint8_t>>> hit = Status::Internal("not run");
    {
      ScopedSpan span(tracer, "pir.epoch.read_batch");
      hit = reader_->ReadBatch(reads_, &read_rng_, options_.pool);
    }
    TRIPRIV_RETURN_IF_ERROR(hit.status());
    for (size_t i = 0; i < reads_.size(); ++i) {
      if (RecordToString((*hit)[i]) !=
          RowText(current->protected_table, reads_[i])) {
        return Status::Internal("epoch_churn: a cached-replica read differs "
                                "from the protected row it indexes");
      }
    }
    return Status::OK();
  }

  std::vector<std::string> CountNames() const override {
    return {"rows_reclustered", "wal_bytes",     "wal_records",
            "replica_builds",   "upload_bits",   "download_bits",
            "flips_committed",  "flips_refused"};
  }
  size_t ReplayOps() const override { return 8; }
  size_t ReplicaBytes() const override {
    const PinnedEpoch current = db_->Pin();
    const auto records = SnapshotRecords(current->protected_table);
    return records.size() * (records.empty() ? 0 : records[0].size());
  }

  void LayerMetrics(const std::map<std::string, Tracer::Summary>& spans,
                    const std::vector<OpOutcome>& outcomes,
                    std::map<std::string, double>* m) const override {
    const std::vector<std::string> names = CountNames();
    const double ops = static_cast<double>(outcomes.size());
    const double reads = ops * static_cast<double>(kReads);
    (*m)["pir.xor_answer_us"] = SpanMs(spans, "pir.xor_answer") * 1000.0;
    (*m)["pir.xor_gbps"] = Median(xor_gbps_);
    (*m)["pir.epoch.render_ms"] = SpanMs(spans, "pir.epoch.render");
    (*m)["pir.epoch.read_batch_ms"] = SpanMs(spans, "pir.epoch.read_batch");
    (*m)["pir.epoch.replica_builds_per_flip"] =
        CountPer(names, outcomes, "replica_builds", ops);
    (*m)["pir.upload_bits_per_read"] =
        CountPer(names, outcomes, "upload_bits", reads);
    (*m)["pir.download_bits_per_read"] =
        CountPer(names, outcomes, "download_bits", reads);
    (*m)["service.epoch.flip_ms"] = SpanMs(spans, "service.epoch.flip");
    (*m)["service.epoch.flip_other_ms"] =
        SpanMs(spans, "service.epoch.flip", /*self=*/true);
    (*m)["service.epoch.flips_refused"] =
        CountPer(names, outcomes, "flips_refused", 1.0);
    (*m)["table.apply_mutations_ms"] = SpanMs(spans, "table.apply_mutations");
    (*m)["table.checksum_ms"] = SpanMs(spans, "table.checksum");
    (*m)["sdc.incremental_mdav_ms"] = SpanMs(spans, "sdc.incremental_mdav");
    (*m)["sdc.rows_reclustered_per_flip"] =
        CountPer(names, outcomes, "rows_reclustered", ops);
    (*m)["service.wal.records_per_op"] =
        CountPer(names, outcomes, "wal_records", ops);
  }

 private:
  struct Counters {
    uint64_t rows_reclustered = 0;
    uint64_t wal_bytes = 0;
    uint64_t wal_records = 0;
    uint64_t replica_builds = 0;
    uint64_t upload_bits = 0;
    uint64_t download_bits = 0;
    uint64_t committed = 0;
    uint64_t refused = 0;
  };
  Counters Snapshot() const {
    return {db_->stats().rows_reclustered_total,
            wal_io_.size(),
            db_->wal().records_appended(),
            reader_->replica_builds(),
            reader_->stats().upload_bits,
            reader_->stats().download_bits,
            db_->stats().flips_committed,
            db_->stats().flips_refused_privacy};
  }

  std::vector<Value> RandomRow() {
    const int64_t height = rng_.UniformInt(150, 195);
    const int64_t weight =
        std::clamp<int64_t>(height - 100 + rng_.UniformInt(-15, 15), 40, 160);
    const int64_t bp = rng_.UniformInt(140, 200);
    return {Value(height), Value(weight), Value(bp),
            Value(rng_.Bernoulli(0.12) ? "Y" : "N")};
  }

  /// The published epoch is k-anonymous by group size and its stored
  /// checksum matches its protected table.
  Status VerifyEpoch(const EpochData& epoch) const {
    std::vector<size_t> sizes(epoch.num_groups, 0);
    for (size_t g : epoch.group_of_row) {
      if (g >= sizes.size()) return Status::Internal("group id out of range");
      ++sizes[g];
    }
    for (size_t s : sizes) {
      if (s < kK) {
        return Status::Internal("epoch_churn: a published epoch has a group "
                                "smaller than k");
      }
    }
    if (TableChecksum(epoch.protected_table) != epoch.protected_checksum) {
      return Status::Internal("epoch_churn: a published epoch's checksum "
                              "differs from its protected table");
    }
    return Status::OK();
  }

  WorkloadOptions options_;
  Rng rng_;
  Rng read_rng_;
  Rng selection_rng_;
  ZipfSampler zipf_;
  MemWalIo wal_io_;
  EpochStore store_;
  std::unique_ptr<EpochedDatabase> db_;
  std::unique_ptr<EpochPirReader> reader_;
  std::vector<RowMutation> batch_;
  std::vector<size_t> reads_;
  Counters before_;
  size_t submit_failures_ = 0;
  Result<uint64_t> flipped_ = Status::Internal("no flip yet");
  Result<std::vector<std::vector<uint8_t>>> read_ = Status::Internal("no read");
  PinnedEpoch pre_flip_;
  int flip_span_ = -1;
  std::vector<double> xor_gbps_;
};

}  // namespace

std::unique_ptr<Workload> MakeEpochChurn(const WorkloadOptions& options) {
  return std::make_unique<EpochChurn>(options);
}

}  // namespace perfbench
}  // namespace tripriv
