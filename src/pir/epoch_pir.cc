#include "pir/epoch_pir.h"

#include <string>
#include <utility>

namespace tripriv {

std::vector<std::vector<uint8_t>> SnapshotRecords(const DataTable& table) {
  std::vector<std::vector<uint8_t>> records;
  records.reserve(table.num_rows());
  size_t widest = 1;  // XOR PIR needs non-zero record length
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::string text;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) text.push_back('|');
      text += table.at(r, c).ToDisplayString();
    }
    records.emplace_back(text.begin(), text.end());
    if (records.back().size() > widest) widest = records.back().size();
  }
  for (auto& record : records) record.resize(widest, 0);
  return records;
}

std::string RecordToString(const std::vector<uint8_t>& record) {
  size_t len = record.size();
  while (len > 0 && record[len - 1] == 0) --len;
  return std::string(record.begin(), record.begin() + len);
}

uint64_t EpochPirReader::preprocess_bytes() const {
  uint64_t total = 0;
  for (const Replicas& entry : cache_) {
    if (entry.a != nullptr) total += entry.a->preprocess_bytes();
    if (entry.b != nullptr) total += entry.b->preprocess_bytes();
  }
  return total;
}

Result<EpochPirReader::Replicas*> EpochPirReader::ReplicasFor(
    const PinnedEpoch& pinned) {
  const uint64_t epoch = pinned->epoch;
  for (Replicas& entry : cache_) {
    if (entry.epoch == epoch) return &entry;
  }
  // The flat pair's second replica is a copy of the first: the records are
  // laid out, and preprocessed, once per epoch. Recursive mode keeps one
  // replica, aliased 2^d times at read time, plus the epoch's hypercube
  // geometry (the row count may change per epoch).
  const auto records = SnapshotRecords(pinned->protected_table);
  TRIPRIV_ASSIGN_OR_RETURN(XorPirServer replica, XorPirServer::Create(records));
  if (options_.preprocess) {
    // Per-epoch preprocessing: the parity layout is rendered with the
    // replicas and evicted with them — the flip IS the invalidation.
    replica.Preprocess();
  }
  Replicas built;
  built.epoch = epoch;
  if (options_.dimensions <= 1) {
    built.b = std::make_unique<XorPirServer>(replica);
  } else {
    TRIPRIV_ASSIGN_OR_RETURN(
        built.geometry,
        HypercubeGeometry::Balanced(records.size(), options_.dimensions));
  }
  built.a = std::make_unique<XorPirServer>(std::move(replica));
  // A newly rendered epoch means any session scratch sized for an older
  // epoch's table is stale: drop it before the first read of this epoch.
  sessions_.InvalidateBefore(epoch);
  // At most two cached pairs — the manager's live-epoch bound. Oldest out.
  if (cache_.size() >= 2) cache_.erase(cache_.begin());
  cache_.push_back(std::move(built));
  ++replica_builds_;
  return &cache_.back();
}

uint64_t EpochPirReader::StreamedBy(const Replicas& replicas) {
  return replicas.a->bytes_streamed() +
         (replicas.b != nullptr ? replicas.b->bytes_streamed() : 0);
}

Result<std::vector<std::vector<uint8_t>>> EpochPirReader::ReadBatch(
    const std::vector<size_t>& indices, Rng* rng, ThreadPool* pool) {
  // One pin for the whole batch: every answer comes from the same frozen
  // epoch no matter how many flips land while the batch computes.
  PinnedEpoch pinned = manager_->Pin();
  TRIPRIV_ASSIGN_OR_RETURN(Replicas * replicas, ReplicasFor(pinned));
  last_served_epoch_ = pinned->epoch;
  const uint64_t streamed = StreamedBy(*replicas);
  Result<std::vector<std::vector<uint8_t>>> answers =
      Status::Internal("not read");
  if (options_.dimensions <= 1) {
    answers = TwoServerPirBatchRead(replicas->a.get(), replicas->b.get(),
                                    indices, rng, pool, &stats_);
  } else {
    PirSessionRegistry::Session* session = sessions_.Establish(
        options_.tenant_class, replicas->geometry, replicas->epoch);
    const std::vector<XorPirServer*> servers(
        replicas->geometry.num_servers(), replicas->a.get());
    answers = RecursivePirBatchRead(servers, replicas->geometry, indices, rng,
                                    pool, &stats_, session);
  }
  bytes_streamed_ += StreamedBy(*replicas) - streamed;
  return answers;
}

}  // namespace tripriv
