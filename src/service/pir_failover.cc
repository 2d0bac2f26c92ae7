#include "service/pir_failover.h"

#include "pir/xor_kernel.h"
#include "util/checksum.h"

namespace tripriv {
namespace {

/// Appends the 8-byte FNV-1a integrity suffix to every record so each
/// server stores checksummed records and any reconstruction is verifiable.
Result<std::vector<std::vector<uint8_t>>> ChecksumRecords(
    const std::vector<std::vector<uint8_t>>& records) {
  if (records.empty()) return Status::InvalidArgument("empty database");
  const size_t payload_size = records[0].size();
  std::vector<std::vector<uint8_t>> stored;
  stored.reserve(records.size());
  for (const auto& r : records) {
    if (r.size() != payload_size) {
      return Status::InvalidArgument("records must have equal length");
    }
    std::vector<uint8_t> with_sum = r;
    const uint64_t sum = Fnv1a64(r.data(), r.size());
    for (int i = 0; i < 8; ++i) {
      with_sum.push_back(static_cast<uint8_t>(sum >> (8 * i)));
    }
    stored.push_back(std::move(with_sum));
  }
  return stored;
}

}  // namespace

Result<FailoverPirClient> FailoverPirClient::Build(
    const std::vector<std::vector<uint8_t>>& records, size_t num_pairs,
    const RetryPolicy& retry, SimClock* clock, uint64_t seed) {
  TRIPRIV_CHECK(clock != nullptr);
  if (num_pairs < 1) {
    return Status::InvalidArgument("need at least one server group");
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto stored, ChecksumRecords(records));

  FailoverPirClient client(retry, clock, seed);
  client.num_records_ = records.size();
  client.payload_size_ = records[0].size();
  // Every replica is a copy of one rendered server: the records are laid
  // out once.
  TRIPRIV_ASSIGN_OR_RETURN(XorPirServer replica, XorPirServer::Create(stored));
  client.servers_.assign(2 * num_pairs, replica);
  client.faults_.resize(2 * num_pairs);
  return client;
}

void FailoverPirClient::InjectFault(size_t server, const PirServerFault& fault) {
  TRIPRIV_CHECK_LT(server, faults_.size());
  faults_[server] = fault;
  servers_[server].InjectComputeFault(
      fault.diverged ? Status::Unavailable("PIR server diverged") : Status());
}

void FailoverPirClient::EnableObservationLogs(size_t capacity) {
  for (auto& server : servers_) server.EnableObservationLog(capacity);
}

bool FailoverPirClient::ChecksumHolds(const std::vector<uint8_t>& rec) const {
  // rec is (payload | checksum); verify before trusting it.
  TRIPRIV_CHECK_EQ(rec.size(), payload_size_ + 8);
  uint64_t stored_sum = 0;
  for (int i = 0; i < 8; ++i) {
    stored_sum |= static_cast<uint64_t>(rec[payload_size_ + i]) << (8 * i);
  }
  return Fnv1a64(rec.data(), payload_size_) == stored_sum;
}

Result<std::vector<uint8_t>> FailoverPirClient::ReadFromPair(size_t pair,
                                                             size_t index) {
  const size_t a = 2 * pair;
  const size_t b = a + 1;
  for (size_t s : {a, b}) {
    if (faults_[s].crashed) {
      return Status::Unavailable("PIR server " + std::to_string(s) +
                                 " is down");
    }
  }

  std::vector<uint8_t> sel_a = RandomSelectionBits(num_records_, &rng_);
  std::vector<uint8_t> sel_b = sel_a;
  FlipSelectionBit(&sel_b, index);

  TRIPRIV_ASSIGN_OR_RETURN(auto ans_a, servers_[a].Answer(sel_a));
  TRIPRIV_ASSIGN_OR_RETURN(auto ans_b, servers_[b].Answer(sel_b));
  for (size_t s : {a, b}) {
    auto& ans = (s == a) ? ans_a : ans_b;
    if (!ans.empty() && rng_.Bernoulli(faults_[s].corrupt_rate)) {
      const size_t byte = static_cast<size_t>(rng_.UniformU64(ans.size()));
      ans[byte] ^= 0x5A;
    }
  }
  TRIPRIV_CHECK_EQ(ans_a.size(), ans_b.size());
  XorBytesInto(ans_a.data(), ans_b.data(), ans_a.size());
  if (!ChecksumHolds(ans_a)) {
    ++corrupt_detected_;
    return Status::Unavailable("PIR group " + std::to_string(pair) +
                               " returned a corrupt reconstruction");
  }
  ans_a.resize(payload_size_);
  return ans_a;
}

Result<std::vector<uint8_t>> FailoverPirClient::Read(size_t index,
                                                     const Deadline& deadline) {
  if (index >= num_records_) {
    return Status::OutOfRange("record index out of range");
  }
  const size_t pairs = num_pairs();
  const size_t first_pair = next_pair_;
  next_pair_ = (next_pair_ + 1) % pairs;

  Status last = Status::Unavailable("no PIR attempt was made");
  const size_t max_attempts = retry_.max_attempts < 1 ? 1 : retry_.max_attempts;
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (deadline.expired(*clock_)) {
      return DeadlineExceededError("PIR read after " +
                                   std::to_string(attempt) + " attempt(s)");
    }
    const size_t pair = (first_pair + attempt) % pairs;
    if (attempt > 0) ++failovers_;
    auto read = ReadFromPair(pair, index);
    if (read.ok()) return read;
    if (!read.status().transient()) return read.status();
    last = read.status();
    // Charge backoff to the simulated clock; the deadline check at the top
    // of the loop turns an expired budget into a typed failure.
    clock_->Advance(retry_.BackoffTicks(attempt));
  }
  return Status::Unavailable("PIR read failed after " +
                             std::to_string(max_attempts) +
                             " attempts across " + std::to_string(pairs) +
                             " group(s); last: " + last.message());
}

std::vector<Result<std::vector<uint8_t>>> FailoverPirClient::ReadBatch(
    const std::vector<size_t>& indices, const Deadline& deadline,
    ThreadPool* pool) {
  // One fast-path attempt per item against its round-robin pair, with all
  // randomness pre-drawn so the compute stage is pure.
  struct BatchAttempt {
    size_t pair = 0;
    bool fast_path = false;  ///< pair healthy; attempt runs in stage 2
    std::vector<uint8_t> sel_a;
    std::vector<uint8_t> sel_b;
    bool corrupt[2] = {false, false};
    size_t corrupt_byte[2] = {0, 0};
    size_t slot[2] = {0, 0};  ///< position in each side's pass
  };

  const size_t count = indices.size();
  const size_t pairs = num_pairs();
  const size_t stored_size = payload_size_ + 8;
  std::vector<Result<std::vector<uint8_t>>> results(
      count, Result<std::vector<uint8_t>>(
                 Status::Unavailable("PIR batch item not attempted")));
  std::vector<BatchAttempt> attempts(count);

  // Stage 1 (serial, index order): validate, assign pairs round-robin, draw
  // selection pairs and fault outcomes, log observations — the same rng
  // transcript a serial Read loop produces when no fault fires.
  const bool expired = deadline.expired(*clock_);
  for (size_t i = 0; i < count; ++i) {
    if (indices[i] >= num_records_) {
      results[i] = Status::OutOfRange("record index out of range");
      continue;
    }
    if (expired) {
      results[i] = DeadlineExceededError("PIR batch read");
      continue;
    }
    BatchAttempt& at = attempts[i];
    at.pair = next_pair_;
    next_pair_ = (next_pair_ + 1) % pairs;
    const size_t a = 2 * at.pair;
    const size_t b = a + 1;
    if (faults_[a].crashed || faults_[b].crashed) {
      continue;  // stage 3 sends this item down the retry ladder
    }
    at.sel_a = RandomSelectionBits(num_records_, &rng_);
    at.sel_b = at.sel_a;
    FlipSelectionBit(&at.sel_b, indices[i]);
    servers_[a].ObserveQuery(at.sel_a);
    servers_[b].ObserveQuery(at.sel_b);
    for (size_t side = 0; side < 2; ++side) {
      at.corrupt[side] = rng_.Bernoulli(faults_[a + side].corrupt_rate);
      if (at.corrupt[side]) {
        at.corrupt_byte[side] =
            static_cast<size_t>(rng_.UniformU64(stored_size));
      }
    }
    at.fast_path = true;
  }

  // Stage 2 (pure compute): one pass per server answers every fast-path
  // selection aimed at it, tiled across `pool`. Servers no item reached
  // make no pass. No rng, no counters, no shared mutation inside the pool;
  // a replica's failure comes back as its typed result.
  std::vector<ReplicaSelections> batch;
  std::vector<size_t> entry_of(servers_.size(), servers_.size());
  for (BatchAttempt& at : attempts) {
    if (!at.fast_path) continue;
    for (size_t side = 0; side < 2; ++side) {
      const size_t s = 2 * at.pair + side;
      if (entry_of[s] == servers_.size()) {
        entry_of[s] = batch.size();
        batch.push_back({&servers_[s], {}});
      }
      auto& selections = batch[entry_of[s]].selections;
      at.slot[side] = selections.size();
      selections.push_back(side == 0 ? &at.sel_a : &at.sel_b);
    }
  }
  std::vector<ReplicaAnswers> passes = XorPirServer::ComputeBatch(batch, pool);
  for (size_t s = 0; s < servers_.size(); ++s) {
    if (entry_of[s] != servers_.size() && passes[entry_of[s]].ok()) {
      servers_[s].ObservePass();
    }
  }

  // Stage 3 (serial, index order): reconstruct and verify, publish
  // verdicts, update counters, and run the failure ladder for items whose
  // fast-path attempt did not verify.
  for (size_t i = 0; i < count; ++i) {
    BatchAttempt& at = attempts[i];
    if (indices[i] >= num_records_ || expired) continue;  // already typed
    if (at.fast_path) {
      ReplicaAnswers& pass_a = passes[entry_of[2 * at.pair]];
      const ReplicaAnswers& pass_b = passes[entry_of[2 * at.pair + 1]];
      if (pass_a.ok() && pass_b.ok()) {
        std::vector<uint8_t> rec = std::move((*pass_a)[at.slot[0]]);
        const std::vector<uint8_t>& ans_b = (*pass_b)[at.slot[1]];
        TRIPRIV_CHECK_EQ(rec.size(), stored_size);
        if (at.corrupt[0]) rec[at.corrupt_byte[0]] ^= 0x5A;
        XorBytesInto(rec.data(), ans_b.data(), rec.size());
        if (at.corrupt[1]) rec[at.corrupt_byte[1]] ^= 0x5A;
        if (ChecksumHolds(rec)) {
          rec.resize(payload_size_);
          results[i] = std::move(rec);
          continue;
        }
        // Rejected by the checksum — same accounting as the serial
        // ReadFromPair path.
        ++corrupt_detected_;
      }
    }
    // The attempt moved past its first-choice pair (crashed, failed to
    // compute, or corrupt): charge a failover and backoff, then re-enter
    // the serial retry ladder with fresh randomness.
    ++failovers_;
    clock_->Advance(retry_.BackoffTicks(0));
    results[i] = Read(indices[i], deadline);
  }
  return results;
}

}  // namespace tripriv
