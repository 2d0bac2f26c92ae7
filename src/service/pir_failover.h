// Multi-server IT-PIR with failover.
//
// The 2-server XOR scheme (pir/it_pir.h) needs both servers of a pair to
// answer, and answers correctly only if neither lies: the client XORs two
// opaque blobs, so a single corrupt answer silently yields a corrupt
// record. FailoverPirClient makes the scheme serviceable:
//
//   * the database is replicated onto `num_pairs` independent server pairs;
//   * every stored record carries an 8-byte FNV-1a checksum suffix, so the
//     client can detect a corrupted reconstruction without any reference
//     copy (both pair members would have to corrupt consistently to forge
//     it — excluded by the non-collusion assumption IT-PIR already makes);
//   * a crashed server (kUnavailable) or a detected-corrupt reconstruction
//     fails the attempt over to the next pair under a RetryPolicy, with
//     backoff charged to the simulated clock and the caller's Deadline
//     enforced between attempts.
//
// Privacy note: failing over re-issues the query to a *different* pair with
// fresh selection randomness; no server ever sees both halves of one
// query, so the single-server view stays information-theoretically blind
// across retries.
//
// The client serves flat pairs only. The recursive hypercube scheme
// (pir/recursive_pir.h) runs behind EpochPirReader, not behind failover.

#pragma once

#include <cstdint>
#include <vector>

#include "pir/it_pir.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/retry.h"
#include "util/status.h"

namespace tripriv {

/// Injectable misbehaviour of one physical PIR server.
struct PirServerFault {
  /// Crashed: every query fails with kUnavailable.
  bool crashed = false;
  /// P(an answer comes back with a flipped byte).
  double corrupt_rate = 0.0;
  /// Diverged: every answer pass fails with kUnavailable (the replica
  /// refuses to compute; see XorPirServer::InjectComputeFault).
  bool diverged = false;
};

/// 2-server XOR PIR across `num_pairs` replicated pairs with checksum
/// verification and pair failover. See file comment.
class FailoverPirClient {
 public:
  /// Replicates `records` (plus per-record checksums) onto 2 * num_pairs
  /// servers. Requires num_pairs >= 1 and valid records (see
  /// XorPirServer::Create).
  static Result<FailoverPirClient> Build(
      const std::vector<std::vector<uint8_t>>& records, size_t num_pairs,
      const RetryPolicy& retry, SimClock* clock, uint64_t seed);

  /// Installs `fault` on physical server `server` (pair s / 2, side s % 2).
  void InjectFault(size_t server, const PirServerFault& fault);

  /// Privately reads record `index`, failing over across pairs under the
  /// retry policy and `deadline`. Returns the record WITHOUT its checksum
  /// suffix. Fails with kUnavailable when every attempt hit a crashed pair
  /// or a corrupt reconstruction, kDeadlineExceeded when time ran out.
  Result<std::vector<uint8_t>> Read(size_t index, const Deadline& deadline);

  /// Batched private reads with positional results. Pair assignment,
  /// selection randomness, observation logging, and fault draws all happen
  /// serially in index order; then ONE XorPirServer::ComputeBatch pass per
  /// server answers every selection aimed at it, tiled across `pool`
  /// (null = inline). When no fault fires, the rng transcript is identical
  /// to a serial Read loop. Items whose fast-path attempt fails (crashed
  /// pair, a replica failing its pass, corrupt reconstruction) fall back to
  /// the serial Read retry ladder, again in index order, so answers,
  /// counters, and server views are independent of the thread count.
  std::vector<Result<std::vector<uint8_t>>> ReadBatch(
      const std::vector<size_t>& indices, const Deadline& deadline,
      ThreadPool* pool = nullptr);

  size_t num_pairs() const { return servers_.size() / 2; }
  size_t num_records() const { return num_records_; }
  /// Attempts that moved past the first-choice pair.
  size_t failovers() const { return failovers_; }
  /// Reconstructions rejected by the checksum.
  size_t corrupt_answers_detected() const { return corrupt_detected_; }
  /// Sum of bytes_xored() across all physical servers — the aggregate work
  /// metric of the PIR hot loop.
  uint64_t total_bytes_xored() const {
    uint64_t total = 0;
    for (const XorPirServer& server : servers_) total += server.bytes_xored();
    return total;
  }
  /// Sum of bytes_streamed() across all physical servers: storage bytes
  /// walked, one replica pass per batch (or per single read).
  uint64_t total_bytes_streamed() const {
    uint64_t total = 0;
    for (const XorPirServer& server : servers_) {
      total += server.bytes_streamed();
    }
    return total;
  }
  /// Sum of queries_answered() across all physical servers.
  uint64_t total_queries_answered() const {
    uint64_t total = 0;
    for (const XorPirServer& server : servers_) {
      total += server.queries_answered();
    }
    return total;
  }
  /// Physical server `i` (pair i / 2, side i % 2) — its observation ring
  /// holds the single-server view the blindness tests inspect (enable it
  /// with EnableObservationLogs first).
  const XorPirServer& server(size_t i) const {
    TRIPRIV_CHECK_LT(i, servers_.size());
    return servers_[i];
  }

  /// Attack-analysis mode: turns on a bounded observation ring of
  /// `capacity` entries on every physical server (see
  /// XorPirServer::EnableObservationLog). Off by default.
  void EnableObservationLogs(size_t capacity);

 private:
  FailoverPirClient(const RetryPolicy& retry, SimClock* clock, uint64_t seed)
      : retry_(retry), clock_(clock), rng_(seed) {}

  /// One 2-server read against pair `pair`, with fault injection and
  /// checksum verification.
  Result<std::vector<uint8_t>> ReadFromPair(size_t pair, size_t index);
  /// True when a reconstruction's 8-byte suffix matches its payload.
  bool ChecksumHolds(const std::vector<uint8_t>& rec) const;

  RetryPolicy retry_;
  SimClock* clock_;
  Rng rng_;
  size_t num_records_ = 0;
  size_t payload_size_ = 0;  ///< record size before the checksum suffix
  std::vector<XorPirServer> servers_;  ///< [pair0 a, pair0 b, pair1 a, ...]
  std::vector<PirServerFault> faults_;
  size_t next_pair_ = 0;  ///< round-robin start of the next read
  size_t failovers_ = 0;
  size_t corrupt_detected_ = 0;
};

}  // namespace tripriv
