// Information-theoretic private information retrieval (Chor, Goldreich,
// Kushilevitz & Sudan [8]).
//
// The user-privacy primitive: retrieve record i from replicated,
// non-colluding servers such that no single server learns anything about i.
//   * 2-server XOR scheme: server A gets a uniformly random subset S of
//     record indices, server B gets S xor {i}; each returns the XOR of the
//     selected records; the two answers XOR to record i. Query cost:
//     n bits up, one record down, per server.
//   * the CGKS cube scheme, which splits the index over a grid and applies
//     the subset trick per axis, lives in pir/recursive_pir.h: d axes over
//     2^d replicas, O(d * n^(1/d)) upload bits per server (d = 2 is the
//     4-server sqrt(n) x sqrt(n) cube).
// The answer path is the system's steady-state hot loop, and every answer
// is an O(n) pass over the replica. A batch therefore pays for ONE pass
// per replica, not one per selection: XorPirServer::ComputeBatch walks each
// replica's contiguous, word-padded storage once, in L1-sized record
// chunks, and runs every selection aimed at that replica over a chunk
// before moving to the next. The pass fans across a ThreadPool as
// (replica x record-range) tiles with per-tile partial accumulators,
// XOR-merged in fixed tile order, so answers are bit-identical at any
// thread count; ComputeAnswer is the kernel's one-selection case.
// Preprocess() swaps the plain layout for a 64-byte-aligned pair-parity
// layout (the XOR analog of SealPIR's preprocess_ntt), the kernel's other
// layout branch. Batched reads (TwoServerPirBatchRead) draw all query
// randomness serially in index order, then answer the whole batch in one
// pass per replica — the whole transcript is a pure function of the seed
// and the batch.
//
// Recording what a server observed (its view of the protocol, used by the
// evaluation harness and the attack demos) is opt-in and bounded: under
// sustained traffic an always-on, unbounded log of O(n)-bit selection
// vectors is a memory leak, so servers only count queries unless
// EnableObservationLog turns the ring buffer on.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/annotations.h"
#include "table/aligned_buffer.h"
#include "util/random.h"
#include "util/status.h"

namespace tripriv {

class ThreadPool;

/// Uniformly random `n`-bit selection bitmap, packed LSB-first into bytes,
/// with the padding bits of the last byte zeroed so observed queries are
/// canonical. Fills 8 bitmap bytes per NextU64 draw (ceil(n/64) draws).
TRIPRIV_SENSITIVE(record)
std::vector<uint8_t> RandomSelectionBits(size_t n, Rng* rng);

/// Flips bit `i` of a packed LSB-first selection bitmap.
void FlipSelectionBit(std::vector<uint8_t>* bits, size_t i);

class XorPirServer;

/// One replica's share of a batched pass: the selections aimed at it, in
/// the order their answers come back. Selections are borrowed, not copied.
struct ReplicaSelections {
  const XorPirServer* server = nullptr;
  std::vector<const std::vector<uint8_t>*> selections;
};

/// One replica's answers, positional to its selections, or its failure.
using ReplicaAnswers = Result<std::vector<std::vector<uint8_t>>>;

/// One PIR server: a replica of the database of equal-length records,
/// answering XOR-subset queries.
class XorPirServer {
 public:
  /// Requires >= 1 record; all records must have equal, non-zero length.
  /// The records are copied into one contiguous word-padded buffer.
  static Result<XorPirServer> Create(
      const std::vector<std::vector<uint8_t>>& records);

  size_t num_records() const { return num_records_; }
  /// Logical record length in bytes (the storage pads it to whole words).
  size_t record_size() const { return record_size_; }

  /// XOR of the records selected by `selection` (one bit per record, packed
  /// LSB-first into bytes). Counts the query and the pass and, when the
  /// observation log is enabled, records the selection. `pool` (optional)
  /// tiles the pass across workers (see ComputeBatch).
  TRIPRIV_SENSITIVE(record)
  Result<std::vector<uint8_t>> Answer(const std::vector<uint8_t>& selection,
                                      ThreadPool* pool = nullptr);

  /// The pure compute half of Answer: thread-safe const, no counting or
  /// logging. The one-selection case of ComputeBatch.
  Result<std::vector<uint8_t>> ComputeAnswer(
      const std::vector<uint8_t>& selection, ThreadPool* pool = nullptr) const;

  /// The batched XOR kernel, pure and thread-safe like ComputeAnswer: ONE
  /// pass over each replica's storage answers every selection aimed at it.
  /// The pass walks L1-sized record chunks and runs all of the replica's
  /// selections over a chunk before moving to the next. With a pool, each
  /// replica is cut into record ranges whose count depends only on the
  /// replica, and the (replica x range) tiles fan out across the workers,
  /// each with its own partial accumulators; partials are XOR-merged in
  /// tile order, so answers are bit-identical at any thread count. Returns
  /// one entry per `batch` entry: its answers, or that replica's failure
  /// (an injected compute fault or a selection of the wrong length) —
  /// never a process abort. Entries with no selections make no pass.
  /// Callers count each answered pass with ObservePass.
  static std::vector<ReplicaAnswers> ComputeBatch(
      const std::vector<ReplicaSelections>& batch, ThreadPool* pool = nullptr);

  /// One-time per-epoch preprocessing — the XOR analog of SealPIR's
  /// preprocess_ntt. Replaces the plain layout with a 64-byte-aligned parity
  /// layout: each pair of adjacent records occupies three aligned slots
  /// [even, odd, even^odd], so a pass answers two selection bits with at
  /// most ONE aligned XOR instead of an expected one and a worst-case two.
  /// Answers are byte-identical with or without the layout (XOR algebra —
  /// only the pass changes), and bytes_xored() accounting is untouched
  /// because it is derived from the observed selection, not from the pass.
  /// Idempotent; the layout costs 1.5x the plain one, which it replaces.
  void Preprocess();
  bool preprocessed() const { return parity_; }
  /// Bytes held by the preprocessed layout (0 before Preprocess).
  uint64_t preprocess_bytes() const {
    return parity_ ? storage_.size_bytes() : 0;
  }
  /// Bytes of the layout one pass walks: the plain or the parity layout.
  uint64_t storage_bytes() const { return storage_.size_bytes(); }

  /// Injected adversity for error-path tests: once armed with a non-OK
  /// status, every ComputeAnswer / ComputeBatch pass over this replica (and
  /// therefore Answer) fails with it — the replica behaves as if it
  /// diverged from its pair. Arm with OK to disarm. Set only while no batch
  /// is in flight; reads are const and thread-safe.
  void InjectComputeFault(Status fault) { compute_fault_ = std::move(fault); }
  /// The armed fault, OK when disarmed: every pass over the replica fails
  /// with it. Lets a caller fail a batch before it draws or observes.
  const Status& injected_fault() const { return compute_fault_; }

  /// The bookkeeping half of Answer: increments the query counter and, when
  /// the log is enabled, appends `selection` to the bounded ring. Not
  /// thread-safe — batch executors call it from their serial stage.
  void ObserveQuery(const std::vector<uint8_t>& selection);

  /// The bookkeeping half of a pass: adds storage_bytes() to
  /// bytes_streamed(). Not thread-safe — batch executors call it from their
  /// serial stage, once per replica whose ComputeBatch entry succeeded.
  void ObservePass() { bytes_streamed_ += storage_bytes(); }

  /// Opt-in attack-analysis mode: retain the most recent `capacity` (>= 1)
  /// selection bitmaps for observed_query() inspection. Off by default.
  void EnableObservationLog(size_t capacity);
  bool observation_enabled() const { return observe_capacity_ > 0; }

  /// Total queries answered (counted whether or not the log is enabled).
  uint64_t queries_answered() const { return queries_answered_; }

  /// Bytes this replica XORed into answer accumulators: popcount of each
  /// observed selection times the record size, accumulated per query. The
  /// aggregate work metric of the PIR hot loop — never per-query data.
  uint64_t bytes_xored() const { return bytes_xored_; }

  /// Replica bytes streamed: storage_bytes() per observed pass, however
  /// many selections the pass answered. A batch of any size costs one pass.
  uint64_t bytes_streamed() const { return bytes_streamed_; }

  /// Observations currently retained: at most the enabled capacity, zero
  /// unless EnableObservationLog was called.
  size_t num_observed() const { return observed_.size(); }
  /// The `i`-th retained observation, oldest first. Requires i < num_observed().
  TRIPRIV_SENSITIVE(record)
  const std::vector<uint8_t>& observed_query(size_t i) const;
  /// The most recent observation. Requires num_observed() > 0.
  TRIPRIV_SENSITIVE(record)
  const std::vector<uint8_t>& last_observed_query() const;

  /// Direct (non-private) view of record `i`, for testing and for the
  /// baseline "no PIR" comparison. Valid until the next Preprocess.
  std::span<const uint8_t> record_bytes(size_t i) const {
    TRIPRIV_CHECK_LT(i, num_records_);
    const size_t slot = parity_ ? 3 * (i / 2) + i % 2 : i;
    return {storage_.bytes() + slot * slot_words_ * 8, record_size_};
  }

 private:
  /// Validates a replica's selections; OK when a pass may run.
  Status CheckPass(const std::vector<const std::vector<uint8_t>*>& selections)
      const;
  /// XORs the records selected in [begin, end) by each of `count`
  /// selections into the matching `xor_words()`-word accumulator of `accs`.
  /// `begin` is a multiple of the chunk size.
  void AccumulateTile(const std::vector<uint8_t>* const* selections,
                      size_t count, size_t begin, size_t end,
                      uint64_t* accs) const;
  /// Words each record contributes to an accumulator.
  size_t xor_words() const { return (record_size_ + 7) / 8; }

  /// The layout a pass walks: records at slot_words_ spacing, padding zero.
  /// Plain: slot i is record i. Parity (after Preprocess): pair p occupies
  /// slots 3p (even record), 3p + 1 (odd record) and 3p + 2 (their XOR).
  AlignedWordBuffer storage_;
  size_t num_records_ = 0;
  size_t record_size_ = 0;
  size_t slot_words_ = 0;
  bool parity_ = false;
  Status compute_fault_;  ///< injected compute failure (OK = disarmed)
  uint64_t queries_answered_ = 0;
  uint64_t bytes_xored_ = 0;
  uint64_t bytes_streamed_ = 0;
  /// Bounded observation ring (attack-analysis mode). `observed_` holds at
  /// most `observe_capacity_` entries; once full, `observe_head_` is the
  /// slot holding the oldest entry (and the one the next query overwrites).
  size_t observe_capacity_ = 0;
  size_t observe_head_ = 0;
  std::vector<std::vector<uint8_t>> observed_;
};

/// Communication accounting. Contract: EVERY read path — single, batch,
/// recursive, keyword — ACCUMULATES into the caller's struct with
/// `+=`, never overwrites, so one PirStats can meter an arbitrary
/// interleaving of read paths as a running total. Callers wanting per-query
/// numbers pass a freshly zeroed struct (or call Reset between reads).
struct PirStats {
  size_t upload_bits = 0;
  size_t download_bits = 0;

  void Reset() { upload_bits = download_bits = 0; }
};

/// Retrieves record `index` via the 2-server scheme. The two servers must
/// hold identical replicas.
Result<std::vector<uint8_t>> TwoServerPirRead(XorPirServer* server_a,
                                              XorPirServer* server_b,
                                              size_t index, Rng* rng,
                                              PirStats* stats = nullptr);

/// Batched 2-server reads. Selection randomness and observation logging
/// happen serially in index order — exactly the draws a TwoServerPirRead
/// loop would make — then ONE ComputeBatch pass per server answers every
/// selection, tiled across `pool` (null = inline). Answers are positional
/// and bit-identical to the serial loop at any thread count; `stats`
/// accumulates the batch totals. A replica's compute failure never aborts
/// the process: it fails every slot, and the first failing slot (slot 0)
/// is returned as the batch's typed error.
Result<std::vector<std::vector<uint8_t>>> TwoServerPirBatchRead(
    XorPirServer* server_a, XorPirServer* server_b,
    const std::vector<size_t>& indices, Rng* rng, ThreadPool* pool = nullptr,
    PirStats* stats = nullptr);

}  // namespace tripriv
