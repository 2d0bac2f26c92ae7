// Protected interactive statistical database.
//
// Section 3: "currently employed strategies rely on perturbing, restricting
// or replacing by intervals the answers to certain queries" — citing
// Chin & Ozsoyoglu [7] (auditing / restriction), Duncan & Mukherjee [14]
// (additive output noise), and Gopal et al. [16] (CVC interval answers).
// StatDatabase wraps a DataTable behind one of those mechanisms, and —
// crucially for the framework — keeps the full query log: every SDC method
// for interactive databases assumes the owner sees the queries, which is
// exactly why this protection family provides NO user privacy (Table 2).

#pragma once

#include <optional>
#include <vector>

#include "querydb/engine.h"
#include "util/random.h"

namespace tripriv {

/// Protection mechanism applied to query answers.
enum class ProtectionMode {
  kNone,            ///< exact answers, no restriction (the AOL scenario)
  kQuerySetSize,    ///< refuse when |QS| < t or |QS| > n - t
  kAudit,           ///< query-set-size + overlap control over the audit log
  kOutputNoise,     ///< exact size checks off; answers perturbed with noise
  kCamouflage,      ///< interval answers guaranteed to contain the truth
  /// The paper's "future research" direction, as it played out historically:
  /// epsilon-differential privacy via the Laplace mechanism. COUNT queries
  /// get Laplace(1/epsilon) noise; SUM/AVG use the public attribute range
  /// as sensitivity bound; MIN/MAX are refused (unbounded sensitivity).
  /// Unlike query auditing, no query inspection is needed — so this mode,
  /// alone among the respondent protections here, composes with PIR.
  kDifferentialPrivacy,
};

const char* ProtectionModeToString(ProtectionMode mode);

/// Configuration of a protected database.
struct ProtectionConfig {
  ProtectionMode mode = ProtectionMode::kQuerySetSize;
  /// Query-set-size threshold t.
  size_t min_query_set_size = 3;
  /// Output-noise standard deviation as a fraction of the aggregated
  /// attribute's standard deviation (Duncan-Mukherjee style).
  double noise_fraction = 0.15;
  /// Camouflage interval half-width as a fraction of the attribute range.
  double camouflage_fraction = 0.1;
  /// Per-query privacy budget for kDifferentialPrivacy.
  double epsilon = 1.0;
  uint64_t seed = 1;
};

/// The Chin-Ozsoyoglu-style admission policy over query sets: the
/// query-set-size bound and, in kAudit mode, pairwise overlap control
/// against previously answered sets. Factored out of StatDatabase so the
/// fault-tolerant QueryService front-end (src/service/) can run the same
/// policy against audit state it persists in a crash-recoverable WAL —
/// degraded serving must refuse exactly what the healthy policy refuses.
class AuditPolicy {
 public:
  /// `num_records` is the table size n of the "|QS| > n - t" upper bound.
  /// Modes other than kQuerySetSize / kAudit admit everything.
  AuditPolicy(ProtectionMode mode, size_t min_query_set_size,
              size_t num_records);

  /// Refusal reason for the sorted query set `rows`, or nullopt when the
  /// policy admits it. Pure: does not record anything. The overlap check
  /// walks the answered sets in answer order and refuses at the first one
  /// whose symmetric difference with `rows` is non-empty and below t; sets
  /// whose size differs from |rows| by t or more are skipped unread, and a
  /// merge count stops once it reaches t.
  std::optional<std::string> Check(const std::vector<size_t>& rows) const;

  /// Commits `rows` (sorted) for future overlap checks. Only kAudit keeps
  /// state; other modes drop the set.
  void RecordAnswered(std::vector<size_t> rows);

  const std::vector<std::vector<size_t>>& answered_sets() const {
    return answered_sets_;
  }
  ProtectionMode mode() const { return mode_; }
  size_t min_query_set_size() const { return min_query_set_size_; }

 private:
  ProtectionMode mode_;
  size_t min_query_set_size_;
  size_t num_records_;
  std::vector<std::vector<size_t>> answered_sets_;
};

/// Answer from a protected database.
struct ProtectedAnswer {
  bool refused = false;
  std::string refusal_reason;
  /// Point answer (kNone, kQuerySetSize, kAudit, kOutputNoise).
  double value = 0.0;
  /// Interval answer (kCamouflage); contains the true value.
  double interval_lo = 0.0;
  double interval_hi = 0.0;
};

/// An interactive statistical database guarded by one protection mode.
class StatDatabase {
 public:
  StatDatabase(DataTable data, ProtectionConfig config);

  /// Answers (or refuses) `query`; the query is logged either way. Matches
  /// the query set, runs the policy, then Protect.
  Result<ProtectedAnswer> Query(const StatQuery& query);

  /// Parses and answers a SQL-ish query string.
  Result<ProtectedAnswer> Query(std::string_view sql);

  /// Applies the protection mode to `exact`, the exact answer to `query`
  /// over its query set `rows`. Neither logs nor runs the policy: callers
  /// that own both (QueryService) answer from a query set they already
  /// have. COUNT answers read only `rows`; the noise, camouflage and DP
  /// modes of other aggregates also read the aggregated column once to
  /// scale their noise.
  Result<ProtectedAnswer> Protect(const StatQuery& query,
                                  const std::vector<size_t>& rows,
                                  const QueryAnswer& exact);

  /// The owner's complete view of user activity. Its existence is the
  /// user-privacy failure the paper attributes to query control.
  const std::vector<StatQuery>& query_log() const { return log_; }

  size_t num_records() const { return data_.num_rows(); }
  const DataTable& data() const { return data_; }
  const ProtectionConfig& config() const { return config_; }

 private:
  DataTable data_;
  ProtectionConfig config_;
  Rng rng_;
  std::vector<StatQuery> log_;
  /// Size/overlap policy; records the sets of *answered* queries (kAudit).
  AuditPolicy policy_;
};

}  // namespace tripriv

