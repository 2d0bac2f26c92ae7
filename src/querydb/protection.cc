#include "querydb/protection.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace tripriv {

const char* ProtectionModeToString(ProtectionMode mode) {
  switch (mode) {
    case ProtectionMode::kNone:
      return "none";
    case ProtectionMode::kQuerySetSize:
      return "query-set-size";
    case ProtectionMode::kAudit:
      return "audit";
    case ProtectionMode::kOutputNoise:
      return "output-noise";
    case ProtectionMode::kCamouflage:
      return "camouflage";
    case ProtectionMode::kDifferentialPrivacy:
      return "differential-privacy";
  }
  return "?";
}

AuditPolicy::AuditPolicy(ProtectionMode mode, size_t min_query_set_size,
                         size_t num_records)
    : mode_(mode),
      min_query_set_size_(min_query_set_size),
      num_records_(num_records) {}

namespace {

/// |a △ b| for sorted ranges, counted by merging and stopped as soon as the
/// count reaches `limit` (the return value is then >= limit). Pairs equal
/// elements one to one, as std::set_symmetric_difference does.
size_t SymmetricDifferenceUpTo(const std::vector<size_t>& a,
                               const std::vector<size_t>& b, size_t limit) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < a.size() && j < b.size() && count < limit) {
    if (a[i] < b[j]) {
      ++count;
      ++i;
    } else if (b[j] < a[i]) {
      ++count;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  if (count < limit) count += (a.size() - i) + (b.size() - j);
  return count;
}

}  // namespace

std::optional<std::string> AuditPolicy::Check(
    const std::vector<size_t>& rows) const {
  if (mode_ != ProtectionMode::kQuerySetSize &&
      mode_ != ProtectionMode::kAudit) {
    return std::nullopt;
  }
  const size_t t = min_query_set_size_;
  if (rows.size() < t) {
    return "query set smaller than " + std::to_string(t);
  }
  if (rows.size() + t > num_records_) {
    return "query set larger than n - " + std::to_string(t);
  }
  if (mode_ == ProtectionMode::kAudit) {
    // Overlap control (Chin-Ozsoyoglu flavour): refuse when the symmetric
    // difference with a previously answered query set would isolate fewer
    // than t records — the pair would function as a difference attack.
    for (const auto& prev : answered_sets_) {
      // |A △ B| >= ||A| - |B||, so a set t or more sizes away never refuses.
      const size_t gap = rows.size() > prev.size() ? rows.size() - prev.size()
                                                   : prev.size() - rows.size();
      if (gap >= t) continue;
      const size_t sym = SymmetricDifferenceUpTo(rows, prev, t);
      if (sym != 0 && sym < t) {
        return "audit: overlap with an answered query isolates " +
               std::to_string(sym) + " record(s)";
      }
    }
  }
  return std::nullopt;
}

void AuditPolicy::RecordAnswered(std::vector<size_t> rows) {
  if (mode_ != ProtectionMode::kAudit) return;
  answered_sets_.push_back(std::move(rows));
}

StatDatabase::StatDatabase(DataTable data, ProtectionConfig config)
    : data_(std::move(data)),
      config_(config),
      rng_(config.seed),
      policy_(config.mode, config.min_query_set_size, data_.num_rows()) {}

Result<ProtectedAnswer> StatDatabase::Query(const StatQuery& query) {
  log_.push_back(query);
  TRIPRIV_ASSIGN_OR_RETURN(auto rows, query.where.MatchingRows(data_));
  if (auto reason = policy_.Check(rows)) {
    ProtectedAnswer answer;
    answer.refused = true;
    answer.refusal_reason = *reason;
    return answer;
  }
  TRIPRIV_ASSIGN_OR_RETURN(QueryAnswer exact, AggregateRows(data_, query, rows));
  policy_.RecordAnswered(rows);
  return Protect(query, rows, exact);
}

Result<ProtectedAnswer> StatDatabase::Protect(const StatQuery& query,
                                              const std::vector<size_t>& rows,
                                              const QueryAnswer& exact) {
  ProtectedAnswer answer;
  switch (config_.mode) {
    case ProtectionMode::kNone:
    case ProtectionMode::kQuerySetSize:
    case ProtectionMode::kAudit:
      answer.value = exact.value;
      break;
    case ProtectionMode::kOutputNoise: {
      // Noise scale anchored to the aggregated attribute's dispersion (for
      // COUNT: to sqrt(n), the Duncan-Mukherjee deterrent regime).
      double scale;
      if (query.fn == AggregateFn::kCount) {
        scale = std::sqrt(static_cast<double>(data_.num_rows()));
      } else {
        auto col = data_.NumericColumn(query.attribute);
        if (!col.ok()) return col.status();
        scale = col->size() >= 2 ? SampleStddev(*col) : 1.0;
        if (query.fn == AggregateFn::kSum) {
          scale *= std::sqrt(static_cast<double>(std::max<size_t>(1, exact.query_set_size)));
        }
      }
      answer.value = exact.value + rng_.Normal(0.0, config_.noise_fraction * scale);
      if (query.fn == AggregateFn::kCount) {
        answer.value = std::max(0.0, std::round(answer.value));
      }
      break;
    }
    case ProtectionMode::kDifferentialPrivacy: {
      if (config_.epsilon <= 0.0) {
        return Status::FailedPrecondition("epsilon must be > 0");
      }
      // Laplace mechanism: noise scale = sensitivity / epsilon.
      double sensitivity = 1.0;
      switch (query.fn) {
        case AggregateFn::kCount:
          sensitivity = 1.0;
          break;
        case AggregateFn::kSum:
        case AggregateFn::kAvg: {
          // One respondent moves a SUM by at most the attribute range (a
          // public domain bound; estimated from the data here and noted as
          // leakage in DESIGN.md). AVG is released as a noisy SUM divided
          // by a noisy COUNT.
          auto col = data_.NumericColumn(query.attribute);
          if (!col.ok()) return col.status();
          sensitivity = col->empty() ? 1.0 : (Max(*col) - Min(*col));
          if (sensitivity <= 0.0) sensitivity = 1.0;
          break;
        }
        case AggregateFn::kMin:
        case AggregateFn::kMax:
          answer.refused = true;
          answer.refusal_reason =
              "MIN/MAX have unbounded sensitivity under differential privacy";
          return answer;
      }
      if (query.fn == AggregateFn::kAvg) {
        // Split the budget between the sum and the count.
        const double half_eps = config_.epsilon / 2.0;
        StatQuery sum_query = query;
        sum_query.fn = AggregateFn::kSum;
        TRIPRIV_ASSIGN_OR_RETURN(QueryAnswer exact_sum,
                                 AggregateRows(data_, sum_query, rows));
        const double noisy_sum =
            exact_sum.value + rng_.Laplace(0.0, sensitivity / half_eps);
        const double noisy_count =
            static_cast<double>(exact.query_set_size) +
            rng_.Laplace(0.0, 1.0 / half_eps);
        if (noisy_count < 1.0) {
          answer.refused = true;
          answer.refusal_reason = "noisy count too small to release an average";
          return answer;
        }
        answer.value = noisy_sum / noisy_count;
      } else {
        answer.value =
            exact.value + rng_.Laplace(0.0, sensitivity / config_.epsilon);
        if (query.fn == AggregateFn::kCount) {
          answer.value = std::max(0.0, std::round(answer.value));
        }
      }
      break;
    }
    case ProtectionMode::kCamouflage: {
      // Interval guaranteed to contain the truth; its placement is
      // randomized so the midpoint does not reveal the exact answer.
      double range;
      if (query.fn == AggregateFn::kCount) {
        range = static_cast<double>(data_.num_rows());
      } else {
        auto col = data_.NumericColumn(query.attribute);
        if (!col.ok()) return col.status();
        range = col->empty() ? 1.0 : (Max(*col) - Min(*col));
        if (query.fn == AggregateFn::kSum) {
          range *= static_cast<double>(std::max<size_t>(1, exact.query_set_size));
        }
      }
      const double half_width = std::max(1e-9, config_.camouflage_fraction * range);
      const double offset = rng_.UniformDouble(0.0, half_width);
      answer.interval_lo = exact.value - offset;
      answer.interval_hi = exact.value + (half_width - offset);
      answer.value = 0.5 * (answer.interval_lo + answer.interval_hi);
      break;
    }
  }
  return answer;
}

Result<ProtectedAnswer> StatDatabase::Query(std::string_view sql) {
  TRIPRIV_ASSIGN_OR_RETURN(StatQuery query, ParseQuery(sql));
  return Query(query);
}

}  // namespace tripriv
