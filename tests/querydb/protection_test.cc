// Tests for the protected statistical database and the tracker attack.

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "querydb/protection.h"
#include "querydb/tracker.h"
#include "table/datasets.h"
#include "util/random.h"

namespace tripriv {
namespace {

TEST(StatDatabaseTest, NoneModeAnswersExactly) {
  ProtectionConfig config;
  config.mode = ProtectionMode::kNone;
  StatDatabase db(PaperDataset2(), config);
  auto a = db.Query("SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105");
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->refused);
  EXPECT_DOUBLE_EQ(a->value, 1.0);
  // The owner saw everything: this is the no-user-privacy baseline.
  EXPECT_EQ(db.query_log().size(), 1u);
}

TEST(StatDatabaseTest, QuerySetSizeRefusesSmallSets) {
  ProtectionConfig config;
  config.mode = ProtectionMode::kQuerySetSize;
  config.min_query_set_size = 3;
  StatDatabase db(PaperDataset2(), config);
  // The paper's isolating query: refused.
  auto small = db.Query(
      "SELECT AVG(blood_pressure) FROM t WHERE height < 165 AND weight > 105");
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(small->refused);
  // Complements that would isolate via subtraction are refused too.
  auto large = db.Query(
      "SELECT COUNT(*) FROM t WHERE NOT (height < 165 AND weight > 105)");
  ASSERT_TRUE(large.ok());
  EXPECT_TRUE(large->refused);  // |QS| = 9 > n - t = 7
  // Mid-sized queries pass.
  auto mid = db.Query("SELECT COUNT(*) FROM t WHERE height < 175");
  ASSERT_TRUE(mid.ok());
  EXPECT_FALSE(mid->refused);
}

TEST(StatDatabaseTest, AuditBlocksDifferenceAttack) {
  ProtectionConfig config;
  config.mode = ProtectionMode::kAudit;
  config.min_query_set_size = 2;
  StatDatabase db(PaperDataset2(), config);
  // First query: heights below 172 (5 records: 168, 160, 171, 165, 158).
  auto first = db.Query("SELECT SUM(blood_pressure) FROM t WHERE height < 172");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->refused);
  // Second query differs by exactly one record (the 171 cm respondent):
  // answering it would disclose that individual by subtraction.
  auto second = db.Query("SELECT SUM(blood_pressure) FROM t WHERE height < 171");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->refused);
  // An unrelated query with healthy symmetric difference still passes.
  auto other = db.Query("SELECT SUM(blood_pressure) FROM t WHERE weight > 80");
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->refused);
}

TEST(StatDatabaseTest, OutputNoisePerturbs) {
  ProtectionConfig config;
  config.mode = ProtectionMode::kOutputNoise;
  config.noise_fraction = 0.3;
  config.seed = 5;
  StatDatabase db(MakeClinicalTrial(300, 7), config);
  // Averages over repeated identical queries hover near the truth but
  // individual answers differ.
  const std::string sql = "SELECT AVG(blood_pressure) FROM t WHERE height > 150";
  std::vector<double> answers;
  for (int i = 0; i < 30; ++i) {
    auto a = db.Query(sql);
    ASSERT_TRUE(a.ok());
    EXPECT_FALSE(a->refused);
    answers.push_back(a->value);
  }
  bool any_different = false;
  for (size_t i = 1; i < answers.size(); ++i) {
    if (answers[i] != answers[0]) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(StatDatabaseTest, CamouflageIntervalContainsTruth) {
  ProtectionConfig config;
  config.mode = ProtectionMode::kCamouflage;
  config.camouflage_fraction = 0.15;
  config.seed = 9;
  DataTable data = MakeClinicalTrial(100, 9);
  StatDatabase db(data, config);
  ProtectionConfig exact_config;
  exact_config.mode = ProtectionMode::kNone;
  StatDatabase exact(data, exact_config);
  for (const std::string sql :
       {"SELECT AVG(blood_pressure) FROM t WHERE height > 170",
        "SELECT COUNT(*) FROM t WHERE weight < 70",
        "SELECT SUM(weight) FROM t WHERE height < 180"}) {
    auto masked = db.Query(sql);
    auto truth = exact.Query(sql);
    ASSERT_TRUE(masked.ok() && truth.ok());
    EXPECT_LE(masked->interval_lo, truth->value) << sql;
    EXPECT_GE(masked->interval_hi, truth->value) << sql;
    EXPECT_LT(masked->interval_lo, masked->interval_hi);
  }
}

TEST(StatDatabaseTest, EveryQueryIsLoggedEvenWhenRefused) {
  ProtectionConfig config;
  config.mode = ProtectionMode::kQuerySetSize;
  config.min_query_set_size = 5;
  StatDatabase db(PaperDataset2(), config);
  ASSERT_TRUE(db.Query("SELECT COUNT(*) FROM t WHERE height < 150").ok());
  ASSERT_TRUE(db.Query("SELECT COUNT(*) FROM t WHERE height < 180").ok());
  EXPECT_EQ(db.query_log().size(), 2u);
  EXPECT_NE(db.query_log()[0].where.ToString(), "TRUE");
}

TEST(TrackerTest, FindTrackerLocatesUsablePadding) {
  ProtectionConfig config;
  config.mode = ProtectionMode::kQuerySetSize;
  config.min_query_set_size = 2;
  StatDatabase db(MakeClinicalTrial(60, 11), config);
  auto tracker = FindTracker(&db, "height", 140, 205);
  ASSERT_TRUE(tracker.has_value());
  // By construction both T and not-T are answerable.
  StatQuery probe;
  probe.fn = AggregateFn::kCount;
  probe.where = *tracker;
  auto a = db.Query(probe);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->refused);
}

TEST(TrackerTest, DefeatsQuerySetSizeControl) {
  // The Section 3 claim: size restriction alone cannot stop the tracker.
  ProtectionConfig config;
  config.mode = ProtectionMode::kQuerySetSize;
  config.min_query_set_size = 3;
  StatDatabase db(PaperDataset2(), config);

  const Predicate target = Predicate::And(
      Predicate::Compare("height", CompareOp::kLt, Value(165)),
      Predicate::Compare("weight", CompareOp::kGt, Value(105)));
  // Direct query refused.
  StatQuery direct;
  direct.fn = AggregateFn::kCount;
  direct.where = target;
  auto refused = db.Query(direct);
  ASSERT_TRUE(refused.ok());
  EXPECT_TRUE(refused->refused);

  auto tracker = FindTracker(&db, "height", 150, 200);
  ASSERT_TRUE(tracker.has_value());
  auto attack = TrackerAttack(&db, target, "blood_pressure", *tracker);
  ASSERT_TRUE(attack.ok());
  ASSERT_TRUE(attack->succeeded) << attack->failure_reason;
  EXPECT_DOUBLE_EQ(attack->inferred_count, 1.0);
  EXPECT_DOUBLE_EQ(attack->inferred_sum, 146.0);  // the paper's leak
  EXPECT_GE(attack->queries_used, 8u);
}

TEST(TrackerTest, AuditModeStopsOrDistortsTheAttack) {
  ProtectionConfig config;
  config.mode = ProtectionMode::kAudit;
  config.min_query_set_size = 3;
  StatDatabase db(PaperDataset2(), config);
  const Predicate target = Predicate::And(
      Predicate::Compare("height", CompareOp::kLt, Value(165)),
      Predicate::Compare("weight", CompareOp::kGt, Value(105)));
  auto tracker = FindTracker(&db, "height", 150, 200);
  if (!tracker.has_value()) {
    SUCCEED() << "no tracker found under audit: attack blocked earlier";
    return;
  }
  auto attack = TrackerAttack(&db, target, "blood_pressure", *tracker);
  ASSERT_TRUE(attack.ok());
  // Overlap auditing refuses the padded pair (C or T) / (C or not T): the
  // two sets differ by the singleton target.
  EXPECT_FALSE(attack->succeeded);
}

TEST(TrackerTest, NoiseModeBlursTheInference) {
  ProtectionConfig config;
  config.mode = ProtectionMode::kOutputNoise;
  config.noise_fraction = 0.5;
  config.seed = 13;
  StatDatabase db(PaperDataset2(), config);
  const Predicate target = Predicate::And(
      Predicate::Compare("height", CompareOp::kLt, Value(165)),
      Predicate::Compare("weight", CompareOp::kGt, Value(105)));
  const Predicate tracker =
      Predicate::Compare("height", CompareOp::kLt, Value(175));
  auto attack = TrackerAttack(&db, target, "blood_pressure", tracker);
  ASSERT_TRUE(attack.ok());
  ASSERT_TRUE(attack->succeeded);  // nothing refused...
  // ...but the inferred value is off the true 146 (noise accumulates over
  // the 4 sum queries; exact agreement would be a miracle).
  EXPECT_GT(std::fabs(attack->inferred_sum - 146.0), 0.5);
}

// --- Overlap auditing vs a set_symmetric_difference reference -------------
// AuditPolicy::Check skips answered sets more than t sizes away and counts
// the symmetric difference by a merge that stops at t. The reference below
// materializes every symmetric difference; decisions and messages must be
// identical on every query of every sequence.

std::optional<std::string> ReferenceAuditCheck(
    const std::vector<std::vector<size_t>>& answered,
    const std::vector<size_t>& rows, size_t t, size_t n) {
  if (rows.size() < t) return "query set smaller than " + std::to_string(t);
  if (rows.size() + t > n) return "query set larger than n - " + std::to_string(t);
  for (const auto& prev : answered) {
    std::vector<size_t> sym;
    std::set_symmetric_difference(rows.begin(), rows.end(), prev.begin(),
                                  prev.end(), std::back_inserter(sym));
    if (!sym.empty() && sym.size() < t) {
      return "audit: overlap with an answered query isolates " +
             std::to_string(sym.size()) + " record(s)";
    }
  }
  return std::nullopt;
}

std::vector<size_t> RandomSubset(Rng* rng, size_t n, size_t size) {
  std::vector<size_t> rows = rng->SampleWithoutReplacement(n, size);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// `base` with `swaps` members exchanged for non-members: same size,
/// symmetric difference 2 * swaps — the shape of a tracker's paired queries.
std::vector<size_t> SwapMembers(Rng* rng, const std::vector<size_t>& base,
                                size_t n, size_t swaps) {
  std::vector<size_t> out = base;
  std::vector<size_t> outside;
  for (size_t r = 0; r < n; ++r) {
    if (!std::binary_search(base.begin(), base.end(), r)) outside.push_back(r);
  }
  rng->Shuffle(&out);
  rng->Shuffle(&outside);
  for (size_t k = 0; k < swaps && k < out.size() && k < outside.size(); ++k) {
    out[k] = outside[k];
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(AuditPolicyTest, OverlapCheckMatchesSymmetricDifferenceReference) {
  const size_t n = 120;
  Rng rng(0xA0D17);
  size_t refusals = 0;
  size_t overlap_refusals = 0;
  size_t admits = 0;
  for (size_t t : {0u, 1u, 2u, 3u, 5u, 8u, 13u}) {
    for (int sequence = 0; sequence < 6; ++sequence) {
      AuditPolicy policy(ProtectionMode::kAudit, t, n);
      std::vector<std::vector<size_t>> answered;
      std::vector<size_t> last;
      for (int q = 0; q < 160; ++q) {
        std::vector<size_t> rows;
        const uint64_t shape = rng.UniformU64(5);
        if (shape == 0 || last.empty()) {
          rows = RandomSubset(&rng, n, rng.UniformU64(n + 1));
        } else if (shape == 1) {
          // Tracker pair: same size, a few members swapped.
          rows = SwapMembers(&rng, last, n, rng.UniformU64(t + 2));
        } else if (shape == 2) {
          // One record added or removed.
          rows = last;
          const size_t r = rng.UniformU64(n);
          auto it = std::lower_bound(rows.begin(), rows.end(), r);
          if (it != rows.end() && *it == r) {
            rows.erase(it);
          } else {
            rows.insert(it, r);
          }
        } else if (shape == 3) {
          rows = last;  // an exact repeat: empty symmetric difference
        } else {
          rows = RandomSubset(&rng, n, n / 2 + rng.UniformU64(t + 1));
        }
        const auto want = ReferenceAuditCheck(answered, rows, t, n);
        const auto got = policy.Check(rows);
        ASSERT_EQ(got, want) << "t=" << t << " query " << q;
        if (want) {
          ++refusals;
          if (want->rfind("audit:", 0) == 0) ++overlap_refusals;
        } else {
          ++admits;
          policy.RecordAnswered(rows);
          answered.push_back(rows);
        }
        last = rows;
      }
      ASSERT_EQ(policy.answered_sets(), answered);
    }
  }
  EXPECT_GT(admits, 500u);
  EXPECT_GT(overlap_refusals, 200u);
  EXPECT_GT(refusals, overlap_refusals);
}

}  // namespace
}  // namespace tripriv
