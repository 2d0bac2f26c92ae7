// Tests for QueryService: the degradation ladder, WAL-backed audit
// recovery, admission shedding, deadline enforcement, crash semantics, and
// the attached aggregate-PIR / record-PIR paths.

#include "service/query_service.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "querydb/query.h"
#include "service/batch_executor.h"
#include "table/datasets.h"
#include "util/checksum.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

StatQuery Parse(const std::string& sql) {
  auto query = ParseQuery(sql);
  TRIPRIV_CHECK(query.ok()) << sql;
  return std::move(query).value();
}

/// FNV-1a and size of the kAudit WAL that
/// QueryServiceEquivalenceTest.AuditWalBytesArePinned writes.
constexpr uint64_t kPinnedAuditWalFnv = 0xD94DE65210F87EC3ull;
constexpr size_t kPinnedAuditWalSize = 714652;

QueryServiceConfig AuditConfig() {
  QueryServiceConfig config;
  config.protection.mode = ProtectionMode::kAudit;
  config.protection.min_query_set_size = 2;
  return config;
}

TEST(QueryServiceTest, HealthyServiceAnswersProtectedAndLogsDecisions) {
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  auto answer = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 172"));
  EXPECT_EQ(answer.tier, AnswerTier::kProtected);
  EXPECT_FALSE(answer.answer.refused);
  EXPECT_EQ(service->stats().protected_answers, 1u);
  // The decision is durable: a fresh recovery sees one admitted record.
  auto recovered = AuditWal::Recover(&wal);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->records.size(), 1u);
  EXPECT_EQ(recovered->records[0].decision, WalDecision::kAdmitted);
  EXPECT_EQ(recovered->records[0].rows.size(), 5u);  // heights < 172
}

TEST(QueryServiceTest, MatchesStatDatabaseRefusalBehaviour) {
  // The service must refuse exactly what a plain kAudit StatDatabase
  // refuses: the lifted policy is the same code over the same state.
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok());
  ProtectionConfig db_config;
  db_config.mode = ProtectionMode::kAudit;
  db_config.min_query_set_size = 2;
  StatDatabase db(PaperDataset2(), db_config);

  const std::string queries[] = {
      "SELECT SUM(blood_pressure) FROM t WHERE height < 172",
      "SELECT SUM(blood_pressure) FROM t WHERE height < 171",  // diff attack
      "SELECT SUM(blood_pressure) FROM t WHERE weight > 80",
      "SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105",  // |QS|=1
  };
  for (const auto& sql : queries) {
    auto from_service = service->Submit(Parse(sql));
    auto from_db = db.Query(sql);
    ASSERT_TRUE(from_db.ok());
    EXPECT_EQ(from_service.tier == AnswerTier::kRefused, from_db->refused)
        << sql;
    if (from_db->refused) {
      EXPECT_EQ(from_service.refusal.code(), StatusCode::kPermissionDenied);
    } else {
      EXPECT_DOUBLE_EQ(from_service.answer.value, from_db->value) << sql;
    }
  }
}

TEST(QueryServiceTest, BackendFaultsDegradeToDpNeverUnprotected) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.faults.backend_fault_rate = 1.0;  // primary path always fails
  config.retry.max_attempts = 2;
  config.epsilon_budget = 100.0;
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());

  const StatQuery query =
      Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  auto answer = service->Submit(query);
  ASSERT_EQ(answer.tier, AnswerTier::kDpDegraded);
  EXPECT_FALSE(answer.answer.refused);
  EXPECT_GT(service->epsilon_spent(), 0.0);
  EXPECT_EQ(service->stats().degraded_attempts, 1u);
  // The spend is durable.
  auto recovered = AuditWal::Recover(&wal);
  ASSERT_TRUE(recovered.ok());
  bool saw_spend = false;
  for (const auto& record : recovered->records) {
    saw_spend |= record.type == WalRecordType::kEpsilonSpend;
  }
  EXPECT_TRUE(saw_spend);
}

TEST(QueryServiceTest, ExhaustedEpsilonBudgetRefusesDegradedAnswers) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.faults.backend_fault_rate = 1.0;
  config.retry.max_attempts = 1;
  config.degrade_epsilon = 0.5;
  config.epsilon_budget = 1.0;  // two degraded answers, then dry
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());

  const StatQuery query = Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  EXPECT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
  EXPECT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
  auto third = service->Submit(query);
  EXPECT_EQ(third.tier, AnswerTier::kRefused);
  EXPECT_EQ(third.refusal.code(), StatusCode::kPermissionDenied);
  EXPECT_DOUBLE_EQ(service->epsilon_spent(), 1.0);
}

TEST(QueryServiceTest, EpsilonSpendSurvivesRestart) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.faults.backend_fault_rate = 1.0;
  config.retry.max_attempts = 1;
  config.degrade_epsilon = 0.5;
  config.epsilon_budget = 1.0;
  const StatQuery query = Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  {
    auto service = QueryService::Create(PaperDataset2(), config, &wal);
    ASSERT_TRUE(service.ok());
    EXPECT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
    EXPECT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
  }
  // Restart: the budget must not reset — waiting out a crash is not a way
  // to buy more epsilon.
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());
  EXPECT_DOUBLE_EQ(service->epsilon_spent(), 1.0);
  auto again = service->Submit(query);
  EXPECT_EQ(again.tier, AnswerTier::kRefused);
}

TEST(QueryServiceTest, AuditStateSurvivesRestart) {
  MemWalIo wal;
  {
    auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
    ASSERT_TRUE(service.ok());
    auto first = service->Submit(
        Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 172"));
    ASSERT_EQ(first.tier, AnswerTier::kProtected);
  }
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service->audit_policy().answered_sets().size(), 1u);
  // The difference attack across the restart boundary is still blocked.
  auto second = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 171"));
  EXPECT_EQ(second.tier, AnswerTier::kRefused);
  EXPECT_EQ(second.refusal.code(), StatusCode::kPermissionDenied);
}

TEST(QueryServiceTest, AdmissionShedsBurstsWithTypedStatus) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.admission.capacity = 2;
  config.admission.service_ticks = 1000;  // nothing drains during the burst
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());

  const StatQuery query = Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  EXPECT_EQ(service->Submit(query).tier, AnswerTier::kProtected);
  EXPECT_EQ(service->Submit(query).tier, AnswerTier::kProtected);
  auto shed = service->Submit(query);
  EXPECT_EQ(shed.tier, AnswerTier::kRefused);
  EXPECT_EQ(shed.refusal.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service->stats().shed, 1u);
}

TEST(QueryServiceTest, ExpiredDeadlineRefusesButStillRecordsTheDecision) {
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok());

  // Deadline already expired: typed refusal...
  auto late = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 172"),
      Deadline::After(*service->sim_clock(), 0));
  EXPECT_EQ(late.tier, AnswerTier::kRefused);
  EXPECT_EQ(late.refusal.code(), StatusCode::kDeadlineExceeded);
  // ...but the audit decision was recorded BEFORE the deadline check, so a
  // follow-up overlapping query is refused exactly as if the first had been
  // answered. Faults narrow what is answered; they never widen it.
  auto overlap = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 171"));
  EXPECT_EQ(overlap.tier, AnswerTier::kRefused);
  EXPECT_EQ(overlap.refusal.code(), StatusCode::kPermissionDenied);
}

TEST(QueryServiceTest, CrashMidAnswerFailsClosedAndRecoversMonotonically) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.faults.crash_mid_answer_rate = 1.0;
  {
    auto service = QueryService::Create(PaperDataset2(), config, &wal);
    ASSERT_TRUE(service.ok());
    auto answer = service->Submit(
        Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 172"));
    EXPECT_EQ(answer.tier, AnswerTier::kRefused);
    EXPECT_EQ(answer.refusal.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(service->crashed());
    // Once crashed, everything refuses.
    auto after = service->Submit(Parse("SELECT COUNT(*) FROM t"));
    EXPECT_EQ(after.tier, AnswerTier::kRefused);
  }
  wal.SimulateCrash();
  // Restart on the surviving log: the decision committed before the crash
  // is part of the recovered audit state (it might have been released).
  QueryServiceConfig healthy = AuditConfig();
  auto service = QueryService::Create(PaperDataset2(), healthy, &wal);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service->audit_policy().answered_sets().size(), 1u);
  auto overlap = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 171"));
  EXPECT_EQ(overlap.tier, AnswerTier::kRefused);
}

TEST(QueryServiceTest, WalFailureWithholdsAnswersButKeepsRefusing) {
  MemWalIo base;
  WalFaultPlan plan;
  plan.die_after_appends = 0;  // WAL device dead from the start
  FaultyWalIo wal(&base, plan);
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok());

  // An admissible query cannot be acknowledged without a durable record.
  auto answer = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 172"));
  EXPECT_EQ(answer.tier, AnswerTier::kRefused);
  EXPECT_EQ(answer.refusal.code(), StatusCode::kUnavailable);
  EXPECT_GE(service->stats().wal_append_failures, 1u);
  // Policy refusals are still released (refusing is always safe) ...
  auto refused = service->Submit(
      Parse("SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105"));
  EXPECT_EQ(refused.tier, AnswerTier::kRefused);
  EXPECT_EQ(refused.refusal.code(), StatusCode::kPermissionDenied);
  // ... and the in-memory audit state kept growing despite the dead WAL:
  // the first query's set still blocks its difference-attack partner.
  auto overlap = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 171"));
  EXPECT_EQ(overlap.tier, AnswerTier::kRefused);
  EXPECT_EQ(overlap.refusal.code(), StatusCode::kPermissionDenied);
}

TEST(QueryServiceTest, MalformedQueryRefusesWithoutTouchingAuditState) {
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok());
  StatQuery bad = Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  bad.where = Predicate::Compare("no_such_column", CompareOp::kLt, Value(1));
  auto answer = service->Submit(bad);
  EXPECT_EQ(answer.tier, AnswerTier::kRefused);
  EXPECT_EQ(service->audit_policy().answered_sets().size(), 0u);
  EXPECT_EQ(wal.size(), 0u);
}

TEST(QueryServiceTest, PrivateDpCountRunsThroughReplicaFailover) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.faults.aggregate_fault_rate = 0.5;
  config.faults.seed = 99;
  config.epsilon_budget = 100.0;
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());

  std::vector<GridAxis> grid = {{"height", 140, 205, 1},
                                {"weight", 40, 160, 1}};
  auto replica_a = PrivateAggregateServer::Build(PaperDataset2(), grid);
  auto replica_b = PrivateAggregateServer::Build(PaperDataset2(), grid);
  ASSERT_TRUE(replica_a.ok());
  ASSERT_TRUE(replica_b.ok());
  auto client = PrivateAggregateClient::Create(192, 3);
  ASSERT_TRUE(client.ok());
  Rng server_rng(21);
  service->AttachAggregateBackends({&*replica_a, &*replica_b}, &*client,
                                   &server_rng);

  Predicate predicate = Predicate::Compare("height", CompareOp::kLt, Value(175));
  const double spent_before = service->epsilon_spent();
  auto count = service->PrivateDpCount(predicate, Deadline());
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_GT(service->epsilon_spent(), spent_before);  // durable spend charged
  // The noisy count is within a plausible Laplace band of the truth (7 of
  // the 10 dataset-2 patients are shorter than 175 cm).
  EXPECT_NEAR(static_cast<double>(*count), 7.0, 60.0);
}

TEST(QueryServiceTest, PrivateDpCountWithoutBackendsIsTyped) {
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok());
  Predicate predicate = Predicate::Compare("height", CompareOp::kLt, Value(175));
  EXPECT_EQ(service->PrivateDpCount(predicate, Deadline()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryServiceTest, PirReadRoutesThroughAttachedFailoverClient) {
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service->PirRead(0, Deadline()).status().code(),
            StatusCode::kFailedPrecondition);

  std::vector<std::vector<uint8_t>> records = {{1, 2}, {3, 4}, {5, 6}};
  auto pir = FailoverPirClient::Build(records, 2, RetryPolicy{},
                                      service->sim_clock(), 5);
  ASSERT_TRUE(pir.ok());
  pir->InjectFault(0, PirServerFault{.crashed = true});
  service->AttachPirBackend(&*pir);
  auto read = service->PirRead(1, Deadline());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, records[1]);
}

TEST(QueryServiceTest, BreakerGatesEveryRetryAttempt) {
  // Regression: AllowRequest used to run once before the retry loop, so a
  // first attempt that tripped the breaker left the remaining retries
  // hammering the backend without breaker permission.
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  // Query-set-size mode: stateless, so the breaker (not audit overlap)
  // decides every outcome here.
  config.protection.mode = ProtectionMode::kQuerySetSize;
  config.faults.backend_fault_rate = 1.0;
  config.breaker.failure_threshold = 1;
  config.breaker.open_ticks = 1000;
  config.breaker.open_jitter_ticks = 0;
  config.retry.max_attempts = 4;
  config.retry.initial_backoff_ticks = 1;
  config.default_deadline_ticks = 500;
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());

  auto answer =
      service->Submit(Parse("SELECT COUNT(*) FROM t WHERE height < 175"));
  // Attempt 1 fails and trips the breaker; attempt 2 is breaker-rejected
  // and the primary path bails out to the degraded ladder at once.
  EXPECT_EQ(service->primary_breaker().state(), BreakerState::kOpen);
  EXPECT_GE(service->primary_breaker().rejected(), 1u);
  EXPECT_EQ(answer.tier, AnswerTier::kDpDegraded);
}

TEST(QueryServiceTest, HalfOpenWindowAdmitsExactlyOneProbeUnderBurst) {
  // A request with a multi-attempt retry budget arriving in the half-open
  // window must spend exactly ONE trial request: the probe fails, the
  // breaker reopens, and the remaining attempts are rejected — never a
  // burst of trials against a barely-recovered backend.
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  // Stateless protection: the same query can run twice without the audit
  // overlap policy refusing the second before it reaches the breaker.
  config.protection.mode = ProtectionMode::kQuerySetSize;
  config.faults.backend_fault_rate = 1.0;
  config.breaker.failure_threshold = 1;
  config.breaker.open_ticks = 8;
  config.breaker.open_jitter_ticks = 0;
  config.retry.max_attempts = 4;
  config.retry.initial_backoff_ticks = 1;
  config.default_deadline_ticks = 500;
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());

  const StatQuery query = Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  EXPECT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
  EXPECT_EQ(service->primary_breaker().state(), BreakerState::kOpen);
  EXPECT_EQ(service->primary_breaker().half_open_probes(), 0u);

  // Past the open window: the next request is the half-open burst.
  service->sim_clock()->Advance(16);
  const uint64_t rejected_before = service->primary_breaker().rejected();
  EXPECT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
  EXPECT_EQ(service->primary_breaker().half_open_probes(), 1u);
  EXPECT_EQ(service->primary_breaker().state(), BreakerState::kOpen);
  EXPECT_GT(service->primary_breaker().rejected(), rejected_before);
}

// --- Equivalence with the per-query re-evaluating ladder ------------------
// The service answers from the query set Prepare computed. The reference
// below is the ladder as it ran when every stage re-evaluated the query:
// the same admission, breaker, fault and budget steps, with the primary
// stage charging the scan ticks and then calling ExecuteQuery and
// StatDatabase::Query, and the degraded stage calling StatDatabase::Query.
// Tiers, refusal codes and messages, answer bits and the SimClock after
// every query must all agree.

/// Reference serving ladder. Not movable: breakers and admission hold
/// pointers to its clock.
class ReferenceLadder {
 public:
  ReferenceLadder(const DataTable& data, const QueryServiceConfig& config)
      : config_(config),
        policy_(config.protection.mode, config.protection.min_query_set_size,
                data.num_rows()),
        backend_(data, PrimaryConfig(config.protection)),
        dp_db_(data, DegradedConfig(config)),
        admission_(config.admission, &clock_),
        primary_breaker_(config.breaker, &clock_),
        dp_breaker_(WithSeed(config.breaker, config.breaker.seed ^ 0xD15EA5Eull),
                    &clock_),
        fault_rng_(config.faults.seed) {}
  ReferenceLadder(const ReferenceLadder&) = delete;

  SimClock* sim_clock() { return &clock_; }

  ServiceAnswer Submit(const StatQuery& query, const Deadline& deadline) {
    ServiceAnswer out;
    auto rows = query.where.MatchingRows(backend_.data());
    if (!rows.ok()) return Refused(rows.status());
    const std::optional<std::string> reason = policy_.Check(*rows);
    if (!reason) policy_.RecordAnswered(*rows);
    if (reason) return Refused(Status::PermissionDenied(*reason));
    Status admitted = admission_.Admit();
    if (!admitted.ok()) return Refused(admitted);
    if (deadline.expired(clock_)) {
      return Refused(DeadlineExceededError("request deadline at admission"));
    }
    auto primary = TryPrimary(query, deadline);
    if (primary.ok()) {
      if (primary->refused) {
        return Refused(Status::PermissionDenied(primary->refusal_reason));
      }
      if (fault_rng_.Bernoulli(config_.faults.crash_mid_answer_rate)) {
        ADD_FAILURE() << "the equivalence streams never crash";
      }
      out.tier = AnswerTier::kProtected;
      out.answer = *primary;
      return out;
    }
    if (primary.status().code() == StatusCode::kUnavailable) {
      return TryDegraded(query);
    }
    return Refused(primary.status());
  }

 private:
  static ProtectionConfig PrimaryConfig(ProtectionConfig protection) {
    if (protection.mode == ProtectionMode::kQuerySetSize ||
        protection.mode == ProtectionMode::kAudit) {
      protection.mode = ProtectionMode::kNone;
    }
    return protection;
  }
  static ProtectionConfig DegradedConfig(const QueryServiceConfig& config) {
    ProtectionConfig out;
    out.mode = ProtectionMode::kDifferentialPrivacy;
    out.epsilon = config.degrade_epsilon;
    out.seed = config.seed ^ 0x9E3779B97F4A7C15ULL;
    return out;
  }
  static CircuitBreakerConfig WithSeed(CircuitBreakerConfig config,
                                       uint64_t seed) {
    config.seed = seed;
    return config;
  }
  static ServiceAnswer Refused(Status why) {
    ServiceAnswer out;
    out.tier = AnswerTier::kRefused;
    out.refusal = std::move(why);
    return out;
  }

  Result<ProtectedAnswer> TryPrimary(const StatQuery& query,
                                     const Deadline& deadline) {
    const RetryPolicy retry =
        config_.retry.Truncated(deadline.remaining_ticks(clock_));
    const size_t max_attempts = retry.max_attempts < 1 ? 1 : retry.max_attempts;
    Status last = Status::Unavailable("no primary attempt was made");
    for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
      if (deadline.expired(clock_)) {
        return DeadlineExceededError("primary path after " +
                                     std::to_string(attempt) + " attempt(s)");
      }
      if (!primary_breaker_.AllowRequest()) {
        return Status::Unavailable("primary circuit breaker is open");
      }
      if (fault_rng_.Bernoulli(config_.faults.backend_fault_rate)) {
        primary_breaker_.RecordFailure();
        last = Status::Unavailable("injected primary backend fault");
        clock_.Advance(retry.BackoffTicks(attempt));
        continue;
      }
      // Scan cost, charged before a full evaluation of the query.
      if (deadline.expired(clock_)) {
        return DeadlineExceededError("query evaluation (not started)");
      }
      const size_t n = backend_.data().num_rows();
      clock_.Advance(n / kEvalRowsPerTick + 1);
      if (deadline.expired(clock_)) {
        return DeadlineExceededError("query evaluation over " +
                                     std::to_string(n) + " rows");
      }
      auto evaluated = ExecuteQuery(backend_.data(), query);
      if (!evaluated.ok()) {
        primary_breaker_.RecordSuccess();
        return evaluated.status();
      }
      auto answer = backend_.Query(query);
      primary_breaker_.RecordSuccess();
      return answer;
    }
    return Status::Unavailable("primary path failed after " +
                               std::to_string(max_attempts) +
                               " attempt(s); last: " + last.message());
  }

  ServiceAnswer TryDegraded(const StatQuery& query) {
    if (!dp_breaker_.AllowRequest()) {
      return Refused(Status::Unavailable("degraded-path circuit breaker is open"));
    }
    if (fault_rng_.Bernoulli(config_.faults.dp_fault_rate)) {
      dp_breaker_.RecordFailure();
      return Refused(Status::Unavailable("injected degraded-path fault"));
    }
    if (epsilon_spent_ + config_.degrade_epsilon >
        config_.epsilon_budget + 1e-12) {
      dp_breaker_.RecordSuccess();
      return Refused(
          Status::PermissionDenied("degraded-path privacy budget exhausted"));
    }
    auto answer = dp_db_.Query(query);
    dp_breaker_.RecordSuccess();
    if (!answer.ok()) return Refused(answer.status());
    if (answer->refused) {
      return Refused(Status::PermissionDenied(answer->refusal_reason));
    }
    epsilon_spent_ += config_.degrade_epsilon;
    if (fault_rng_.Bernoulli(config_.faults.crash_mid_answer_rate)) {
      ADD_FAILURE() << "the equivalence streams never crash";
    }
    ServiceAnswer out;
    out.tier = AnswerTier::kDpDegraded;
    out.answer = *answer;
    return out;
  }

  QueryServiceConfig config_;
  SimClock clock_;
  AuditPolicy policy_;
  StatDatabase backend_;
  StatDatabase dp_db_;
  AdmissionController admission_;
  CircuitBreaker primary_breaker_;
  CircuitBreaker dp_breaker_;
  Rng fault_rng_;
  double epsilon_spent_ = 0.0;
};

uint64_t Bits(double v) {
  uint64_t out;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

/// Tier, refusal code and message, and the bits of every answer field.
void ExpectSameAnswer(const ServiceAnswer& got, const ServiceAnswer& want,
                      const std::string& what) {
  ASSERT_EQ(got.tier, want.tier) << what << ": " << got.refusal.ToString()
                                 << " vs " << want.refusal.ToString();
  EXPECT_EQ(got.refusal.code(), want.refusal.code()) << what;
  EXPECT_EQ(got.refusal.message(), want.refusal.message()) << what;
  EXPECT_EQ(got.answer.refused, want.answer.refused) << what;
  EXPECT_EQ(got.answer.refusal_reason, want.answer.refusal_reason) << what;
  EXPECT_EQ(Bits(got.answer.value), Bits(want.answer.value)) << what;
  EXPECT_EQ(Bits(got.answer.interval_lo), Bits(want.answer.interval_lo)) << what;
  EXPECT_EQ(Bits(got.answer.interval_hi), Bits(want.answer.interval_hi)) << what;
}

constexpr size_t kEquivalenceRows = 2000;  // 8 scan ticks per evaluation
constexpr size_t kEquivalenceQueries = 200;

/// A seeded stream over MakeCensus: every aggregate, the three traffic
/// shapes, exact repeats and near-duplicates (overlap refusals), empty and
/// near-total sets (size refusals), plus an unknown attribute (a Prepare
/// error) and a categorical aggregate (a permanent primary error).
std::vector<StatQuery> EquivalenceStream(uint64_t seed) {
  Rng rng(seed);
  static const AggregateFn kFns[] = {AggregateFn::kCount, AggregateFn::kSum,
                                     AggregateFn::kAvg, AggregateFn::kMin,
                                     AggregateFn::kMax};
  static const char* kAttributes[] = {"income", "age", "education"};
  std::vector<StatQuery> out;
  for (size_t i = 0; i < kEquivalenceQueries; ++i) {
    StatQuery query;
    query.table = "census";
    query.fn = kFns[rng.UniformU64(5)];
    if (query.fn != AggregateFn::kCount) {
      query.attribute = kAttributes[rng.UniformU64(3)];
    }
    const int64_t lo = 18 + rng.UniformInt(0, 60);
    switch (rng.UniformU64(8)) {
      case 0:
      case 1:
        query.where = Predicate::And(
            Predicate::Compare("age", CompareOp::kGe, Value(lo)),
            Predicate::Compare("age", CompareOp::kLe,
                               Value(lo + rng.UniformInt(0, 12))));
        break;
      case 2:
        query.where = Predicate::Compare("education", CompareOp::kGe,
                                         Value(rng.UniformInt(1, 16)));
        break;
      case 3:
        query.where = Predicate::Compare(
            "region", CompareOp::kEq,
            Value("R" + std::to_string(rng.UniformU64(12))));
        break;
      case 4:
        if (!out.empty()) {
          query = out[rng.UniformU64(out.size())];  // exact repeat
        }
        break;
      case 5:
        // Near-total or empty selections.
        query.where = rng.UniformU64(2) == 0
                          ? Predicate::Compare("age", CompareOp::kGe, Value(0))
                          : Predicate::Compare("age", CompareOp::kLt, Value(0));
        break;
      case 6:
        query.where = Predicate::Or(
            Predicate::Compare("age", CompareOp::kLt, Value(lo)),
            Predicate::Compare("sex", CompareOp::kEq, Value("F")));
        break;
      default:
        if (rng.UniformU64(2) == 0) {
          query.where = Predicate::Compare("shoe_size", CompareOp::kEq, Value(1));
        } else {
          query.fn = AggregateFn::kSum;
          query.attribute = "diagnosis";
          query.where = Predicate::Compare("age", CompareOp::kLt, Value(lo));
        }
        break;
    }
    out.push_back(std::move(query));
  }
  return out;
}

QueryServiceConfig EquivalenceConfig(ProtectionMode mode) {
  QueryServiceConfig config;
  config.protection.mode = mode;
  config.protection.min_query_set_size = 5;
  config.faults.backend_fault_rate = 0.35;
  config.faults.dp_fault_rate = 0.15;
  config.faults.seed = 0x5EED;
  config.retry.max_attempts = 2;
  config.retry.initial_backoff_ticks = 1;
  config.breaker.failure_threshold = 3;
  config.breaker.open_ticks = 40;
  config.degrade_epsilon = 0.5;
  config.epsilon_budget = 16.0;  // runs dry partway through the stream
  config.default_deadline_ticks = 64;
  return config;
}

/// Every 37th query gets a deadline shorter than one scan.
Deadline EquivalenceDeadline(size_t i, const SimClock& clock) {
  return Deadline::After(clock, i % 37 == 36 ? 3 : 64);
}

constexpr ProtectionMode kAllModes[] = {
    ProtectionMode::kNone,        ProtectionMode::kQuerySetSize,
    ProtectionMode::kAudit,       ProtectionMode::kOutputNoise,
    ProtectionMode::kCamouflage,  ProtectionMode::kDifferentialPrivacy};

TEST(QueryServiceEquivalenceTest, EveryModeMatchesTheReEvaluatingLadder) {
  const DataTable data = MakeCensus(kEquivalenceRows, 17);
  const std::vector<StatQuery> stream = EquivalenceStream(0xE0E0);
  size_t mid_scan_deadlines = 0;
  size_t tiers[3] = {0, 0, 0};
  for (ProtectionMode mode : kAllModes) {
    SCOPED_TRACE(ProtectionModeToString(mode));
    const QueryServiceConfig config = EquivalenceConfig(mode);
    MemWalIo wal;
    auto service = QueryService::Create(data, config, &wal);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ReferenceLadder reference(data, config);
    for (size_t i = 0; i < stream.size(); ++i) {
      // Arrivals are 6 ticks apart, so the admission queue drains.
      service->sim_clock()->Advance(6);
      reference.sim_clock()->Advance(6);
      const ServiceAnswer got =
          service->Submit(stream[i], EquivalenceDeadline(i, *service->sim_clock()));
      const ServiceAnswer want =
          reference.Submit(stream[i], EquivalenceDeadline(i, *reference.sim_clock()));
      ExpectSameAnswer(got, want, "query " + std::to_string(i));
      ASSERT_EQ(service->sim_clock()->now(), reference.sim_clock()->now())
          << "query " << i;
      ++tiers[static_cast<int>(got.tier)];
      if (want.refusal.message().rfind("query evaluation over", 0) == 0) {
        ++mid_scan_deadlines;
      }
    }
  }
  // The streams reach every rung of the ladder, and a deadline expires
  // mid-scan.
  EXPECT_GT(tiers[static_cast<int>(AnswerTier::kProtected)], 250u);
  EXPECT_GT(tiers[static_cast<int>(AnswerTier::kDpDegraded)], 100u);
  EXPECT_GT(tiers[static_cast<int>(AnswerTier::kRefused)], 400u);
  EXPECT_GE(mid_scan_deadlines, 1u);
}

TEST(QueryServiceEquivalenceTest, BatchPathMatchesSerialSubmitAtAnyThreadCount) {
  const DataTable data = MakeCensus(kEquivalenceRows, 17);
  const std::vector<StatQuery> stream = EquivalenceStream(0xE0E1);
  for (ProtectionMode mode : kAllModes) {
    SCOPED_TRACE(ProtectionModeToString(mode));
    QueryServiceConfig config = EquivalenceConfig(mode);
    // No clock runs between queries of a batch, so admission must not shed.
    config.admission.capacity = 1 << 20;
    MemWalIo serial_wal;
    auto serial = QueryService::Create(data, config, &serial_wal);
    ASSERT_TRUE(serial.ok());
    std::vector<ServiceAnswer> want;
    size_t answered = 0;
    for (const StatQuery& query : stream) {
      want.push_back(serial->Submit(query));
      if (want.back().tier != AnswerTier::kRefused) ++answered;
    }
    EXPECT_GT(answered, stream.size() / 5);
    const auto want_bytes = serial_wal.ReadAll();
    ASSERT_TRUE(want_bytes.ok());

    for (size_t threads : {0u, 1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      MemWalIo wal;
      auto service = QueryService::Create(data, config, &wal);
      ASSERT_TRUE(service.ok());
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      BatchExecutor executor(&*service, pool.get());
      std::vector<ServiceAnswer> got;
      for (size_t begin = 0; begin < stream.size(); begin += 16) {
        const size_t end = std::min(stream.size(), begin + 16);
        const std::vector<StatQuery> batch(stream.begin() + begin,
                                           stream.begin() + end);
        for (ServiceAnswer& answer : executor.ExecuteQueryBatch(batch)) {
          got.push_back(std::move(answer));
        }
      }
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ExpectSameAnswer(got[i], want[i], "query " + std::to_string(i));
      }
      EXPECT_EQ(service->sim_clock()->now(), serial->sim_clock()->now());
      const auto bytes = wal.ReadAll();
      ASSERT_TRUE(bytes.ok());
      EXPECT_EQ(*bytes, *want_bytes);
    }
  }
}

TEST(QueryServiceEquivalenceTest, AuditWalBytesArePinned) {
  // kAudit journals every admitted query set, so its WAL bytes are the
  // same as when every mode journaled them. Pinned FNV-1a of the stream's
  // log.
  const DataTable data = MakeCensus(kEquivalenceRows, 17);
  const std::vector<StatQuery> stream = EquivalenceStream(0xE0E0);
  MemWalIo wal;
  auto service =
      QueryService::Create(data, EquivalenceConfig(ProtectionMode::kAudit), &wal);
  ASSERT_TRUE(service.ok());
  for (size_t i = 0; i < stream.size(); ++i) {
    service->Submit(stream[i], EquivalenceDeadline(i, *service->sim_clock()));
  }
  const auto bytes = wal.ReadAll();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->size(), kPinnedAuditWalSize);
  EXPECT_EQ(Fnv1a64(bytes->data(), bytes->size()), kPinnedAuditWalFnv);
}

TEST(QueryServiceTest, QuerySetSizeDecisionsCarryNoQuerySet) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.protection.mode = ProtectionMode::kQuerySetSize;
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());
  auto answer = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 172"));
  ASSERT_EQ(answer.tier, AnswerTier::kProtected);
  auto recovered = AuditWal::Recover(&wal);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->records.size(), 1u);
  EXPECT_EQ(recovered->records[0].decision, WalDecision::kAdmitted);
  EXPECT_TRUE(recovered->records[0].rows.empty());
  // The same log still reopens under the mode that wrote it.
  EXPECT_TRUE(QueryService::Create(PaperDataset2(), config, &wal).ok());
}

TEST(QueryServiceTest, AuditRecoveryRefusesADecisionWithoutItsQuerySet) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.protection.mode = ProtectionMode::kQuerySetSize;
  {
    auto service = QueryService::Create(PaperDataset2(), config, &wal);
    ASSERT_TRUE(service.ok());
    ASSERT_EQ(service
                  ->Submit(Parse(
                      "SELECT SUM(blood_pressure) FROM t WHERE height < 172"))
                  .tier,
              AnswerTier::kProtected);
  }
  // Reopened as kAudit, the overlap check could not see that answer: fail
  // closed rather than serve its difference-attack partner.
  auto audited = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_FALSE(audited.ok());
  EXPECT_EQ(audited.status().code(), StatusCode::kFailedPrecondition);
  // With t = 0 an admitted set may be empty, so nothing is provably missing.
  QueryServiceConfig no_threshold = AuditConfig();
  no_threshold.protection.min_query_set_size = 0;
  EXPECT_TRUE(QueryService::Create(PaperDataset2(), no_threshold, &wal).ok());
}

}  // namespace
}  // namespace tripriv
