// table2: the batch job. One operation is one empirical Table 2 run
// (attack::RunEmpiricalTable2) at 10^5 census rows with seed 7. Its input
// does not depend on --seed: the scoreboard's config seed governs it, and
// the rendered JSON must hash to the digest recorded below.
//
// The traced run replays the scoreboard's layer calls (partitioned MDAV,
// Mondrian, and the public Run*Attack entry points) with the scoreboard's
// own configuration, each inside a span under the operation's span. What
// the spans do not cover is the operation's self time: the file-local
// noise/RR masking, dataset recovery, secure-sum transcripts and rendering.

#include <memory>
#include <string>
#include <vector>

#include "attack/fingerprint.h"
#include "attack/linkage.h"
#include "attack/nussbaum.h"
#include "attack/profiling.h"
#include "attack/scoreboard.h"
#include "ppdm/randomized_response.h"
#include "sdc/mondrian.h"
#include "sdc/noise.h"
#include "sdc/partitioned_mdav.h"
#include "service/traffic/simulator.h"
#include "table/datasets.h"
#include "table/mutation.h"
#include "util/checksum.h"
#include "workload.h"

namespace tripriv {
namespace perfbench {
namespace {

constexpr size_t kRows = 100000;
constexpr uint64_t kSeed = 7;
/// FNV-1a of Scoreboard::RenderJson() at kRows rows, seed 7.
constexpr uint64_t kExpectedJsonDigest = 0x3c53aec97cbf9be9ull;
/// TableChecksum of MakeCensusScale(kRows, kSeed), the scoreboard's input.
constexpr uint64_t kExpectedInputChecksum = 0x37da50c63f274d73ull;

std::vector<size_t> NumericCols(const DataTable& t, bool qi_only) {
  std::vector<size_t> out;
  for (size_t c = 0; c < t.schema().size(); ++c) {
    const Attribute& attr = t.schema().attribute(c);
    if (attr.type == AttributeType::kCategorical) continue;
    if (qi_only && attr.role != AttributeRole::kQuasiIdentifier) continue;
    out.push_back(c);
  }
  return out;
}

/// The scoreboard's Mondrian view: numeric columns become QIs, categorical
/// QIs become non-confidential.
Result<DataTable> MondrianView(const DataTable& original) {
  std::vector<Attribute> attrs = original.schema().attributes();
  for (Attribute& attr : attrs) {
    if (attr.type == AttributeType::kCategorical) {
      if (attr.role == AttributeRole::kQuasiIdentifier) {
        attr.role = AttributeRole::kNonConfidential;
      }
    } else {
      attr.role = AttributeRole::kQuasiIdentifier;
    }
  }
  DataTable view((Schema(std::move(attrs))));
  for (size_t r = 0; r < original.num_rows(); ++r) {
    TRIPRIV_RETURN_IF_ERROR(view.AppendRow(original.row(r)));
  }
  return view;
}

/// The scoreboard's randomized response over categorical confidentials.
Result<DataTable> MaskCategoricalConfidentials(DataTable release, double keep,
                                               uint64_t seed) {
  for (size_t c : release.schema().ConfidentialIndices()) {
    if (release.schema().attribute(c).type != AttributeType::kCategorical) {
      continue;
    }
    TRIPRIV_ASSIGN_OR_RETURN(
        release,
        RandomizedResponseMask(release, c, keep, seed ^ (0xC0FFEEull + c)));
  }
  return release;
}

class Table2 final : public Workload {
 public:
  explicit Table2(const WorkloadOptions& options) : options_(options) {
    config_.rows = kRows;
    config_.seed = kSeed;
  }

  Status Setup(Tracer* /*tracer*/) override {
    // Generating the scoreboard's input pins its identity: a changed
    // generator shows here, apart from a changed scoreboard.
    original_ = std::make_unique<DataTable>(MakeCensusScale(kRows, kSeed));
    input_checksum_ = TableChecksum(*original_);
    if (input_checksum_ != kExpectedInputChecksum) {
      return Status::Internal("table2: the census input differs from the "
                              "recorded one");
    }
    return Status::OK();
  }

  void NextInput() override {}

  void Execute(Tracer* tracer, int op_span) override {
    attack::AttackContext ctx;
    ctx.pool = options_.pool;
    ScopedSpan span(tracer, "attack.table2", op_span);
    table2_span_ = span.id();
    board_ = attack::RunEmpiricalTable2(config_, ctx);
  }

  Status Check(OpOutcome* out) override {
    if (!board_.ok()) {
      out->failed = true;
      return Status::OK();
    }
    const std::string json = board_->RenderJson();
    const uint64_t digest = Fnv1a64(json.data(), json.size());
    uint64_t trials = 0;
    for (const attack::ScoreboardRow& row : board_->rows()) {
      for (const attack::ScoreboardCell& cell : row.cells) {
        for (const attack::AttackOutcome& outcome : cell.outcomes) {
          trials += outcome.trials;
        }
      }
    }
    out->items = kRows;
    out->counts = {trials, digest >> 32, digest & 0xFFFFFFFFull, json.size(),
                   input_checksum_ >> 32, input_checksum_ & 0xFFFFFFFFull};
    if (digest != kExpectedJsonDigest) {
      return Status::Internal("table2: the scoreboard JSON differs from the "
                              "recorded digest");
    }
    return Status::OK();
  }

  Status Replay(Tracer* tracer) override {
    if (tracer == nullptr) return Status::OK();
    // Replayed spans are children of the scoreboard run they mirror.
    const int parent = table2_span_;
    const DataTable& original = *original_;
    attack::AttackContext actx;
    actx.seed = config_.seed;
    actx.pool = options_.pool;
    const std::vector<size_t> qi_cols = NumericCols(original, true);
    TRIPRIV_ASSIGN_OR_RETURN(const size_t income_col,
                             original.schema().IndexOf("income"));
    attack::LinkageConfig blocked;
    blocked.qi_cols = qi_cols;
    blocked.block_bins = config_.linkage_block_bins;
    attack::AttributeDisclosureConfig disclosure;
    disclosure.linkage = blocked;
    disclosure.confidential_col = income_col;
    disclosure.window_percent = config_.disclosure_window_percent;

    auto linkage = [&](const DataTable& masked) -> Status {
      ScopedSpan span(tracer, "attack.linkage", parent);
      return attack::RunRecordLinkageAttack(original, masked, blocked, actx)
          .status();
    };
    auto disclose = [&](const DataTable& masked) -> Status {
      ScopedSpan span(tracer, "attack.disclosure", parent);
      return attack::RunAttributeDisclosureAttack(original, masked, disclosure,
                                                  actx)
          .status();
    };

    // SDC masking.
    Result<MicroaggregationResult> sdc = Status::Internal("not run");
    {
      ScopedSpan span(tracer, "sdc.partitioned_mdav", parent);
      sdc = PartitionedMdav(original, config_.sdc_k, qi_cols, actx.pool);
    }
    TRIPRIV_RETURN_IF_ERROR(sdc.status());
    TRIPRIV_RETURN_IF_ERROR(linkage(sdc->table));
    TRIPRIV_RETURN_IF_ERROR(disclose(sdc->table));

    // Use-specific PPDM: noise + randomized response (untimed here).
    TRIPRIV_ASSIGN_OR_RETURN(
        DataTable noise,
        AddUncorrelatedNoise(original, config_.noise_alpha,
                             NumericCols(original, false), config_.seed));
    TRIPRIV_ASSIGN_OR_RETURN(
        noise, MaskCategoricalConfidentials(std::move(noise),
                                            config_.rr_keep_probability,
                                            config_.seed));
    TRIPRIV_RETURN_IF_ERROR(linkage(noise));
    TRIPRIV_RETURN_IF_ERROR(disclose(noise));
    {
      attack::MinMaxQueryConfig minmax;
      minmax.order_col = qi_cols[0];
      minmax.target_col = income_col;
      minmax.window = config_.minmax_window;
      minmax.window_percent = config_.disclosure_window_percent;
      ScopedSpan span(tracer, "attack.nussbaum", parent);
      TRIPRIV_RETURN_IF_ERROR(
          attack::RunMinMaxQueryAttack(original, noise, minmax, actx).status());
    }

    // Generic PPDM: Mondrian.
    TRIPRIV_ASSIGN_OR_RETURN(DataTable view, MondrianView(original));
    Result<MondrianResult> mondrian = Status::Internal("not run");
    {
      ScopedSpan span(tracer, "sdc.mondrian", parent);
      mondrian = MondrianAnonymize(view, config_.mondrian_k);
    }
    TRIPRIV_RETURN_IF_ERROR(mondrian.status());
    TRIPRIV_ASSIGN_OR_RETURN(
        mondrian->table,
        MaskCategoricalConfidentials(std::move(mondrian->table),
                                     config_.rr_keep_probability,
                                     config_.seed ^ 0x6E6Eull));
    TRIPRIV_RETURN_IF_ERROR(linkage(mondrian->table));
    {
      attack::BucketReconstructionConfig bucket;
      bucket.target_col = income_col;
      bucket.window_percent = config_.disclosure_window_percent;
      ScopedSpan span(tracer, "attack.nussbaum", parent);
      TRIPRIV_RETURN_IF_ERROR(attack::RunBucketReconstructionAttack(
                                  original, mondrian->table,
                                  mondrian->group_of_row, bucket, actx)
                                  .status());
    }

    // PIR alone serves the original records.
    TRIPRIV_RETURN_IF_ERROR(linkage(original));

    // Fingerprinting.
    attack::CollusionAttackConfig collusion;
    collusion.codec.marks = config_.fingerprint_marks;
    collusion.codec.num_recipients = config_.fingerprint_recipients;
    collusion.codec.owner_key = config_.seed ^ 0xF1A6ull;
    collusion.colluders = config_.fingerprint_colluders;
    collusion.trials = config_.fingerprint_trials;
    {
      TRIPRIV_ASSIGN_OR_RETURN(
          attack::FingerprintCodec codec,
          attack::FingerprintCodec::Create(original, collusion.codec));
      TRIPRIV_ASSIGN_OR_RETURN(attack::FingerprintedCopy copy, codec.Release(0));
      DataTable marked = original;
      for (const attack::MarkCell& cell : copy.mark_cells) {
        TRIPRIV_RETURN_IF_ERROR(marked.Set(cell.row, cell.col, Value(cell.value)));
      }
      TRIPRIV_RETURN_IF_ERROR(linkage(marked));
    }
    for (attack::CollusionStrategy strategy :
         {attack::CollusionStrategy::kMajority,
          attack::CollusionStrategy::kMinority,
          attack::CollusionStrategy::kRandom}) {
      attack::CollusionAttackConfig variant = collusion;
      variant.strategy = strategy;
      if (strategy == attack::CollusionStrategy::kMajority) {
        variant.flip_fraction = config_.fingerprint_flip;
      }
      ScopedSpan span(tracer, "attack.fingerprint", parent);
      TRIPRIV_RETURN_IF_ERROR(
          attack::RunCollusionAttack(original, variant, actx).status());
    }

    // User dimension: one traffic run with the access trail, then the
    // profiling and selection-view games.
    {
      ScopedSpan span(tracer, "attack.profiling", parent);
      traffic::SimulatorConfig sim;
      sim.profile = traffic::TrafficProfile::Steady(config_.seed);
      sim.profile.num_principals = config_.traffic_principals;
      sim.num_windows = config_.traffic_windows;
      sim.record_access_trail = true;
      TRIPRIV_ASSIGN_OR_RETURN(
          traffic::SimulationReport report,
          traffic::RunTrafficSimulation(sim, actx.pool, nullptr));
      for (bool blinded : {false, true}) {
        attack::ProfilingConfig profiling;
        profiling.pir_blinded = blinded;
        TRIPRIV_RETURN_IF_ERROR(attack::RunQueryLogProfilingAttack(
                                    report.access_trail, profiling, actx)
                                    .status());
      }
      for (bool pir : {true, false}) {
        attack::SelectionViewConfig selection;
        selection.num_records = config_.selection_records;
        selection.trials = config_.selection_trials;
        selection.pir = pir;
        TRIPRIV_RETURN_IF_ERROR(
            attack::RunSelectionViewGuessingAttack(selection, actx).status());
      }
    }
    return Status::OK();
  }

  std::vector<std::string> CountNames() const override {
    return {"attack_trials", "json_digest_hi", "json_digest_lo",
            "json_bytes",    "input_hi",       "input_lo"};
  }
  size_t WarmupOps() const override { return 0; }
  size_t ReplayOps() const override { return 0; }

  void LayerMetrics(const std::map<std::string, Tracer::Summary>& spans,
                    const std::vector<OpOutcome>& outcomes,
                    std::map<std::string, double>* m) const override {
    const std::vector<std::string> names = CountNames();
    const double ops = static_cast<double>(outcomes.size());
    (*m)["sdc.partitioned_mdav_ms"] = SpanMs(spans, "sdc.partitioned_mdav");
    (*m)["sdc.mondrian_ms"] = SpanMs(spans, "sdc.mondrian");
    (*m)["attack.linkage_ms"] = SpanMs(spans, "attack.linkage");
    (*m)["attack.disclosure_ms"] = SpanMs(spans, "attack.disclosure");
    (*m)["attack.nussbaum_ms"] = SpanMs(spans, "attack.nussbaum");
    (*m)["attack.fingerprint_ms"] = SpanMs(spans, "attack.fingerprint");
    (*m)["attack.profiling_ms"] = SpanMs(spans, "attack.profiling");
    (*m)["attack.trials_per_run"] =
        CountPer(names, outcomes, "attack_trials", ops);
    (*m)["attack.scoreboard_other_ms"] =
        SpanMs(spans, "attack.table2", /*self=*/true);
  }

 private:
  WorkloadOptions options_;
  attack::EmpiricalTable2Config config_;
  std::unique_ptr<DataTable> original_;
  uint64_t input_checksum_ = 0;
  int table2_span_ = -1;
  Result<attack::Scoreboard> board_ = Status::Internal("no run yet");
};

}  // namespace

std::unique_ptr<Workload> MakeTable2(const WorkloadOptions& options) {
  return std::make_unique<Table2>(options);
}

}  // namespace perfbench
}  // namespace tripriv
