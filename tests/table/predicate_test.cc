#include "table/predicate.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "table/datasets.h"
#include "util/random.h"

namespace tripriv {
namespace {

TEST(PredicateTest, TrueMatchesAll) {
  DataTable t = PaperDataset2();
  auto rows = Predicate::True().MatchingRows(t);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), t.num_rows());
}

TEST(PredicateTest, PaperSection3Predicate) {
  // height < 165 AND weight > 105 isolates exactly one record of Dataset 2.
  DataTable t = PaperDataset2();
  Predicate p = Predicate::And(
      Predicate::Compare("height", CompareOp::kLt, Value(165)),
      Predicate::Compare("weight", CompareOp::kGt, Value(105)));
  auto rows = p.MatchingRows(t);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  // ... whose blood pressure is 146.
  const size_t bp_col = *t.schema().FindIndex("blood_pressure");
  EXPECT_EQ(t.at((*rows)[0], bp_col), Value(146));
}

TEST(PredicateTest, AllComparisonOps) {
  DataTable t = PaperDataset1();
  auto count = [&](Predicate p) {
    auto rows = p.MatchingRows(t);
    EXPECT_TRUE(rows.ok());
    return rows->size();
  };
  EXPECT_EQ(count(Predicate::Compare("height", CompareOp::kEq, Value(160))), 4u);
  EXPECT_EQ(count(Predicate::Compare("height", CompareOp::kNe, Value(160))), 6u);
  EXPECT_EQ(count(Predicate::Compare("height", CompareOp::kLt, Value(170))), 4u);
  EXPECT_EQ(count(Predicate::Compare("height", CompareOp::kLe, Value(170))), 7u);
  EXPECT_EQ(count(Predicate::Compare("height", CompareOp::kGt, Value(170))), 3u);
  EXPECT_EQ(count(Predicate::Compare("height", CompareOp::kGe, Value(170))), 6u);
}

TEST(PredicateTest, StringComparisons) {
  DataTable t = PaperDataset1();
  Predicate y = Predicate::Compare("aids", CompareOp::kEq, Value("Y"));
  auto rows = y.MatchingRows(t);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // Y N N N Y N N Y N N
}

TEST(PredicateTest, OrAndNot) {
  DataTable t = PaperDataset1();
  Predicate tall_or_short = Predicate::Or(
      Predicate::Compare("height", CompareOp::kGe, Value(180)),
      Predicate::Compare("height", CompareOp::kLe, Value(160)));
  auto rows = tall_or_short.MatchingRows(t);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 7u);

  auto middle = Predicate::Not(tall_or_short).MatchingRows(t);
  ASSERT_TRUE(middle.ok());
  EXPECT_EQ(middle->size(), 3u);
}

TEST(PredicateTest, TypeMismatchIsError) {
  DataTable t = PaperDataset1();
  Predicate p = Predicate::Compare("aids", CompareOp::kLt, Value(10));
  EXPECT_FALSE(p.MatchingRows(t).ok());
}

TEST(PredicateTest, UnknownAttributeIsError) {
  DataTable t = PaperDataset1();
  Predicate p = Predicate::Compare("shoe_size", CompareOp::kEq, Value(42));
  auto r = p.MatchingRows(t);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(PredicateTest, NullCellsMatchOnlyNe) {
  Schema s({{"x", AttributeType::kInteger, AttributeRole::kNonConfidential}});
  auto t = DataTable::FromRows(s, {{Value::Null()}, {5}});
  ASSERT_TRUE(t.ok());
  auto eq = Predicate::Compare("x", CompareOp::kEq, Value(5)).MatchingRows(*t);
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->size(), 1u);
  auto ne = Predicate::Compare("x", CompareOp::kNe, Value(7)).MatchingRows(*t);
  ASSERT_TRUE(ne.ok());
  EXPECT_EQ(ne->size(), 2u);  // null counts as "not equal"
  auto lt = Predicate::Compare("x", CompareOp::kLt, Value(100)).MatchingRows(*t);
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(lt->size(), 1u);
}

TEST(PredicateTest, ReferencedAttributes) {
  Predicate p = Predicate::And(
      Predicate::Compare("height", CompareOp::kLt, Value(165)),
      Predicate::Not(Predicate::Compare("weight", CompareOp::kGt, Value(105))));
  EXPECT_EQ(p.ReferencedAttributes(),
            (std::vector<std::string>{"height", "weight"}));
  EXPECT_TRUE(Predicate::True().ReferencedAttributes().empty());
}

TEST(PredicateTest, ToStringRendersSqlish) {
  Predicate p = Predicate::And(
      Predicate::Compare("height", CompareOp::kLt, Value(165)),
      Predicate::Compare("aids", CompareOp::kEq, Value("Y")));
  EXPECT_EQ(p.ToString(), "(height < 165 AND aids = 'Y')");
  EXPECT_EQ(Predicate::True().ToString(), "TRUE");
}

TEST(PredicateTest, ShortCircuitDoesNotMaskErrors) {
  // AND short-circuits on false LHS, so an invalid RHS never evaluates.
  DataTable t = PaperDataset1();
  Predicate p = Predicate::And(
      Predicate::Compare("height", CompareOp::kLt, Value(0)),
      Predicate::Compare("missing", CompareOp::kEq, Value(1)));
  auto rows = p.MatchingRows(t);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

// --- Compiled scan vs per-row Matches ---------------------------------------
// MatchingRows compiles the tree once per scan and resolves each leaf's
// column on first evaluation. The reference below is the per-row tree walk;
// rows, status codes and messages must all agree.

Result<std::vector<size_t>> MatchesLoop(const Predicate& p, const DataTable& t) {
  std::vector<size_t> out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    TRIPRIV_ASSIGN_OR_RETURN(bool match, p.Matches(t, r));
    if (match) out.push_back(r);
  }
  return out;
}

void ExpectSameScan(const Predicate& p, const DataTable& t) {
  const auto compiled = p.MatchingRows(t);
  const auto reference = MatchesLoop(p, t);
  ASSERT_EQ(compiled.ok(), reference.ok()) << p.ToString();
  if (!reference.ok()) {
    EXPECT_EQ(compiled.status().code(), reference.status().code())
        << p.ToString();
    EXPECT_EQ(compiled.status().message(), reference.status().message())
        << p.ToString();
    return;
  }
  EXPECT_EQ(*compiled, *reference) << p.ToString();
}

Schema MixedSchema() {
  return Schema({{"i", AttributeType::kInteger, AttributeRole::kNonConfidential},
                 {"x", AttributeType::kReal, AttributeRole::kNonConfidential},
                 {"s", AttributeType::kCategorical,
                  AttributeRole::kNonConfidential}});
}

/// Small table over i/x/s with about one null cell in six.
DataTable RandomMixedTable(Rng* rng, size_t rows) {
  std::vector<std::vector<Value>> cells;
  for (size_t r = 0; r < rows; ++r) {
    auto maybe_null = [rng](Value v) {
      return rng->UniformU64(6) == 0 ? Value::Null() : v;
    };
    cells.push_back(
        {maybe_null(Value(rng->UniformInt(0, 9))),
         maybe_null(Value(static_cast<double>(rng->UniformInt(0, 19)) / 2.0)),
         maybe_null(Value(std::string(1, static_cast<char>(
                              'a' + rng->UniformU64(4)))))});
  }
  auto table = DataTable::FromRows(MixedSchema(), std::move(cells));
  TRIPRIV_CHECK(table.ok()) << table.status().ToString();
  return std::move(table).value();
}

/// A comparison over a known or unknown attribute with an int, real or
/// string literal, so some leaves are ill-typed against their column.
Predicate RandomLeaf(Rng* rng) {
  static const char* kAttributes[] = {"i", "x", "s", "i", "x", "s", "nope"};
  const std::string attribute = kAttributes[rng->UniformU64(7)];
  const auto op = static_cast<CompareOp>(rng->UniformU64(6));
  Value literal;
  switch (rng->UniformU64(3)) {
    case 0:
      literal = Value(rng->UniformInt(0, 9));
      break;
    case 1:
      literal = Value(static_cast<double>(rng->UniformInt(0, 19)) / 2.0);
      break;
    default:
      literal = Value(std::string(1, static_cast<char>('a' + rng->UniformU64(4))));
      break;
  }
  return Predicate::Compare(attribute, op, literal);
}

Predicate RandomTree(Rng* rng, int depth) {
  if (depth == 0 || rng->UniformU64(4) == 0) {
    return rng->UniformU64(10) == 0 ? Predicate::True() : RandomLeaf(rng);
  }
  switch (rng->UniformU64(3)) {
    case 0:
      return Predicate::And(RandomTree(rng, depth - 1), RandomTree(rng, depth - 1));
    case 1:
      return Predicate::Or(RandomTree(rng, depth - 1), RandomTree(rng, depth - 1));
    default:
      return Predicate::Not(RandomTree(rng, depth - 1));
  }
}

TEST(PredicateScanTest, CompiledScanEqualsMatchesLoopOnRandomTrees) {
  Rng rng(0x5CA11ED);
  size_t errors = 0;
  size_t matched = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const DataTable t = RandomMixedTable(&rng, rng.UniformU64(24));
    const Predicate p = RandomTree(&rng, 4);
    ExpectSameScan(p, t);
    const auto rows = p.MatchingRows(t);
    if (!rows.ok()) ++errors;
    if (rows.ok() && !rows->empty()) ++matched;
  }
  // The seeded trees exercise both outcomes, not just one.
  EXPECT_GT(errors, 50u);
  EXPECT_GT(matched, 50u);
}

TEST(PredicateScanTest, UnknownAttributeBehindShortCircuits) {
  DataTable t = PaperDataset1();  // heights 155..190
  const Predicate unknown = Predicate::Compare("missing", CompareOp::kEq, Value(1));
  const Predicate never = Predicate::Compare("height", CompareOp::kLt, Value(0));
  const Predicate always = Predicate::Compare("height", CompareOp::kGt, Value(0));
  const Predicate some = Predicate::Compare("height", CompareOp::kGe, Value(180));
  const Predicate cases[] = {
      Predicate::And(never, unknown),   // never reached: OK
      Predicate::Or(always, unknown),   // never reached: OK
      Predicate::And(unknown, never),   // reached on row 0
      Predicate::Or(never, unknown),    // reached on row 0
      Predicate::And(some, unknown),    // reached on a later row only
      Predicate::Or(some, unknown),     // reached on row 0
      Predicate::Not(Predicate::And(never, unknown)),
  };
  for (const Predicate& p : cases) ExpectSameScan(p, t);
  EXPECT_TRUE(Predicate::And(never, unknown).MatchingRows(t).ok());
  EXPECT_EQ(Predicate::And(some, unknown).MatchingRows(t).status().code(),
            StatusCode::kNotFound);
}

TEST(PredicateScanTest, TypeMismatchesMatchPerRowEvaluation) {
  DataTable t = PaperDataset1();
  const Predicate mismatch = Predicate::Compare("aids", CompareOp::kLt, Value(10));
  const Predicate some = Predicate::Compare("height", CompareOp::kGe, Value(180));
  for (const Predicate& p :
       {mismatch, Predicate::And(some, mismatch), Predicate::Or(some, mismatch),
        Predicate::Not(mismatch)}) {
    ExpectSameScan(p, t);
  }
  EXPECT_EQ(mismatch.MatchingRows(t).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PredicateScanTest, EmptyTableNeverErrors) {
  auto empty = DataTable::FromRows(MixedSchema(), {});
  ASSERT_TRUE(empty.ok());
  const Predicate p = Predicate::Or(
      Predicate::Compare("nope", CompareOp::kEq, Value(1)),
      Predicate::Compare("s", CompareOp::kLt, Value(3)));
  auto rows = p.MatchingRows(*empty);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  ExpectSameScan(p, *empty);
}

}  // namespace
}  // namespace tripriv
