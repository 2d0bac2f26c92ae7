// Property sweeps: every anonymizer must satisfy its post-conditions for
// every (dataset, k) combination — the k-anonymity contract of [12] and
// the group-size contract of microaggregation.

#include <map>

#include <gtest/gtest.h>

#include "sdc/anonymity.h"
#include "sdc/condensation.h"
#include "sdc/microaggregation.h"
#include "sdc/mondrian.h"
#include "sdc/recoding.h"
#include "table/datasets.h"

namespace tripriv {
namespace {

// gtest prints SweepParam as its raw bytes, and gtest_discover_tests puts
// that dump into each ctest name, so every field holds a value fixed at
// compile time: a pointer to the dataset's name would put an address that
// moves with ASLR into the names. The tag values are arbitrary, but they
// are part of every test name, so they must not change.
enum class Dataset : uint64_t { kTrial = 0x2004, kExtended = 0x200A };

struct SweepParam {
  Dataset dataset;
  size_t n;
  uint64_t seed;
  size_t k;
};

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  return std::string(info.param.dataset == Dataset::kTrial ? "trial"
                                                           : "extended") +
         "_n" + std::to_string(info.param.n) + "_k" +
         std::to_string(info.param.k);
}

DataTable MakeData(const SweepParam& p) {
  if (p.dataset == Dataset::kTrial) {
    return MakeClinicalTrial(p.n, p.seed);
  }
  return MakeExtendedTrial(p.n, p.seed);
}

class AnonymizerSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AnonymizerSweep, MdavGuaranteesKAnonymityAndGroupBounds) {
  const SweepParam& p = GetParam();
  DataTable data = MakeData(p);
  auto r = MdavMicroaggregate(data, p.k);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Post-condition 1: k-anonymity on the QIs ([12]).
  EXPECT_GE(AnonymityLevel(r->table), p.k);
  // Post-condition 2: group sizes in [k, 2k-1].
  std::map<size_t, size_t> sizes;
  for (size_t g : r->group_of_row) sizes[g]++;
  for (const auto& [g, size] : sizes) {
    EXPECT_GE(size, p.k);
    EXPECT_LE(size, 2 * p.k - 1);
  }
  // Post-condition 3: row count preserved; confidential cells untouched.
  ASSERT_EQ(r->table.num_rows(), data.num_rows());
  for (size_t c : data.schema().ConfidentialIndices()) {
    for (size_t row = 0; row < data.num_rows(); ++row) {
      EXPECT_EQ(data.at(row, c), r->table.at(row, c));
    }
  }
}

TEST_P(AnonymizerSweep, MondrianGuaranteesKAnonymity) {
  const SweepParam& p = GetParam();
  DataTable data = MakeData(p);
  auto r = MondrianAnonymize(data, p.k);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(AnonymityLevel(r->table), p.k);
  EXPECT_EQ(r->table.num_rows(), data.num_rows());
}

TEST_P(AnonymizerSweep, CondensationGroupsRespectK) {
  const SweepParam& p = GetParam();
  DataTable data = MakeData(p);
  auto r = Condense(data, p.k, p.seed ^ 0xC0DE);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::map<size_t, size_t> sizes;
  for (size_t g : r->group_of_row) sizes[g]++;
  for (const auto& [g, size] : sizes) EXPECT_GE(size, p.k);
}

TEST_P(AnonymizerSweep, DataflyGuaranteesKAnonymityAfterSuppression) {
  const SweepParam& p = GetParam();
  DataTable data = MakeData(p);
  RecodingConfig config;
  config.k = p.k;
  config.max_suppression_fraction = 0.05;
  config.hierarchies["age"] =
      std::make_shared<NumericIntervalHierarchy>(0.0, 5.0, 2, 4);
  config.hierarchies["height"] =
      std::make_shared<NumericIntervalHierarchy>(0.0, 5.0, 2, 4);
  config.hierarchies["weight"] =
      std::make_shared<NumericIntervalHierarchy>(0.0, 5.0, 2, 4);
  config.hierarchies["cholesterol"] =
      std::make_shared<NumericIntervalHierarchy>(0.0, 20.0, 2, 4);
  auto r = DataflyAnonymize(data, config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  if (r->table.num_rows() > 0) {
    EXPECT_GE(AnonymityLevel(r->table), p.k);
  }
  EXPECT_LE(r->suppressed_rows + r->table.num_rows(), data.num_rows());
}

INSTANTIATE_TEST_SUITE_P(
    KSweep, AnonymizerSweep,
    ::testing::Values(SweepParam{Dataset::kTrial, 60, 3, 2},
                      SweepParam{Dataset::kTrial, 60, 3, 5},
                      SweepParam{Dataset::kTrial, 151, 5, 3},
                      SweepParam{Dataset::kTrial, 151, 5, 10},
                      SweepParam{Dataset::kExtended, 97, 7, 2},
                      SweepParam{Dataset::kExtended, 97, 7, 7},
                      SweepParam{Dataset::kExtended, 240, 11, 4},
                      SweepParam{Dataset::kExtended, 240, 11, 16}),
    ParamName);

}  // namespace
}  // namespace tripriv
