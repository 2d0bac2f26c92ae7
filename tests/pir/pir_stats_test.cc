// Regressions for the PirStats accounting contract and the batch error
// path.
//
//   * PirStats: every read path must ACCUMULATE into the caller's struct
//     with `+=`. The old single-read paths overwrote with `=`, so
//     interleaving a single read after a batch silently clobbered the
//     running totals.
//   * TwoServerPirBatchRead: a per-slot compute failure used to abort the
//     whole process via TRIPRIV_CHECK inside the ParallelFor region; it
//     must instead surface as the batch's typed error after the join.

#include <gtest/gtest.h>

#include "pir/it_pir.h"
#include "pir/recursive_pir.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

std::vector<std::vector<uint8_t>> MakeRecords(size_t n, size_t size) {
  std::vector<std::vector<uint8_t>> records(n, std::vector<uint8_t>(size));
  Rng rng(77);
  for (auto& r : records) {
    for (auto& b : r) b = static_cast<uint8_t>(rng.NextU64());
  }
  return records;
}

TEST(PirStatsTest, InterleavedReadPathsAccumulateIntoOneStruct) {
  const size_t n = 64;
  const size_t size = 8;
  auto records = MakeRecords(n, size);
  auto a = XorPirServer::Create(records);
  auto b = XorPirServer::Create(records);
  std::vector<XorPirServer> cube_servers;
  for (int i = 0; i < 4; ++i) {
    cube_servers.push_back(*XorPirServer::Create(records));
  }
  Rng rng(1);
  PirStats stats;

  // Batch of 3, then a single 2-server read, then a recursive read — one
  // running total across all three paths.
  ASSERT_TRUE(TwoServerPirBatchRead(&*a, &*b, {1, 2, 3}, &rng, nullptr,
                                    &stats)
                  .ok());
  size_t expected_up = 3 * 2 * n;
  size_t expected_down = 3 * 2 * 8 * size;
  EXPECT_EQ(stats.upload_bits, expected_up);
  EXPECT_EQ(stats.download_bits, expected_down);

  // Regression: this single read used to OVERWRITE the batch totals.
  ASSERT_TRUE(TwoServerPirRead(&*a, &*b, 5, &rng, &stats).ok());
  expected_up += 2 * n;
  expected_down += 2 * 8 * size;
  EXPECT_EQ(stats.upload_bits, expected_up);
  EXPECT_EQ(stats.download_bits, expected_down);

  // Recursive read: 64 seed bits + 3 explicit 2-axis queries of side 8.
  auto g = HypercubeGeometry::Balanced(n, 2);
  ASSERT_TRUE(g.ok());
  std::vector<XorPirServer*> fleet{&cube_servers[0], &cube_servers[1],
                                   &cube_servers[2], &cube_servers[3]};
  ASSERT_TRUE(RecursivePirRead(fleet, *g, 11, &rng, nullptr, &stats).ok());
  expected_up += 64 + 3 * 2 * 8;
  expected_down += 4 * 8 * size;
  EXPECT_EQ(stats.upload_bits, expected_up);
  EXPECT_EQ(stats.download_bits, expected_down);

  stats.Reset();
  EXPECT_EQ(stats.upload_bits, 0u);
  EXPECT_EQ(stats.download_bits, 0u);
}

TEST(PirBatchErrorTest, ComputeFaultBecomesTypedErrorNotAbort) {
  auto records = MakeRecords(32, 8);
  auto a = XorPirServer::Create(records);
  auto b = XorPirServer::Create(records);
  ASSERT_TRUE(a.ok() && b.ok());

  // Replica b diverges mid-batch: every ComputeAnswer fails. The batch
  // must return the first slot's failure as a typed error — never abort
  // the process from inside the ParallelFor region.
  b->InjectComputeFault(Status::Unavailable("replica b diverged"));
  Rng rng(3);
  auto serial = TwoServerPirBatchRead(&*a, &*b, {4, 5, 6}, &rng, nullptr);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(serial.status().message().find("slot 0"), std::string::npos);
  EXPECT_NE(serial.status().message().find("replica b diverged"),
            std::string::npos);

  // Same through the pool path — the fault fires on worker threads.
  ThreadPool pool(2);
  auto pooled = TwoServerPirBatchRead(&*a, &*b, {1, 2, 3, 4, 5, 6, 7, 8},
                                      &rng, &pool);
  ASSERT_FALSE(pooled.ok());
  EXPECT_EQ(pooled.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(pooled.status().message().find("slot 0"), std::string::npos);

  // Disarm: the same servers serve the batch again.
  b->InjectComputeFault(Status());
  PirStats stats;
  auto healed = TwoServerPirBatchRead(&*a, &*b, {4, 5}, &rng, &pool, &stats);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ((*healed)[0], records[4]);
  EXPECT_EQ((*healed)[1], records[5]);
  EXPECT_EQ(stats.upload_bits, 2 * 2 * 32u);
}

TEST(PirBatchErrorTest, FailedBatchDoesNotTouchStats) {
  auto records = MakeRecords(16, 4);
  auto a = XorPirServer::Create(records);
  auto b = XorPirServer::Create(records);
  ASSERT_TRUE(a.ok() && b.ok());
  a->InjectComputeFault(Status::Internal("wedged"));
  Rng rng(5);
  PirStats stats;
  stats.upload_bits = 123;
  auto failed = TwoServerPirBatchRead(&*a, &*b, {0, 1}, &rng, nullptr, &stats);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  // The failed batch accumulated nothing.
  EXPECT_EQ(stats.upload_bits, 123u);
}

}  // namespace
}  // namespace tripriv
