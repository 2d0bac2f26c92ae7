// The batched XOR kernel (XorPirServer::ComputeBatch): bit-for-bit
// agreement with a per-selection reference sweep across record sizes,
// record counts, selection counts, both layouts and pool sizes; typed
// per-replica failures; word-wide popcount accounting; the exact
// one-pass-per-replica bytes_streamed gate; and the three batch read paths
// (TwoServerPirBatchRead, FailoverPirClient::ReadBatch,
// RecursivePirBatchRead) against serial read loops at 0/1/2/8 threads,
// including the recursive path's budgeted selection groups and its
// fault-before-draw rule. Labeled pir;parallel, so the TSan leg runs it.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "pir/epoch_pir.h"
#include "pir/it_pir.h"
#include "pir/recursive_pir.h"
#include "service/epoch_service.h"
#include "service/pir_failover.h"
#include "table/datasets.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

const size_t kThreadCounts[] = {0, 1, 2, 8};

std::vector<std::vector<uint8_t>> MakeRecords(size_t n, size_t size,
                                              uint64_t seed) {
  std::vector<std::vector<uint8_t>> records(n, std::vector<uint8_t>(size));
  Rng rng(seed);
  for (auto& r : records) {
    for (auto& b : r) b = static_cast<uint8_t>(rng.NextU64());
  }
  return records;
}

bool GetBit(const std::vector<uint8_t>& bits, size_t i) {
  return (bits[i / 8] >> (i % 8)) & 1u;
}

/// The reference sweep: one record at a time, bits at or past n ignored.
std::vector<uint8_t> ReferenceAnswer(
    const std::vector<std::vector<uint8_t>>& records,
    const std::vector<uint8_t>& selection) {
  std::vector<uint8_t> acc(records[0].size(), 0);
  for (size_t i = 0; i < records.size(); ++i) {
    if (!GetBit(selection, i)) continue;
    for (size_t k = 0; k < acc.size(); ++k) acc[k] ^= records[i][k];
  }
  return acc;
}

/// `count` selections over n records: with two or more, the first is empty
/// and the second all ones; a single selection is all ones; the rest are
/// uniformly random.
std::vector<std::vector<uint8_t>> MakeSelections(size_t n, size_t count,
                                                 Rng* rng) {
  std::vector<uint8_t> ones((n + 7) / 8, 0);
  for (size_t i = 0; i < n; ++i) FlipSelectionBit(&ones, i);
  std::vector<std::vector<uint8_t>> selections;
  if (count == 1) return {ones};
  selections.push_back(std::vector<uint8_t>((n + 7) / 8, 0));
  selections.push_back(ones);
  while (selections.size() < count) {
    selections.push_back(RandomSelectionBits(n, rng));
  }
  return selections;
}

std::vector<const std::vector<uint8_t>*> Borrow(
    const std::vector<std::vector<uint8_t>>& selections) {
  std::vector<const std::vector<uint8_t>*> out;
  for (const auto& s : selections) out.push_back(&s);
  return out;
}

TEST(BatchAnswerTest, AgreesWithReferenceSweepAcrossShapes) {
  Rng rng(101);
  for (size_t size : {1u, 7u, 8u, 44u, 64u, 65u}) {
    for (size_t n : {1u, 7u, 8u, 255u, 257u, 4099u}) {
      const auto records = MakeRecords(n, size, 7 * n + size);
      auto plain = XorPirServer::Create(records);
      auto pre = XorPirServer::Create(records);
      ASSERT_TRUE(plain.ok() && pre.ok());
      pre->Preprocess();
      for (size_t count : {1u, 2u, 31u, 33u, 65u}) {
        const auto selections = MakeSelections(n, count, &rng);
        std::vector<std::vector<uint8_t>> reversed(selections.rbegin(),
                                                   selections.rend());
        std::vector<std::vector<uint8_t>> expected;
        for (const auto& s : selections) {
          expected.push_back(ReferenceAnswer(records, s));
        }
        // Both layouts in one batch (the second in reverse order), plus a
        // replica with nothing to answer.
        const std::vector<ReplicaSelections> batch = {
            {&*plain, Borrow(selections)},
            {&*pre, Borrow(reversed)},
            {&*plain, {}}};
        for (size_t threads : kThreadCounts) {
          ThreadPool pool(threads);
          const auto out = XorPirServer::ComputeBatch(batch, &pool);
          const std::string where = "size=" + std::to_string(size) +
                                    " n=" + std::to_string(n) +
                                    " count=" + std::to_string(count) +
                                    " threads=" + std::to_string(threads);
          ASSERT_EQ(out.size(), 3u) << where;
          ASSERT_TRUE(out[0].ok() && out[1].ok() && out[2].ok()) << where;
          ASSERT_EQ(out[0]->size(), count) << where;
          ASSERT_EQ(out[1]->size(), count) << where;
          EXPECT_TRUE(out[2]->empty()) << where;
          for (size_t s = 0; s < count; ++s) {
            EXPECT_EQ((*out[0])[s], expected[s]) << where << " s=" << s;
            EXPECT_EQ((*out[1])[count - 1 - s], expected[s])
                << where << " s=" << s;
          }
        }
      }
    }
  }
}

TEST(BatchAnswerTest, ComputeAnswerIsTheOneSelectionCase) {
  const auto records = MakeRecords(1001, 44, 3);
  auto server = XorPirServer::Create(records);
  ASSERT_TRUE(server.ok());
  Rng rng(4);
  const auto selection = RandomSelectionBits(records.size(), &rng);
  const auto expected = ReferenceAnswer(records, selection);
  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto answer = server->ComputeAnswer(selection, &pool);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(*answer, expected) << "threads=" << threads;
  }
  server->Preprocess();
  auto answer = server->ComputeAnswer(selection);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(*answer, expected);
  // The record view reads through whichever layout is current.
  for (size_t i : {0u, 1u, 999u, 1000u}) {
    const auto view = server->record_bytes(i);
    EXPECT_EQ(std::vector<uint8_t>(view.begin(), view.end()), records[i]);
  }
}

TEST(BatchAnswerTest, IgnoresPaddingBitsPastTheLastRecord) {
  for (size_t n : {13u, 65u, 127u}) {
    const auto records = MakeRecords(n, 9, n);
    auto plain = XorPirServer::Create(records);
    auto pre = XorPirServer::Create(records);
    ASSERT_TRUE(plain.ok() && pre.ok());
    pre->Preprocess();
    Rng rng(n);
    std::vector<uint8_t> selection = RandomSelectionBits(n, &rng);
    const auto expected = ReferenceAnswer(records, selection);
    selection.back() |= static_cast<uint8_t>(0xFFu << (n % 8));
    ThreadPool pool(2);
    for (XorPirServer* server : {&*plain, &*pre}) {
      auto answer = server->ComputeAnswer(selection, &pool);
      ASSERT_TRUE(answer.ok()) << "n=" << n;
      EXPECT_EQ(*answer, expected) << "n=" << n;
    }
  }
}

TEST(BatchAnswerTest, ReplicaFailuresAreTypedPerReplica) {
  const auto records = MakeRecords(300, 16, 9);
  auto a = XorPirServer::Create(records);
  auto b = XorPirServer::Create(records);
  ASSERT_TRUE(a.ok() && b.ok());
  Rng rng(10);
  const auto selections = MakeSelections(records.size(), 5, &rng);
  b->InjectComputeFault(Status::Unavailable("replica b diverged"));
  ThreadPool pool(2);
  auto out = XorPirServer::ComputeBatch(
      {{&*a, Borrow(selections)}, {&*b, Borrow(selections)}}, &pool);
  ASSERT_TRUE(out[0].ok());
  EXPECT_EQ((*out[0])[4], ReferenceAnswer(records, selections[4]));
  ASSERT_FALSE(out[1].ok());
  EXPECT_EQ(out[1].status().code(), StatusCode::kUnavailable);

  // A selection of the wrong length fails only its own replica.
  b->InjectComputeFault(Status());
  const std::vector<uint8_t> short_selection(3, 0xFF);
  out = XorPirServer::ComputeBatch(
      {{&*a, {&short_selection}}, {&*b, Borrow(selections)}}, &pool);
  ASSERT_FALSE(out[0].ok());
  EXPECT_EQ(out[0].status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(out[1].ok());
  EXPECT_EQ((*out[1])[1], ReferenceAnswer(records, selections[1]));
}

TEST(BatchAnswerTest, ObservedBytesXoredIsAWordWidePopcount) {
  // Bitmaps of 1, 2, 8, 9, 13, 126 and 513 bytes: the word loop, the byte
  // tail, and both together.
  for (size_t n : {1u, 9u, 63u, 65u, 100u, 1001u, 4099u}) {
    auto server = XorPirServer::Create(MakeRecords(n, 3, n));
    ASSERT_TRUE(server.ok());
    Rng rng(n + 1);
    uint64_t expected = 0;
    for (const auto& selection : MakeSelections(n, 4, &rng)) {
      server->ObserveQuery(selection);
      for (size_t i = 0; i < 8 * selection.size(); ++i) {
        if (GetBit(selection, i)) expected += 3;
      }
    }
    EXPECT_EQ(server->bytes_xored(), expected) << "n=" << n;
    EXPECT_EQ(server->queries_answered(), 4u);
  }
}

TEST(BatchAnswerTest, FlatBatchStreamsEachReplicaOnce) {
  // The exact work gate: a 64-read flat batch on 2 pairs makes ONE pass
  // over each of the 4 replicas; the same 64 reads one at a time make 128.
  const auto records = MakeRecords(2000, 44, 11);
  std::vector<size_t> indices;
  Rng pick(12);
  for (int i = 0; i < 64; ++i) {
    indices.push_back(static_cast<size_t>(pick.UniformU64(records.size())));
  }
  SimClock clock;
  auto batched = FailoverPirClient::Build(records, /*num_pairs=*/2,
                                          RetryPolicy{}, &clock, /*seed=*/13);
  ASSERT_TRUE(batched.ok());
  ThreadPool pool(2);
  for (const auto& result : batched->ReadBatch(indices, Deadline(), &pool)) {
    ASSERT_TRUE(result.ok());
  }
  const uint64_t replica = batched->server(0).storage_bytes();
  EXPECT_EQ(replica, 2000u * 56u);  // 44 B + 8 B checksum, word-padded
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(batched->server(s).bytes_streamed(), replica) << "server " << s;
  }
  EXPECT_EQ(batched->total_bytes_streamed(), 4 * replica);

  SimClock serial_clock;
  auto serial = FailoverPirClient::Build(records, 2, RetryPolicy{},
                                         &serial_clock, 13);
  ASSERT_TRUE(serial.ok());
  for (size_t index : indices) {
    ASSERT_TRUE(serial->Read(index, Deadline()).ok());
  }
  EXPECT_EQ(serial->total_bytes_streamed(), 128 * replica);
  EXPECT_EQ(serial->total_bytes_xored(), batched->total_bytes_xored());
}

TEST(BatchAnswerTest, EpochReaderStreamsOncePerReplicaPerBatch) {
  MemWalIo wal;
  EpochStore store;
  EpochConfig config;
  config.k = 3;
  config.qi_cols = {0, 1};
  auto db = EpochedDatabase::Create(MakeClinicalTrial(300, 5), config, &wal,
                                    &store);
  ASSERT_TRUE(db.ok());
  const auto records = SnapshotRecords(db->Pin()->protected_table);
  const uint64_t plain_bytes =
      records.size() * ((records[0].size() + 7) / 8 * 8);
  const std::vector<size_t> indices = {3, 1, 4, 1, 5, 9, 2, 6};
  ThreadPool pool(2);

  // Flat: one pass over each of the pair's two replicas.
  EpochPirReader flat(db->manager());
  Rng rng(14);
  ASSERT_TRUE(flat.ReadBatch(indices, &rng, &pool).ok());
  EXPECT_EQ(flat.total_bytes_streamed(), 2 * plain_bytes);

  // Recursive d = 2 over ONE aliased, preprocessed replica: one pass over
  // the parity layout answers all 4 replicas' selections of every read.
  EpochPirOptions options;
  options.dimensions = 2;
  options.preprocess = true;
  EpochPirReader recursive(db->manager(), options);
  auto answers = recursive.ReadBatch(indices, &rng, &pool);
  ASSERT_TRUE(answers.ok());
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ((*answers)[i], records[indices[i]]) << i;
  }
  EXPECT_EQ(recursive.total_bytes_streamed(), recursive.preprocess_bytes());
}

TEST(BatchAnswerTest, ProductExpansionMatchesCellByCellReference) {
  // The expansion ORs whole innermost-axis bitmaps at arbitrary bit
  // offsets; check it against the definition, overhang included.
  Rng rng(26);
  for (size_t d : {1u, 2u, 3u}) {
    for (size_t n : {1u, 9u, 100u, 1000u, 4099u}) {
      auto g = HypercubeGeometry::Balanced(n, d);
      ASSERT_TRUE(g.ok());
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<std::vector<uint8_t>> axes;
        for (size_t k = 0; k < d; ++k) {
          axes.push_back(RandomSelectionBits(g->side, &rng));
        }
        std::vector<uint8_t> expected((n + 7) / 8, 0);
        uint64_t cells = 0;
        for (size_t i = 0; i < n; ++i) {
          const auto coords = g->Coordinates(i);
          bool selected = true;
          for (size_t k = 0; k < d; ++k) selected &= GetBit(axes[k], coords[k]);
          if (!selected) continue;
          FlipSelectionBit(&expected, i);
          ++cells;
        }
        std::vector<uint8_t> flat;
        EXPECT_EQ(ExpandProductSelection(axes, *g, &flat), cells)
            << "d=" << d << " n=" << n;
        EXPECT_EQ(flat, expected) << "d=" << d << " n=" << n;
      }
    }
  }
}

/// Everything a replica's single-server view and work counters hold.
struct ServerView {
  std::vector<std::vector<uint8_t>> observed;
  uint64_t bytes_xored = 0;
  uint64_t queries = 0;

  static ServerView Of(const XorPirServer& server) {
    ServerView view;
    for (size_t q = 0; q < server.num_observed(); ++q) {
      view.observed.push_back(server.observed_query(q));
    }
    view.bytes_xored = server.bytes_xored();
    view.queries = server.queries_answered();
    return view;
  }
  bool operator==(const ServerView&) const = default;
};

TEST(BatchDeterminismTest, TwoServerBatchMatchesSerialLoop) {
  const auto records = MakeRecords(777, 20, 15);
  std::vector<size_t> indices;
  Rng pick(16);
  for (int i = 0; i < 33; ++i) {
    indices.push_back(static_cast<size_t>(pick.UniformU64(records.size())));
  }

  auto ref_a = XorPirServer::Create(records);
  auto ref_b = XorPirServer::Create(records);
  ASSERT_TRUE(ref_a.ok() && ref_b.ok());
  ref_a->EnableObservationLog(indices.size());
  ref_b->EnableObservationLog(indices.size());
  Rng ref_rng(17);
  std::vector<std::vector<uint8_t>> ref_answers;
  for (size_t index : indices) {
    auto got = TwoServerPirRead(&*ref_a, &*ref_b, index, &ref_rng);
    ASSERT_TRUE(got.ok());
    ref_answers.push_back(*got);
  }
  const uint64_t ref_next = ref_rng.NextU64();

  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto a = XorPirServer::Create(records);
    auto b = XorPirServer::Create(records);
    ASSERT_TRUE(a.ok() && b.ok());
    a->EnableObservationLog(indices.size());
    b->EnableObservationLog(indices.size());
    Rng rng(17);
    auto answers = TwoServerPirBatchRead(&*a, &*b, indices, &rng, &pool);
    ASSERT_TRUE(answers.ok());
    EXPECT_EQ(*answers, ref_answers) << "threads=" << threads;
    EXPECT_TRUE(ServerView::Of(*a) == ServerView::Of(*ref_a));
    EXPECT_TRUE(ServerView::Of(*b) == ServerView::Of(*ref_b));
    EXPECT_EQ(rng.NextU64(), ref_next) << "threads=" << threads;
  }
}

TEST(BatchDeterminismTest, FailoverBatchMatchesSerialReadLoop) {
  const auto records = MakeRecords(513, 12, 18);
  std::vector<size_t> indices;
  Rng pick(19);
  for (int i = 0; i < 40; ++i) {
    indices.push_back(static_cast<size_t>(pick.UniformU64(records.size())));
  }
  // One extra read after the batch exposes the client's post-batch rng
  // state (its selection lands in the observation log).
  auto views = [](const FailoverPirClient& client) {
    std::vector<ServerView> out;
    for (size_t s = 0; s < 4; ++s) {
      out.push_back(ServerView::Of(client.server(s)));
    }
    return out;
  };

  SimClock ref_clock;
  auto ref = FailoverPirClient::Build(records, 2, RetryPolicy{}, &ref_clock,
                                      /*seed=*/20);
  ASSERT_TRUE(ref.ok());
  ref->EnableObservationLogs(indices.size() + 1);
  for (size_t index : indices) {
    auto got = ref->Read(index, Deadline());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, records[index]);
  }
  ASSERT_TRUE(ref->Read(7, Deadline()).ok());

  for (size_t threads : kThreadCounts) {
    SimClock clock;
    auto client = FailoverPirClient::Build(records, 2, RetryPolicy{}, &clock,
                                           /*seed=*/20);
    ASSERT_TRUE(client.ok());
    client->EnableObservationLogs(indices.size() + 1);
    ThreadPool pool(threads);
    const auto results = client->ReadBatch(indices, Deadline(), &pool);
    for (size_t i = 0; i < indices.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << i;
      EXPECT_EQ(*results[i], records[indices[i]]) << i;
    }
    ASSERT_TRUE(client->Read(7, Deadline()).ok());
    EXPECT_TRUE(views(*client) == views(*ref)) << "threads=" << threads;
    EXPECT_EQ(client->failovers(), 0u);
    EXPECT_EQ(clock.now(), ref_clock.now());
  }
}

TEST(BatchDeterminismTest, DivergedReplicaFailsOverWithoutAbort) {
  // A replica that refuses every pass sends its pair's items down the
  // serial retry ladder as typed failures; the whole transcript stays
  // independent of the worker count.
  const auto records = MakeRecords(257, 10, 21);
  std::vector<size_t> indices;
  Rng pick(22);
  for (int i = 0; i < 24; ++i) {
    indices.push_back(static_cast<size_t>(pick.UniformU64(records.size())));
  }
  struct Run {
    std::vector<std::vector<uint8_t>> payloads;
    size_t failovers = 0;
    size_t corrupt = 0;
    uint64_t clock_now = 0;
    std::vector<ServerView> views;
    uint64_t streamed = 0;
  };
  auto run = [&](size_t threads) {
    SimClock clock;
    auto client = FailoverPirClient::Build(records, 2, RetryPolicy{}, &clock,
                                           /*seed=*/23);
    TRIPRIV_CHECK(client.ok());
    client->EnableObservationLogs(4 * indices.size());
    client->InjectFault(1, PirServerFault{.diverged = true});
    ThreadPool pool(threads);
    Run out;
    for (const auto& result : client->ReadBatch(indices, Deadline(), &pool)) {
      TRIPRIV_CHECK(result.ok());
      out.payloads.push_back(*result);
    }
    out.failovers = client->failovers();
    out.corrupt = client->corrupt_answers_detected();
    out.clock_now = clock.now();
    for (size_t s = 0; s < 4; ++s) {
      out.views.push_back(ServerView::Of(client->server(s)));
    }
    out.streamed = client->total_bytes_streamed();
    return out;
  };
  const Run ref = run(0);
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(ref.payloads[i], records[indices[i]]) << i;
  }
  EXPECT_GE(ref.failovers, indices.size() / 2);  // pair 0's items moved
  EXPECT_EQ(ref.corrupt, 0u);  // a refused pass is not a corrupt answer
  for (size_t threads : {1u, 2u, 8u}) {
    const Run got = run(threads);
    EXPECT_EQ(got.payloads, ref.payloads) << "threads=" << threads;
    EXPECT_EQ(got.failovers, ref.failovers);
    EXPECT_EQ(got.corrupt, ref.corrupt);
    EXPECT_EQ(got.clock_now, ref.clock_now);
    EXPECT_TRUE(got.views == ref.views) << "threads=" << threads;
    EXPECT_EQ(got.streamed, ref.streamed);
  }
}

TEST(BatchDeterminismTest, RecursiveBatchMatchesSerialLoop) {
  const auto records = MakeRecords(203, 24, 24);
  auto g = HypercubeGeometry::Balanced(records.size(), 2);
  ASSERT_TRUE(g.ok());
  const std::vector<size_t> indices = {0, 202, 17, 17, 99, 150, 3, 64, 128};

  // Distinct replicas, and one replica aliased 2^d times (the epoch
  // reader's shape, where one pass serves every replica role).
  for (bool aliased : {false, true}) {
    for (bool preprocess : {false, true}) {
      auto make_fleet = [&](std::vector<XorPirServer>* storage) {
        storage->clear();
        const size_t distinct = aliased ? 1 : g->num_servers();
        for (size_t s = 0; s < distinct; ++s) {
          auto server = XorPirServer::Create(records);
          TRIPRIV_CHECK(server.ok());
          if (preprocess) server->Preprocess();
          server->EnableObservationLog(4 * indices.size());
          storage->push_back(std::move(*server));
        }
        std::vector<XorPirServer*> fleet;
        for (size_t s = 0; s < g->num_servers(); ++s) {
          fleet.push_back(&(*storage)[aliased ? 0 : s]);
        }
        return fleet;
      };
      auto views = [](const std::vector<XorPirServer>& storage) {
        std::vector<ServerView> out;
        for (const auto& server : storage) {
          out.push_back(ServerView::Of(server));
        }
        return out;
      };

      // The serial reference: per read, build the queries and answer each
      // replica with its own single-selection pass.
      std::vector<XorPirServer> ref_storage;
      const auto ref_fleet = make_fleet(&ref_storage);
      Rng ref_rng(25);
      PirSessionRegistry ref_sessions;
      auto* ref_session = ref_sessions.Establish(1, *g, 1);
      std::vector<std::vector<uint8_t>> ref_answers;
      for (size_t index : indices) {
        auto queries = BuildHypercubeQueries(*g, index, &ref_rng);
        ASSERT_TRUE(queries.ok());
        std::vector<uint8_t> acc(records[0].size(), 0);
        for (size_t s = 0; s < ref_fleet.size(); ++s) {
          auto part = AnswerHypercubeQuery(ref_fleet[s], (*queries)[s], *g,
                                           nullptr, ref_session);
          ASSERT_TRUE(part.ok());
          for (size_t k = 0; k < acc.size(); ++k) acc[k] ^= (*part)[k];
        }
        EXPECT_EQ(acc, records[index]);
        ref_answers.push_back(acc);
      }
      const uint64_t ref_next = ref_rng.NextU64();

      for (size_t threads : kThreadCounts) {
        const std::string where =
            std::string(aliased ? "aliased" : "distinct") +
            (preprocess ? " preprocessed" : " plain") +
            " threads=" + std::to_string(threads);
        std::vector<XorPirServer> storage;
        const auto fleet = make_fleet(&storage);
        Rng rng(25);
        PirSessionRegistry sessions;
        auto* session = sessions.Establish(1, *g, 1);
        ThreadPool pool(threads);
        PirStats stats;
        auto answers = RecursivePirBatchRead(fleet, *g, indices, &rng, &pool,
                                             &stats, session);
        ASSERT_TRUE(answers.ok()) << where;
        EXPECT_EQ(*answers, ref_answers) << where;
        EXPECT_TRUE(views(storage) == views(ref_storage)) << where;
        EXPECT_EQ(rng.NextU64(), ref_next) << where;
        EXPECT_EQ(session->expanded_cells, ref_session->expanded_cells);
        EXPECT_EQ(session->reads, indices.size());
        // One pass per distinct server for the whole batch.
        for (const auto& server : storage) {
          EXPECT_EQ(server.bytes_streamed(), server.storage_bytes()) << where;
        }
      }
    }
  }
}

TEST(BatchDeterminismTest, RecursiveBatchRunsInBudgetedGroups) {
  // d = 8 over 4^8 records: 256 replica roles, 8 KiB per flat selection.
  // Five reads make 1280 selections; the 4 MiB budget holds 512 of them,
  // so the aliased replica makes exactly three passes (512, 512, 256).
  const auto records = MakeRecords(65536, 1, 31);
  auto g = HypercubeGeometry::Balanced(records.size(), 8);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->side, 4u);
  const std::vector<size_t> indices = {0, 65535, 4097, 31000, 12};
  const size_t total = indices.size() * g->num_servers();
  const size_t per_group =
      kRecursiveBatchSelectionBytes / ((records.size() + 7) / 8);
  const size_t groups = (total + per_group - 1) / per_group;
  ASSERT_EQ(groups, 3u);

  // The serial reference: single-selection answers, read by read.
  auto ref_server = XorPirServer::Create(records);
  ASSERT_TRUE(ref_server.ok());
  Rng ref_rng(32);
  for (size_t index : indices) {
    auto queries = BuildHypercubeQueries(*g, index, &ref_rng);
    ASSERT_TRUE(queries.ok());
    for (const HypercubeQuery& query : *queries) {
      ASSERT_TRUE(AnswerHypercubeQuery(&*ref_server, query, *g).ok());
    }
  }
  const uint64_t ref_next = ref_rng.NextU64();

  for (size_t threads : {size_t{0}, size_t{2}}) {
    auto server = XorPirServer::Create(records);
    ASSERT_TRUE(server.ok());
    const std::vector<XorPirServer*> fleet(g->num_servers(), &*server);
    Rng rng(32);
    ThreadPool pool(threads);
    auto answers = RecursivePirBatchRead(fleet, *g, indices, &rng, &pool);
    ASSERT_TRUE(answers.ok()) << "threads=" << threads;
    for (size_t i = 0; i < indices.size(); ++i) {
      EXPECT_EQ((*answers)[i], records[indices[i]]) << "threads=" << threads;
    }
    EXPECT_EQ(rng.NextU64(), ref_next);
    EXPECT_EQ(server->queries_answered(), total);
    EXPECT_EQ(server->bytes_xored(), ref_server->bytes_xored());
    EXPECT_EQ(server->bytes_streamed(), groups * server->storage_bytes());
  }
}

TEST(BatchDeterminismTest, RecursiveBatchFaultFailsBeforeAnyDraw) {
  const auto records = MakeRecords(150, 12, 33);
  auto g = HypercubeGeometry::Balanced(records.size(), 2);
  ASSERT_TRUE(g.ok());
  std::vector<XorPirServer> storage;
  for (size_t s = 0; s < g->num_servers(); ++s) {
    auto server = XorPirServer::Create(records);
    ASSERT_TRUE(server.ok());
    server->EnableObservationLog(8);
    storage.push_back(std::move(*server));
  }
  std::vector<XorPirServer*> fleet;
  for (auto& server : storage) fleet.push_back(&server);
  storage[2].InjectComputeFault(Status::Unavailable("replica 2 diverged"));

  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    Rng rng(34);
    PirStats stats;
    PirSessionRegistry sessions;
    auto* session = sessions.Establish(1, *g, 1);
    auto failed = RecursivePirBatchRead(fleet, *g, {5, 149, 70}, &rng, &pool,
                                        &stats, session);
    ASSERT_FALSE(failed.ok()) << "threads=" << threads;
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
    // Nothing was drawn, observed or counted.
    EXPECT_EQ(rng.NextU64(), Rng(34).NextU64());
    for (const auto& server : storage) {
      EXPECT_EQ(server.queries_answered(), 0u);
      EXPECT_EQ(server.num_observed(), 0u);
      EXPECT_EQ(server.bytes_xored(), 0u);
      EXPECT_EQ(server.bytes_streamed(), 0u);
    }
    EXPECT_EQ(stats.upload_bits, 0u);
    EXPECT_EQ(session->reads, 0u);
    EXPECT_EQ(session->expanded_cells, 0u);
  }

  // Disarmed, the same fleet serves the batch.
  storage[2].InjectComputeFault(Status());
  Rng rng(34);
  auto healed = RecursivePirBatchRead(fleet, *g, {5, 149, 70}, &rng);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ((*healed)[1], records[149]);
  for (const auto& server : storage) {
    EXPECT_EQ(server.queries_answered(), 3u);
  }
}

}  // namespace
}  // namespace tripriv
