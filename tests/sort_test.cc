#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/temp_dir.h"
#include "dataflow/ops/sort.h"
#include "dataflow/tuple_run.h"
#include "counting_allocator.h"

namespace pregelix {
namespace {

/// min-combiner over 8-byte little-endian doubles, as SSSP uses.
GroupCombiner MinDoubleCombiner() {
  GroupCombiner c;
  c.init = [](const Slice& payload, std::string* acc) {
    acc->assign(payload.data(), payload.size());
  };
  c.step = [](const Slice& payload, std::string* acc) {
    const double incoming = DecodeDouble(payload.data());
    const double current = DecodeDouble(acc->data());
    if (incoming < current) acc->assign(payload.data(), payload.size());
  };
  return c;
}

/// Concatenating list combiner (the default "gather" combine). Payloads
/// must already be length-prefixed item sequences so that accumulators and
/// payloads share one representation and combining stays associative across
/// spilled runs (a partially combined run entry is just a longer sequence).
GroupCombiner ListCombiner() {
  GroupCombiner c;
  c.init = [](const Slice& payload, std::string* acc) {
    acc->assign(payload.data(), payload.size());
  };
  c.step = [](const Slice& payload, std::string* acc) {
    acc->append(payload.data(), payload.size());
  };
  return c;
}

/// Sum combiner over 8-byte integer payloads, with the fixed-width fold the
/// dense group-by needs.
GroupCombiner SumI64Combiner() {
  GroupCombiner c;
  c.width = 8;
  c.fold = [](char* acc, const char* in) {
    EncodeFixed64(acc, DecodeFixed64(acc) + DecodeFixed64(in));
  };
  c.init = [](const Slice& payload, std::string* acc) {
    acc->assign(payload.data(), payload.size());
  };
  c.step = [fold = c.fold](const Slice& payload, std::string* acc) {
    fold(acc->data(), payload.data());
  };
  return c;
}

/// Everything a grouper emits, as (key, payload) byte strings in order.
using EmittedTuples = std::vector<std::pair<std::string, std::string>>;

Status CollectInto(Grouper& grouper, EmittedTuples* out) {
  return grouper.Finish([out](std::span<const Slice> fields) {
    out->emplace_back(fields[0].ToString(), fields[1].ToString());
    return Status::OK();
  });
}

/// Wraps one message as a single-item sequence for ListCombiner.
std::string ListItem(const std::string& message) {
  std::string out;
  PutLengthPrefixed(&out, message);
  return out;
}

class SortTest : public ::testing::Test {
 protected:
  SortConfig MakeConfig(size_t budget) {
    SortConfig config;
    config.field_count = 2;
    config.key_field = 0;
    config.memory_budget_bytes = budget;
    config.frame_size = 1024;
    config.scratch_prefix = dir_.path() + "/sort";
    config.metrics = &metrics_;
    return config;
  }

  TempDir dir_{"sort-test"};
  WorkerMetrics metrics_;
};

TEST_F(SortTest, InMemorySortNoCombiner) {
  ExternalSortGrouper sorter(MakeConfig(1 << 20));
  Random rnd(5);
  std::vector<int64_t> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(static_cast<int64_t>(rnd.Uniform(10000)));
    const std::string k = OrderedKeyI64(keys.back());
    const std::string v = "v" + std::to_string(keys.back());
    const Slice t[2] = {Slice(k), Slice(v)};
    ASSERT_TRUE(sorter.Add(t).ok());
  }
  EXPECT_EQ(sorter.runs_spilled(), 0);
  std::sort(keys.begin(), keys.end());
  size_t i = 0;
  ASSERT_TRUE(sorter
                  .Finish([&](std::span<const Slice> fields) {
                    EXPECT_EQ(DecodeOrderedI64(fields[0].data()), keys[i]);
                    ++i;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(i, keys.size());
}

TEST_F(SortTest, SpillingSortKeepsAllTuplesSorted) {
  // 4 KB budget forces many spilled runs.
  ExternalSortGrouper sorter(MakeConfig(4 * 1024));
  Random rnd(6);
  std::multiset<int64_t> expected;
  for (int i = 0; i < 5000; ++i) {
    const int64_t key = static_cast<int64_t>(rnd.Uniform(500));
    expected.insert(key);
    const std::string k = OrderedKeyI64(key);
    const Slice t[2] = {Slice(k), Slice("payload")};
    ASSERT_TRUE(sorter.Add(t).ok());
  }
  EXPECT_GT(sorter.runs_spilled(), 1);
  std::vector<int64_t> seen;
  ASSERT_TRUE(sorter
                  .Finish([&](std::span<const Slice> fields) {
                    seen.push_back(DecodeOrderedI64(fields[0].data()));
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(seen.size(), expected.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  std::vector<int64_t> expected_vec(expected.begin(), expected.end());
  EXPECT_EQ(seen, expected_vec);
}

TEST_F(SortTest, MultiPassMergeBeyondFanin) {
  SortConfig config = MakeConfig(512);
  config.merge_fanin = 3;  // force multiple merge passes
  ExternalSortGrouper sorter(config);
  const int n = 3000;
  for (int i = n - 1; i >= 0; --i) {
    const std::string k = OrderedKeyI64(i);
    const Slice t[2] = {Slice(k), Slice("x")};
    ASSERT_TRUE(sorter.Add(t).ok());
  }
  EXPECT_GT(sorter.runs_spilled(), 3);
  int64_t next = 0;
  ASSERT_TRUE(sorter
                  .Finish([&](std::span<const Slice> fields) {
                    EXPECT_EQ(DecodeOrderedI64(fields[0].data()), next);
                    ++next;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(next, n);
}

TEST_F(SortTest, SortGroupByCombinesDuplicates) {
  ExternalSortGrouper grouper(MakeConfig(1 << 20), MinDoubleCombiner());
  // Messages to 100 destinations, 10 each; min payload should win.
  std::map<int64_t, double> expected;
  Random rnd(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t dest = static_cast<int64_t>(rnd.Uniform(100));
    const double dist = rnd.NextDouble() * 100;
    auto it = expected.find(dest);
    if (it == expected.end() || dist < it->second) expected[dest] = dist;
    const std::string k = OrderedKeyI64(dest);
    std::string payload;
    PutDouble(&payload, dist);
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(grouper.Add(t).ok());
  }
  std::map<int64_t, double> got;
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice> fields) {
                    got[DecodeOrderedI64(fields[0].data())] =
                        DecodeDouble(fields[1].data());
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [dest, dist] : expected) {
    EXPECT_DOUBLE_EQ(got[dest], dist);
  }
}

TEST_F(SortTest, SortGroupByCombinesAcrossSpilledRuns) {
  ExternalSortGrouper grouper(MakeConfig(2048), MinDoubleCombiner());
  std::map<int64_t, double> expected;
  Random rnd(8);
  for (int i = 0; i < 5000; ++i) {
    const int64_t dest = static_cast<int64_t>(rnd.Uniform(50));
    const double dist = rnd.NextDouble() * 100;
    auto it = expected.find(dest);
    if (it == expected.end() || dist < it->second) expected[dest] = dist;
    const std::string k = OrderedKeyI64(dest);
    std::string payload;
    PutDouble(&payload, dist);
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(grouper.Add(t).ok());
  }
  EXPECT_GT(grouper.runs_spilled(), 1);
  int groups = 0;
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice> fields) {
                    const int64_t dest = DecodeOrderedI64(fields[0].data());
                    EXPECT_DOUBLE_EQ(DecodeDouble(fields[1].data()),
                                     expected[dest]);
                    ++groups;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(groups, 50);
}

TEST_F(SortTest, HashSortGroupByMatchesSortGroupBy) {
  HashSortGrouper hash_grouper(MakeConfig(1 << 20), MinDoubleCombiner());
  ExternalSortGrouper sort_grouper(MakeConfig(1 << 20), MinDoubleCombiner());
  Random rnd(9);
  for (int i = 0; i < 2000; ++i) {
    const int64_t dest = static_cast<int64_t>(rnd.Uniform(64));
    const double dist = rnd.NextDouble();
    const std::string k = OrderedKeyI64(dest);
    std::string payload;
    PutDouble(&payload, dist);
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(hash_grouper.Add(t).ok());
    ASSERT_TRUE(sort_grouper.Add(t).ok());
  }
  std::map<int64_t, double> hash_result, sort_result;
  ASSERT_TRUE(hash_grouper
                  .Finish([&](std::span<const Slice> fields) {
                    hash_result[DecodeOrderedI64(fields[0].data())] =
                        DecodeDouble(fields[1].data());
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(sort_grouper
                  .Finish([&](std::span<const Slice> fields) {
                    sort_result[DecodeOrderedI64(fields[0].data())] =
                        DecodeDouble(fields[1].data());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(hash_result, sort_result);
}

TEST_F(SortTest, HashSortSpillsAndStillCombines) {
  HashSortGrouper grouper(MakeConfig(2048), MinDoubleCombiner());
  std::map<int64_t, double> expected;
  Random rnd(10);
  for (int i = 0; i < 4000; ++i) {
    const int64_t dest = static_cast<int64_t>(rnd.Uniform(200));
    const double dist = rnd.NextDouble();
    auto it = expected.find(dest);
    if (it == expected.end() || dist < it->second) expected[dest] = dist;
    const std::string k = OrderedKeyI64(dest);
    std::string payload;
    PutDouble(&payload, dist);
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(grouper.Add(t).ok());
  }
  EXPECT_GT(grouper.runs_spilled(), 0);
  int64_t prev = INT64_MIN;
  int groups = 0;
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice> fields) {
                    const int64_t dest = DecodeOrderedI64(fields[0].data());
                    EXPECT_GT(dest, prev);  // sorted, distinct
                    prev = dest;
                    EXPECT_DOUBLE_EQ(DecodeDouble(fields[1].data()),
                                     expected[dest]);
                    ++groups;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(groups, static_cast<int>(expected.size()));
}

TEST_F(SortTest, PreclusteredGrouperStreams) {
  PreclusteredGrouper grouper(ListCombiner(), &metrics_);
  std::vector<std::pair<int64_t, std::string>> got;
  auto emit = [&](std::span<const Slice> fields) {
    got.emplace_back(DecodeOrderedI64(fields[0].data()),
                     fields[1].ToString());
    return Status::OK();
  };
  // Sorted input: keys 1,1,2,3,3,3.
  for (const auto& [key, payload] :
       std::vector<std::pair<int64_t, std::string>>{
           {1, "a"}, {1, "b"}, {2, "c"}, {3, "d"}, {3, "e"}, {3, "f"}}) {
    const std::string k = OrderedKeyI64(key);
    ASSERT_TRUE(grouper.Add(k, ListItem(payload), emit).ok());
  }
  ASSERT_TRUE(grouper.Finish(emit).ok());
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, 1);
  EXPECT_EQ(got[1].first, 2);
  EXPECT_EQ(got[2].first, 3);
  // Group 3 gathered three payloads.
  Slice acc(got[2].second);
  Slice item;
  int count = 0;
  while (GetLengthPrefixed(&acc, &item)) ++count;
  EXPECT_EQ(count, 3);
}

TEST_F(SortTest, ListCombinerGathersAllMessages) {
  ExternalSortGrouper grouper(MakeConfig(4096), ListCombiner());
  const int dests = 10, per_dest = 37;
  for (int m = 0; m < per_dest; ++m) {
    for (int64_t d = 0; d < dests; ++d) {
      const std::string k = OrderedKeyI64(d);
      const std::string payload = ListItem("m" + std::to_string(m));
      const Slice t[2] = {Slice(k), Slice(payload)};
      ASSERT_TRUE(grouper.Add(t).ok());
    }
  }
  int total_messages = 0, groups = 0;
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice> fields) {
                    Slice acc = fields[1];
                    Slice item;
                    while (GetLengthPrefixed(&acc, &item)) ++total_messages;
                    ++groups;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(groups, dests);
  EXPECT_EQ(total_messages, dests * per_dest);
}

TEST_F(SortTest, EmptyInputProducesNothing) {
  ExternalSortGrouper sorter(MakeConfig(1024));
  int count = 0;
  ASSERT_TRUE(sorter
                  .Finish([&](std::span<const Slice>) {
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, 0);

  HashSortGrouper grouper(MakeConfig(1024), MinDoubleCombiner());
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice>) {
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, 0);
}

// Hand-built runs fed straight into internal_sort::MergeRuns: one group's
// fragments sit in three different runs (two of which merge in different
// *passes* at fan-in 2), plus an empty run in the middle. With the
// order-sensitive ListCombiner the final accumulator proves both that
// combining works across run AND pass boundaries and that the loser tree
// breaks key ties by cursor index (run order), i.e. gather order is the
// run-creation order — the stability contract the Pregel gather path
// depends on.
TEST_F(SortTest, MergeRunsCombinesAcrossRunAndPassBoundaries) {
  SortConfig config = MakeConfig(1 << 20);
  config.merge_fanin = 2;
  const std::string k5 = OrderedKeyI64(5), k7 = OrderedKeyI64(7);
  auto write_run = [&](int id,
                       std::vector<std::pair<const std::string*, std::string>>
                           tuples) {
    TupleRunWriter writer(dir_.path() + "/hand-run-" + std::to_string(id),
                          config.frame_size, config.field_count,
                          config.metrics);
    for (const auto& [key, payload] : tuples) {
      const std::string item = ListItem(payload);
      const Slice t[2] = {Slice(*key), Slice(item)};
      EXPECT_TRUE(writer.Append(t).ok());
    }
    EXPECT_TRUE(writer.Finish().ok());
    return writer.path();
  };
  std::vector<std::string> runs;
  runs.push_back(write_run(0, {{&k5, "a"}}));
  runs.push_back(write_run(1, {{&k5, "b"}}));
  runs.push_back(write_run(2, {}));  // empty run: exhausted leaf at Init
  runs.push_back(write_run(3, {{&k5, "c"}, {&k7, "x"}}));
  runs.push_back(write_run(4, {{&k7, "y"}}));
  std::vector<std::pair<int64_t, std::vector<std::string>>> got;
  ASSERT_TRUE(internal_sort::MergeRuns(
                  config, ListCombiner(), std::move(runs),
                  [&](std::span<const Slice> fields) {
                    std::vector<std::string> items;
                    Slice acc = fields[1], item;
                    while (GetLengthPrefixed(&acc, &item))
                      items.push_back(item.ToString());
                    got.emplace_back(DecodeOrderedI64(fields[0].data()),
                                     std::move(items));
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, 5);
  EXPECT_EQ(got[0].second, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(got[1].first, 7);
  EXPECT_EQ(got[1].second, (std::vector<std::string>{"x", "y"}));
}

// Duplicate-heavy input through a tiny budget and fan-in 2: every group's
// tuples straddle many runs and several merge passes, and the combined
// result must still be one exact minimum per key.
TEST_F(SortTest, CombinerGroupsStraddleRunsAndPasses) {
  SortConfig config = MakeConfig(512);
  config.merge_fanin = 2;
  ExternalSortGrouper grouper(config, MinDoubleCombiner());
  std::map<int64_t, double> expected;
  Random rnd(21);
  for (int i = 0; i < 3000; ++i) {
    const int64_t dest = static_cast<int64_t>(rnd.Uniform(10));
    const double dist = rnd.NextDouble() * 100;
    auto it = expected.find(dest);
    if (it == expected.end() || dist < it->second) expected[dest] = dist;
    const std::string k = OrderedKeyI64(dest);
    std::string payload;
    PutDouble(&payload, dist);
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(grouper.Add(t).ok());
  }
  // Way more runs than fanin^2 so at least three merge passes happen.
  EXPECT_GT(grouper.runs_spilled(), 8);
  int groups = 0;
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice> fields) {
                    const int64_t dest = DecodeOrderedI64(fields[0].data());
                    EXPECT_DOUBLE_EQ(DecodeDouble(fields[1].data()),
                                     expected[dest]);
                    ++groups;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(groups, static_cast<int>(expected.size()));
}

// Runs are single-use scratch: a spilling, multi-pass, combining group-by
// deletes every run it wrote (the spilled runs and each intermediate pass's
// output) once the merge has read it, leaving nothing under its prefix.
TEST_F(SortTest, MergeDeletesEveryRunItRead) {
  SortConfig config = MakeConfig(512);
  config.merge_fanin = 2;
  ExternalSortGrouper grouper(config, MinDoubleCombiner());
  Random rnd(23);
  for (int i = 0; i < 3000; ++i) {
    const std::string k =
        OrderedKeyI64(static_cast<int64_t>(rnd.Uniform(100)));
    std::string payload;
    PutDouble(&payload, rnd.NextDouble());
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(grouper.Add(t).ok());
  }
  ASSERT_GT(grouper.runs_spilled(), 4);  // at least two merge passes
  auto leftover_runs = [&] {
    std::vector<std::string> names;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_.path())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("sort-", 0) == 0) names.push_back(name);
    }
    return names;
  };
  EXPECT_FALSE(leftover_runs().empty());
  int groups = 0;
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice>) {
                    ++groups;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(groups, 100);
  EXPECT_EQ(leftover_runs(), std::vector<std::string>{});
}

// Regression (S1): a combiner step that SHRINKS the accumulator. The old
// byte accounting subtracted sizes as size_t, so a shrink underflowed the
// counter to ~2^64, every later Add thought the table was over budget, and
// the grouper degenerated into spilling a run per tuple. With a generous
// budget there must be no spills at all.
TEST_F(SortTest, HashSortShrinkingAccumulatorDoesNotUnderflowBudget) {
  GroupCombiner last;  // acc := most recent payload (shrinks and grows)
  last.init = [](const Slice& p, std::string* acc) {
    acc->assign(p.data(), p.size());
  };
  last.step = [](const Slice& p, std::string* acc) {
    acc->assign(p.data(), p.size());
  };
  HashSortGrouper grouper(MakeConfig(1 << 20), last);
  const std::string long_payload(64, 'L');
  const std::string short_payload(8, 's');
  for (int round = 0; round < 200; ++round) {
    for (int64_t dest = 0; dest < 16; ++dest) {
      const std::string k = OrderedKeyI64(dest);
      const Slice& p = (round % 2 == 0) ? Slice(long_payload)
                                        : Slice(short_payload);
      const Slice t[2] = {Slice(k), p};
      ASSERT_TRUE(grouper.Add(t).ok());
    }
  }
  EXPECT_EQ(grouper.runs_spilled(), 0);
  int groups = 0;
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice> fields) {
                    EXPECT_EQ(fields[1].ToString(), short_payload);
                    ++groups;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(groups, 16);
}

// S2: the sort grouper charges the Entry array's capacity against the
// budget, not just the tuple bytes. With empty payloads the per-tuple pool
// cost is 16 bytes but the honest cost is ~32+ (Entry capacity), so spills
// must happen roughly twice as often as a pool-bytes-only accounting would
// predict: 640 tuples at 16 pool bytes each under a 1 KiB budget would
// yield 10 runs; honest accounting yields strictly more.
TEST_F(SortTest, SortGrouperChargesEntryArrayToBudget) {
  ExternalSortGrouper sorter(MakeConfig(1024));
  for (int i = 0; i < 640; ++i) {
    const std::string k = OrderedKeyI64(i);
    const Slice t[2] = {Slice(k), Slice()};
    ASSERT_TRUE(sorter.Add(t).ok());
  }
  EXPECT_GT(sorter.runs_spilled(), 10);
  int64_t next = 0;
  ASSERT_TRUE(sorter
                  .Finish([&](std::span<const Slice> fields) {
                    EXPECT_EQ(DecodeOrderedI64(fields[0].data()), next++);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(next, 640);
}

// The in-memory hash group-by hit path must not allocate: probing is a
// flat-array walk, the key is compared in place (transparent hash/eq, no
// materialized lookup key), and the min-combiner folds into the resident
// SSO accumulator. Counted with the binary-wide allocator of
// tests/counting_allocator.h.
TEST_F(SortTest, HashSortHitPathDoesNotAllocate) {
  HashSortGrouper grouper(MakeConfig(1 << 20), MinDoubleCombiner());
  std::vector<std::string> keys;
  std::vector<std::string> payloads;
  for (int64_t dest = 0; dest < 64; ++dest) {
    keys.push_back(OrderedKeyI64(dest));
    std::string payload;
    PutDouble(&payload, 100.0 + static_cast<double>(dest));
    payloads.push_back(payload);
  }
  // Two warm-up rounds: the first creates every group, the second verifies
  // the table is steady (no slot growth pending).
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const Slice t[2] = {Slice(keys[i]), Slice(payloads[i])};
      ASSERT_TRUE(grouper.Add(t).ok());
    }
  }
  const uint64_t before = pregelix_test::HeapAllocs();
  for (int round = 0; round < 100; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const Slice t[2] = {Slice(keys[i]), Slice(payloads[i])};
      if (!grouper.Add(t).ok()) FAIL() << "Add failed";
    }
  }
  const uint64_t after = pregelix_test::HeapAllocs();
  EXPECT_EQ(after - before, 0u) << "hit path allocated";
}

// The dense group-by folds in-range keys into its slot array and sends the
// rest (below the range, above it, negative, extreme) to its overflow sort,
// which spills at this budget. Whatever the mix, it must emit the very
// tuples the sort group-by emits, in the same order.
TEST_F(SortTest, DenseGrouperMatchesSortGrouperAcrossRangeAndOverflow) {
  constexpr int64_t kLo = -50;
  constexpr uint64_t kSlots = 200;
  const size_t budget = 4096;
  DenseGrouper dense(MakeConfig(budget), SumI64Combiner(), kLo, kSlots);
  SortConfig sort_config = MakeConfig(budget);
  sort_config.scratch_prefix = dir_.path() + "/reference";
  ExternalSortGrouper sorted(sort_config, SumI64Combiner());
  Random rnd(31);
  const int kTuples = 5000;
  int overflow_keys = 0;
  for (int i = 0; i < kTuples; ++i) {
    int64_t vid = static_cast<int64_t>(rnd.Uniform(700)) - 300;
    if (i % 997 == 0) {
      vid = i % 2 == 0 ? std::numeric_limits<int64_t>::min() + 1
                       : std::numeric_limits<int64_t>::max();
    }
    if (vid < kLo || vid >= kLo + static_cast<int64_t>(kSlots)) {
      ++overflow_keys;
    }
    const std::string k = OrderedKeyI64(vid);
    std::string payload;
    PutFixed64(&payload, rnd.Next());
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(dense.Add(t).ok());
    ASSERT_TRUE(sorted.Add(t).ok());
  }
  ASSERT_GT(overflow_keys, kTuples / 2);
  EmittedTuples dense_out, sort_out;
  ASSERT_TRUE(CollectInto(dense, &dense_out).ok());
  ASSERT_TRUE(CollectInto(sorted, &sort_out).ok());
  ASSERT_FALSE(sort_out.empty());
  EXPECT_TRUE(dense_out == sort_out);
}

TEST_F(SortTest, DenseGrouperRejectsWrongWidthTuples) {
  DenseGrouper grouper(MakeConfig(1 << 20), SumI64Combiner(), 0, 16);
  const std::string key = OrderedKeyI64(3);
  const Slice short_payload[2] = {Slice(key), Slice("four")};
  const Status s = grouper.Add(short_payload);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  std::string payload;
  PutFixed64(&payload, 1);
  const Slice short_key[2] = {Slice("k"), Slice(payload)};
  EXPECT_EQ(grouper.Add(short_key).code(), StatusCode::kInvalidArgument);
  // The rejected tuples left nothing behind.
  EmittedTuples out;
  ASSERT_TRUE(CollectInto(grouper, &out).ok());
  EXPECT_TRUE(out.empty());
}

// An in-range Add copies or folds into the preallocated slot array: no heap
// allocation, not even for a key's first message. Its tuple-op goes on the
// worker's shared counter once, at Finish.
TEST_F(SortTest, DenseGrouperInRangeAddDoesNotAllocate) {
  constexpr uint64_t kSlots = 4096;
  DenseGrouper grouper(MakeConfig(1 << 20), SumI64Combiner(), 1000, kSlots);
  std::vector<std::string> keys;
  for (uint64_t s = 0; s < kSlots; ++s) {
    keys.push_back(OrderedKeyI64(1000 + static_cast<int64_t>(s)));
  }
  std::string payload;
  PutFixed64(&payload, 7);
  const uint64_t before = pregelix_test::HeapAllocs();
  for (int round = 0; round < 4; ++round) {
    for (const std::string& key : keys) {
      const Slice t[2] = {Slice(key), Slice(payload)};
      if (!grouper.Add(t).ok()) FAIL() << "Add failed";
    }
  }
  const uint64_t after = pregelix_test::HeapAllocs();
  EXPECT_EQ(after - before, 0u) << "in-range Add allocated";
  EXPECT_EQ(metrics_.Snapshot().cpu_ops, 0u);
  EmittedTuples out;
  ASSERT_TRUE(CollectInto(grouper, &out).ok());
  EXPECT_EQ(metrics_.Snapshot().cpu_ops, 4 * kSlots);
  ASSERT_EQ(out.size(), kSlots);
  EXPECT_EQ(DecodeFixed64(out[0].second.data()), 28u);
}

// AddVid is Add without the key: fed the same vids (in range, below it and
// above it), both emit the same stream, and an in-range AddVid allocates
// nothing.
TEST_F(SortTest, DenseGrouperAddVidMatchesAdd) {
  constexpr int64_t kLo = 100;
  constexpr uint64_t kSlots = 64;
  DenseGrouper by_key(MakeConfig(1 << 20), SumI64Combiner(), kLo, kSlots);
  SortConfig vid_config = MakeConfig(1 << 20);
  vid_config.scratch_prefix = dir_.path() + "/by-vid";
  DenseGrouper by_vid(vid_config, SumI64Combiner(), kLo, kSlots);
  ASSERT_EQ(by_vid.width(), 8u);
  Random rnd(17);
  for (int i = 0; i < 2000; ++i) {
    // A third each below, inside and above [kLo, kLo + kSlots).
    const int64_t vid = static_cast<int64_t>(rnd.Uniform(3 * kSlots)) -
                        static_cast<int64_t>(kSlots) + kLo;
    std::string payload;
    PutFixed64(&payload, rnd.Next());
    const std::string key = OrderedKeyI64(vid);
    const Slice t[2] = {Slice(key), Slice(payload)};
    ASSERT_TRUE(by_key.Add(t).ok());
    ASSERT_TRUE(by_vid.AddVid(vid, payload.data()).ok());
  }
  std::string payload;
  PutFixed64(&payload, 3);
  const uint64_t before = pregelix_test::HeapAllocs();
  for (int64_t vid = kLo; vid < kLo + static_cast<int64_t>(kSlots); ++vid) {
    if (!by_vid.AddVid(vid, payload.data()).ok()) FAIL() << "AddVid failed";
  }
  const uint64_t after = pregelix_test::HeapAllocs();
  EXPECT_EQ(after - before, 0u) << "in-range AddVid allocated";
  for (int64_t vid = kLo; vid < kLo + static_cast<int64_t>(kSlots); ++vid) {
    const std::string key = OrderedKeyI64(vid);
    const Slice t[2] = {Slice(key), Slice(payload)};
    ASSERT_TRUE(by_key.Add(t).ok());
  }
  EmittedTuples key_out, vid_out;
  ASSERT_TRUE(CollectInto(by_key, &key_out).ok());
  ASSERT_TRUE(CollectInto(by_vid, &vid_out).ok());
  ASSERT_GT(key_out.size(), kSlots);  // the overflow emitted keys too
  EXPECT_LT(DecodeOrderedI64(key_out.front().first.data()), kLo);
  EXPECT_GE(DecodeOrderedI64(key_out.back().first.data()),
            kLo + static_cast<int64_t>(kSlots));
  EXPECT_TRUE(key_out == vid_out);
}

TEST_F(SortTest, DenseGrouperAppliesFinishToSlotsAndOverflow) {
  GroupCombiner combiner = SumI64Combiner();
  combiner.finish = [](std::string* acc) { acc->append("!"); };
  DenseGrouper grouper(MakeConfig(1 << 20), combiner, 10, 5);
  for (int64_t vid : {12, 3, 12, 40}) {  // in range, below, in range, above
    const std::string k = OrderedKeyI64(vid);
    std::string payload;
    PutFixed64(&payload, static_cast<uint64_t>(vid));
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(grouper.Add(t).ok());
  }
  EmittedTuples out;
  ASSERT_TRUE(CollectInto(grouper, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  const int64_t keys[3] = {3, 12, 40};
  const uint64_t sums[3] = {3, 24, 40};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(DecodeOrderedI64(out[i].first.data()), keys[i]);
    ASSERT_EQ(out[i].second.size(), 9u);
    EXPECT_EQ(DecodeFixed64(out[i].second.data()), sums[i]);
    EXPECT_EQ(out[i].second.back(), '!');
  }
}

// A receiving partition's dense grouper holds only its own vids: every
// fourth one from lo. Keys of that residue inside the range fold into their
// slots and the rest go to the overflow; whatever the mix, it emits the
// tuples the sort group-by emits, in key order.
TEST_F(SortTest, StridedDenseGrouperMatchesSortGrouper) {
  constexpr int64_t kLo = -97;  // residue 3 mod 4
  constexpr uint64_t kSlots = 60;
  constexpr uint64_t kStride = 4;
  DenseGrouper dense(MakeConfig(4096), SumI64Combiner(), kLo, kSlots,
                     kStride);
  SortConfig sort_config = MakeConfig(4096);
  sort_config.scratch_prefix = dir_.path() + "/reference";
  ExternalSortGrouper sorted(sort_config, SumI64Combiner());
  Random rnd(41);
  int in_range = 0;
  for (int i = 0; i < 3000; ++i) {
    // Slot indexes -30 .. 89: below the range, in it and above it.
    const int64_t vid =
        kLo + static_cast<int64_t>(kStride) *
                  (static_cast<int64_t>(rnd.Uniform(120)) - 30);
    if (vid >= kLo &&
        vid < kLo + static_cast<int64_t>(kSlots * kStride)) {
      ++in_range;
    }
    const std::string k = OrderedKeyI64(vid);
    std::string payload;
    PutFixed64(&payload, rnd.Next());
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(dense.Add(t).ok());
    ASSERT_TRUE(sorted.Add(t).ok());
  }
  ASSERT_GT(in_range, 1000);
  ASSERT_LT(in_range, 2000);
  EmittedTuples dense_out, sort_out;
  ASSERT_TRUE(CollectInto(dense, &dense_out).ok());
  ASSERT_TRUE(CollectInto(sorted, &sort_out).ok());
  ASSERT_EQ(sort_out.size(), 120u);
  EXPECT_TRUE(dense_out == sort_out);
}

// An in-range key of another residue was routed to the wrong partition:
// Add and AddVid return an error instead of folding it into a neighbour's
// slot or emitting it out of key order. Outside the range the overflow
// takes any key.
TEST_F(SortTest, StridedDenseGrouperRejectsAKeyOfAnotherResidue) {
  DenseGrouper grouper(MakeConfig(1 << 20), SumI64Combiner(), /*lo=*/2,
                       /*slots=*/10, /*stride=*/4);
  std::string payload;
  PutFixed64(&payload, 1);
  const std::string misrouted = OrderedKeyI64(7);
  const Slice t[2] = {Slice(misrouted), Slice(payload)};
  const Status s = grouper.Add(t);
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
  EXPECT_EQ(grouper.AddVid(35, payload.data()).code(), StatusCode::kInternal);
  // The range is 2, 6, ..., 38; 1, 39, 43 and -6 lie outside it.
  for (int64_t vid : {2, 38, 1, 39, 43, -6}) {
    ASSERT_TRUE(grouper.AddVid(vid, payload.data()).ok()) << vid;
  }
  EmittedTuples out;
  ASSERT_TRUE(CollectInto(grouper, &out).ok());
  std::vector<int64_t> keys;
  for (const auto& [key, value] : out) {
    keys.push_back(DecodeOrderedI64(key.data()));
  }
  EXPECT_EQ(keys, (std::vector<int64_t>{-6, 1, 2, 38, 39, 43}));
}

// A merge that fails part way deletes every run it was handed and every
// intermediate output it made, the failed pass's partial one included: a
// spilling, multi-pass group-by whose merge refill fails leaves nothing
// under its scratch prefix.
TEST_F(SortTest, FailedMergeDeletesEveryRun) {
  SortConfig config = MakeConfig(512);
  config.merge_fanin = 2;
  ExternalSortGrouper grouper(config, MinDoubleCombiner());
  Random rnd(23);
  for (int i = 0; i < 3000; ++i) {
    const std::string k =
        OrderedKeyI64(static_cast<int64_t>(rnd.Uniform(100)));
    std::string payload;
    PutDouble(&payload, rnd.NextDouble());
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(grouper.Add(t).ok());
  }
  ASSERT_GT(grouper.runs_spilled(), 4);  // at least two merge passes
  auto leftover_runs = [&] {
    std::vector<std::string> names;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_.path())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("sort-", 0) == 0) names.push_back(name);
    }
    return names;
  };
  // Mid-way through the first pass: some of its outputs are complete, one
  // is partial, and most spilled runs are unread.
  fault::FaultSpec spec;
  spec.trigger = fault::Trigger::kNthHit;
  spec.n = 300;
  spec.code = StatusCode::kIoError;
  spec.message = "injected merge refill failure";
  fault::FaultInjector::Global().Arm("sort.merge.refill", spec);
  const Status s =
      grouper.Finish([](std::span<const Slice>) { return Status::OK(); });
  fault::FaultInjector::Global().Reset();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(leftover_runs(), std::vector<std::string>{});
}

// S6: the merge refill boundary is a fault point. Arming it with an error
// makes a spilling Finish surface the injected status instead of OK.
TEST_F(SortTest, MergeRefillFaultPointSurfacesInjectedError) {
  fault::FaultSpec spec;
  spec.trigger = fault::Trigger::kNthHit;
  spec.n = 100;
  spec.code = StatusCode::kIoError;
  spec.message = "injected merge refill failure";
  fault::FaultInjector::Global().Arm("sort.merge.refill", spec);
  ExternalSortGrouper sorter(MakeConfig(1024));
  Random rnd(22);
  for (int i = 0; i < 2000; ++i) {
    const std::string k =
        OrderedKeyI64(static_cast<int64_t>(rnd.Uniform(1000)));
    const Slice t[2] = {Slice(k), Slice("p")};
    ASSERT_TRUE(sorter.Add(t).ok());
  }
  ASSERT_GT(sorter.runs_spilled(), 1);
  const Status s =
      sorter.Finish([](std::span<const Slice>) { return Status::OK(); });
  fault::FaultInjector::Global().Reset();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.message().find("injected merge refill failure") !=
              std::string::npos)
      << s.message();
}

}  // namespace
}  // namespace pregelix
