#include "util/compact_state_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/concurrent_state_table.h"
#include "util/thread_pool.h"

namespace tta::util {
namespace {

// 104 significant bits, like the flat-table test's keys.
constexpr unsigned kTestKeyBits = 104;

PackedState make_key(std::uint64_t n) {
  PackedState p;
  BitWriter w(p);
  w.write(n, 64);
  w.write(n ^ 0xDEADBEEF, 40);
  return p;
}

TEST(CompactStateTable, InsertIfAbsentBasics) {
  CompactStateTable<int> table(1024, kTestKeyBits);
  auto a = table.insert(make_key(1), 10);
  EXPECT_TRUE(a.inserted);
  ASSERT_NE(a.slot, CompactStateTable<int>::kNoSlot);
  auto b = table.insert(make_key(1), 99);
  EXPECT_FALSE(b.inserted);
  EXPECT_EQ(b.slot, a.slot);
  EXPECT_EQ(table.value_at(a.slot), 10);  // loser's value is discarded
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.occupied(a.slot));
}

TEST(CompactStateTable, KeyAtInvertsTheQuotient) {
  // The slot stores only (displacement, remainder); key_at() must still
  // reproduce the exact original key, because the mix is a bijection.
  CompactStateTable<int> table(256, kTestKeyBits);
  for (std::uint64_t i = 0; i < 150; ++i) {
    auto r = table.insert(make_key(i), static_cast<int>(i));
    ASSERT_TRUE(r.inserted) << i;
    EXPECT_EQ(table.key_at(r.slot), make_key(i)) << i;
  }
}

TEST(CompactStateTable, FindHitsAndMisses) {
  CompactStateTable<int> table(1024, kTestKeyBits);
  for (std::uint64_t i = 0; i < 100; ++i) {
    table.insert(make_key(i), static_cast<int>(i));
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    std::uint32_t slot = table.find(make_key(i));
    ASSERT_NE(slot, CompactStateTable<int>::kNoSlot) << i;
    EXPECT_EQ(table.value_at(slot), static_cast<int>(i));
  }
  EXPECT_EQ(table.find(make_key(12345)), CompactStateTable<int>::kNoSlot);
}

TEST(CompactStateTable, SaturationIsReportedNotSilent) {
  // 64 slots -> max_load = 48; the 49th distinct key must get {kNoSlot,
  // false}, never a silent overwrite or a false "already present".
  CompactStateTable<int> table(64, kTestKeyBits);
  std::size_t accepted = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    if (table.insert(make_key(i), 0).slot !=
        CompactStateTable<int>::kNoSlot) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, table.max_load());
  // Already-present keys still resolve after saturation.
  EXPECT_NE(table.insert(make_key(0), 0).slot,
            CompactStateTable<int>::kNoSlot);
}

TEST(CompactStateTable, SaturationRecoversAfterRebuild) {
  // The checker's growth path end to end: saturate, rebuild bigger, retry
  // the refused inserts, and verify nothing already stored was disturbed.
  CompactStateTable<int> table(64, kTestKeyBits);
  std::vector<std::uint64_t> refused;
  for (std::uint64_t i = 0; i < 200; ++i) {
    if (table.insert(make_key(i), static_cast<int>(i)).slot ==
        CompactStateTable<int>::kNoSlot) {
      refused.push_back(i);
    }
  }
  ASSERT_FALSE(refused.empty());
  table.rebuild(1024);
  for (std::uint64_t i : refused) {
    auto r = table.insert(make_key(i), static_cast<int>(i));
    EXPECT_TRUE(r.inserted) << i;
  }
  EXPECT_EQ(table.size(), 200u);
  for (std::uint64_t i = 0; i < 200; ++i) {
    std::uint32_t slot = table.find(make_key(i));
    ASSERT_NE(slot, CompactStateTable<int>::kNoSlot) << i;
    EXPECT_EQ(table.value_at(slot), static_cast<int>(i));
    EXPECT_EQ(table.key_at(slot), make_key(i));
  }
}

TEST(CompactStateTable, RebuildGrowsAndRemaps) {
  // rebuild() re-places entries from stored quotients under a *different*
  // bucket split (more home bits, fewer remainder bits): every key must
  // survive with its value, its remap entry, and an exact key_at().
  CompactStateTable<int> table(64, kTestKeyBits);
  std::vector<std::uint32_t> slots;
  for (std::uint64_t i = 0; i < 48; ++i) {
    slots.push_back(table.insert(make_key(i), static_cast<int>(i)).slot);
  }
  std::vector<std::uint32_t> remap = table.rebuild(256);
  EXPECT_EQ(table.capacity(), 256u);
  EXPECT_EQ(table.size(), 48u);
  for (std::uint64_t i = 0; i < 48; ++i) {
    std::uint32_t moved = remap[slots[i]];
    ASSERT_NE(moved, CompactStateTable<int>::kNoSlot);
    EXPECT_EQ(table.value_at(moved), static_cast<int>(i));
    EXPECT_EQ(table.key_at(moved), make_key(i));
    EXPECT_EQ(table.find(make_key(i)), moved);
  }
}

TEST(CompactStateTable, RebuildDropsSelectedEntries) {
  CompactStateTable<int> table(256, kTestKeyBits);
  std::vector<std::uint32_t> slots;
  for (std::uint64_t i = 0; i < 100; ++i) {
    slots.push_back(table.insert(make_key(i), static_cast<int>(i)).slot);
  }
  std::vector<std::uint32_t> remap =
      table.rebuild(256, [](const int& v) { return v % 2 == 1; });
  EXPECT_EQ(table.size(), 50u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (i % 2 == 1) {
      EXPECT_EQ(remap[slots[i]], CompactStateTable<int>::kNoSlot);
      EXPECT_EQ(table.find(make_key(i)), CompactStateTable<int>::kNoSlot);
    } else {
      EXPECT_EQ(table.find(make_key(i)), remap[slots[i]]);
    }
  }
}

TEST(CompactStateTable, HashedTokenSurvivesRebuild) {
  // The memoized token is capacity-independent (the bucket split happens
  // per call), so a token computed before a rebuild keeps resolving after.
  CompactStateTable<int> table(64, kTestKeyBits);
  const auto hashed = table.hash(make_key(7));
  table.insert(make_key(7), 7, hashed);
  table.rebuild(1024);
  std::uint32_t slot = table.find(make_key(7), hashed);
  ASSERT_NE(slot, CompactStateTable<int>::kNoSlot);
  EXPECT_EQ(table.value_at(slot), 7);
}

TEST(CompactStateTable, NarrowKeysAndZeroRemainder) {
  // key_bits smaller than the bucket bits: the remainder is empty and
  // identity rides on the displacement alone — still exact, because
  // distinct narrow keys mix to distinct buckets (bijection).
  CompactStateTable<int> table(64, /*key_bits=*/4);
  for (std::uint64_t i = 0; i < 16; ++i) {
    PackedState p;
    p.words[0] = i;
    auto r = table.insert(p, static_cast<int>(i));
    ASSERT_TRUE(r.inserted) << i;
  }
  EXPECT_EQ(table.size(), 16u);
  for (std::uint64_t i = 0; i < 16; ++i) {
    PackedState p;
    p.words[0] = i;
    std::uint32_t slot = table.find(p);
    ASSERT_NE(slot, CompactStateTable<int>::kNoSlot) << i;
    EXPECT_EQ(table.value_at(slot), static_cast<int>(i));
    EXPECT_EQ(table.key_at(slot), p);
  }
}

TEST(CompactStateTable, HalvesFlatTableMemoryAtModelWidth) {
  // The compact budget, at the 4-node model's packed width (119 bits)
  // with the checkers' 12-byte per-state value: at most 28 bytes per slot,
  // half of a 56-byte slot holding a full 256-bit key, and less than the
  // flat layout at equal capacity and width.
  struct Node {
    std::uint32_t parent;
    std::uint32_t choice;
    std::uint16_t depth;
    std::uint8_t flags;
  };
  CompactStateTable<Node> compact(1u << 16, 119);
  ConcurrentStateTable<Node> flat(1u << 16, 119);
  ASSERT_EQ(compact.capacity(), flat.capacity());
  EXPECT_LE(compact.memory_bytes(), compact.capacity() * 28);
  EXPECT_LT(compact.memory_bytes(), flat.memory_bytes());
}

TEST(CompactStateTable, MixSpreadsPackedStatesAcrossBuckets) {
  // Same balls-into-bins bound as the flat table's hash test, on the
  // mixed words' bucket bits.
  constexpr std::size_t kBuckets = 1u << 16;
  CompactStateTable<int> table(kBuckets, kTestKeyBits);
  std::vector<std::uint32_t> depth(kBuckets, 0);
  std::uint32_t worst = 0;
  for (std::uint64_t i = 0; i < kBuckets; ++i) {
    std::size_t h = table.hash(make_key(i)).raw() & (kBuckets - 1);
    worst = std::max(worst, ++depth[h]);
  }
  EXPECT_LE(worst, 24u);
  std::size_t used = 0;
  for (std::uint32_t d : depth) used += d != 0;
  EXPECT_GT(used, kBuckets / 2);
}

TEST(CompactStateTable, RacingInsertersAgreeOnOneWinnerPerKey) {
  // Same publication-race check as the flat table, against the SoA layout:
  // exactly one insert() per key reports inserted == true, and every
  // thread observes the winner's slot. Run under TSan via the parallel
  // test label.
  constexpr std::uint64_t kKeys = 512;
  constexpr unsigned kThreads = 8;
  CompactStateTable<std::uint32_t> table(4096, kTestKeyBits);

  std::vector<std::vector<std::uint32_t>> slot_of(
      kThreads, std::vector<std::uint32_t>(kKeys));
  std::vector<std::uint64_t> wins(kThreads, 0);
  ThreadPool pool(kThreads);
  pool.run_tasks(kThreads, [&](std::size_t t) {
    // Each thread visits the keys in a different order.
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      std::uint64_t k = (i * 37 + t * 101) % kKeys;
      auto r = table.insert(make_key(k), static_cast<std::uint32_t>(k));
      ASSERT_NE(r.slot, CompactStateTable<std::uint32_t>::kNoSlot);
      slot_of[t][k] = r.slot;
      wins[t] += r.inserted;
    }
  });

  EXPECT_EQ(table.size(), kKeys);
  std::uint64_t total_wins = 0;
  for (std::uint64_t w : wins) total_wins += w;
  EXPECT_EQ(total_wins, kKeys);  // exactly one winner per key
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    for (unsigned t = 1; t < kThreads; ++t) {
      ASSERT_EQ(slot_of[t][k], slot_of[0][k]) << "key " << k;
    }
    EXPECT_EQ(table.value_at(slot_of[0][k]), static_cast<std::uint32_t>(k));
    EXPECT_EQ(table.key_at(slot_of[0][k]), make_key(k));
  }
}

}  // namespace
}  // namespace tta::util
