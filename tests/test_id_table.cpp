// util::IdTable against std::unordered_map: the open-addressed table
// must behave as a map from id to value under any interleaving of
// inserts, lookups and erases — across growth and across probe runs
// that wrap around the end of the slot array.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rng/rng.h"
#include "util/check.h"
#include "util/id_table.h"

namespace {

using hs::util::IdTable;

void expect_same_contents(const IdTable<uint64_t>& table,
                          const std::unordered_map<uint64_t, uint64_t>& map) {
  ASSERT_EQ(table.size(), map.size());
  size_t visited = 0;
  table.for_each([&](uint64_t id, uint64_t value) {
    ++visited;
    const auto it = map.find(id);
    ASSERT_NE(it, map.end()) << "stray id " << id;
    EXPECT_EQ(value, it->second) << "id " << id;
  });
  EXPECT_EQ(visited, map.size());
  for (const auto& [id, value] : map) {
    const auto* entry = table.find(id);
    ASSERT_NE(entry, nullptr) << "lost id " << id;
    EXPECT_EQ(entry->value, value);
  }
}

/// `ops` random operations over ids drawn below `universe`; the live
/// set stays near universe / 2, so the table settles at a capacity and
/// then churns in place.
void run_differential(uint64_t seed, uint64_t universe, int ops) {
  IdTable<uint64_t> table;
  std::unordered_map<uint64_t, uint64_t> map;
  hs::rng::Xoshiro256 gen(seed);
  for (int i = 0; i < ops; ++i) {
    const uint64_t id = gen.next_below(universe);
    switch (gen.next_below(4)) {
      case 0:
      case 1: {  // insert or overwrite
        const uint64_t value = gen.next_u64();
        table[id] = value;
        map[id] = value;
        break;
      }
      case 2: {  // lookup
        const auto* entry = table.find(id);
        const auto it = map.find(id);
        ASSERT_EQ(entry != nullptr, it != map.end()) << "op " << i;
        if (entry != nullptr) {
          ASSERT_EQ(entry->value, it->second) << "op " << i;
        }
        break;
      }
      default:  // erase
        ASSERT_EQ(table.erase(id), map.erase(id) == 1) << "op " << i;
        break;
    }
    ASSERT_EQ(table.size(), map.size()) << "op " << i;
    if (i % 65536 == 0) {
      expect_same_contents(table, map);
    }
  }
  expect_same_contents(table, map);
}

TEST(IdTable, MatchesUnorderedMapOnSmallChurningTable) {
  // 16-32 slots: probe runs wrap around the array end constantly.
  run_differential(1, 24, 500000);
}

TEST(IdTable, MatchesUnorderedMapThroughGrowth) {
  // Grows from 16 slots to thousands, then churns there.
  run_differential(2, 4096, 1000000);
}

TEST(IdTable, SequentialIdsChurnLikeJobs) {
  // The simulator's pattern: ids arrive in order and leave roughly in
  // order, so the live window slides over the id space.
  IdTable<uint64_t> table;
  std::unordered_map<uint64_t, uint64_t> map;
  hs::rng::Xoshiro256 gen(3);
  std::vector<uint64_t> live;  // in arrival order
  uint64_t next = 0;
  for (int i = 0; i < 200000; ++i) {
    if (live.size() < 64 || gen.next_below(2) == 0) {
      table[next] = next * 3;
      map[next] = next * 3;
      live.push_back(next++);
    } else {
      // Retire one of the oldest live ids (not always the oldest).
      const size_t k = gen.next_below(16);
      ASSERT_TRUE(table.erase(live[k]));
      map.erase(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    }
  }
  expect_same_contents(table, map);
  EXPECT_LE(table.capacity(), 4096u);  // sized by the live set, not ids
}

TEST(IdTable, EraseShiftsBackAcrossTheArrayEnd) {
  IdTable<uint64_t> table;
  table[0] = 0;  // allocate the initial slots
  const size_t last = table.capacity() - 1;
  table.erase(uint64_t{0});
  // Three ids homed at the last slot fill it and wrap to slots 0 and 1;
  // one homed at slot 0 lands behind them.
  constexpr uint64_t kNone = IdTable<uint64_t>::kNoId;
  std::vector<uint64_t> at_last;
  uint64_t at_zero = kNone;
  for (uint64_t id = 1; at_last.size() < 3 || at_zero == kNone; ++id) {
    if (table.home(id) == last && at_last.size() < 3) {
      at_last.push_back(id);
    } else if (table.home(id) == 0 && at_zero == kNone) {
      at_zero = id;
    }
  }
  std::unordered_map<uint64_t, uint64_t> map;
  for (const uint64_t id : at_last) {
    table[id] = id + 100;
    map[id] = id + 100;
  }
  table[at_zero] = 7;
  map[at_zero] = 7;
  ASSERT_EQ(table.capacity(), last + 1);  // no growth reshuffled them
  // Erasing the run's head shifts every later entry back one slot,
  // across the end of the array.
  ASSERT_TRUE(table.erase(at_last[0]));
  map.erase(at_last[0]);
  expect_same_contents(table, map);
  // Erasing an entry that sits past the wrap.
  ASSERT_TRUE(table.erase(at_last[2]));
  map.erase(at_last[2]);
  expect_same_contents(table, map);
  EXPECT_FALSE(table.erase(at_last[2]));
}

TEST(IdTable, EraseByEntryAndReinsert) {
  IdTable<uint64_t> table;
  EXPECT_EQ(table.find(5), nullptr);
  EXPECT_EQ(table.capacity(), 0u);  // an unused table owns nothing
  auto& entry = table.insert(5);
  EXPECT_EQ(entry.id, 5u);
  EXPECT_EQ(entry.value, 0u);
  entry.value = 9;
  EXPECT_EQ(table.insert(5).value, 9u);  // existing entry, not reset
  table.erase(table.find(5));
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table[5], 0u);  // a fresh insert starts from Value{}
}

TEST(IdTable, ReservedIdIsRejected) {
  IdTable<uint64_t> table;
  EXPECT_THROW(table.insert(IdTable<uint64_t>::kNoId), hs::util::CheckError);
}

}  // namespace
