// The single policy test for common/segmented_lru.h, the admission policy
// under QueryCache, BufferPool and the stage-1 leaf memo. A seeded stream of
// lookups, inserts, erases, clears and pin-holds runs against both the core
// and a naive reference model that spells the rules out longhand on plain
// vectors (eviction rescans both lists from the tail for every victim).
// After every operation the hit, promotion and demotion flags, both lists
// in MRU order, and the eviction and erasure counts must match exactly, and
// inserts == size + evictions + erasures.
#include "common/segmented_lru.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"

namespace uvd {
namespace {

struct Payload {
  uint64_t serial = 0;  // distinguishes re-inserts of one key
  int pins = 0;
};

struct PayloadPinned {
  bool operator()(const Payload& p) const { return p.pins != 0; }
};

using Lru = SegmentedLru<int, Payload, PayloadPinned>;

/// The policy written out longhand. Lists hold keys, most recent first.
class Model {
 public:
  explicit Model(size_t capacity) : capacity_(capacity) {
    if (capacity > 0) {
      protected_capacity_ = std::min(
          capacity - 1, static_cast<size_t>(0.8 * static_cast<double>(capacity)));
    }
  }

  bool Contains(int key) const { return serial_.count(key) != 0; }
  uint64_t SerialOf(int key) const { return serial_.at(key); }

  /// Returns {hit, promoted, demoted}.
  std::vector<bool> Lookup(int key) {
    if (!Contains(key)) return {false, false, false};
    if (Has(protected_, key)) {
      Remove(&protected_, key);
      protected_.insert(protected_.begin(), key);
      return {true, false, false};
    }
    Remove(&probationary_, key);
    if (protected_capacity_ == 0) {
      probationary_.insert(probationary_.begin(), key);
      return {true, false, false};
    }
    protected_.insert(protected_.begin(), key);
    if (protected_.size() <= protected_capacity_) return {true, true, false};
    const int demoted = protected_.back();
    protected_.pop_back();
    probationary_.insert(probationary_.begin(), demoted);
    return {true, true, true};
  }

  /// Pre: `key` absent.
  void Insert(int key, uint64_t serial) {
    serial_[key] = serial;
    probationary_.insert(probationary_.begin(), key);
    if (capacity_ == 0) return;
    while (serial_.size() > capacity_) {
      bool evicted = false;
      for (std::vector<int>* list : {&probationary_, &protected_}) {
        for (size_t i = list->size(); i-- > 0;) {
          const int victim = (*list)[i];
          if (victim == key || Pinned(victim)) continue;
          list->erase(list->begin() + static_cast<long>(i));
          serial_.erase(victim);
          ++evictions;
          evicted = true;
          break;
        }
        if (evicted) break;
      }
      if (!evicted) break;
    }
  }

  void Erase(int key) {
    if (!Contains(key)) return;
    Remove(&probationary_, key);
    Remove(&protected_, key);
    serial_.erase(key);
    ++erasures;
  }

  void Clear() {
    erasures += serial_.size();
    serial_.clear();
    probationary_.clear();
    protected_.clear();
  }

  size_t size() const { return serial_.size(); }
  const std::vector<int>& probationary() const { return probationary_; }
  const std::vector<int>& protected_list() const { return protected_; }

  std::map<uint64_t, int> pins;  // by serial
  uint64_t evictions = 0;
  uint64_t erasures = 0;

 private:
  static bool Has(const std::vector<int>& list, int key) {
    return std::find(list.begin(), list.end(), key) != list.end();
  }
  static void Remove(std::vector<int>* list, int key) {
    list->erase(std::remove(list->begin(), list->end(), key), list->end());
  }
  bool Pinned(int key) const {
    const auto it = pins.find(serial_.at(key));
    return it != pins.end() && it->second > 0;
  }

  size_t capacity_;
  size_t protected_capacity_ = 0;
  std::vector<int> probationary_;
  std::vector<int> protected_;
  std::map<int, uint64_t> serial_;
};

std::vector<int> Keys(const Lru::List& list) {
  std::vector<int> keys;
  for (const Lru::Node& node : list) keys.push_back(node.key);
  return keys;
}

struct HeldPin {
  Payload* payload;
  uint64_t serial;
};

TEST(SegmentedLruTest, RandomOpsMatchReferenceModel) {
  for (size_t capacity : {size_t{1}, size_t{2}, size_t{3}, size_t{16}, size_t{0}}) {
    for (uint64_t seed : {3ull, 41ull, 20261017ull}) {
      SCOPED_TRACE("capacity=" + std::to_string(capacity) +
                   " seed=" + std::to_string(seed));
      Lru lru(capacity);
      Model model(capacity);
      Lru::List graveyard;  // erased while pinned
      std::vector<HeldPin> held;
      Rng rng(seed);
      const int universe = static_cast<int>(2 * std::max<size_t>(capacity, 4) + 6);
      uint64_t next_serial = 1;
      uint64_t inserts = 0;

      // Insert through both sides; returns the core's payload.
      const auto insert = [&](int key) {
        const uint64_t serial = next_serial++;
        const auto [payload, inserted] = lru.Insert(key, Payload{serial, 0});
        EXPECT_TRUE(inserted);
        model.Insert(key, serial);
        ++inserts;
        return payload;
      };

      for (int op = 0; op < 5000; ++op) {
        const int key = static_cast<int>(rng.UniformInt(0, universe - 1));
        const int kind = static_cast<int>(rng.UniformInt(0, 99));
        if (kind < 40) {
          const Lru::Hit hit = lru.Lookup(key);
          const std::vector<bool> want = model.Lookup(key);
          ASSERT_EQ(hit.value != nullptr, want[0]) << "op " << op;
          ASSERT_EQ(hit.promoted, want[1]) << "op " << op;
          ASSERT_EQ(hit.demoted, want[2]) << "op " << op;
          if (hit.value != nullptr) {
            ASSERT_EQ(hit.value->serial, model.SerialOf(key));
          }
        } else if (kind < 65) {
          if (model.Contains(key)) {
            // Re-inserting a mapped key changes nothing and keeps the value.
            const auto [payload, inserted] = lru.Insert(key, Payload{0, 0});
            ASSERT_FALSE(inserted);
            ASSERT_EQ(payload->serial, model.SerialOf(key));
          } else {
            insert(key);
          }
        } else if (kind < 75) {
          ASSERT_EQ(lru.Erase(key, &graveyard), model.Contains(key));
          model.Erase(key);
        } else if (kind < 77) {
          lru.Clear(&graveyard);
          model.Clear();
        } else if (kind < 90) {
          // Pin-hold, the buffer pool's Pin: a hit, or a miss admitted and
          // pinned once eviction has run.
          Payload* payload = lru.Lookup(key).value;
          const std::vector<bool> want = model.Lookup(key);
          ASSERT_EQ(payload != nullptr, want[0]);
          if (payload == nullptr) payload = insert(key);
          ++payload->pins;
          ++model.pins[payload->serial];
          held.push_back({payload, payload->serial});
        } else if (!held.empty()) {
          const size_t i = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
          const HeldPin pin = held[i];
          held.erase(held.begin() + static_cast<long>(i));
          ASSERT_EQ(pin.payload->serial, pin.serial);  // address stayed valid
          --model.pins[pin.serial];
          if (--pin.payload->pins == 0) {
            graveyard.remove_if(
                [&pin](const Lru::Node& node) { return &node.value == pin.payload; });
          }
        }

        ASSERT_EQ(Keys(lru.probationary_list()), model.probationary()) << "op " << op;
        ASSERT_EQ(Keys(lru.protected_list()), model.protected_list()) << "op " << op;
        ASSERT_EQ(lru.size(), model.size());
        ASSERT_EQ(lru.protected_size(), model.protected_list().size());
        ASSERT_EQ(lru.evictions(), model.evictions) << "op " << op;
        ASSERT_EQ(lru.erasures(), model.erasures) << "op " << op;
        ASSERT_EQ(inserts, lru.size() + lru.evictions() + lru.erasures());
        for (const Lru::Node& node : graveyard) ASSERT_GT(node.value.pins, 0);
      }
    }
  }
}

TEST(SegmentedLruTest, ProtectedCapacityLeavesOneProbationarySlot) {
  EXPECT_EQ(Lru(0).protected_capacity(), 0u);
  for (size_t capacity = 1; capacity <= 200; ++capacity) {
    const size_t want = std::min(
        capacity - 1, static_cast<size_t>(0.8 * static_cast<double>(capacity)));
    EXPECT_EQ(Lru(capacity).protected_capacity(), want) << capacity;
    EXPECT_LT(want, capacity);
  }
  // A promoted working set as large as the cache still leaves room for a
  // new key to be admitted and then hit, rather than evicting itself.
  Lru lru(4);
  for (int key = 0; key < 4; ++key) {
    lru.Insert(key, {});
    lru.Lookup(key);
  }
  EXPECT_EQ(lru.protected_size(), 3u);
  lru.Insert(99, {});
  EXPECT_NE(lru.Lookup(99).value, nullptr);
}

}  // namespace
}  // namespace uvd
