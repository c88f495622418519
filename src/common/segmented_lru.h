// The one segmented-LRU admission policy behind every cache in the repo:
// query::QueryCache (decoded UV-index leaves, one instance per lock shard),
// storage::BufferPool (raw pages) and rtree::TraversalSession's stage-1
// decoded-leaf memo. Moving-NN workloads re-probe the same UV-cells (Ali et
// al.), while cold-start reads and full-index sweeps touch each leaf or page
// once; the two segments keep the re-referenced working set resident
// through one-pass scan traffic.
//
// Policy:
//   * a miss enters at the front (most recent end) of the probationary list;
//   * the first re-reference promotes an entry to the protected front; a
//     hit on a protected entry refreshes it in place;
//   * when the protected list outgrows its capacity, its LRU tail is demoted
//     to the probationary front (one more chance before eviction);
//   * eviction takes the probationary LRU tail first, then the protected
//     tail, skipping entries the owner's Pinned predicate holds.
//
// The protected capacity is min(cap - 1, floor(kProtectedFraction * cap)).
// Keeping one probationary slot means that whenever the map exceeds its
// capacity the probationary list holds at least two entries, so scan
// traffic never reaches the protected list and a fresh miss never evicts
// itself. With no re-references every entry stays probationary and the
// policy is plain LRU.
//
// Thread safety: none. Owners that share one instance guard it with a lock.
#ifndef UVD_COMMON_SEGMENTED_LRU_H_
#define UVD_COMMON_SEGMENTED_LRU_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>

namespace uvd {

/// Pinned predicate of owners whose entries are never held from outside.
struct NeverPinned {
  template <typename Value>
  bool operator()(const Value& /*value*/) const {
    return false;
  }
};

/// \brief Single-owner segmented-LRU map from Key to Value.
///
/// Nodes live in std::list, so a Value's address is stable for as long as
/// the entry stays mapped (and, for pinned entries, after Erase/Clear move
/// it to the owner's graveyard list).
template <typename Key, typename Value, typename Pinned = NeverPinned>
class SegmentedLru {
 public:
  /// Share of the capacity reserved for re-referenced entries.
  static constexpr double kProtectedFraction = 0.8;

  struct Node {
    Key key;
    Value value;
    bool is_protected = false;
  };
  using List = std::list<Node>;

  /// What one Lookup did.
  struct Hit {
    Value* value = nullptr;  ///< nullptr on a miss.
    bool promoted = false;   ///< Moved from probationary to protected.
    bool demoted = false;    ///< The promotion pushed the protected tail back.
  };

  /// `capacity` 0 means unbounded: nothing is ever evicted and nothing is
  /// ever promoted (with no eviction there is nothing to resist).
  explicit SegmentedLru(size_t capacity)
      : capacity_(capacity),
        protected_capacity_(
            capacity == 0
                ? 0
                : std::min(capacity - 1,
                           static_cast<size_t>(kProtectedFraction *
                                               static_cast<double>(capacity)))) {}

  /// Looks `key` up and, on a hit, applies the re-reference rules.
  Hit Lookup(const Key& key) {
    const auto found = map_.find(key);
    if (found == map_.end()) return {};
    const auto it = found->second;
    Hit hit{&it->value, false, false};
    if (it->is_protected) {
      protected_.splice(protected_.begin(), protected_, it);
    } else if (protected_capacity_ > 0) {
      hit.promoted = true;
      protected_.splice(protected_.begin(), probationary_, it);
      it->is_protected = true;
      if (protected_.size() > protected_capacity_) {
        hit.demoted = true;
        const auto tail = std::prev(protected_.end());
        tail->is_protected = false;
        probationary_.splice(probationary_.begin(), protected_, tail);
      }
    } else {
      probationary_.splice(probationary_.begin(), probationary_, it);
    }
    return hit;
  }

  /// The mapped value, or nullptr; recency is untouched.
  Value* Peek(const Key& key) {
    const auto found = map_.find(key);
    return found == map_.end() ? nullptr : &found->second->value;
  }

  /// Admits `key` at the probationary front and evicts down to capacity;
  /// the admitted entry itself is never evicted. If `key` is already mapped
  /// nothing changes (recency included) and `value` is dropped. Returns the
  /// mapped value and whether it was inserted.
  std::pair<Value*, bool> Insert(const Key& key, Value value) {
    // The list node is allocated before the map node here, and Clear frees
    // the lists before the map: with the opposite orders the answer-ids
    // serving latency of e2ebench measured about 20% slower (uniform_pnn
    // ids_p50_us, GCC 12.2 on a 4-vCPU x86-64 VM), a heap-layout effect.
    if (Value* mapped = Peek(key)) return {mapped, false};
    probationary_.push_front(Node{key, std::move(value), false});
    const auto fresh = probationary_.begin();
    map_.emplace(key, fresh);
    if (capacity_ != 0) {
      for (List* list : {&probationary_, &protected_}) {
        for (auto it = list->end(); map_.size() > capacity_ && it != list->begin();) {
          --it;
          if (it == fresh || Pinned()(it->value)) continue;
          map_.erase(it->key);
          it = list->erase(it);
          ++evictions_;
        }
      }
    }
    return {&fresh->value, true};
  }

  /// Unmaps `key`; false if absent. A pinned entry is spliced onto the
  /// front of `*graveyard` (address unchanged) for the owner to free once
  /// unpinned; every other entry is destroyed.
  bool Erase(const Key& key, List* graveyard = nullptr) {
    const auto found = map_.find(key);
    if (found == map_.end()) return false;
    const auto it = found->second;
    map_.erase(found);
    ++erasures_;
    Discard(it->is_protected ? &protected_ : &probationary_, it, graveyard);
    return true;
  }

  /// Erase for every mapped entry.
  void Clear(List* graveyard = nullptr) {
    erasures_ += map_.size();
    for (List* list : {&probationary_, &protected_}) {
      for (auto it = list->begin(); it != list->end();) {
        Discard(list, it++, graveyard);
      }
    }
    map_.clear();
  }

  size_t size() const { return map_.size(); }
  size_t protected_size() const { return protected_.size(); }
  size_t capacity() const { return capacity_; }
  size_t protected_capacity() const { return protected_capacity_; }
  /// Entries dropped to make room / unmapped by Erase or Clear.
  uint64_t evictions() const { return evictions_; }
  uint64_t erasures() const { return erasures_; }
  /// Both lists, most recently used first.
  const List& probationary_list() const { return probationary_; }
  const List& protected_list() const { return protected_; }

 private:
  void Discard(List* list, typename List::iterator it, List* graveyard) {
    if (graveyard != nullptr && Pinned()(it->value)) {
      graveyard->splice(graveyard->begin(), *list, it);
    } else {
      list->erase(it);
    }
  }

  const size_t capacity_;
  const size_t protected_capacity_;
  List probationary_;
  List protected_;
  // Never iterated: unordered iteration order is not deterministic
  // (scripts/check_determinism.py).
  std::unordered_map<Key, typename List::iterator> map_;
  uint64_t evictions_ = 0;
  uint64_t erasures_ = 0;
};

}  // namespace uvd

#endif  // UVD_COMMON_SEGMENTED_LRU_H_
