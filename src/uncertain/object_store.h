// Disk-resident object records: each uncertain object's region and pdf is
// serialized into simulated disk pages. Both indexes store a `ptr` to the
// record in their leaf tuples (paper Sec. V-A) and fetch it during query
// processing — the "object retrieval" component of Fig. 6(c).
#ifndef UVD_UNCERTAIN_OBJECT_STORE_H_
#define UVD_UNCERTAIN_OBJECT_STORE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "storage/page_manager.h"
#include "storage/record.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace uncertain {

/// Opaque disk pointer: page id in the high 32 bits, slot in the low 32.
using ObjectPtr = uint64_t;

/// \brief Packs object records into pages and fetches them by pointer.
class ObjectStore {
 public:
  explicit ObjectStore(storage::PageManager* pm) : pm_(pm) {}

  /// Serializes all objects (records packed into pages in id order) and
  /// returns ptrs[i] for objects[i].
  Status BulkLoad(const std::vector<UncertainObject>& objects,
                  std::vector<ObjectPtr>* ptrs);

  /// Appends one record (incremental updates), reusing free space on the
  /// tail page. The bar count must match the loaded records'.
  Result<ObjectPtr> Append(const UncertainObject& object);

  /// Forgets the record the last successful Append returned, for a caller
  /// whose insert failed after it: the store is as it was before that
  /// Append, apart from a page it may have allocated and no longer uses.
  void DropLastRecord();

  /// Reads one record; each call costs one page read (plus decoding).
  Result<UncertainObject> Fetch(ObjectPtr ptr) const;

  /// Serializes the store's transient layout state (record size, page
  /// list, tail occupancy) — everything a fresh ObjectStore over the SAME
  /// page manager needs to resume serving. Part of the index-unit manifest
  /// (core/index_unit.cc Checkpoint).
  void EncodeState(storage::Encoder* enc) const;

  /// Restores state written by EncodeState. The pages themselves stay on
  /// the page manager; this only rebuilds the in-RAM directory. A damaged
  /// directory is Corruption.
  Status RestoreState(storage::Decoder* dec);

  /// Decodes every record back, in id order, with ptrs[i] for objects[i]
  /// — the reopen path's way to repopulate UVDiagram::objects().
  Status LoadAll(std::vector<UncertainObject>* objects,
                 std::vector<ObjectPtr>* ptrs) const;

  size_t num_pages() const { return data_pages_.size(); }

  static ObjectPtr MakePtr(storage::PageId page, uint32_t slot) {
    return (static_cast<uint64_t>(page) << 32) | slot;
  }
  static storage::PageId PtrPage(ObjectPtr p) {
    return static_cast<storage::PageId>(p >> 32);
  }
  static uint32_t PtrSlot(ObjectPtr p) { return static_cast<uint32_t>(p); }

 private:
  storage::PageManager* pm_;
  std::vector<storage::PageId> data_pages_;
  size_t record_size_ = 0;
  size_t records_per_page_ = 0;
  uint32_t tail_count_ = 0;  ///< records on the last data page
};

}  // namespace uncertain
}  // namespace uvd

#endif  // UVD_UNCERTAIN_OBJECT_STORE_H_
