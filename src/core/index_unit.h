// One persistence unit: the page manager, object store and UV-index of one
// servable index over one box. UVDiagram owns one; ShardedUVDiagram owns
// one per shard. Only the unit creates or opens a FilePageManager, saves
// the index and manifest, and sets the bootstrap, so the on-disk format
// (docs/STORAGE.md) exists once. The manifest's header is opaque to the
// unit: UVDiagram writes it empty, a shard writes its place in the fleet.
#ifndef UVD_CORE_INDEX_UNIT_H_
#define UVD_CORE_INDEX_UNIT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "core/uv_index.h"
#include "geom/box.h"
#include "storage/file_page_manager.h"
#include "storage/page_manager.h"
#include "uncertain/object_store.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace core {

constexpr uint32_t kUnitBootstrapMagic = 0x55564442;  // "UVDB"
constexpr uint32_t kUnitManifestMagic = 0x5556444D;   // "UVDM"
constexpr uint32_t kUnitFormatVersion = 2;

struct IndexUnit {
  geom::Box box;
  std::unique_ptr<storage::PageManager> pm;
  /// pm downcast when file-backed; null for in-RAM units.
  storage::FilePageManager* fpm = nullptr;
  std::unique_ptr<uncertain::ObjectStore> store;
  std::vector<uncertain::ObjectPtr> ptrs;
  std::unique_ptr<UVIndex> index;

  /// Creates `pm` (a fresh paged file at `path` with a `pool_pages` buffer
  /// pool, or the in-RAM simulated disk when `path` is empty) and an empty
  /// `store` over it. The caller sets `box`, loads the store and builds
  /// `index`.
  Status Create(const std::string& path, size_t page_size, size_t pool_pages,
                Stats* stats);

  /// Durability point: saves the index, writes the manifest with `header`,
  /// points the bootstrap at it and checkpoints the file. InvalidArgument
  /// for an in-RAM unit.
  Status Checkpoint(const std::vector<uint8_t>& header);

  /// Reopens the unit checkpointed at `path`, returning the caller's
  /// header and every stored object (`ptrs` alongside). A damaged manifest
  /// yields Corruption, a file that is not a unit InvalidArgument, another
  /// format version NotImplemented — never an abort.
  Status Open(const std::string& path, size_t pool_pages, Stats* stats,
              std::vector<uint8_t>* header,
              std::vector<uncertain::UncertainObject>* objects);
};

}  // namespace core
}  // namespace uvd

#endif  // UVD_CORE_INDEX_UNIT_H_
