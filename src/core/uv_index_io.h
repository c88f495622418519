// Persistence for the UV-index: the in-memory non-leaf structure is
// serialized into the same simulated disk that already holds the leaf
// tuple pages, so a built index can be closed and reopened without
// reconstruction (leaf pages are shared, not copied). Loading restores
// full query capability, pattern analysis and live insertion.
#ifndef UVD_CORE_UV_INDEX_IO_H_
#define UVD_CORE_UV_INDEX_IO_H_

#include "common/result.h"
#include "core/uv_index.h"
#include "storage/page_manager.h"

namespace uvd {
namespace core {

/// Locator of a saved index: a contiguous page chain on the page manager.
struct SavedIndexHandle {
  storage::PageId first_page = storage::kInvalidPageId;
  uint32_t page_count = 0;
};

/// Chunks an arbitrary byte stream into freshly allocated pages and
/// returns its locator (the last page is zero-padded). Shared by the
/// index saver below and the index-unit manifest (core/index_unit.cc).
Result<SavedIndexHandle> WriteStreamToPages(const std::vector<uint8_t>& stream,
                                            storage::PageManager* pm);

/// Reads a page chain back into *stream (INCLUDING the final page's zero
/// padding — callers that need the exact byte length record it beside the
/// handle).
Status ReadPagesToStream(const storage::PageManager& pm,
                         const SavedIndexHandle& handle,
                         std::vector<uint8_t>* stream);

/// Serializes a finalized index's structure (domain, options, quad-tree
/// nodes, leaf page ids) into freshly allocated pages.
Result<SavedIndexHandle> SaveUvIndex(const UVIndex& index,
                                     storage::PageManager* pm);

/// Rebuilds an index from a saved handle. Leaf tuple pages are re-read to
/// restore the per-leaf object lists used by pattern queries and live
/// insertion. The result is finalized and immediately queryable.
Result<UVIndex> LoadUvIndex(storage::PageManager* pm, const SavedIndexHandle& handle,
                            Stats* stats = nullptr);

}  // namespace core
}  // namespace uvd

#endif  // UVD_CORE_UV_INDEX_IO_H_
