// Test oracle for the build determinism tests: Algorithm 3 as the paper
// states it — one UVIndex::InsertObject per object in id order, then a
// serial Finalize. It bypasses the pipeline's stage 2 driver
// (core::RunStage2 / UVIndex::InsertObjectsPartitioned: member phase,
// prefix, routing, subtree arenas, stitch) and shares only the per-object
// primitives InsertObject itself uses, so every worker count of that
// stage 2, one included, is checked against it. Stage 1 comes
// from ComputeStage1Candidates, whose output is the same for every worker
// count.
#ifndef UVD_TESTS_CORE_INSERT_OBJECT_ORACLE_H_
#define UVD_TESTS_CORE_INSERT_OBJECT_ORACLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "core/build_pipeline.h"
#include "core/uv_index.h"
#include "geom/box.h"
#include "rtree/leaf_codec.h"
#include "rtree/rtree.h"
#include "storage/page_manager.h"
#include "uncertain/object_store.h"
#include "uncertain/uncertain_object.h"

namespace uvd {
namespace core {
namespace oracle {

/// Every leaf's tuple ids in page order — the leaf pages' contents, which
/// SerializeStructure (structure and page ids) does not include.
inline std::vector<std::vector<int>> LeafTupleIds(const UVIndex& index) {
  std::vector<std::vector<int>> leaves;
  for (uint32_t i = 0; i < index.nodes().size(); ++i) {
    if (!index.nodes()[i].is_leaf) continue;
    std::vector<int> ids;
    for (const rtree::LeafEntry& e : index.ReadLeafEntries(i).ValueOrDie()) {
      ids.push_back(e.id);
    }
    leaves.push_back(std::move(ids));
  }
  return leaves;
}

/// What UVDiagram::Build with default options creates before its pipeline
/// runs — page manager, object store and R-tree, all billing `stats` — plus
/// the empty UV-index, so page ids and tickers line up with a diagram build.
struct BuildFixture {
  BuildFixture(const std::vector<uncertain::UncertainObject>& objs,
               const geom::Box& dom, Stats* stats)
      : objects(objs), domain(dom), pm(storage::kDefaultPageSize, stats), store(&pm) {
    UVD_CHECK_OK(store.BulkLoad(objects, &ptrs));
    tree.emplace(
        rtree::RTree::BulkLoad(objects, ptrs, &pm, rtree::RTreeOptions{}, stats)
            .ValueOrDie());
    index.emplace(domain, &pm, UVIndexOptions{}, stats);
  }

  /// The oracle build: stage 1, then InsertObject per object, then Finalize.
  void InsertEachObject(const BuildPipelineOptions& options, Stats* stats,
                        BuildStats* build_stats) {
    std::vector<std::vector<int>> index_ids;
    UVD_CHECK_OK(ComputeStage1Candidates(objects, *tree, domain, options, &index_ids,
                                         build_stats, stats));
    for (size_t i = 0; i < objects.size(); ++i) {
      std::vector<geom::Circle> regions;
      for (int id : index_ids[i]) {
        regions.push_back(objects[static_cast<size_t>(id)].region());
      }
      UVD_CHECK_OK(index->InsertObject(objects[i].region(), objects[i].id(), ptrs[i],
                                       std::move(regions)));
    }
    UVD_CHECK_OK(index->Finalize());
  }

  std::vector<uint8_t> Serialized() const {
    std::vector<uint8_t> bytes;
    UVD_CHECK_OK(index->SerializeStructure(&bytes));
    return bytes;
  }

  const std::vector<uncertain::UncertainObject>& objects;
  geom::Box domain;
  storage::PageManager pm;
  uncertain::ObjectStore store;
  std::vector<uncertain::ObjectPtr> ptrs;
  std::optional<rtree::RTree> tree;
  std::optional<UVIndex> index;
};

}  // namespace oracle
}  // namespace core
}  // namespace uvd

#endif  // UVD_TESTS_CORE_INSERT_OBJECT_ORACLE_H_
