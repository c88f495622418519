// Failure-injection tests: every disk-touching path must propagate I/O
// errors as Status instead of silently dropping candidates or corrupting
// probabilities, and must recover once the fault heals. Faults come from
// the storage layer's one seam, the PagedFile fault hook, over a
// file-backed manager without a buffer pool, so every logical page read
// is one physical read the hook sees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/build_pipeline.h"
#include "core/pnn.h"
#include "core/uv_diagram.h"
#include "datagen/generators.h"
#include "rtree/pnn_baseline.h"
#include "storage/file_page_manager.h"

namespace uvd {
namespace {

using storage::Fault;
using storage::IoOp;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/uvd_fault_" + name;
}

/// The countdown schedule as a fault hook: after `countdown` more
/// successful operations of kind `op`, every later one fails with kError
/// (counted into *injected when given). Install with SetFaultHook; heal
/// by installing nullptr.
storage::FaultHook FailAfter(IoOp op, uint64_t countdown, uint64_t* injected = nullptr) {
  return [op, countdown, injected](IoOp o, uint64_t) mutable {
    if (o != op) return Fault::kNone;
    if (countdown > 0) {
      --countdown;
      return Fault::kNone;
    }
    if (injected != nullptr) ++*injected;
    return Fault::kError;
  };
}

/// One kError on the `nth` (0-based) operation of kind `op` after the
/// hook's installation; every other operation proceeds.
storage::FaultHook FailOnce(IoOp op, uint64_t nth) {
  return [op, nth, seen = uint64_t{0}](IoOp o, uint64_t) mutable {
    if (o != op) return Fault::kNone;
    return seen++ == nth ? Fault::kError : Fault::kNone;
  };
}

/// A FilePageManager over a fresh temp file, no buffer pool.
class FileStore {
 public:
  FileStore(const std::string& name, size_t page_size, Stats* stats = nullptr)
      : path_(TempPath(name)) {
    std::remove(path_.c_str());
    pm_ = storage::FilePageManager::Create(path_, page_size, {}, stats).ValueOrDie();
  }
  ~FileStore() {
    pm_.reset();
    std::remove(path_.c_str());
  }

  storage::FilePageManager* pm() { return pm_.get(); }
  storage::PagedFile* file() { return pm_->file(); }
  void FailReadsAfter(uint64_t countdown) {
    file()->SetFaultHook(FailAfter(IoOp::kRead, countdown));
  }
  void FailWritesAfter(uint64_t countdown) {
    file()->SetFaultHook(FailAfter(IoOp::kWrite, countdown));
  }
  void Heal() { file()->SetFaultHook(nullptr); }

 private:
  std::string path_;
  std::unique_ptr<storage::FilePageManager> pm_;
};

struct Fixture {
  Stats stats;
  FileStore disk{"fixture", 4096, &stats};
  uncertain::ObjectStore store{disk.pm()};
  std::vector<uncertain::UncertainObject> objects;
  std::vector<uncertain::ObjectPtr> ptrs;
  std::optional<rtree::RTree> tree;
  std::optional<core::UVIndex> index;
  geom::Box domain;

  void Build(size_t n = 800, uint64_t seed = 5) {
    datagen::DatasetOptions opts;
    opts.count = n;
    opts.seed = seed;
    objects = datagen::GenerateUniform(opts);
    domain = datagen::DomainFor(opts);
    UVD_CHECK_OK(store.BulkLoad(objects, &ptrs));
    tree.emplace(
        rtree::RTree::BulkLoad(objects, ptrs, disk.pm(), {100}, &stats).ValueOrDie());
    index.emplace(domain, disk.pm(), core::UVIndexOptions{}, &stats);
    core::BuildPipelineOptions options;
    options.build_threads = 1;
    UVD_CHECK_OK(core::RunBuildPipeline(objects, ptrs, *tree, domain, options, &*index,
                                        nullptr, &stats));
  }
};

TEST(FaultInjectionTest, PageManagerInjectsOnSchedule) {
  const std::string path = TempPath("schedule");
  std::remove(path.c_str());
  auto file = storage::PagedFile::Create(path, 256).ValueOrDie();
  const uint32_t p = file->AllocatePages(1).ValueOrDie();
  const std::vector<uint8_t> buf{1, 2, 3};
  ASSERT_TRUE(file->WritePage(p, buf.data(), buf.size()).ok());

  uint64_t injected = 0;
  file->SetFaultHook(FailAfter(IoOp::kRead, 2, &injected));
  std::vector<uint8_t> out;
  EXPECT_TRUE(file->ReadPage(p, &out).ok());  // 1st ok
  EXPECT_TRUE(file->ReadPage(p, &out).ok());  // 2nd ok
  EXPECT_EQ(file->ReadPage(p, &out).code(), StatusCode::kIOError);
  EXPECT_EQ(injected, 1u);
  file->SetFaultHook(nullptr);
  EXPECT_TRUE(file->ReadPage(p, &out).ok());

  // A kError write fails once and leaves the handle alive, unlike kCrash.
  file->SetFaultHook(FailAfter(IoOp::kWrite, 0, &injected));
  EXPECT_EQ(file->WritePage(p, buf.data(), buf.size()).code(), StatusCode::kIOError);
  EXPECT_EQ(injected, 2u);
  EXPECT_FALSE(file->dead());
  file->SetFaultHook(nullptr);
  ASSERT_TRUE(file->WritePage(p, buf.data(), buf.size()).ok());
  ASSERT_TRUE(file->ReadPage(p, &out).ok());
  EXPECT_EQ(out[2], 3);
  file.reset();
  std::remove(path.c_str());
}

TEST(FaultInjectionTest, UvIndexQueryPropagatesReadFault) {
  Fixture f;
  f.Build();
  f.disk.FailReadsAfter(0);
  const auto result = f.index->RetrieveCandidates({5000, 5000});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  f.disk.Heal();
  EXPECT_TRUE(f.index->RetrieveCandidates({5000, 5000}).ok());
}

TEST(FaultInjectionTest, UvIndexFullPnnPropagatesFetchFault) {
  Fixture f;
  f.Build();
  // Let the leaf page read succeed, then fail the object-record fetch.
  f.disk.FailReadsAfter(1);
  const auto result =
      core::EvaluatePnnWithUvIndex(*f.index, f.store, {5000, 5000});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(FaultInjectionTest, RtreeBaselinePropagatesReadFault) {
  Fixture f;
  f.Build();
  f.disk.FailReadsAfter(0);
  const auto result = rtree::RetrievePnnCandidates(*f.tree, {5000, 5000}, &f.stats);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  f.disk.Heal();
  EXPECT_TRUE(rtree::RetrievePnnCandidates(*f.tree, {5000, 5000}, &f.stats).ok());
}

TEST(FaultInjectionTest, RtreeFullPnnPropagatesFetchFault) {
  Fixture f;
  f.Build();
  // Exhaust the retrieval's leaf reads, then fail during object fetch:
  // allow a generous number of leaf reads first.
  f.disk.FailReadsAfter(64);
  const auto result = rtree::EvaluatePnnWithRtree(*f.tree, f.store, {5000, 5000});
  // Depending on how many leaves the traversal touches, the fault can land
  // in either phase; both must surface as IOError (or succeed if under 64
  // reads total, in which case rerun with a tighter budget).
  if (result.ok()) {
    f.disk.FailReadsAfter(2);
    const auto tight = rtree::EvaluatePnnWithRtree(*f.tree, f.store, {5000, 5000});
    ASSERT_FALSE(tight.ok());
    EXPECT_EQ(tight.status().code(), StatusCode::kIOError);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST(FaultInjectionTest, ObjectStoreFetchPropagates) {
  Fixture f;
  f.Build(100);
  f.disk.FailReadsAfter(0);
  EXPECT_EQ(f.store.Fetch(f.ptrs[0]).status().code(), StatusCode::kIOError);
}

TEST(FaultInjectionTest, BuildPropagatesLeafReadFault) {
  // Stage 1 reads R-tree leaves through the faulty manager. A failed leaf
  // read must fail the build, never yield an index with missing cr-objects,
  // and once healed the same store must build the clean bytes. Each index
  // gets its own page manager so page ids line up across builds.
  Fixture f;
  f.Build();
  for (rtree::TraversalMode mode :
       {rtree::TraversalMode::kShared, rtree::TraversalMode::kPerAnchor}) {
    SCOPED_TRACE(rtree::TraversalModeName(mode));
    core::BuildPipelineOptions options;
    options.build_threads = 1;  // the fault injector's countdown is not thread-safe
    options.cr.traversal_mode = mode;
    const auto build = [&](storage::PageManager* index_pm, std::vector<uint8_t>* bytes) {
      core::UVIndex index(f.domain, index_pm, core::UVIndexOptions{}, &f.stats);
      UVD_RETURN_NOT_OK(core::RunBuildPipeline(f.objects, f.ptrs, *f.tree, f.domain,
                                               options, &index, nullptr, &f.stats));
      return index.SerializeStructure(bytes);
    };
    storage::PageManager clean_pm(4096), broken_pm(4096), healed_pm(4096);
    std::vector<uint8_t> clean, broken, healed;
    ASSERT_TRUE(build(&clean_pm, &clean).ok());

    f.disk.FailReadsAfter(0);
    EXPECT_EQ(build(&broken_pm, &broken).code(), StatusCode::kIOError);
    f.disk.Heal();

    ASSERT_TRUE(build(&healed_pm, &healed).ok());
    EXPECT_EQ(healed, clean);
  }
}

TEST(FaultInjectionTest, BuildFailsOnEveryStageOneRead) {
  // A shared-traversal build reads leaves from two places: the tree's own
  // k-NN when the session's entry pool misses, and the pool rebuild
  // through the leaf memo. Count the reads of a clean build, then fail
  // each one in turn: every such build must fail, and the healed build
  // must serialize the clean bytes.
  Fixture f;
  f.Build();
  core::BuildPipelineOptions options;
  options.build_threads = 1;  // the read countdown is not thread-safe
  options.cr.traversal_mode = rtree::TraversalMode::kShared;
  const auto build = [&](std::vector<uint8_t>* bytes) {
    storage::PageManager index_pm(4096);
    core::UVIndex index(f.domain, &index_pm, core::UVIndexOptions{}, &f.stats);
    UVD_RETURN_NOT_OK(core::RunBuildPipeline(f.objects, f.ptrs, *f.tree, f.domain,
                                             options, &index, nullptr, &f.stats));
    return index.SerializeStructure(bytes);
  };
  uint64_t reads = 0;
  f.disk.file()->SetFaultHook([&reads](IoOp o, uint64_t) {
    if (o == IoOp::kRead) ++reads;
    return Fault::kNone;
  });
  std::vector<uint8_t> clean;
  ASSERT_TRUE(build(&clean).ok());
  ASSERT_GT(reads, 0u);

  for (uint64_t nth = 0; nth < reads; ++nth) {
    SCOPED_TRACE(nth);
    f.disk.file()->SetFaultHook(FailOnce(IoOp::kRead, nth));
    std::vector<uint8_t> broken;
    EXPECT_EQ(build(&broken).code(), StatusCode::kIOError);
  }
  f.disk.Heal();

  std::vector<uint8_t> healed;
  ASSERT_TRUE(build(&healed).ok());
  EXPECT_EQ(healed, clean);
}

TEST(FaultInjectionTest, FinalizePropagatesWriteFault) {
  // One leaf on one page. The file backend's write 0 is that page's zero
  // frame (its allocation), write 1 the leaf's tuples: countdown 1 fails
  // the leaf write after the page exists, countdown 0 the allocation.
  for (uint64_t countdown : {uint64_t{1}, uint64_t{0}}) {
    SCOPED_TRACE(countdown);
    FileStore disk("finalize", 4096);
    core::UVIndex index(geom::Box({0, 0}, {1000, 1000}), disk.pm(), {}, nullptr);
    ASSERT_TRUE(index.InsertObject({{500, 500}, 10}, 0, 0, {}).ok());
    const uint64_t writes = disk.file()->write_count();
    const uint32_t pages = disk.file()->page_count();
    disk.FailWritesAfter(countdown);
    EXPECT_EQ(index.Finalize().code(), StatusCode::kIOError);
    // The failed write is the last one attempted.
    EXPECT_EQ(disk.file()->write_count(), writes + countdown + 1);
    EXPECT_EQ(disk.file()->page_count(), pages + countdown);
  }
}

TEST(FaultInjectionTest, BulkLoadPropagatesWriteFault) {
  Stats stats;
  FileStore disk("bulkload", 4096, &stats);
  uncertain::ObjectStore store(disk.pm());
  datagen::DatasetOptions opts;
  opts.count = 200;
  const auto objects = datagen::GenerateUniform(opts);
  std::vector<uncertain::ObjectPtr> ptrs;
  // Writes alternate allocation (a zero frame) and page fill: 0 allocates
  // page 0, 1 fills it, 2 allocates page 1, 3 fills it. Fail the second
  // page fill.
  const uint64_t writes = disk.file()->write_count();
  disk.FailWritesAfter(3);
  EXPECT_EQ(store.BulkLoad(objects, &ptrs).code(), StatusCode::kIOError);
  EXPECT_EQ(disk.file()->write_count(), writes + 4);
  EXPECT_EQ(disk.file()->page_count(), 2u);
}

TEST(FaultInjectionTest, ObjectStoreAppendSurvivesAllocationFault) {
  // Every Append into an empty store, or onto a full tail page, allocates
  // first. Failing that allocation's write must return IOError with the
  // page directory untouched, and the retried Append must succeed.
  FileStore disk("append", 4096);
  uncertain::ObjectStore store(disk.pm());
  datagen::DatasetOptions opts;
  opts.count = 80;
  const auto objects = datagen::GenerateUniform(opts);
  std::vector<uncertain::ObjectPtr> ptrs;
  size_t per_page = 0;  // learned at the first page rollover
  uint64_t injected = 0, faults = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    if (store.num_pages() == 0 || (per_page != 0 && i % per_page == 0)) {
      const size_t pages = store.num_pages();
      disk.file()->SetFaultHook(FailAfter(IoOp::kWrite, 0, &injected));
      EXPECT_EQ(store.Append(objects[i]).status().code(), StatusCode::kIOError);
      EXPECT_EQ(store.num_pages(), pages);
      disk.Heal();
      ++faults;
    }
    const size_t pages = store.num_pages();
    auto ptr = store.Append(objects[i]);
    ASSERT_TRUE(ptr.ok()) << ptr.status().ToString();
    if (per_page == 0 && pages == 1 && store.num_pages() == 2) per_page = i;
    ptrs.push_back(ptr.value());
  }
  ASSERT_NE(per_page, 0u);
  EXPECT_GE(faults, 2u);  // the empty store and at least one full tail
  EXPECT_EQ(injected, faults);
  for (size_t i = 0; i < objects.size(); ++i) {
    const auto fetched = store.Fetch(ptrs[i]);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    const uncertain::UncertainObject& o = fetched.value();
    EXPECT_EQ(o.id(), objects[i].id());
    EXPECT_EQ(o.center().x, objects[i].center().x);
    EXPECT_EQ(o.center().y, objects[i].center().y);
    EXPECT_EQ(o.radius(), objects[i].radius());
    EXPECT_EQ(o.pdf().kind(), objects[i].pdf().kind());
    EXPECT_EQ(o.pdf().bars(), objects[i].pdf().bars());
  }
}

TEST(FaultInjectionTest, LiveInsertSurvivesOverflowFault) {
  // A finalized one-leaf index at capacity: a live insert allocates an
  // overflow page (write 0, its zero frame), then fills it (write 1).
  // Failing either returns IOError with the index unchanged, and the
  // healed insert succeeds.
  core::UVIndexOptions options;
  options.max_nonleaf = 0;  // no splits: the root leaf chains pages
  options.leaf_fanout = 2;
  FileStore disk("live_overflow", 4096);
  core::UVIndex index(geom::Box({0, 0}, {1000, 1000}), disk.pm(), options, nullptr);
  ASSERT_TRUE(index.InsertObject({{400, 400}, 10}, 0, 0, {}).ok());
  ASSERT_TRUE(index.InsertObject({{600, 600}, 10}, 1, 1, {}).ok());
  ASSERT_TRUE(index.Finalize().ok());
  ASSERT_EQ(index.total_leaf_pages(), 1u);
  std::vector<uint8_t> before;
  ASSERT_TRUE(index.SerializeStructure(&before).ok());
  const geom::Point q{500, 500};
  for (uint64_t nth : {uint64_t{0}, uint64_t{1}}) {
    SCOPED_TRACE(nth);
    disk.file()->SetFaultHook(FailOnce(IoOp::kWrite, nth));
    EXPECT_EQ(index.InsertObjectLive({q, 10}, 2, 2, {}).code(), StatusCode::kIOError);
    disk.Heal();
    std::vector<uint8_t> after;
    ASSERT_TRUE(index.SerializeStructure(&after).ok());
    EXPECT_EQ(after, before);
    EXPECT_EQ(index.total_leaf_pages(), 1u);
    EXPECT_EQ(index.RetrieveCandidates(q).ValueOrDie().size(), 2u);
  }
  ASSERT_TRUE(index.InsertObjectLive({q, 10}, 2, 2, {}).ok());
  EXPECT_EQ(index.total_leaf_pages(), 2u);
  EXPECT_EQ(index.RetrieveCandidates(q).ValueOrDie().size(), 3u);
}

TEST(FaultInjectionTest, FailedInsertLeavesTheDiagramServing) {
  // On a reopened diagram, InsertObject appends the record and rewrites
  // leaf pages; its R-tree lives in RAM and writes nothing durable. Fail
  // each of its writes in turn, one kError at a time: every attempt
  // returns IOError and the diagram keeps serving what it served before.
  // The healed insert then lands.
  const std::string path = TempPath("insert");
  std::remove(path.c_str());
  datagen::DatasetOptions opts;
  opts.count = 301;
  opts.seed = 13;
  std::vector<uncertain::UncertainObject> objects = datagen::GenerateUniform(opts);
  const uncertain::UncertainObject extra = objects.back();
  objects.pop_back();
  ASSERT_EQ(extra.id(), 300);
  core::UVDiagramOptions options;
  options.storage_path = path;
  {
    auto built = core::UVDiagram::Build(objects, datagen::DomainFor(opts), options)
                     .ValueOrDie();
    UVD_CHECK_OK(built.CloseStorage());
  }
  auto diagram = core::UVDiagram::Open(path).ValueOrDie();
  const std::vector<geom::Point> probes = {extra.center(), {2500, 7500}, {5000, 5000}};
  // Answer ids and PNN answers through the UV-index, checked against the
  // R-tree path (rebuilt from objects() on first use).
  using Served = std::vector<std::pair<int, double>>;
  const auto serve = [&] {
    Served out;
    for (const geom::Point& q : probes) {
      for (int id : diagram.AnswerObjectIds(q).ValueOrDie()) out.emplace_back(id, -1.0);
      const auto pnn = diagram.QueryPnn(q).ValueOrDie();
      const auto via_rtree = diagram.QueryPnnWithRtree(q).ValueOrDie();
      EXPECT_EQ(via_rtree.size(), pnn.size());
      for (size_t i = 0; i < pnn.size() && i < via_rtree.size(); ++i) {
        EXPECT_EQ(via_rtree[i].id, pnn[i].id);
        EXPECT_NEAR(via_rtree[i].probability, pnn[i].probability, 1e-12);
        out.emplace_back(pnn[i].id, pnn[i].probability);
      }
    }
    return out;
  };
  const Served before = serve();
  storage::PagedFile* file = diagram.file_page_manager()->file();
  uint64_t failures = 0;
  uint64_t healed_writes = 0;
  for (uint64_t nth = 0;; ++nth) {
    file->SetFaultHook(FailOnce(IoOp::kWrite, nth));
    const uint64_t writes0 = file->write_count();
    const Status st = diagram.InsertObject(extra);
    file->SetFaultHook(nullptr);
    if (st.ok()) {
      healed_writes = file->write_count() - writes0;
      break;
    }
    SCOPED_TRACE(nth);
    ASSERT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
    ASSERT_EQ(diagram.objects().size(), objects.size());
    ASSERT_EQ(serve(), before);
    ++failures;
  }
  // Every durable write of the insert failed it once: the record and at
  // least one leaf page.
  EXPECT_EQ(failures, healed_writes);
  EXPECT_GE(failures, 2u);
  ASSERT_EQ(diagram.objects().size(), objects.size() + 1);
  const Served after = serve();
  EXPECT_NE(after, before);
  const auto ids = diagram.AnswerObjectIds(extra.center()).ValueOrDie();
  EXPECT_NE(std::find(ids.begin(), ids.end(), extra.id()), ids.end());

  // The store holds exactly the records the diagram serves.
  ASSERT_TRUE(diagram.CloseStorage().ok());
  auto reopened = core::UVDiagram::Open(path).ValueOrDie();
  ASSERT_EQ(reopened.objects().size(), objects.size() + 1);
  const uncertain::UncertainObject& last = reopened.objects().back();
  EXPECT_EQ(last.id(), extra.id());
  EXPECT_EQ(last.center().x, extra.center().x);
  EXPECT_EQ(last.center().y, extra.center().y);
  EXPECT_EQ(last.radius(), extra.radius());
  EXPECT_EQ(last.pdf().bars(), extra.pdf().bars());
  std::remove(path.c_str());
}

TEST(FaultInjectionTest, LazyRtreeRebuildWritesNothingDurable) {
  // A reopened diagram rebuilds its R-tree on the first R-tree-path call,
  // in RAM. With every durable write failing, the call still succeeds,
  // agrees with the UV-index and leaves the file's write count unchanged.
  const std::string path = TempPath("rtree_rebuild");
  std::remove(path.c_str());
  datagen::DatasetOptions opts;
  opts.count = 300;
  opts.seed = 11;
  core::UVDiagramOptions options;
  options.storage_path = path;
  {
    auto built = core::UVDiagram::Build(datagen::GenerateUniform(opts),
                                        datagen::DomainFor(opts), options)
                     .ValueOrDie();
    UVD_CHECK_OK(built.CloseStorage());
  }
  auto diagram = core::UVDiagram::Open(path).ValueOrDie();
  const geom::Point q{5000, 5000};
  storage::PagedFile* file = diagram.file_page_manager()->file();
  file->SetFaultHook(FailAfter(IoOp::kWrite, 0));
  const uint64_t writes0 = file->write_count();
  const auto via_rtree = diagram.QueryPnnWithRtree(q).ValueOrDie();
  EXPECT_EQ(file->write_count(), writes0);
  file->SetFaultHook(nullptr);

  const auto via_uv = diagram.QueryPnn(q).ValueOrDie();
  ASSERT_FALSE(via_uv.empty());
  ASSERT_EQ(via_rtree.size(), via_uv.size());
  for (size_t i = 0; i < via_uv.size(); ++i) {
    EXPECT_EQ(via_rtree[i].id, via_uv[i].id);
    EXPECT_NEAR(via_rtree[i].probability, via_uv[i].probability, 1e-12);
  }
  std::remove(path.c_str());
}

TEST(FaultInjectionTest, QueriesConsistentAfterTransientFaults) {
  // Faults during queries must not corrupt subsequent healed queries.
  Fixture f;
  f.Build(500, 9);
  const geom::Point q{4321, 8765};
  const auto before = core::RetrievePnnAnswerIds(*f.index, q).ValueOrDie();
  f.disk.FailReadsAfter(0);
  EXPECT_FALSE(core::RetrievePnnAnswerIds(*f.index, q).ok());
  f.disk.Heal();
  EXPECT_EQ(core::RetrievePnnAnswerIds(*f.index, q).ValueOrDie(), before);
}

}  // namespace
}  // namespace uvd
