// Reopen equivalence (the persistence acceptance gate): a diagram built
// into a paged file, checkpointed, closed and reopened COLD in the same
// process must serve PNN and answer-id results bitwise-identical to the
// in-RAM build it mirrors — same ids, same probability bits, same digest —
// across build thread counts and shard counts, with and without a buffer
// pool smaller than the working set. Also pins the typed-error contract:
// opening a missing, non-diagram, old-version or cross-kind (shard vs
// diagram) file yields a clean Status, never a garbage diagram.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/uv_diagram.h"
#include "datagen/generators.h"
#include "query/query_batch.h"
#include "query/query_engine.h"
#include "query/result_digest.h"
#include "shard/shard_router.h"
#include "shard/sharded_uv_diagram.h"
#include "storage/paged_file.h"
#include "storage/record.h"

namespace uvd {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/uvd_reopen_" + name;
}

void RemoveShardFiles(const std::string& prefix, int num_shards) {
  for (int s = 0; s < num_shards; ++s) {
    std::remove(shard::ShardedUVDiagram::ShardFilePath(prefix, s).c_str());
  }
}

datagen::DatasetOptions DataOptions(size_t n, uint64_t seed) {
  datagen::DatasetOptions opts;
  opts.count = n;
  opts.seed = seed;
  return opts;
}

/// Probe points spread over the domain plus its corners and max edges.
std::vector<geom::Point> Probes(const geom::Box& domain, size_t count,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<geom::Point> probes;
  probes.reserve(count + 4);
  for (size_t i = 0; i < count; ++i) {
    probes.push_back({rng.Uniform(domain.lo.x, domain.hi.x),
                      rng.Uniform(domain.lo.y, domain.hi.y)});
  }
  probes.push_back(domain.lo);
  probes.push_back(domain.hi);
  probes.push_back({domain.lo.x, domain.hi.y});
  probes.push_back({domain.hi.x, domain.lo.y});
  return probes;
}

query::QueryBatch PointBatch(const std::vector<geom::Point>& points) {
  query::QueryBatch batch;
  batch.reserve(points.size() * 2);
  for (const auto& p : points) {
    batch.push_back(query::Query::Pnn(p));
    batch.push_back(query::Query::AnswerIds(p));
  }
  return batch;
}

uint64_t DigestDiagram(const core::UVDiagram& diagram,
                       const std::vector<geom::Point>& probes) {
  query::QueryEngine engine(diagram);
  return query::DigestPointAnswers(engine.ExecuteBatch(PointBatch(probes)));
}

uint64_t DigestSharded(const shard::ShardedUVDiagram& diagram,
                       const std::vector<geom::Point>& probes) {
  shard::ShardRouter router(diagram);
  return query::DigestPointAnswers(router.ExecuteBatch(PointBatch(probes)));
}

TEST(ReopenEquivalenceTest, UnshardedReopenServesIdenticalAnswers) {
  const size_t n = 500;
  for (int build_threads : {1, 8}) {
    SCOPED_TRACE("build_threads=" + std::to_string(build_threads));
    const auto data = DataOptions(n, 71);
    const geom::Box domain = datagen::DomainFor(data);
    const auto probes = Probes(domain, 160, 73);

    core::UVDiagramOptions ram_options;
    ram_options.build_threads = build_threads;
    const auto reference =
        core::UVDiagram::Build(datagen::GenerateUniform(data), domain,
                               ram_options)
            .ValueOrDie();
    const uint64_t want = DigestDiagram(reference, probes);

    const std::string path =
        TempPath("unsharded_t" + std::to_string(build_threads));
    std::remove(path.c_str());
    core::UVDiagramOptions file_options = ram_options;
    file_options.storage_path = path;
    {
      auto built = core::UVDiagram::Build(datagen::GenerateUniform(data),
                                          domain, file_options)
                       .ValueOrDie();
      ASSERT_TRUE(built.persistent());
      // The file-backed build must already serve identical bits.
      EXPECT_EQ(DigestDiagram(built, probes), want);
      UVD_CHECK_OK(built.CloseStorage());
    }

    // Cold reopen, once pool-less and once with a pool smaller than the
    // file, must both reproduce the digest bitwise.
    for (size_t pool_pages : {size_t{0}, size_t{8}}) {
      SCOPED_TRACE("pool_pages=" + std::to_string(pool_pages));
      core::UVDiagramOptions open_options;
      open_options.buffer_pool_pages = pool_pages;
      auto reopened = core::UVDiagram::Open(path, open_options).ValueOrDie();
      ASSERT_TRUE(reopened.persistent());
      ASSERT_EQ(reopened.objects().size(), n);
      EXPECT_EQ(DigestDiagram(reopened, probes), want);
      // The R-tree path is rebuilt lazily from the reloaded objects and
      // must agree with the UV-index path on a spot check.
      const auto via_rtree =
          reopened.QueryPnnWithRtree(probes.front()).ValueOrDie();
      const auto via_index = reopened.QueryPnn(probes.front()).ValueOrDie();
      ASSERT_EQ(via_rtree.size(), via_index.size());
      for (size_t k = 0; k < via_rtree.size(); ++k) {
        EXPECT_EQ(via_rtree[k].id, via_index[k].id);
      }
      UVD_CHECK_OK(reopened.CloseStorage());
    }
    std::remove(path.c_str());
  }
}

TEST(ReopenEquivalenceTest, ShardedReopenServesIdenticalAnswers) {
  const size_t n = 400;
  for (int num_shards : {1, 4}) {
    for (int build_threads : {1, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(num_shards) +
                   " build_threads=" + std::to_string(build_threads));
      const auto data = DataOptions(n, 77);
      const geom::Box domain = datagen::DomainFor(data);
      const auto probes = Probes(domain, 120, 79);

      shard::ShardedUVDiagramOptions options;
      options.num_shards = num_shards;
      options.diagram.build_threads = build_threads;
      const auto reference =
          shard::ShardedUVDiagram::Build(datagen::GenerateUniform(data),
                                         domain, options)
              .ValueOrDie();
      const uint64_t want = DigestSharded(reference, probes);

      const std::string prefix =
          TempPath("sharded_k" + std::to_string(num_shards) + "_t" +
                   std::to_string(build_threads));
      RemoveShardFiles(prefix, num_shards);
      shard::ShardedUVDiagramOptions file_options = options;
      file_options.diagram.storage_path = prefix;
      {
        auto built =
            shard::ShardedUVDiagram::Build(datagen::GenerateUniform(data),
                                           domain, file_options)
                .ValueOrDie();
        ASSERT_TRUE(built.persistent());
        EXPECT_EQ(DigestSharded(built, probes), want);
        UVD_CHECK_OK(built.CloseStorage());
      }

      shard::ShardedUVDiagramOptions open_options;
      open_options.diagram.buffer_pool_pages = 8;
      auto reopened =
          shard::ShardedUVDiagram::Open(prefix, open_options).ValueOrDie();
      ASSERT_TRUE(reopened.persistent());
      ASSERT_EQ(reopened.num_shards(), static_cast<size_t>(num_shards));
      ASSERT_EQ(reopened.objects().size(), n);
      for (size_t k = 0; k < n; ++k) {
        ASSERT_EQ(reopened.objects()[k].id(), static_cast<int>(k));
      }
      EXPECT_EQ(DigestSharded(reopened, probes), want);
      UVD_CHECK_OK(reopened.CloseStorage());
      RemoveShardFiles(prefix, num_shards);
    }
  }
}

TEST(ReopenEquivalenceTest, OpenRejectsMissingAndForeignFiles) {
  // Missing file: a typed error, not a crash.
  const auto missing = core::UVDiagram::Open(TempPath("does_not_exist"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);

  // A valid paged file that is not a diagram: InvalidArgument from the
  // bootstrap magic, not garbage answers.
  const std::string path = TempPath("foreign");
  std::remove(path.c_str());
  {
    auto file = storage::PagedFile::Create(path, 256).ValueOrDie();
    std::vector<uint8_t> bootstrap(24, 0xAB);
    UVD_CHECK_OK(file->SetBootstrap(bootstrap));
    UVD_CHECK_OK(file->Close());
  }
  const auto foreign = core::UVDiagram::Open(path);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());

  // A bootstrap of the old format version: NotImplemented, not a guess at
  // its layout.
  const std::string old_path = TempPath("version1");
  std::remove(old_path.c_str());
  {
    auto file = storage::PagedFile::Create(old_path, 256).ValueOrDie();
    std::vector<uint8_t> bootstrap;
    storage::Encoder boot(&bootstrap);
    boot.PutU32(core::kUnitBootstrapMagic);
    for (uint32_t field : {1u, 0u, 0u, 0u}) boot.PutU32(field);  // version 1
    UVD_CHECK_OK(file->SetBootstrap(bootstrap));
    UVD_CHECK_OK(file->Close());
  }
  const auto old = core::UVDiagram::Open(old_path);
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), StatusCode::kNotImplemented);
  std::remove(old_path.c_str());

  // Cross-opens: a shard file is not a diagram, and a diagram file is not
  // a shard — InvalidArgument both ways.
  datagen::DatasetOptions data = DataOptions(60, 83);
  const geom::Box domain = datagen::DomainFor(data);
  const std::string prefix = TempPath("cross");
  const std::string shard0 = shard::ShardedUVDiagram::ShardFilePath(prefix, 0);
  RemoveShardFiles(prefix, 2);
  {
    shard::ShardedUVDiagramOptions options;
    options.num_shards = 2;
    options.diagram.storage_path = prefix;
    auto built = shard::ShardedUVDiagram::Build(datagen::GenerateUniform(data),
                                                domain, options)
                     .ValueOrDie();
    UVD_CHECK_OK(built.CloseStorage());
  }
  const auto shard_as_diagram = core::UVDiagram::Open(shard0);
  ASSERT_FALSE(shard_as_diagram.ok());
  EXPECT_EQ(shard_as_diagram.status().code(), StatusCode::kInvalidArgument);

  RemoveShardFiles(prefix, 2);
  {
    core::UVDiagramOptions options;
    options.storage_path = shard0;
    auto built = core::UVDiagram::Build(datagen::GenerateUniform(data), domain,
                                        options)
                     .ValueOrDie();
    UVD_CHECK_OK(built.CloseStorage());
  }
  const auto diagram_as_shard = shard::ShardedUVDiagram::Open(prefix);
  ASSERT_FALSE(diagram_as_shard.ok());
  EXPECT_EQ(diagram_as_shard.status().code(), StatusCode::kInvalidArgument);
  RemoveShardFiles(prefix, 2);
}

}  // namespace
}  // namespace uvd
