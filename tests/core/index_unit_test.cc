// IndexUnit: the one persistence unit behind UVDiagram and every shard.
// The manifest decode must answer a damaged but checksum-valid manifest
// with Corruption — never a decoder abort and never an allocation sized
// from a count it has not checked. The damaged manifests here are written
// by hand (FilePageManager + WriteStreamToPages + SetBootstrap +
// Checkpoint), because the unit's own Checkpoint never produces them.
#include "core/index_unit.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/uv_diagram.h"
#include "core/uv_index_io.h"
#include "shard/sharded_uv_diagram.h"
#include "storage/record.h"

namespace uvd {
namespace core {
namespace {

const geom::Box kBox({0, 0}, {100, 100});

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/uvd_index_unit_" + name;
}

/// Manifest head: magic, version, box, length-prefixed header.
std::vector<uint8_t> ManifestHead(const std::vector<uint8_t>& header) {
  std::vector<uint8_t> manifest;
  storage::Encoder enc(&manifest);
  enc.PutU32(kUnitManifestMagic);
  enc.PutU32(kUnitFormatVersion);
  enc.PutDouble(kBox.lo.x);
  enc.PutDouble(kBox.lo.y);
  enc.PutDouble(kBox.hi.x);
  enc.PutDouble(kBox.hi.y);
  enc.PutU32(static_cast<uint32_t>(header.size()));
  manifest.insert(manifest.end(), header.begin(), header.end());
  return manifest;
}

/// Appends an empty object-store directory and the handle of a real, empty,
/// finalized UV-index saved into `pm`: the rest of a manifest that opens.
void AppendEmptyStoreAndIndex(storage::PageManager* pm, std::vector<uint8_t>* manifest) {
  UVIndex index(kBox, pm, {}, nullptr);
  UVD_CHECK_OK(index.Finalize());
  const SavedIndexHandle handle = SaveUvIndex(index, pm).ValueOrDie();
  storage::Encoder enc(manifest);
  for (int field = 0; field < 4; ++field) enc.PutU32(0);  // empty store
  enc.PutU32(handle.first_page);
  enc.PutU32(handle.page_count);
}

/// Creates a paged file at `path`, writes `manifest_of(pm)` into it and
/// checkpoints a version-2 bootstrap pointing at it.
void WriteUnitFile(
    const std::string& path,
    const std::function<std::vector<uint8_t>(storage::PageManager*)>& manifest_of) {
  std::remove(path.c_str());
  auto fpm = storage::FilePageManager::Create(path, storage::kDefaultPageSize).ValueOrDie();
  const std::vector<uint8_t> manifest = manifest_of(fpm.get());
  const SavedIndexHandle handle = WriteStreamToPages(manifest, fpm.get()).ValueOrDie();
  std::vector<uint8_t> bootstrap;
  storage::Encoder boot(&bootstrap);
  boot.PutU32(kUnitBootstrapMagic);
  boot.PutU32(kUnitFormatVersion);
  boot.PutU32(handle.first_page);
  boot.PutU32(handle.page_count);
  boot.PutU32(static_cast<uint32_t>(manifest.size()));
  UVD_CHECK_OK(fpm->SetBootstrap(bootstrap));
  UVD_CHECK_OK(fpm->Checkpoint());
  UVD_CHECK_OK(fpm->Close());
}

StatusCode OpenDiagramCode(const std::string& path) {
  return UVDiagram::Open(path).status().code();
}

TEST(IndexUnitTest, ManifestTruncatedAfterMagicAndVersionIsCorruption) {
  const std::string path = TempPath("magic_version_only");
  WriteUnitFile(path, [](storage::PageManager*) {
    std::vector<uint8_t> manifest = ManifestHead({});
    manifest.resize(2 * sizeof(uint32_t));
    return manifest;
  });
  EXPECT_EQ(OpenDiagramCode(path), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IndexUnitTest, EveryTruncationOfAValidManifestIsCorruption) {
  const std::string path = TempPath("truncated");
  std::vector<uint8_t> full;
  WriteUnitFile(path, [&full](storage::PageManager* pm) {
    full = ManifestHead({});
    AppendEmptyStoreAndIndex(pm, &full);
    return full;
  });
  // The untruncated manifest opens (an empty diagram).
  ASSERT_TRUE(UVDiagram::Open(path).ok());
  for (size_t len = 0; len < full.size(); ++len) {
    SCOPED_TRACE("manifest bytes=" + std::to_string(len));
    WriteUnitFile(path, [len](storage::PageManager* pm) {
      std::vector<uint8_t> manifest = ManifestHead({});
      AppendEmptyStoreAndIndex(pm, &manifest);
      manifest.resize(len);
      return manifest;
    });
    EXPECT_EQ(OpenDiagramCode(path), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

TEST(IndexUnitTest, HeaderLengthPastTheManifestIsCorruption) {
  const std::string path = TempPath("header_overrun");
  WriteUnitFile(path, [](storage::PageManager*) {
    std::vector<uint8_t> manifest = ManifestHead({});
    const uint32_t huge = 1u << 30;
    std::memcpy(manifest.data() + manifest.size() - sizeof(huge), &huge, sizeof(huge));
    return manifest;
  });
  EXPECT_EQ(OpenDiagramCode(path), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IndexUnitTest, StoreDirectoryDeclaring2To31PagesIsCorruption) {
  const std::string path = TempPath("store_pages");
  WriteUnitFile(path, [](storage::PageManager*) {
    std::vector<uint8_t> manifest = ManifestHead({});
    storage::Encoder enc(&manifest);
    enc.PutU32(64);  // record size
    enc.PutU32(64);  // records per page
    enc.PutU32(1);   // tail count
    enc.PutU32(1u << 31);
    enc.PutU32(0);  // one page id, not 2^31
    return manifest;
  });
  EXPECT_EQ(OpenDiagramCode(path), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IndexUnitTest, StoreLayoutThatOverrunsItsPagesIsCorruption) {
  const std::string path = TempPath("store_layout");
  WriteUnitFile(path, [](storage::PageManager* pm) {
    std::vector<uint8_t> manifest = ManifestHead({});
    storage::Encoder enc(&manifest);
    enc.PutU32(64);                                          // record size
    enc.PutU32(static_cast<uint32_t>(pm->page_size()));     // far too many per page
    enc.PutU32(1);
    enc.PutU32(1);
    enc.PutU32(pm->Allocate().ValueOrDie());
    return manifest;
  });
  EXPECT_EQ(OpenDiagramCode(path), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IndexUnitTest, ShardHeaderDeclaring2To30IdsIsCorruption) {
  const std::string prefix = TempPath("shard_ids");
  WriteUnitFile(shard::ShardedUVDiagram::ShardFilePath(prefix, 0),
                [](storage::PageManager* pm) {
                  std::vector<uint8_t> header;
                  storage::Encoder enc(&header);
                  enc.PutU32(0);  // shard index
                  enc.PutU32(1);  // fleet size
                  enc.PutU32(1);  // object count
                  enc.PutDouble(kBox.lo.x);
                  enc.PutDouble(kBox.lo.y);
                  enc.PutDouble(kBox.hi.x);
                  enc.PutDouble(kBox.hi.y);
                  enc.PutU32(1u << 30);  // registered ids, none present
                  std::vector<uint8_t> manifest = ManifestHead(header);
                  AppendEmptyStoreAndIndex(pm, &manifest);
                  return manifest;
                });
  const auto opened = shard::ShardedUVDiagram::Open(prefix);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  std::remove(shard::ShardedUVDiagram::ShardFilePath(prefix, 0).c_str());
}

TEST(IndexUnitTest, CheckpointRoundTripsBoxAndHeader) {
  const std::string path = TempPath("round_trip");
  std::remove(path.c_str());
  const std::vector<uint8_t> header = {1, 2, 3, 5, 8};
  {
    IndexUnit unit;
    UVD_CHECK_OK(unit.Create(path, storage::kDefaultPageSize, 0, nullptr));
    unit.box = kBox;
    unit.index = std::make_unique<UVIndex>(kBox, unit.pm.get(), UVIndexOptions{}, nullptr);
    UVD_CHECK_OK(unit.index->Finalize());
    UVD_CHECK_OK(unit.Checkpoint(header));
    UVD_CHECK_OK(unit.fpm->Close());
  }
  IndexUnit reopened;
  std::vector<uint8_t> got;
  std::vector<uncertain::UncertainObject> objects;
  UVD_CHECK_OK(reopened.Open(path, 4, nullptr, &got, &objects));
  EXPECT_EQ(got, header);
  EXPECT_EQ(reopened.box.lo.x, kBox.lo.x);
  EXPECT_EQ(reopened.box.hi.y, kBox.hi.y);
  EXPECT_TRUE(objects.empty());
  ASSERT_NE(reopened.fpm, nullptr);
  EXPECT_NE(reopened.fpm->pool(), nullptr);
  std::remove(path.c_str());
}

TEST(IndexUnitTest, InRamUnitCannotCheckpoint) {
  IndexUnit unit;
  UVD_CHECK_OK(unit.Create("", storage::kDefaultPageSize, 0, nullptr));
  EXPECT_EQ(unit.fpm, nullptr);
  EXPECT_EQ(unit.Checkpoint({}).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace core
}  // namespace uvd
