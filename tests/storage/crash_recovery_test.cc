// Crash-point harness (the durability acceptance gate): a deterministic
// append-then-checkpoint workload is first run clean to enumerate every
// physical write; then, for EVERY write index and both fault shapes (clean
// crash, torn write), a fresh run is killed at exactly that write and the
// file reopened. Recovery must be bitwise-exact: the reopened store equals
// the last completed checkpoint's snapshot — page count, every page's
// bytes, bootstrap — or Open fails with a typed Corruption (only a torn
// metapage can cause that). Never a silently wrong page. On top of the
// file-level loop, diagram-level tests prove a crashed (re)checkpoint
// leaves UVDiagram::Open (and, for a K=2 fleet, ShardedUVDiagram::Open)
// serving the previous checkpoint's bitwise answer digest, and direct
// bit-flip injection proves at-rest damage in any frame region surfaces as
// Corruption at read time.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
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

namespace uvd {
namespace storage {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/uvd_crash_" + name;
}

std::vector<uint8_t> Pattern(size_t page_size, uint32_t page, uint32_t phase) {
  std::vector<uint8_t> data(page_size);
  for (size_t i = 0; i < page_size; ++i) {
    data[i] = static_cast<uint8_t>((page * 131 + phase * 17 + i * 7) & 0xff);
  }
  return data;
}

/// A durable state: what Open must recover after a crash.
struct Snapshot {
  uint32_t page_count = 0;
  std::vector<std::vector<uint8_t>> pages;
  std::vector<uint8_t> bootstrap;

  uint64_t Digest() const {
    uint64_t h = Fnv64(reinterpret_cast<const uint8_t*>(&page_count),
                       sizeof(page_count));
    for (const auto& p : pages) h = Fnv64(p.data(), p.size(), h);
    return Fnv64(bootstrap.data(), bootstrap.size(), h);
  }
};

Snapshot SnapshotOf(const PagedFile& file) {
  Snapshot snap;
  snap.page_count = file.durable_page_count();
  snap.bootstrap = file.bootstrap();
  snap.pages.resize(snap.page_count);
  for (uint32_t p = 0; p < snap.page_count; ++p) {
    UVD_CHECK_OK(file.ReadPage(p, &snap.pages[p]));
  }
  return snap;
}

/// The deterministic workload: three checkpointed phases, each allocating
/// fresh pages and writing only to them (the append-between-checkpoints
/// pattern the durability contract covers — see paged_file.h). `snaps` and
/// `durable_at` (write_count after each successful Checkpoint) are
/// recorded when non-null (the clean reference run).
Status RunWorkload(PagedFile* file, std::vector<Snapshot>* snaps,
                   std::vector<uint64_t>* durable_at) {
  const size_t page_size = file->page_size();
  uint32_t phase = 0;
  for (uint32_t count : {3u, 2u, 4u}) {
    ++phase;
    UVD_ASSIGN_OR_RETURN(uint32_t first, file->AllocatePages(count));
    for (uint32_t i = 0; i < count; ++i) {
      const auto data = Pattern(page_size, first + i, phase);
      UVD_RETURN_NOT_OK(file->WritePage(first + i, data.data(), data.size()));
    }
    std::vector<uint8_t> bootstrap(24 + phase, static_cast<uint8_t>(phase));
    UVD_RETURN_NOT_OK(file->SetBootstrap(bootstrap));
    UVD_RETURN_NOT_OK(file->Checkpoint());
    if (snaps != nullptr) snaps->push_back(SnapshotOf(*file));
    if (durable_at != nullptr) durable_at->push_back(file->write_count());
  }
  return Status::OK();
}

TEST(CrashRecoveryTest, EveryCrashPointRecoversLastCheckpointOrFailsTyped) {
  const size_t kPageSize = 128;

  // Clean reference run: enumerate the writes and the durable states.
  const std::string ref_path = TempPath("reference");
  std::remove(ref_path.c_str());
  std::vector<Snapshot> snaps;
  std::vector<uint64_t> durable_at;
  uint64_t total_writes = 0;
  {
    auto file = PagedFile::Create(ref_path, kPageSize).ValueOrDie();
    // Create's own empty checkpoint is durable state 0 (metapage write 0,
    // which happens before a hook can be installed).
    snaps.insert(snaps.begin(), SnapshotOf(*file));
    durable_at.insert(durable_at.begin(), file->write_count());
    UVD_CHECK_OK(RunWorkload(file.get(), &snaps, &durable_at));
    total_writes = file->write_count();
    UVD_CHECK_OK(file->Close());
  }
  std::remove(ref_path.c_str());
  ASSERT_EQ(snaps.size(), 4u);
  ASSERT_GT(total_writes, durable_at.front());

  // Metapage write indices: the final write of each checkpoint.
  std::set<uint64_t> metapage_writes;
  for (uint64_t after : durable_at) metapage_writes.insert(after - 1);

  const std::string path = TempPath("victim");
  for (const Fault fault : {Fault::kCrash, Fault::kTorn}) {
    for (uint64_t c = durable_at.front(); c < total_writes; ++c) {
      SCOPED_TRACE("fault=" + std::to_string(static_cast<int>(fault)) +
                   " crash_at=" + std::to_string(c));
      std::remove(path.c_str());
      auto file = PagedFile::Create(path, kPageSize).ValueOrDie();
      file->SetFaultHook([c, fault](IoOp op, uint64_t idx) {
        return op == IoOp::kWrite && idx == c ? fault : Fault::kNone;
      });
      const Status crashed = RunWorkload(file.get(), nullptr, nullptr);
      ASSERT_FALSE(crashed.ok());
      EXPECT_EQ(crashed.code(), StatusCode::kIOError);
      EXPECT_TRUE(file->dead());
      // Everything after the fault fails too — the handle is gone.
      EXPECT_EQ(file->Checkpoint().code(), StatusCode::kIOError);
      file.reset();  // the crash: drop the handle, no final checkpoint

      // The restart. Expected durable state: the last checkpoint whose
      // metapage write completed strictly before the fault.
      size_t expect = 0;
      for (size_t k = 0; k < durable_at.size(); ++k) {
        if (durable_at[k] - 1 < c) expect = k;
      }
      auto reopened = PagedFile::Open(path);
      if (!reopened.ok()) {
        // Only a torn metapage may make the file unopenable, and then the
        // failure is the typed Corruption — never a wrong recovery.
        EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
        EXPECT_EQ(fault, Fault::kTorn);
        EXPECT_TRUE(metapage_writes.count(c) != 0);
        continue;
      }
      const Snapshot recovered = SnapshotOf(*reopened.value());
      EXPECT_EQ(recovered.Digest(), snaps[expect].Digest());
      EXPECT_EQ(recovered.page_count, snaps[expect].page_count);
      UVD_CHECK_OK(reopened.value()->Close());
    }
  }
  std::remove(path.c_str());
}

TEST(CrashRecoveryTest, BitFlipInAnyRegionSurfacesAsTypedCorruption) {
  const size_t kPageSize = 128;
  const std::string path = TempPath("bitflip");
  std::remove(path.c_str());
  {
    auto file = PagedFile::Create(path, kPageSize).ValueOrDie();
    UVD_CHECK_OK(RunWorkload(file.get(), nullptr, nullptr));
    UVD_CHECK_OK(file->Close());
  }

  const auto flip = [&path](uint64_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x10;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
  };

  const uint64_t frame_size = kPageFrameHeaderSize + kPageSize;
  // One flip per region of page 1's frame: stored checksum, stored page
  // id, payload head, payload tail.
  for (const uint64_t in_frame : {uint64_t{0}, uint64_t{8}, uint64_t{16},
                                  frame_size - 1}) {
    SCOPED_TRACE("in_frame_offset=" + std::to_string(in_frame));
    const uint64_t offset = kMetaBlockSize + frame_size + in_frame;
    flip(offset);
    auto file = PagedFile::Open(path).ValueOrDie();
    std::vector<uint8_t> out;
    EXPECT_EQ(file->ReadPage(1, &out).code(), StatusCode::kCorruption);
    // Undamaged neighbors still read clean.
    UVD_CHECK_OK(file->ReadPage(0, &out));
    UVD_CHECK_OK(file->ReadPage(2, &out));
    UVD_CHECK_OK(file->Close());
    flip(offset);  // restore
  }

  // Metapage damage rejects the whole file at Open.
  flip(12);  // inside the page-count field
  auto damaged = PagedFile::Open(path);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kCorruption);
  flip(12);
  UVD_CHECK_OK(PagedFile::Open(path).ValueOrDie()->Close());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Diagram-level crash points: the same discipline observed through the
// public UVDiagram persistence API.
// ---------------------------------------------------------------------------

query::QueryBatch ProbeBatch(const geom::Box& domain, uint64_t seed) {
  Rng rng(seed);
  query::QueryBatch batch;
  for (int i = 0; i < 60; ++i) {
    const geom::Point p{rng.Uniform(domain.lo.x, domain.hi.x),
                        rng.Uniform(domain.lo.y, domain.hi.y)};
    batch.push_back(query::Query::Pnn(p));
    batch.push_back(query::Query::AnswerIds(p));
  }
  return batch;
}

uint64_t DigestDiagram(const core::UVDiagram& diagram,
                       const query::QueryBatch& batch) {
  query::QueryEngine engine(diagram);
  return query::DigestPointAnswers(engine.ExecuteBatch(batch));
}

std::vector<char> Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

void Restore(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamoff>(bytes.size()));
}

TEST(CrashRecoveryTest, CrashedRecheckpointKeepsServingPreviousState) {
  datagen::DatasetOptions data;
  data.count = 120;
  data.seed = 41;
  const geom::Box domain = datagen::DomainFor(data);
  const auto batch = ProbeBatch(domain, 43);

  const std::string path = TempPath("diagram");
  std::remove(path.c_str());
  core::UVDiagramOptions options;
  options.storage_path = path;
  uint64_t want = 0;
  {
    auto built = core::UVDiagram::Build(datagen::GenerateUniform(data), domain,
                                        options)
                     .ValueOrDie();
    want = DigestDiagram(built, batch);
    UVD_CHECK_OK(built.CloseStorage());
  }
  const std::vector<char> pristine = Slurp(path);
  ASSERT_FALSE(pristine.empty());

  // Reference pass: count the writes one re-checkpoint issues.
  uint64_t checkpoint_writes = 0;
  {
    auto diagram = core::UVDiagram::Open(path).ValueOrDie();
    UVD_CHECK_OK(diagram.Checkpoint());
    checkpoint_writes = diagram.file_page_manager()->file()->write_count();
    // A re-checkpoint relocates the manifest but must not change answers.
    UVD_CHECK_OK(diagram.CloseStorage());
  }
  ASSERT_GT(checkpoint_writes, 1u);

  for (const Fault fault : {Fault::kCrash, Fault::kTorn}) {
    for (uint64_t c = 0; c < checkpoint_writes; ++c) {
      SCOPED_TRACE("fault=" + std::to_string(static_cast<int>(fault)) +
                   " crash_at=" + std::to_string(c));
      Restore(path, pristine);
      {
        auto diagram = core::UVDiagram::Open(path).ValueOrDie();
        EXPECT_EQ(DigestDiagram(diagram, batch), want);
        diagram.file_page_manager()->file()->SetFaultHook(
            [c, fault](IoOp op, uint64_t idx) {
              return op == IoOp::kWrite && idx == c ? fault : Fault::kNone;
            });
        const Status crashed = diagram.Checkpoint();
        ASSERT_FALSE(crashed.ok());
        EXPECT_EQ(crashed.code(), StatusCode::kIOError);
        // CloseStorage would checkpoint again; the dead handle stays dead.
        EXPECT_FALSE(diagram.CloseStorage().ok());
      }
      auto reopened = core::UVDiagram::Open(path);
      if (!reopened.ok()) {
        EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
        EXPECT_EQ(fault, Fault::kTorn);
        continue;
      }
      EXPECT_EQ(DigestDiagram(reopened.value(), batch), want);
      UVD_CHECK_OK(reopened.value().CloseStorage());
    }
  }
  std::remove(path.c_str());
}

uint64_t DigestSharded(const shard::ShardedUVDiagram& diagram,
                       const query::QueryBatch& batch) {
  shard::ShardRouter router(diagram);
  return query::DigestPointAnswers(router.ExecuteBatch(batch));
}

// The same kill loop over every write of a K=2 ShardedUVDiagram::Checkpoint.
// Writes are numbered across the fleet in checkpoint order (shard 0's, then
// shard 1's); a kill in shard 1 leaves shard 0 at the NEW checkpoint and
// shard 1 at the old one — both describe the same state, so the fleet must
// still reopen to the same digest.
TEST(CrashRecoveryTest, CrashedShardedRecheckpointKeepsServingPreviousState) {
  constexpr size_t kShards = 2;
  datagen::DatasetOptions data;
  data.count = 120;
  data.seed = 53;
  const geom::Box domain = datagen::DomainFor(data);
  const auto batch = ProbeBatch(domain, 59);

  const std::string prefix = TempPath("sharded");
  const auto shard_path = [&prefix](size_t s) {
    return shard::ShardedUVDiagram::ShardFilePath(prefix, s);
  };
  shard::ShardedUVDiagramOptions options;
  options.num_shards = static_cast<int>(kShards);
  options.diagram.storage_path = prefix;
  uint64_t want = 0;
  {
    auto built = shard::ShardedUVDiagram::Build(datagen::GenerateUniform(data),
                                                domain, options)
                     .ValueOrDie();
    want = DigestSharded(built, batch);
    UVD_CHECK_OK(built.CloseStorage());
  }
  std::vector<std::vector<char>> pristine;
  for (size_t s = 0; s < kShards; ++s) pristine.push_back(Slurp(shard_path(s)));

  // Reference pass: the writes one re-checkpoint issues, per shard file.
  std::vector<uint64_t> shard_writes(kShards);
  {
    auto diagram = shard::ShardedUVDiagram::Open(prefix).ValueOrDie();
    UVD_CHECK_OK(diagram.Checkpoint());
    for (size_t s = 0; s < kShards; ++s) {
      shard_writes[s] = diagram.shard(s).fpm->file()->write_count();
      ASSERT_GT(shard_writes[s], 1u);
    }
    UVD_CHECK_OK(diagram.CloseStorage());
  }
  const uint64_t total_writes = shard_writes[0] + shard_writes[1];

  for (const Fault fault : {Fault::kCrash, Fault::kTorn}) {
    for (uint64_t c = 0; c < total_writes; ++c) {
      SCOPED_TRACE("fault=" + std::to_string(static_cast<int>(fault)) +
                   " crash_at=" + std::to_string(c));
      for (size_t s = 0; s < kShards; ++s) Restore(shard_path(s), pristine[s]);
      {
        auto diagram = shard::ShardedUVDiagram::Open(prefix).ValueOrDie();
        EXPECT_EQ(DigestSharded(diagram, batch), want);
        const size_t victim = c < shard_writes[0] ? 0 : 1;
        const uint64_t local = victim == 0 ? c : c - shard_writes[0];
        diagram.shard(victim).fpm->file()->SetFaultHook(
            [local, fault](IoOp op, uint64_t idx) {
              return op == IoOp::kWrite && idx == local ? fault : Fault::kNone;
            });
        const Status crashed = diagram.Checkpoint();
        ASSERT_FALSE(crashed.ok());
        EXPECT_EQ(crashed.code(), StatusCode::kIOError);
        EXPECT_FALSE(diagram.CloseStorage().ok());
      }
      auto reopened = shard::ShardedUVDiagram::Open(prefix);
      if (!reopened.ok()) {
        EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
        EXPECT_EQ(fault, Fault::kTorn);
        continue;
      }
      EXPECT_EQ(DigestSharded(reopened.value(), batch), want);
      UVD_CHECK_OK(reopened.value().CloseStorage());
    }
  }
  for (size_t s = 0; s < kShards; ++s) std::remove(shard_path(s).c_str());
}

TEST(CrashRecoveryTest, CrashBeforeFirstCheckpointNeverYieldsADiagram) {
  datagen::DatasetOptions data;
  data.count = 60;
  data.seed = 47;
  const geom::Box domain = datagen::DomainFor(data);

  const std::string path = TempPath("unborn");
  std::remove(path.c_str());
  core::UVDiagramOptions options;
  options.storage_path = path;
  // Build, then kill the very first write of the first Checkpoint: the
  // file exists (the build's data pages landed) but no diagram manifest
  // ever became durable, so Open must fail typed — not serve garbage.
  auto built = core::UVDiagram::Build(datagen::GenerateUniform(data), domain,
                                      options)
                   .ValueOrDie();
  const uint64_t already =
      built.file_page_manager()->file()->write_count();
  built.file_page_manager()->file()->SetFaultHook(
      [already](IoOp op, uint64_t idx) {
        return op == IoOp::kWrite && idx >= already ? Fault::kCrash : Fault::kNone;
      });
  ASSERT_FALSE(built.Checkpoint().ok());

  auto reopened = core::UVDiagram::Open(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace storage
}  // namespace uvd
