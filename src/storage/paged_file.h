// Single-file page store: the durable backend behind FilePageManager.
//
// On-disk layout (all integers little-endian, encoded via storage/record.h):
//
//   offset 0                   kMetaBlockSize-byte metapage block
//   offset kMetaBlockSize      frame of page 0
//   offset kMetaBlockSize + i * frame_size
//                              frame of page i
//
// where frame_size = kPageFrameHeaderSize + page_size. The metapage holds
// magic, format version, page size, the DURABLE page count, a small
// bootstrap blob (the superblock root pointer: callers stash a manifest
// locator there, see core/index_unit.h), and a checksum over all of it — the
// metapage/version/magic discipline of the PostgreSQL-style access methods
// (SNIPPETS.md mtree). Every data page frame carries a checksum over
// (page id || payload) plus the page id itself, so a torn write, a bit
// flip at rest, or a misdirected write is detected at read time and
// reported as a typed Status::Corruption instead of served as data.
//
// Durability contract: WritePage goes straight to the file (pwrite at the
// page's offset), but the METAPAGE — and with it the durable page count
// and bootstrap — is rewritten only by Checkpoint(), which fsyncs the data
// first, then writes the metapage, then fsyncs again. A crash at any point
// therefore leaves either (a) the previous checkpoint's metapage over a
// superset of its pages — Open recovers exactly the checkpointed state and
// ignores later orphan writes — or (b) a torn/corrupt metapage, which Open
// rejects with a typed error. Never a silently wrong page.
// tests/storage/crash_recovery_test.cc proves this at every enumerated
// write via SetFaultHook.
#ifndef UVD_STORAGE_PAGED_FILE_H_
#define UVD_STORAGE_PAGED_FILE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace uvd {
namespace storage {

/// FNV-1a 64-bit over a byte range — the same mix the digest contracts
/// use; deterministic across platforms, no dependencies.
inline uint64_t Fnv64(const uint8_t* data, size_t n,
                      uint64_t h = 1469598103934665603ull) {
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Fixed metapage block size. Independent of page_size so Open can read
/// the metapage before knowing the page size it declares.
constexpr size_t kMetaBlockSize = 512;
/// Per-data-page frame header: checksum(u64) + page id(u32) + reserved(u32).
constexpr size_t kPageFrameHeaderSize = 16;
/// Bytes of caller data the metapage can carry (manifest locators etc.).
constexpr size_t kBootstrapCapacity = 256;

constexpr uint32_t kPagedFileMagic = 0x55565046;  // "UVPF"
constexpr uint32_t kPagedFileVersion = 1;

/// The kind of physical operation a fault hook is consulted on.
enum class IoOp { kRead, kWrite };

/// Fault decision returned by the fault hook.
enum class Fault {
  kNone,   ///< The operation proceeds normally.
  kError,  ///< The operation fails with one IOError; the handle stays alive.
  kCrash,  ///< Writes only: nothing reaches the file; the handle is dead.
  kTorn,   ///< Writes only: a prefix of the frame reaches the file, then dead.
};

/// Test-only hook: consulted before every physical read and write (data
/// frames and metapage alike) with the operation kind and a running index
/// that counts operations of that kind only. Writes are numbered from the
/// handle's first write (write_count()), so crash harnesses enumerate the
/// same points whatever reads interleave; reads are numbered from the
/// hook's installation (unhooked reads pay one branch, no counter). After
/// a kCrash/kTorn write fault the file handle is DEAD — every later write,
/// sync or checkpoint fails with IOError, modeling a process that lost its
/// device. Reopen the path with PagedFile::Open to model the post-crash
/// restart. On a read, every fault other than kNone is one IOError.
using FaultHook = std::function<Fault(IoOp op, uint64_t index)>;

/// \brief Checksummed single-file page store.
///
/// Thread safety: concurrent ReadPage calls are safe (pread, no shared
/// offset). Concurrent WritePage calls are safe iff they target distinct,
/// already-allocated pages (disjoint pwrite offsets). Allocate/AllocateRun/
/// Checkpoint/Close must not overlap any other call — the same
/// allocate-then-share phase discipline as PageManager (the fault-hook
/// counters use relaxed atomics so hooked builds stay safe too).
class PagedFile {
 public:
  ~PagedFile();
  PagedFile(PagedFile&&) noexcept;
  PagedFile& operator=(PagedFile&&) noexcept;
  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;

  /// Creates (truncating any existing file) and checkpoints an empty store.
  static Result<std::unique_ptr<PagedFile>> Create(const std::string& path,
                                                   size_t page_size);

  /// Opens an existing store, validating the metapage. Distinct failures
  /// map to distinct codes (tests/storage/storage_format_test.cc pins
  /// them): unreadable/short-of-a-metapage file -> IOError, bad magic ->
  /// InvalidArgument, future format version -> NotImplemented, metapage
  /// checksum mismatch or a file shorter than the durable page count
  /// requires -> Corruption.
  static Result<std::unique_ptr<PagedFile>> Open(const std::string& path);

  size_t page_size() const { return page_size_; }
  /// Pages allocated through this handle (>= the durable count until the
  /// next Checkpoint persists it).
  uint32_t page_count() const { return page_count_; }
  /// Pages recorded by the last completed Checkpoint.
  uint32_t durable_page_count() const { return durable_page_count_; }
  const std::string& path() const { return path_; }

  /// Extends the file with `count` zero pages (valid zero frames are
  /// written so the pages read back as zeros, like the in-RAM store).
  /// Returns the first new id.
  Result<uint32_t> AllocatePages(uint32_t count);

  /// Reads one page's payload into *out (resized to page_size). Verifies
  /// the frame checksum and stored page id; Corruption on mismatch,
  /// NotFound past page_count().
  Status ReadPage(uint32_t id, std::vector<uint8_t>* out) const;

  /// Writes one page's payload (shorter data is zero-padded to page_size;
  /// longer is InvalidArgument). The page must be allocated.
  Status WritePage(uint32_t id, const uint8_t* data, size_t size);

  /// Caller blob stored in the metapage at the next Checkpoint (at most
  /// kBootstrapCapacity bytes).
  Status SetBootstrap(const std::vector<uint8_t>& blob);
  const std::vector<uint8_t>& bootstrap() const { return bootstrap_; }

  /// fsyncs outstanding data writes.
  Status Sync();

  /// Durability point: fsync data, write the metapage (page count +
  /// bootstrap), fsync again. Open() recovers exactly the state of the
  /// last completed Checkpoint.
  Status Checkpoint();

  /// Checkpoint + close. Safe to call twice; the destructor closes
  /// WITHOUT checkpointing (a destructor cannot report failure — and the
  /// crash harness relies on "drop the handle" modeling a crash).
  Status Close();

  /// Installs the fault hook (tests only; see FaultHook). nullptr heals.
  void SetFaultHook(FaultHook hook) {
    fault_hook_ = std::move(hook);
    hooked_read_count_.store(0, std::memory_order_relaxed);
  }
  /// Physical writes attempted so far (frames + metapages), for
  /// enumerating crash points.
  uint64_t write_count() const {
    return write_count_.load(std::memory_order_relaxed);
  }
  /// fsyncs issued so far.
  uint64_t sync_count() const {
    return sync_count_.load(std::memory_order_relaxed);
  }
  /// True once an injected fault killed the handle.
  bool dead() const { return dead_.load(std::memory_order_relaxed); }

 private:
  PagedFile() = default;

  uint64_t FrameOffset(uint32_t id) const {
    return kMetaBlockSize +
           static_cast<uint64_t>(id) * (kPageFrameHeaderSize + page_size_);
  }

  /// Hook consultation + pwrite of `n` bytes at `offset` (prefix-only for
  /// kTorn). All physical writes funnel through here, all physical reads
  /// through ReadPage.
  Status PhysicalWrite(const uint8_t* data, size_t n, uint64_t offset);
  Status WriteMetapage();
  Status WriteZeroFrames(uint32_t first, uint32_t count);

  std::string path_;
  int fd_ = -1;
  size_t page_size_ = 0;
  uint32_t page_count_ = 0;
  uint32_t durable_page_count_ = 0;
  std::vector<uint8_t> bootstrap_;
  FaultHook fault_hook_;
  // Relaxed atomics: concurrent ReadPage calls, and WritePage calls to
  // distinct pages, are part of the contract; each bumps its counter and
  // may trip a fault.
  std::atomic<uint64_t> write_count_{0};
  mutable std::atomic<uint64_t> hooked_read_count_{0};
  std::atomic<uint64_t> sync_count_{0};
  std::atomic<bool> dead_{false};
};

}  // namespace storage
}  // namespace uvd

#endif  // UVD_STORAGE_PAGED_FILE_H_
