#include "storage/paged_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "storage/record.h"

namespace uvd {
namespace storage {

namespace {

// Metapage byte layout (within the kMetaBlockSize block):
//   [0,4)    magic
//   [4,8)    version
//   [8,12)   page size
//   [12,16)  durable page count
//   [16,20)  bootstrap length
//   [20,276) bootstrap bytes (kBootstrapCapacity, zero-padded)
//   [276,284) FNV-1a checksum over bytes [0,276)
constexpr size_t kMetaChecksumOffset = 20 + kBootstrapCapacity;

uint64_t FrameChecksum(uint32_t id, const uint8_t* payload, size_t n) {
  uint8_t id_le[4];
  std::memcpy(id_le, &id, 4);  // little-endian on every supported target
  return Fnv64(payload, n, Fnv64(id_le, 4));
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

PagedFile::~PagedFile() {
  if (fd_ >= 0) ::close(fd_);
}

PagedFile::PagedFile(PagedFile&& other) noexcept { *this = std::move(other); }

PagedFile& PagedFile::operator=(PagedFile&& other) noexcept {
  if (this == &other) return *this;
  if (fd_ >= 0) ::close(fd_);
  path_ = std::move(other.path_);
  fd_ = other.fd_;
  other.fd_ = -1;
  page_size_ = other.page_size_;
  page_count_ = other.page_count_;
  durable_page_count_ = other.durable_page_count_;
  bootstrap_ = std::move(other.bootstrap_);
  fault_hook_ = std::move(other.fault_hook_);
  write_count_.store(other.write_count_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  hooked_read_count_.store(
      other.hooked_read_count_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  sync_count_.store(other.sync_count_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  dead_.store(other.dead_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  return *this;
}

Result<std::unique_ptr<PagedFile>> PagedFile::Create(const std::string& path,
                                                     size_t page_size) {
  if (page_size < 64 || page_size > (1u << 24)) {
    return Status::InvalidArgument("page size out of range [64, 16M]");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return ErrnoStatus("cannot create paged file", path);
  }
  auto file = std::unique_ptr<PagedFile>(new PagedFile());
  file->path_ = path;
  file->fd_ = fd;
  file->page_size_ = page_size;
  UVD_RETURN_NOT_OK(file->Checkpoint());  // durable empty store
  return file;
}

Result<std::unique_ptr<PagedFile>> PagedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR, 0644);
  if (fd < 0) {
    return ErrnoStatus("cannot open paged file", path);
  }
  auto file = std::unique_ptr<PagedFile>(new PagedFile());
  file->path_ = path;
  file->fd_ = fd;

  std::vector<uint8_t> meta(kMetaBlockSize);
  const ssize_t n = ::pread(fd, meta.data(), meta.size(), 0);
  if (n < 0) {
    return ErrnoStatus("cannot read metapage of", path);
  }
  if (static_cast<size_t>(n) < kMetaBlockSize) {
    return Status::IOError("paged file " + path +
                           " shorter than a metapage (not a page store)");
  }
  Decoder dec(meta.data(), kMetaBlockSize);
  const uint32_t magic = dec.GetU32();
  if (magic != kPagedFileMagic) {
    return Status::InvalidArgument("bad magic in " + path +
                                   ": not a uvd paged file");
  }
  const uint32_t version = dec.GetU32();
  if (version > kPagedFileVersion) {
    return Status::NotImplemented("paged file " + path + " has format version " +
                                  std::to_string(version) +
                                  " from the future (newest known: " +
                                  std::to_string(kPagedFileVersion) + ")");
  }
  const uint64_t expected = Fnv64(meta.data(), kMetaChecksumOffset);
  uint64_t stored = 0;
  std::memcpy(&stored, meta.data() + kMetaChecksumOffset, 8);
  if (stored != expected) {
    return Status::Corruption("metapage checksum mismatch in " + path +
                              " (torn or corrupt checkpoint)");
  }
  file->page_size_ = dec.GetU32();
  file->page_count_ = dec.GetU32();
  file->durable_page_count_ = file->page_count_;
  const uint32_t bootstrap_len = dec.GetU32();
  if (bootstrap_len > kBootstrapCapacity) {
    return Status::Corruption("metapage bootstrap length out of range in " + path);
  }
  file->bootstrap_.assign(meta.begin() + 20, meta.begin() + 20 + bootstrap_len);

  // The durable page count must fit in the file; a shorter file lost data
  // after its checkpoint (truncation, partial copy).
  const off_t size = ::lseek(fd, 0, SEEK_END);
  const uint64_t needed = file->FrameOffset(file->page_count_);
  if (size < 0 || static_cast<uint64_t>(size) < needed) {
    return Status::Corruption("paged file " + path + " truncated: needs " +
                              std::to_string(needed) + " bytes for " +
                              std::to_string(file->page_count_) +
                              " pages, has " + std::to_string(size));
  }
  return file;
}

Status PagedFile::PhysicalWrite(const uint8_t* data, size_t n, uint64_t offset) {
  if (dead_.load(std::memory_order_relaxed)) {
    return Status::IOError("paged file handle is dead (simulated crash)");
  }
  const uint64_t index = write_count_.fetch_add(1, std::memory_order_relaxed);
  size_t to_write = n;
  if (fault_hook_) {
    const Fault fault = fault_hook_(IoOp::kWrite, index);
    if (fault == Fault::kError) {
      return Status::IOError("injected write error");
    }
    if (fault == Fault::kCrash) {
      dead_.store(true, std::memory_order_relaxed);
      return Status::IOError("injected crash before write");
    }
    if (fault == Fault::kTorn) {
      to_write = n / 2;  // the sector prefix that "made it"
    }
  }
  size_t done = 0;
  while (done < to_write) {
    const ssize_t w = ::pwrite(fd_, data + done, to_write - done,
                               static_cast<off_t>(offset + done));
    if (w < 0) {
      return ErrnoStatus("write failed on", path_);
    }
    done += static_cast<size_t>(w);
  }
  if (to_write != n) {
    dead_.store(true, std::memory_order_relaxed);
    return Status::IOError("injected torn write (partial frame persisted)");
  }
  return Status::OK();
}

Status PagedFile::WriteMetapage() {
  std::vector<uint8_t> meta;
  meta.reserve(kMetaBlockSize);
  Encoder enc(&meta);
  enc.PutU32(kPagedFileMagic);
  enc.PutU32(kPagedFileVersion);
  enc.PutU32(static_cast<uint32_t>(page_size_));
  enc.PutU32(page_count_);
  enc.PutU32(static_cast<uint32_t>(bootstrap_.size()));
  meta.insert(meta.end(), bootstrap_.begin(), bootstrap_.end());
  meta.resize(kMetaChecksumOffset, 0);
  const uint64_t checksum = Fnv64(meta.data(), kMetaChecksumOffset);
  enc.PutU64(checksum);
  meta.resize(kMetaBlockSize, 0);
  UVD_RETURN_NOT_OK(PhysicalWrite(meta.data(), meta.size(), 0));
  durable_page_count_ = page_count_;
  return Status::OK();
}

Status PagedFile::WriteZeroFrames(uint32_t first, uint32_t count) {
  // One reusable zero frame; the checksum differs per page id (it covers
  // the id), so patch the header per page.
  std::vector<uint8_t> frame(kPageFrameHeaderSize + page_size_, 0);
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t id = first + i;
    const uint64_t checksum =
        FrameChecksum(id, frame.data() + kPageFrameHeaderSize, page_size_);
    std::memcpy(frame.data(), &checksum, 8);
    std::memcpy(frame.data() + 8, &id, 4);
    UVD_RETURN_NOT_OK(PhysicalWrite(frame.data(), frame.size(), FrameOffset(id)));
  }
  return Status::OK();
}

Result<uint32_t> PagedFile::AllocatePages(uint32_t count) {
  const uint32_t first = page_count_;
  UVD_RETURN_NOT_OK(WriteZeroFrames(first, count));
  page_count_ += count;
  return first;
}

Status PagedFile::ReadPage(uint32_t id, std::vector<uint8_t>* out) const {
  if (id >= page_count_) {
    return Status::NotFound("page id out of range");
  }
  if (fault_hook_ &&
      fault_hook_(IoOp::kRead,
                  hooked_read_count_.fetch_add(1, std::memory_order_relaxed)) !=
          Fault::kNone) {
    return Status::IOError("injected read error");
  }
  std::vector<uint8_t> frame(kPageFrameHeaderSize + page_size_);
  const ssize_t n =
      ::pread(fd_, frame.data(), frame.size(), static_cast<off_t>(FrameOffset(id)));
  if (n < 0) {
    return ErrnoStatus("read failed on", path_);
  }
  if (static_cast<size_t>(n) != frame.size()) {
    return Status::Corruption("short read of page " + std::to_string(id) + " in " +
                              path_ + " (file truncated)");
  }
  uint64_t stored_checksum = 0;
  uint32_t stored_id = 0;
  std::memcpy(&stored_checksum, frame.data(), 8);
  std::memcpy(&stored_id, frame.data() + 8, 4);
  const uint64_t expected =
      FrameChecksum(id, frame.data() + kPageFrameHeaderSize, page_size_);
  if (stored_id != id || stored_checksum != expected) {
    return Status::Corruption("page " + std::to_string(id) + " in " + path_ +
                              " fails checksum (torn or corrupt write)");
  }
  out->assign(frame.begin() + kPageFrameHeaderSize, frame.end());
  return Status::OK();
}

Status PagedFile::WritePage(uint32_t id, const uint8_t* data, size_t size) {
  if (id >= page_count_) {
    return Status::NotFound("page id out of range");
  }
  if (size > page_size_) {
    return Status::InvalidArgument("record larger than page size");
  }
  std::vector<uint8_t> frame(kPageFrameHeaderSize + page_size_, 0);
  std::memcpy(frame.data() + kPageFrameHeaderSize, data, size);
  const uint64_t checksum =
      FrameChecksum(id, frame.data() + kPageFrameHeaderSize, page_size_);
  std::memcpy(frame.data(), &checksum, 8);
  std::memcpy(frame.data() + 8, &id, 4);
  return PhysicalWrite(frame.data(), frame.size(), FrameOffset(id));
}

Status PagedFile::SetBootstrap(const std::vector<uint8_t>& blob) {
  if (blob.size() > kBootstrapCapacity) {
    return Status::InvalidArgument("bootstrap blob larger than " +
                                   std::to_string(kBootstrapCapacity) + " bytes");
  }
  bootstrap_ = blob;
  return Status::OK();
}

Status PagedFile::Sync() {
  if (dead_.load(std::memory_order_relaxed)) {
    return Status::IOError("paged file handle is dead (simulated crash)");
  }
  if (::fsync(fd_) != 0) {
    return ErrnoStatus("fsync failed on", path_);
  }
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status PagedFile::Checkpoint() {
  UVD_RETURN_NOT_OK(Sync());        // data reaches the device first
  UVD_RETURN_NOT_OK(WriteMetapage());
  return Sync();                    // then the metapage that names it
}

Status PagedFile::Close() {
  if (fd_ < 0) return Status::OK();
  Status st = dead() ? Status::OK() : Checkpoint();
  if (::close(fd_) != 0 && st.ok()) {
    st = ErrnoStatus("close failed on", path_);
  }
  fd_ = -1;
  return st;
}

}  // namespace storage
}  // namespace uvd
