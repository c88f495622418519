#include "core/index_unit.h"

#include <string>
#include <utility>

#include "core/uv_index_io.h"
#include "storage/record.h"

namespace uvd {
namespace core {

namespace {

// magic, version, manifest first page, page count, byte length.
constexpr size_t kBootstrapBytes = 5 * sizeof(uint32_t);
// magic, version, box, header length.
constexpr size_t kManifestPrefixBytes = 3 * sizeof(uint32_t) + 4 * sizeof(double);

}  // namespace

Status IndexUnit::Create(const std::string& path, size_t page_size, size_t pool_pages,
                         Stats* stats) {
  if (path.empty()) {
    pm = std::make_unique<storage::PageManager>(page_size, stats);
  } else {
    storage::FilePageManagerOptions options;
    options.buffer_pool_pages = pool_pages;
    UVD_ASSIGN_OR_RETURN(auto file,
                         storage::FilePageManager::Create(path, page_size, options, stats));
    fpm = file.get();
    pm = std::move(file);
  }
  store = std::make_unique<uncertain::ObjectStore>(pm.get());
  return Status::OK();
}

Status IndexUnit::Checkpoint(const std::vector<uint8_t>& header) {
  if (fpm == nullptr) {
    return Status::InvalidArgument("Checkpoint requires a file-backed index (storage_path)");
  }
  UVD_ASSIGN_OR_RETURN(SavedIndexHandle index_handle, SaveUvIndex(*index, pm.get()));

  std::vector<uint8_t> manifest;
  storage::Encoder enc(&manifest);
  enc.PutU32(kUnitManifestMagic);
  enc.PutU32(kUnitFormatVersion);
  enc.PutDouble(box.lo.x);
  enc.PutDouble(box.lo.y);
  enc.PutDouble(box.hi.x);
  enc.PutDouble(box.hi.y);
  enc.PutU32(static_cast<uint32_t>(header.size()));
  manifest.insert(manifest.end(), header.begin(), header.end());
  store->EncodeState(&enc);
  enc.PutU32(index_handle.first_page);
  enc.PutU32(index_handle.page_count);
  UVD_ASSIGN_OR_RETURN(SavedIndexHandle manifest_handle,
                       WriteStreamToPages(manifest, pm.get()));

  std::vector<uint8_t> bootstrap;
  storage::Encoder boot(&bootstrap);
  boot.PutU32(kUnitBootstrapMagic);
  boot.PutU32(kUnitFormatVersion);
  boot.PutU32(manifest_handle.first_page);
  boot.PutU32(manifest_handle.page_count);
  boot.PutU32(static_cast<uint32_t>(manifest.size()));
  UVD_RETURN_NOT_OK(fpm->SetBootstrap(bootstrap));
  return fpm->Checkpoint();
}

Status IndexUnit::Open(const std::string& path, size_t pool_pages, Stats* stats,
                       std::vector<uint8_t>* header,
                       std::vector<uncertain::UncertainObject>* objects) {
  storage::FilePageManagerOptions options;
  options.buffer_pool_pages = pool_pages;
  UVD_ASSIGN_OR_RETURN(auto file, storage::FilePageManager::Open(path, options, stats));
  fpm = file.get();
  pm = std::move(file);

  const std::vector<uint8_t>& bootstrap = fpm->bootstrap();
  if (bootstrap.size() < kBootstrapBytes) {
    return Status::Corruption("paged file carries no index bootstrap");
  }
  storage::Decoder boot(bootstrap);
  if (boot.GetU32() != kUnitBootstrapMagic) {
    return Status::InvalidArgument("paged file is not a UV-index store");
  }
  const uint32_t version = boot.GetU32();
  if (version != kUnitFormatVersion) {
    return Status::NotImplemented("index store format version " + std::to_string(version));
  }
  SavedIndexHandle manifest_handle;
  manifest_handle.first_page = boot.GetU32();
  manifest_handle.page_count = boot.GetU32();
  const uint32_t manifest_bytes = boot.GetU32();

  std::vector<uint8_t> manifest;
  UVD_RETURN_NOT_OK(ReadPagesToStream(*pm, manifest_handle, &manifest));
  if (manifest.size() < manifest_bytes) {
    return Status::Corruption("index manifest shorter than its declared size");
  }
  manifest.resize(manifest_bytes);
  storage::Decoder dec(manifest);
  if (dec.remaining() < kManifestPrefixBytes) {
    return Status::Corruption("index manifest truncated");
  }
  if (dec.GetU32() != kUnitManifestMagic || dec.GetU32() != kUnitFormatVersion) {
    return Status::Corruption("index manifest has a bad magic or version");
  }
  box.lo.x = dec.GetDouble();
  box.lo.y = dec.GetDouble();
  box.hi.x = dec.GetDouble();
  box.hi.y = dec.GetDouble();
  const uint32_t header_bytes = dec.GetU32();
  if (header_bytes > dec.remaining()) {
    return Status::Corruption("index manifest header overruns the manifest");
  }
  const auto header_begin = manifest.begin() + static_cast<long>(dec.position());
  header->assign(header_begin, header_begin + header_bytes);
  dec.Skip(header_bytes);

  store = std::make_unique<uncertain::ObjectStore>(pm.get());
  UVD_RETURN_NOT_OK(store->RestoreState(&dec));
  if (dec.remaining() < 2 * sizeof(uint32_t)) {
    return Status::Corruption("index manifest truncated before the index handle");
  }
  SavedIndexHandle index_handle;
  index_handle.first_page = dec.GetU32();
  index_handle.page_count = dec.GetU32();
  UVD_RETURN_NOT_OK(store->LoadAll(objects, &ptrs));
  UVD_ASSIGN_OR_RETURN(UVIndex loaded, LoadUvIndex(pm.get(), index_handle, stats));
  index = std::make_unique<UVIndex>(std::move(loaded));
  return Status::OK();
}

}  // namespace core
}  // namespace uvd
