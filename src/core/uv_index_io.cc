#include "core/uv_index_io.h"

#include <unordered_map>

#include "rtree/leaf_codec.h"
#include "storage/record.h"

namespace uvd {
namespace core {

namespace {

constexpr uint32_t kMagic = 0x55564431;  // "UVD1"
constexpr uint32_t kVersion = 1;

}  // namespace

Status UVIndex::SerializeStructure(std::vector<uint8_t>* out) const {
  if (!finalized_) {
    return Status::InvalidArgument("only finalized indexes can be saved");
  }
  out->clear();
  storage::Encoder enc(out);
  enc.PutU32(kMagic);
  enc.PutU32(kVersion);
  enc.PutDouble(domain_.lo.x);
  enc.PutDouble(domain_.lo.y);
  enc.PutDouble(domain_.hi.x);
  enc.PutDouble(domain_.hi.y);
  enc.PutI32(options_.max_nonleaf);
  enc.PutDouble(options_.split_threshold);
  enc.PutI32(options_.leaf_fanout);
  enc.PutU32(static_cast<uint32_t>(nodes_.size()));
  enc.PutI32(nonleaf_count_);
  for (const Node& node : nodes_) {
    enc.PutDouble(node.region.lo.x);
    enc.PutDouble(node.region.lo.y);
    enc.PutDouble(node.region.hi.x);
    enc.PutDouble(node.region.hi.y);
    enc.PutU16(node.is_leaf ? 1 : 0);
    if (node.is_leaf) {
      enc.PutU32(static_cast<uint32_t>(node.pages.size()));
      for (storage::PageId p : node.pages) enc.PutU32(p);
    } else {
      for (uint32_t c : node.children) enc.PutU32(c);
    }
  }
  return Status::OK();
}

Result<UVIndex> UVIndex::DeserializeStructure(const std::vector<uint8_t>& data,
                                              storage::PageManager* pm,
                                              Stats* stats) {
  storage::Decoder dec(data);
  if (dec.remaining() < 8 || dec.GetU32() != kMagic) {
    return Status::InvalidArgument("not a saved UV-index");
  }
  if (dec.GetU32() != kVersion) {
    return Status::InvalidArgument("unsupported UV-index version");
  }
  geom::Box domain;
  domain.lo.x = dec.GetDouble();
  domain.lo.y = dec.GetDouble();
  domain.hi.x = dec.GetDouble();
  domain.hi.y = dec.GetDouble();
  UVIndexOptions options;
  options.max_nonleaf = dec.GetI32();
  options.split_threshold = dec.GetDouble();
  options.leaf_fanout = dec.GetI32();

  UVIndex index(domain, pm, options, stats);
  const uint32_t node_count = dec.GetU32();
  index.nonleaf_count_ = dec.GetI32();
  index.nodes_.clear();
  index.nodes_.reserve(node_count);
  for (uint32_t i = 0; i < node_count; ++i) {
    Node node;
    node.region.lo.x = dec.GetDouble();
    node.region.lo.y = dec.GetDouble();
    node.region.hi.x = dec.GetDouble();
    node.region.hi.y = dec.GetDouble();
    node.is_leaf = dec.GetU16() == 1;
    if (node.is_leaf) {
      const uint32_t pages = dec.GetU32();
      node.pages.reserve(pages);
      for (uint32_t p = 0; p < pages; ++p) node.pages.push_back(dec.GetU32());
      node.num_pages = pages;
    } else {
      for (auto& c : node.children) c = dec.GetU32();
      node.num_pages = 0;
    }
    index.nodes_.push_back(std::move(node));
  }

  // Restore per-leaf object lists (pattern queries, live insertion) from
  // the shared leaf tuple pages.
  std::unordered_map<int, uint32_t> slot_of;
  std::vector<uint8_t> buf;
  std::vector<rtree::LeafEntry> tuples;
  for (Node& node : index.nodes_) {
    if (!node.is_leaf) continue;
    tuples.clear();
    for (storage::PageId page : node.pages) {
      UVD_RETURN_NOT_OK(pm->Read(page, &buf));
      rtree::DecodeLeafEntries(buf, &tuples);
    }
    node.member_slots.reserve(tuples.size());
    for (const rtree::LeafEntry& e : tuples) {
      auto it = slot_of.find(e.id);
      if (it == slot_of.end()) {
        index.members_.push_back(Member{e.mbc, e.id, e.ptr, {}, {}});
        it = slot_of.emplace(e.id, static_cast<uint32_t>(index.members_.size() - 1))
                 .first;
      }
      node.member_slots.push_back(it->second);
    }
  }
  index.finalized_ = true;
  return index;
}

Result<SavedIndexHandle> WriteStreamToPages(const std::vector<uint8_t>& stream,
                                            storage::PageManager* pm) {
  SavedIndexHandle handle;
  const size_t page_size = pm->page_size();
  handle.page_count =
      static_cast<uint32_t>((stream.size() + page_size - 1) / page_size);
  if (handle.page_count == 0) return handle;
  UVD_ASSIGN_OR_RETURN(handle.first_page, pm->AllocateRun(handle.page_count));
  for (uint32_t i = 0; i < handle.page_count; ++i) {
    const size_t begin = static_cast<size_t>(i) * page_size;
    const size_t len = std::min(page_size, stream.size() - begin);
    std::vector<uint8_t> chunk(stream.begin() + static_cast<long>(begin),
                               stream.begin() + static_cast<long>(begin + len));
    UVD_RETURN_NOT_OK(pm->Write(handle.first_page + i, chunk));
  }
  return handle;
}

Status ReadPagesToStream(const storage::PageManager& pm,
                         const SavedIndexHandle& handle,
                         std::vector<uint8_t>* stream) {
  stream->clear();
  std::vector<uint8_t> buf;
  for (uint32_t i = 0; i < handle.page_count; ++i) {
    UVD_RETURN_NOT_OK(pm.Read(handle.first_page + i, &buf));
    stream->insert(stream->end(), buf.begin(), buf.end());
  }
  return Status::OK();
}

Result<SavedIndexHandle> SaveUvIndex(const UVIndex& index,
                                     storage::PageManager* pm) {
  std::vector<uint8_t> stream;
  UVD_RETURN_NOT_OK(index.SerializeStructure(&stream));
  return WriteStreamToPages(stream, pm);
}

Result<UVIndex> LoadUvIndex(storage::PageManager* pm, const SavedIndexHandle& handle,
                            Stats* stats) {
  if (handle.first_page == storage::kInvalidPageId || handle.page_count == 0) {
    return Status::InvalidArgument("empty index handle");
  }
  std::vector<uint8_t> stream;
  UVD_RETURN_NOT_OK(ReadPagesToStream(*pm, handle, &stream));
  return UVIndex::DeserializeStructure(stream, pm, stats);
}

}  // namespace core
}  // namespace uvd
