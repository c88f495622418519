#include "uncertain/object_store.h"

#include "common/logging.h"
#include "storage/record.h"

namespace uvd {
namespace uncertain {

namespace {

// Record layout: id(i32) cx(f64) cy(f64) radius(f64) kind(u16) bars(u16)
// then bars * f64 masses.
size_t RecordSize(int num_bars) {
  return 4 + 8 + 8 + 8 + 2 + 2 + static_cast<size_t>(num_bars) * 8;
}

void EncodeObject(const UncertainObject& o, std::vector<uint8_t>* buf) {
  storage::Encoder enc(buf);
  enc.PutI32(o.id());
  enc.PutDouble(o.center().x);
  enc.PutDouble(o.center().y);
  enc.PutDouble(o.radius());
  enc.PutU16(static_cast<uint16_t>(o.pdf().kind()));
  enc.PutU16(static_cast<uint16_t>(o.pdf().num_bars()));
  for (double mass : o.pdf().bars()) enc.PutDouble(mass);
}

UncertainObject DecodeObject(storage::Decoder* dec) {
  const int32_t id = dec->GetI32();
  const double cx = dec->GetDouble();
  const double cy = dec->GetDouble();
  const double radius = dec->GetDouble();
  const auto kind = static_cast<PdfKind>(dec->GetU16());
  const int num_bars = dec->GetU16();
  std::vector<double> bars(static_cast<size_t>(num_bars));
  for (double& mass : bars) mass = dec->GetDouble();
  return UncertainObject(id, geom::Circle({cx, cy}, radius),
                         RadialHistogramPdf(kind, radius, std::move(bars)));
}

}  // namespace

Status ObjectStore::BulkLoad(const std::vector<UncertainObject>& objects,
                             std::vector<ObjectPtr>* ptrs) {
  if (objects.empty()) {
    ptrs->clear();
    return Status::OK();
  }
  const int num_bars = objects.front().pdf().num_bars();
  record_size_ = RecordSize(num_bars);
  records_per_page_ = pm_->page_size() / record_size_;
  if (records_per_page_ == 0) {
    return Status::InvalidArgument("object record larger than page size");
  }
  ptrs->clear();
  ptrs->reserve(objects.size());

  std::vector<uint8_t> page_buf;
  storage::PageId current = storage::kInvalidPageId;
  uint32_t slot = 0;
  for (const UncertainObject& o : objects) {
    if (o.pdf().num_bars() != num_bars) {
      return Status::InvalidArgument("all objects must use the same bar count");
    }
    if (current == storage::kInvalidPageId || slot == records_per_page_) {
      if (current != storage::kInvalidPageId) {
        UVD_RETURN_NOT_OK(pm_->Write(current, page_buf));
      }
      UVD_ASSIGN_OR_RETURN(current, pm_->Allocate());
      data_pages_.push_back(current);
      page_buf.clear();
      slot = 0;
    }
    EncodeObject(o, &page_buf);
    ptrs->push_back(MakePtr(current, slot));
    ++slot;
  }
  UVD_RETURN_NOT_OK(pm_->Write(current, page_buf));
  tail_count_ = slot;
  return Status::OK();
}

Result<ObjectPtr> ObjectStore::Append(const UncertainObject& object) {
  const size_t record_size = RecordSize(object.pdf().num_bars());
  if (record_size_ != 0 && record_size != record_size_) {
    return Status::InvalidArgument("all objects must use the same bar count");
  }
  // An empty store adopts this object's layout — committed only once the
  // tail page exists, so a failed allocation leaves the store untouched.
  const size_t per_page = pm_->page_size() / record_size;
  if (per_page == 0) {
    return Status::InvalidArgument("object record larger than page size");
  }
  if (data_pages_.empty() || tail_count_ == per_page) {
    UVD_ASSIGN_OR_RETURN(const storage::PageId fresh, pm_->Allocate());
    data_pages_.push_back(fresh);
    tail_count_ = 0;
  }
  record_size_ = record_size;
  records_per_page_ = per_page;
  const storage::PageId page = data_pages_.back();
  // Read-modify-write the tail page.
  std::vector<uint8_t> buf;
  UVD_RETURN_NOT_OK(pm_->Read(page, &buf));
  std::vector<uint8_t> record;
  EncodeObject(object, &record);
  std::copy(record.begin(), record.end(),
            buf.begin() + static_cast<long>(tail_count_ * record_size_));
  UVD_RETURN_NOT_OK(pm_->Write(page, buf));
  const ObjectPtr ptr = MakePtr(page, tail_count_);
  ++tail_count_;
  return ptr;
}

void ObjectStore::DropLastRecord() {
  UVD_DCHECK(tail_count_ > 0);
  if (--tail_count_ > 0) return;
  // The tail page held only this record: drop it (its page stays behind
  // unused), and an emptied store forgets its adopted layout.
  data_pages_.pop_back();
  if (data_pages_.empty()) {
    record_size_ = 0;
    records_per_page_ = 0;
  } else {
    tail_count_ = static_cast<uint32_t>(records_per_page_);
  }
}

void ObjectStore::EncodeState(storage::Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(record_size_));
  enc->PutU32(static_cast<uint32_t>(records_per_page_));
  enc->PutU32(tail_count_);
  enc->PutU32(static_cast<uint32_t>(data_pages_.size()));
  for (storage::PageId p : data_pages_) enc->PutU32(p);
}

Status ObjectStore::RestoreState(storage::Decoder* dec) {
  if (dec->remaining() < 4 * sizeof(uint32_t)) {
    return Status::Corruption("object store directory truncated");
  }
  record_size_ = dec->GetU32();
  records_per_page_ = dec->GetU32();
  tail_count_ = dec->GetU32();
  const uint32_t num_pages = dec->GetU32();
  if (num_pages > dec->remaining() / sizeof(uint32_t)) {
    return Status::Corruption("object store directory declares more pages than it holds");
  }
  // LoadAll reads records_per_page_ records per page: BulkLoad's layout.
  if (num_pages > 0 &&
      (record_size_ < RecordSize(0) || records_per_page_ != pm_->page_size() / record_size_ ||
       tail_count_ > records_per_page_)) {
    return Status::Corruption("object store manifest state is inconsistent");
  }
  data_pages_.clear();
  data_pages_.reserve(num_pages);
  for (uint32_t i = 0; i < num_pages; ++i) data_pages_.push_back(dec->GetU32());
  return Status::OK();
}

Status ObjectStore::LoadAll(std::vector<UncertainObject>* objects,
                            std::vector<ObjectPtr>* ptrs) const {
  objects->clear();
  ptrs->clear();
  std::vector<uint8_t> buf;
  for (size_t i = 0; i < data_pages_.size(); ++i) {
    const storage::PageId page = data_pages_[i];
    UVD_RETURN_NOT_OK(pm_->Read(page, &buf));
    const uint32_t count = (i + 1 == data_pages_.size())
                               ? tail_count_
                               : static_cast<uint32_t>(records_per_page_);
    for (uint32_t slot = 0; slot < count; ++slot) {
      storage::Decoder dec(buf.data() + slot * record_size_, record_size_);
      objects->push_back(DecodeObject(&dec));
      ptrs->push_back(MakePtr(page, slot));
    }
  }
  return Status::OK();
}

Result<UncertainObject> ObjectStore::Fetch(ObjectPtr ptr) const {
  const storage::PageId page = PtrPage(ptr);
  const uint32_t slot = PtrSlot(ptr);
  if (record_size_ == 0) {
    return Status::Internal("object store not loaded");
  }
  if (slot >= records_per_page_) {
    return Status::InvalidArgument("slot out of range");
  }
  std::vector<uint8_t> buf;
  UVD_RETURN_NOT_OK(pm_->Read(page, &buf));
  storage::Decoder dec(buf.data() + slot * record_size_,
                       record_size_);
  return DecodeObject(&dec);
}

}  // namespace uncertain
}  // namespace uvd
