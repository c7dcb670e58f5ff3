#include "timed_device.h"

#include "trace.h"

namespace perfbench {

TimedDevice::TimedDevice(const std::string& role,
                         std::unique_ptr<tsb::Device> base)
    : tsb::Device(base->kind(), base->cost_params()),
      base_(std::move(base)),
      read_name_(Tracer::Intern("storage." + role + ".Read")),
      mapped_name_(Tracer::Intern("storage." + role + ".ReadMapped")),
      write_name_(Tracer::Intern("storage." + role + ".Write")),
      sync_name_(Tracer::Intern("storage." + role + ".Sync")) {}

tsb::Status TimedDevice::Read(uint64_t offset, size_t n, char* scratch) {
  Span span(read_name_, kSpanDevRead, n);
  return base_->Read(offset, n, scratch);
}

tsb::Status TimedDevice::ReadMapped(uint64_t offset, size_t n,
                                    tsb::MappedRead* out,
                                    tsb::AccessPattern pattern) {
  Span span(mapped_name_, kSpanDevRead, n);
  return base_->ReadMapped(offset, n, out, pattern);
}

tsb::Status TimedDevice::Write(uint64_t offset, const tsb::Slice& data) {
  Span span(write_name_, kSpanDevWrite, data.size());
  return base_->Write(offset, data);
}

tsb::Status TimedDevice::Sync() {
  Span span(sync_name_);
  return base_->Sync();
}

}  // namespace perfbench
