// Device decorator installed through DbOptions::wrap_device for traced
// runs: forwards every call to the engine's own device and records a
// span around each Read, ReadMapped, Write and Sync. Span names carry
// the device role, e.g. "storage.magnetic.Read" or
// "storage.shard-001/historical.Sync", so per-role device metrics are
// sums over span aggregates.
#ifndef PERFBENCH_TIMED_DEVICE_H_
#define PERFBENCH_TIMED_DEVICE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "storage/device.h"

namespace perfbench {

class TimedDevice : public tsb::Device {
 public:
  TimedDevice(const std::string& role, std::unique_ptr<tsb::Device> base);

  tsb::Status Read(uint64_t offset, size_t n, char* scratch) override;
  tsb::Status Write(uint64_t offset, const tsb::Slice& data) override;
  bool SupportsMappedReads() const override {
    return base_->SupportsMappedReads();
  }
  tsb::Status ReadMapped(uint64_t offset, size_t n, tsb::MappedRead* out,
                         tsb::AccessPattern pattern) override;
  uint32_t write_once_sector_size() const override {
    return base_->write_once_sector_size();
  }
  uint64_t Size() const override { return base_->Size(); }
  tsb::Status Truncate(uint64_t size) override {
    return base_->Truncate(size);
  }
  tsb::Status Sync() override;

 private:
  std::unique_ptr<tsb::Device> base_;
  const char* read_name_;
  const char* mapped_name_;
  const char* write_name_;
  const char* sync_name_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_DEVICE_H_
