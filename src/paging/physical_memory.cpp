#include "paging/physical_memory.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <string>

#include "common/fault.hpp"

namespace cash::paging {

PhysicalMemory::PhysicalMemory(std::uint32_t frame_count)
    : frame_count_(frame_count) {}

PhysicalMemory::~PhysicalMemory() {
  if (bytes_ != nullptr) {
    ::munmap(bytes_, mapped_);
  }
}

void PhysicalMemory::reserve(std::size_t bytes) {
  const std::size_t limit = std::size_t{frame_count_} * kPageSize;
  const std::size_t size = std::min(std::max(bytes, mapped_ * 2), limit);
  void* mapping =
      bytes_ == nullptr
          ? ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
          : ::mremap(bytes_, mapped_, size, MREMAP_MAYMOVE);
  if (mapping == MAP_FAILED) {
    throw std::bad_alloc();
  }
  bytes_ = static_cast<std::uint8_t*>(mapping);
  mapped_ = size;
}

std::uint32_t PhysicalMemory::allocate_frame() {
  if (next_frame_ >= frame_count_) {
    throw FaultException(
        Fault{FaultKind::kResourceExhausted, 0, 0,
              "simulated physical memory exhausted: all " +
                  std::to_string(frame_count_) + " frames in use"});
  }
  if (injector_ != nullptr &&
      injector_->should_inject(faultinject::FaultSite::kPhysFrameAlloc)) {
    throw FaultException(
        Fault{FaultKind::kResourceExhausted, 0, 0,
              "simulated physical memory exhausted: frame " +
                  std::to_string(next_frame_) +
                  " allocation denied by fault injection"});
  }
  const std::size_t needed = std::size_t{next_frame_ + 1} * kPageSize;
  if (mapped_ < needed) {
    reserve(needed);
  }
  return next_frame_++;
}

PhysicalMemory::Image PhysicalMemory::capture_image() {
  Image image;
  image.next_frame = next_frame_;
  image.bytes.assign(bytes_, bytes_ + std::size_t{next_frame_} * kPageSize);
  tracking_ = true;
  dirty_flags_.assign(frame_count_, 0);
  dirty_frames_.clear();
  return image;
}

void PhysicalMemory::restore_image(const Image& image) {
  for (const std::uint32_t frame : dirty_frames_) {
    std::uint8_t* const bytes = bytes_ + std::size_t{frame} * kPageSize;
    if (frame < image.next_frame) {
      std::memcpy(bytes, &image.bytes[std::size_t{frame} * kPageSize],
                  kPageSize);
    } else {
      // Allocated after the capture: zero it so a later allocate_frame()
      // hands out the promised demand-zero frame.
      std::memset(bytes, 0, kPageSize);
    }
    dirty_flags_[frame] = 0;
  }
  dirty_frames_.clear();
  next_frame_ = image.next_frame;
}

} // namespace cash::paging
