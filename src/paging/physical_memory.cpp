#include "paging/physical_memory.hpp"

#include <cstring>
#include <algorithm>
#include <string>

#include "common/fault.hpp"

namespace cash::paging {

PhysicalMemory::PhysicalMemory(std::uint32_t frame_count)
    : frame_count_(frame_count) {}

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
  const std::uint32_t frame = next_frame_++;
  const std::size_t needed =
      static_cast<std::size_t>(next_frame_) * kPageSize;
  if (bytes_.size() < needed) {
    if (bytes_.capacity() < needed) {
      bytes_.reserve(std::max(needed, bytes_.capacity() * 2));
    }
    bytes_.resize(needed, 0);
  }
  return frame;
}

PhysicalMemory::Image PhysicalMemory::capture_image() {
  Image image;
  image.next_frame = next_frame_;
  image.bytes.assign(bytes_.begin(),
                     bytes_.begin() + static_cast<std::ptrdiff_t>(
                                          std::size_t{next_frame_} * kPageSize));
  tracking_ = true;
  dirty_flags_.assign(frame_count_, 0);
  dirty_frames_.clear();
  return image;
}

void PhysicalMemory::restore_image(const Image& image) {
  for (const std::uint32_t frame : dirty_frames_) {
    const std::size_t off = std::size_t{frame} * kPageSize;
    if (frame < image.next_frame) {
      std::memcpy(&bytes_[off], &image.bytes[off], kPageSize);
    } else if (off < bytes_.size()) {
      // Allocated after the capture: zero it so a later allocate_frame()
      // hands out the promised demand-zero frame.
      std::memset(&bytes_[off], 0, kPageSize);
    }
    dirty_flags_[frame] = 0;
  }
  dirty_frames_.clear();
  next_frame_ = image.next_frame;
}

} // namespace cash::paging
