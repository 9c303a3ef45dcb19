#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/hot_inline.hpp"
#include "faultinject/faultinject.hpp"

namespace cash::paging {

inline constexpr std::uint32_t kPageSize = 4096;
inline constexpr std::uint32_t kPageShift = 12;

// Simulated physical memory: a frame allocator over a flat byte store.
// Frames are allocated on demand, never freed individually (the simulated
// machine's lifetime is one program run). The store is an anonymous host
// mapping of its own, outside the host heap: it starts empty, doubles with
// mremap as frames are allocated, and its pages come zeroed from the host
// OS, so short-lived machines (e.g. one forked per network request) stay
// cheap and a large store leaves no hole in the host heap when it goes.
// Nothing outside this class holds a pointer into the store, so growth may
// move it.
class PhysicalMemory {
 public:
  explicit PhysicalMemory(std::uint32_t frame_count);
  ~PhysicalMemory();
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  // Allocates a zeroed frame; returns its frame number. Exhaustion (genuine
  // or injected via FaultSite::kPhysFrameAlloc) raises a structured
  // FaultException of kind kResourceExhausted — never a bare host error.
  std::uint32_t allocate_frame();

  // Optional deterministic fault injection (owned by the machine). The
  // kPhysFrameAlloc site is consulted once per allocate_frame() call.
  void set_fault_injector(faultinject::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

  std::uint32_t frame_count() const noexcept { return frame_count_; }
  std::uint32_t frames_allocated() const noexcept { return next_frame_; }

  // Raw byte access within physical address space. Callers guarantee the
  // address is inside an allocated frame (the page table enforces this);
  // builds without NDEBUG assert it on every access.
  std::uint8_t read8(std::uint32_t phys) const {
    assert(in_allocated(phys, 1));
    return bytes_[phys];
  }
  void write8(std::uint32_t phys, std::uint8_t value) {
    assert(in_allocated(phys, 1));
    bytes_[phys] = value;
    if (tracking_) {
      mark_dirty(phys >> kPageShift);
    }
  }

  CASH_HOT_INLINE std::uint32_t read32(std::uint32_t phys) const {
    assert(in_allocated(phys, 4));
    std::uint32_t value = 0;
    std::memcpy(&value, bytes_ + phys, sizeof(value));
    return value;
  }
  CASH_HOT_INLINE void write32(std::uint32_t phys, std::uint32_t value) {
    assert(in_allocated(phys, 4));
    std::memcpy(bytes_ + phys, &value, sizeof(value));
    if (tracking_) {
      // A 4-byte store can straddle two frames; mark both ends.
      mark_dirty(phys >> kPageShift);
      mark_dirty((phys + 3) >> kPageShift);
    }
  }

  // --- snapshot support (vm/snapshot.hpp) ---

  // A copy of the allocated frames plus the allocation cursor.
  struct Image {
    std::uint32_t next_frame{0};
    std::vector<std::uint8_t> bytes;
  };

  // Copies the allocated frames and arms dirty-frame tracking: every write
  // from now on records the touched frame, so restore_image() copies back
  // only what changed since the capture.
  Image capture_image();

  // Rewinds physical memory to `image`, which must be this object's most
  // recent capture: dirty frames that existed at capture time are copied
  // back, frames allocated since are zeroed (ready for re-allocation), and
  // the allocation cursor is reset. Tracking stays armed against the same
  // image, so capture → restore → restore works.
  void restore_image(const Image& image);

 private:
  bool in_allocated(std::uint32_t phys, std::uint32_t width) const noexcept {
    return std::size_t{phys} + width <= std::size_t{next_frame_} * kPageSize;
  }
  // Grows the mapping to hold at least `bytes`; std::bad_alloc on failure.
  void reserve(std::size_t bytes);

  CASH_HOT_INLINE void mark_dirty(std::uint32_t frame) {
    if (frame < dirty_flags_.size() && dirty_flags_[frame] == 0) {
      dirty_flags_[frame] = 1;
      dirty_frames_.push_back(frame);
    }
  }

  std::uint32_t frame_count_;
  std::uint32_t next_frame_{0};
  std::uint8_t* bytes_{nullptr}; // the mapping; nullptr until a frame exists
  std::size_t mapped_{0};        // bytes mapped, a multiple of kPageSize
  faultinject::FaultInjector* injector_{nullptr};
  bool tracking_{false};
  std::vector<std::uint8_t> dirty_flags_;   // one flag per frame
  std::vector<std::uint32_t> dirty_frames_; // frames written since capture
};

} // namespace cash::paging
