// Large zero-initialized byte stores (simulated RAM, the swap partition).
// They come from std::calloc, which gets zero pages from the host without
// writing them, so a World faults in only the frames and slots its
// workload actually uses.
#ifndef SRC_SIM_ZEROED_BYTES_H_
#define SRC_SIM_ZEROED_BYTES_H_

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

namespace sim {

struct FreeDeleter {
  void operator()(std::byte* p) const { std::free(p); }
};

using ZeroedBytes = std::unique_ptr<std::byte[], FreeDeleter>;

inline ZeroedBytes AllocZeroedBytes(std::size_t n) {
  ZeroedBytes bytes(static_cast<std::byte*>(std::calloc(n == 0 ? 1 : n, 1)));
  if (bytes == nullptr) {
    throw std::bad_alloc();
  }
  return bytes;
}

}  // namespace sim

#endif  // SRC_SIM_ZEROED_BYTES_H_
