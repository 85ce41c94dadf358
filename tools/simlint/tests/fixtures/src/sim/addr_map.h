// Fixture: the walker's own home. map-raw-clip exempts this one file, so
// its clips and reservation produce no finding. The core fixtures include
// it for these declarations.
#ifndef SRC_SIM_ADDR_MAP_H_
#define SRC_SIM_ADDR_MAP_H_

#include <cstdint>

namespace sim {

template <typename Entry>
struct AddrMap {
  using iterator = Entry*;

  struct ClipReservation {
    int Acquire(AddrMap& map, std::uint64_t start, std::uint64_t end);
  };
  iterator ClipStart(iterator it, std::uint64_t va);
  void ClipEnd(iterator it, std::uint64_t va);

  template <typename Dup, typename Visit>
  int WalkRange(iterator it, std::uint64_t start, std::uint64_t end, Dup&& dup, Visit&& visit) {
    ClipReservation clipres;
    if (int err = clipres.Acquire(*this, start, end); err != 0) {
      return err;
    }
    if (it->start < start) {
      it = ClipStart(it, start);
      dup(*it);
    }
    if (it->end > end) {
      ClipEnd(it, end);
      dup(*it);
    }
    return visit(it);
  }
};

}  // namespace sim

#endif  // SRC_SIM_ADDR_MAP_H_
