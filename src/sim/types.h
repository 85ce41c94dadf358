// Core scalar types and page-size arithmetic shared by every library in the
// UVM reproduction. All address arithmetic in the simulator is done in terms
// of a fixed 4 KB page, matching the i386 machine the paper evaluates on.
#ifndef SRC_SIM_TYPES_H_
#define SRC_SIM_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace sim {

// A virtual address in a simulated address space.
using Vaddr = std::uint64_t;

// A physical frame number (index into the simulated physical memory array).
using Pfn = std::uint32_t;

// Byte offset within a memory object (file or anonymous area).
using ObjOffset = std::uint64_t;

// Simulated time in nanoseconds.
using Nanoseconds = std::uint64_t;

inline constexpr std::uint64_t kPageShift = 12;
inline constexpr std::uint64_t kPageSize = 1ull << kPageShift;  // 4096
inline constexpr std::uint64_t kPageMask = kPageSize - 1;

// An invalid / "no frame" sentinel.
inline constexpr Pfn kInvalidPfn = ~Pfn{0};

constexpr std::uint64_t PageTrunc(std::uint64_t v) { return v & ~kPageMask; }
constexpr std::uint64_t PageRound(std::uint64_t v) { return (v + kPageMask) & ~kPageMask; }
constexpr std::uint64_t BytesToPages(std::uint64_t v) { return PageRound(v) >> kPageShift; }
constexpr std::uint64_t PagesToBytes(std::uint64_t p) { return p << kPageShift; }

// Access type driving a page fault, mirroring the hardware fault code.
enum class Access : std::uint8_t {
  kRead,
  kWrite,
};

// Mapping protection bits. Matches PROT_* semantics.
enum class Prot : std::uint8_t {
  kNone = 0,
  kRead = 1,
  kWrite = 2,
  kReadWrite = 3,
  kExec = 4,
  kReadExec = 5,
  kAll = 7,
};

constexpr Prot operator|(Prot a, Prot b) {
  return static_cast<Prot>(static_cast<std::uint8_t>(a) | static_cast<std::uint8_t>(b));
}
constexpr Prot operator&(Prot a, Prot b) {
  return static_cast<Prot>(static_cast<std::uint8_t>(a) & static_cast<std::uint8_t>(b));
}
constexpr bool ProtIncludes(Prot have, Prot want) { return (have & want) == want; }
constexpr bool CanRead(Prot p) { return ProtIncludes(p, Prot::kRead); }
constexpr bool CanWrite(Prot p) { return ProtIncludes(p, Prot::kWrite); }

// Mach-style map-entry inheritance, settable per mapping via minherit(2).
enum class Inherit : std::uint8_t {
  kNone,    // child gets an unmapped hole
  kShared,  // child shares the memory with the parent
  kCopy,    // child gets a copy-on-write copy (the default)
};

// madvise(2)-style usage hints stored in map entries.
enum class Advice : std::uint8_t {
  kNormal,
  kRandom,
  kSequential,
};

// errno-style error codes used throughout the simulator. Zero is success,
// mirroring the kernel convention the paper's code base uses. Declared once,
// X(constant, value, name): the constants, kNumErrCodes and ErrName all come
// from this list.
#define SIM_ERRORS(X)                                                                              \
  X(kOk, 0, "OK")                                                                                  \
  X(kErrFault, 1, "EFAULT")               /* no mapping at address */                              \
  X(kErrProt, 2, "EACCES")                /* protection violation */                               \
  X(kErrNoMem, 3, "ENOMEM")               /* out of memory / address space */                      \
  X(kErrNoSwap, 4, "ENOSWAP")             /* swap space exhausted */                               \
  X(kErrExist, 5, "EEXIST")               /* mapping collision with MAP_FIXED */                   \
  X(kErrInval, 6, "EINVAL")               /* invalid argument */                                   \
  X(kErrNoEnt, 7, "ENOENT")               /* no such file */                                       \
  X(kErrNotSup, 8, "ENOTSUP")             /* operation not supported by this VM */                 \
  X(kErrMapEntryPool, 9, "EMAPENTRYPOOL") /* kernel map-entry pool exhausted */                    \
  X(kErrIO, 10, "EIO")                    /* device I/O error */                                   \
  X(kErrNoVnode, 11, "ENOVNODE")          /* vnode table exhausted, nothing recyclable */          \
  X(kErrMemPoison, 12, "EMEMPOISON")      /* access hit a poisoned (uncorrectable ECC) frame */

// Plain ints, not an enum: VM calls and lambdas return them as int.
#define SIM_ERROR_CONSTANT(constant, value, name) inline constexpr int constant = value;
SIM_ERRORS(SIM_ERROR_CONSTANT)
#undef SIM_ERROR_CONSTANT

inline constexpr const char* kErrNames[] = {
#define SIM_ERROR_NAME(constant, value, name) name,
    SIM_ERRORS(SIM_ERROR_NAME)
#undef SIM_ERROR_NAME
};

// One past the last defined error code.
inline constexpr int kNumErrCodes = static_cast<int>(std::size(kErrNames));

// ErrName indexes kErrNames by code, so the codes must count up from 0.
#define SIM_ERROR_DENSE(constant, value, name) \
  static_assert(std::string_view(kErrNames[value]) == name, "SIM_ERRORS values must be 0, 1, 2...");
SIM_ERRORS(SIM_ERROR_DENSE)
#undef SIM_ERROR_DENSE

// Name of an error code for dumps and test failure messages; "E???" for a
// code outside the list.
constexpr const char* ErrName(int err) {
  return err >= 0 && err < kNumErrCodes ? kErrNames[err] : "E???";
}

}  // namespace sim

#endif  // SRC_SIM_TYPES_H_
