// Fleet host-time benchmark program. Runs one workload (fleet_run.h) on both
// VM systems, repeating whole runs until --seconds of measurement have
// passed, and prints one JSON object per repetition on stdout:
//
//   {"phase": P, "vm": V, "setup_s": S, "run_s": R, "ref_s": F, "fp": {...},
//    "calls": {...}}
//
// Phases, in order: "canary" (seed 1 at kCanaryOps, compared with the
// recorded fingerprints whatever --seed is; its Worlds are also the first
// ones the process builds, so their cold start stays out of the timed
// repetitions), "warmup" (one untimed full-size round), then rounds of
// "timed" (stock World) and, with --trace 1, "traced" (kernel over a
// TracedVm) repetitions of kOps kernel ops per VM. A final
// {"phase": "end", "peak_rss_kb": N} line closes the output. run.py turns
// this into the benchmark's metrics and checks the fingerprints.
//
// "ref_s" is the host time of a fixed reference loop (see Reference) run
// around each "timed" repetition, and 0 elsewhere; "calls" appears on
// "traced" repetitions only.
//
// Usage: fleet_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleetbench/fleet_run.h"

namespace {

using fleetbench::CallHistograms;
using fleetbench::Rep;
using fleetbench::Workload;
using harness::VmKind;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

constexpr std::uint64_t kOps = 1'000'000;  // per VM and repetition, as bench_fleet
constexpr std::uint64_t kCanaryOps = 20'000;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "fleet_bench: %s\nusage: fleet_bench --workload fleet|fleet_pressure|"
               "fleet_smp_shared [--seed N] [--seconds S] [--trace 0|1]\n",
               why);
  std::exit(2);
}

std::uint64_t ParseUint(const char* flag, const char* v) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (*v == '\0' || *v == '-' || *end != '\0') {
    std::fprintf(stderr, "fleet_bench: %s wants a non-negative integer, got '%s'\n", flag, v);
    std::exit(2);
  }
  return n;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      Usage("every flag takes a value");
    }
    const char* v = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      a.workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      a.seed = ParseUint(flag, v);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      a.seconds = static_cast<double>(ParseUint(flag, v));
    } else if (std::strcmp(flag, "--trace") == 0) {
      const std::uint64_t t = ParseUint(flag, v);
      if (t > 1) {
        Usage("--trace must be 0 or 1");
      }
      a.trace = t == 1;
    } else {
      Usage("unknown flag");
    }
  }
  return a;
}

void PrintCalls(const CallHistograms& calls) {
  std::printf(", \"calls\": {");
  for (std::size_t i = 0; i < fleetbench::kNumCallClasses; ++i) {
    const fleetbench::LatencyHistogram& h = calls[i];
    std::printf("%s\"%s\": {\"calls\": %llu, \"ns\": %llu, \"p50_ns\": %.6g, \"p99_ns\": %.6g}",
                i == 0 ? "" : ", ", fleetbench::kCallClassNames[i],
                static_cast<unsigned long long>(h.count()),
                static_cast<unsigned long long>(h.total_ns()), h.Quantile(0.50),
                h.Quantile(0.99));
  }
  std::printf("}");
}

// Host-speed reference: a fixed loop of the work the simulator does most —
// hash-table and tree churn with node allocation, page-sized memset and
// memcpy — built from this file alone, so no change to src/ can move it.
// The shared host's speed drifts by tens of percent over minutes (clock
// frequency, neighbours on shared cores); run.py divides each repetition's
// time by the reference time measured around it, which cancels most of
// that drift. About 50 ms on the host README.md describes.
class Reference {
 public:
  Reference() : mem_(kMemPages * kPage) {}

  double Seconds() {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    std::unordered_map<std::uint64_t, std::uint64_t> hash;
    std::map<std::uint64_t, std::uint64_t> tree;
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::uint64_t k = x % 50'000;
      if (auto it = hash.find(k); it == hash.end()) {
        hash.emplace(k, i);
      } else {
        sum += it->second;
        hash.erase(it);
      }
      if (auto it = tree.find(k >> 2); it == tree.end()) {
        tree.emplace(k >> 2, i);
      } else if (i % 3 == 0) {
        tree.erase(it);
      } else {
        sum += it->second;
      }
      if (i % 8 == 0) {
        std::memset(Page(x >> 20), static_cast<int>(i & 0xff), kPage);
      }
      if (i % 32 == 0) {
        std::memcpy(Page(x >> 24), Page(x >> 40), kPage);
      }
    }
    sink_ = sum;
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

 private:
  static constexpr std::size_t kPage = 4096;
  static constexpr std::size_t kMemPages = 2048;  // 8 MB
  static constexpr std::uint64_t kIters = 120'000;

  std::byte* Page(std::uint64_t r) { return mem_.data() + (r % kMemPages) * kPage; }

  std::vector<std::byte> mem_;
  volatile std::uint64_t sink_ = 0;  // keeps the loop's result observable
};

void PrintRep(const char* phase, VmKind kind, const Rep& rep, double ref_s = 0) {
  std::printf("{\"phase\": \"%s\", \"vm\": \"%s\", \"setup_s\": %.9f, \"run_s\": %.9f, "
              "\"ref_s\": %.9f, \"fp\": {",
              phase, harness::VmKindName(kind), rep.setup_s, rep.run_s, ref_s);
  for (std::size_t i = 0; i < rep.fp.size(); ++i) {
    std::printf("%s\"%s\": %llu", i == 0 ? "" : ", ", rep.fp[i].first.c_str(),
                static_cast<unsigned long long>(rep.fp[i].second));
  }
  std::printf("}");
  if (rep.calls) {
    PrintCalls(*rep.calls);
  }
  std::printf("}\n");
  std::fflush(stdout);
}

constexpr VmKind kVms[] = {VmKind::kUvm, VmKind::kBsd};

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::optional<Workload> wl = fleetbench::MakeWorkload(args.workload, args.seed, kOps);
  if (!wl) {
    Usage("unknown --workload");
  }
  const Workload canary = *fleetbench::MakeWorkload(args.workload, 1, kCanaryOps);
  for (VmKind kind : kVms) {
    PrintRep("canary", kind, fleetbench::RunRep(kind, canary, false));
  }
  for (VmKind kind : kVms) {
    PrintRep("warmup", kind, fleetbench::RunRep(kind, *wl, false));
  }
  // Whole rounds only, and at least three, so every VM (and, traced, both
  // modes) gets the same number of samples for its median.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  Reference reference;
  for (int round = 0; round < 3 || Clock::now() < deadline; ++round) {
    for (VmKind kind : kVms) {
      const double ref_before = reference.Seconds();
      const Rep rep = fleetbench::RunRep(kind, *wl, false);
      PrintRep("timed", kind, rep, (ref_before + reference.Seconds()) / 2);
      if (args.trace) {
        PrintRep("traced", kind, fleetbench::RunRep(kind, *wl, true));
      }
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"phase\": \"end\", \"peak_rss_kb\": %ld}\n", ru.ru_maxrss);
  return 0;
}
