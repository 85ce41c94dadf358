#!/usr/bin/env python3
"""Print the stdout sha256 of every byte-identity-gated bench run.

The virtual-time output of the paper benches, bench_fleet and bench_chaos
is the reproduction's result, so a refactor must leave it byte-identical.
Double-run compares (scripts/bench_virtual_json.py and the ci.sh fleet and
chaos stages) only catch nondeterminism; a change that shifts every run the
same way passes them. This script pins the output itself: it runs a fixed
set of scenarios and prints one "SHA256  LABEL" line per run.

  scripts/golden_stdout.py --bindir build/bench > build/golden_stdout.txt
  cmp scripts/golden_stdout.sha256 build/golden_stdout.txt

A change that sets out to move the cost model regenerates the committed
file (same command, redirected onto scripts/golden_stdout.sha256) and says
so in CHANGES.md. The hashes come from the toolchain ci.sh builds with.
"""

import argparse
import concurrent.futures
import hashlib
import os
import subprocess
import sys

PAPER_BENCHES = [
    "bench_table1_map_entries",
    "bench_table2_fault_counts",
    "bench_table3_map_fault_unmap",
    "bench_fig2_object_cache",
    "bench_fig5_anon_alloc",
    "bench_fig6_fork",
    "bench_sec7_loanout",
    "bench_ablation",
]

# The plans ci.sh arms for its pressure and containment soaks.
SOAK_PRESSURE = "@1ms phys-=7000; @50ms swap=14200; @20s swap=32768; @30s phys+=5000"
SOAK_MEMFAULT = "@2ms poison random:2; @8ms poison random:3; @40ms poison random:2"
FLEET_PRESSURE = "@1ms phys-=7600; @30s phys+=2000"
CHAOS_SCHEDS = ["rr", "random:3", "burst:5", "pct3:7", "pb16"]
# Two single-threaded benches at a time: about half the wall time of a
# serial pass while leaving cores for the rest of CI.
RUNS_IN_FLIGHT = 2
# A recorded repro string: replaying it must reproduce the direct run.
CHAOS_REPRO = ("uvmchaos/v1|bench=bench_chaos|a0=--ops=60000|a1=--cpus=4|"
               "a2=--shared|a3=--sched=pct3:7")


def scenarios():
    """(label, binary, args) for every gated run, in output order."""
    runs = []
    for name in PAPER_BENCHES:
        runs.append((f"{name}", name, []))
        runs.append((f"{name} pressure", name, [f"--pressure={SOAK_PRESSURE}"]))
        runs.append((f"{name} soak", name,
                     [f"--pressure={SOAK_PRESSURE}", f"--memfault={SOAK_MEMFAULT}",
                      "--audit=1"]))
    runs.append(("bench_fleet", "bench_fleet", []))
    runs.append(("bench_fleet pressure", "bench_fleet", [f"--pressure={FLEET_PRESSURE}"]))
    runs.append(("bench_fleet cpus=4", "bench_fleet", ["--cpus=4", "--locks"]))
    runs.append(("bench_fleet cpus=4 pressure", "bench_fleet",
                 ["--cpus=4", "--locks", f"--pressure={FLEET_PRESSURE}"]))
    for sched in CHAOS_SCHEDS:
        runs.append((f"bench_chaos sched={sched}", "bench_chaos",
                     ["--ops=60000", "--cpus=4", "--shared", f"--sched={sched}"]))
    runs.append(("bench_chaos repro", "bench_chaos", [f"--repro={CHAOS_REPRO}"]))
    runs.append(("bench_chaos shrink-demo", "bench_chaos", ["--shrink-demo"]))
    return runs


def digest(bindir, binary, args):
    cmd = [os.path.join(bindir, binary)] + args
    r = subprocess.run(cmd, capture_output=True, check=False)
    if r.returncode != 0:
        return None, f"{' '.join(cmd)} exited {r.returncode}\n{r.stderr.decode(errors='replace')}"
    return hashlib.sha256(r.stdout).hexdigest(), None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bindir", required=True, help="directory with bench binaries")
    args = ap.parse_args()

    runs = scenarios()
    with concurrent.futures.ThreadPoolExecutor(max_workers=RUNS_IN_FLIGHT) as pool:
        results = list(pool.map(lambda r: digest(args.bindir, r[1], r[2]), runs))
    failed = False
    for (label, _, _), (sha, err) in zip(runs, results):
        if err is not None:
            sys.stderr.write(f"golden_stdout: {err}")
            failed = True
            continue
        print(f"{sha}  {label}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
