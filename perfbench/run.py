#!/usr/bin/env python3
"""Build the simulator benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the simulator libraries from src/ plus the driver in
perfbench/perfbench.cpp) into $CARGO_TARGET_DIR, or .bench_build when
that is unset. The driver runs the workload's cell in passes for S
seconds and checks every pass. With --trace 1 it also samples call
stacks, which this script symbolises with addr2line and charges to
src/<module>/ as per-module self time. The last line on stdout is the
result: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import collections
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src") + os.sep

# Modules a plain run passes through; self time anywhere else (libc,
# the kernel, other modules, the driver itself) is other.self_s.
MODULES = ("sim", "cpu", "workload", "protocol", "core", "pengine", "mem",
           "cache", "network", "machine")


def build(build_dir):
    """Configure (once) and build the driver; progress goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, *gen,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "smtp_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "smtp_perfbench")


def inline_chains(binary, addrs):
    """addr -> source files of its inline chain, innermost first."""
    text = "".join("%x\n" % a for a in addrs)
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-e", binary],
                         input=text, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    chains, cur, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = int(out[i], 16)
            chains[cur] = []
            i += 1
        else:
            chains[cur].append(out[i + 1].rsplit(":", 1)[0])
            i += 2
    return chains


def module_of(path):
    if not path.startswith(SRC):
        return "other"
    mod = path[len(SRC):].split(os.sep)[0]
    return mod if mod in MODULES else "other"


def charge(frames, chains):
    """Module that pays for one sample.

    A leaf outside the binary (libc, the kernel) is other. Otherwise
    walk from the leaf towards main and stop at the first frame whose
    inline chain holds repository code: the outermost repository
    function in that chain pays, so standard-library code inlined into
    it, or called out of line from it, is charged to it.
    """
    if frames[0] == "-":
        return "other"
    for i, f in enumerate(frames):
        if f == "-":
            continue
        # A caller's frame holds a return address; step back into the
        # call instruction.
        addr = int(f, 16) - (1 if i else 0)
        repo = [p for p in chains.get(addr, ()) if p.startswith(ROOT + os.sep)]
        if repo:
            return module_of(repo[-1])
    return "other"


def self_times(binary, samples_path, traced_run_s):
    with open(samples_path) as f:
        samples = [line.split() for line in f if line.strip()]
    if not samples:
        raise SystemExit("perfbench: the traced passes took no samples")
    addrs = set()
    for frames in samples:
        for i, fr in enumerate(frames):
            if fr != "-":
                addrs.add(int(fr, 16) - (1 if i else 0))
    chains = inline_chains(binary, sorted(addrs))
    hits = collections.Counter(charge(fr, chains) for fr in samples)
    return {m + ".self_s": traced_run_s * hits[m] / len(samples)
            for m in MODULES + ("other",)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit("perfbench: build failed: %s" % e)
    samples_path = os.path.join(build_dir, "samples-%d.txt" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--samples", samples_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit("perfbench: driver exited with %d"
                             % proc.returncode)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = report["metrics"]
        if args.trace:
            for name, value in self_times(binary, samples_path,
                                          report["traced_run_s"]).items():
                metrics[name] = {"value": value, "unit": "s"}
    finally:
        if os.path.exists(samples_path):
            os.remove(samples_path)

    result = {}
    for m in want:
        if m["name"] not in metrics or metrics[m["name"]]["unit"] != m["unit"]:
            raise SystemExit("perfbench: driver did not report %s in %s"
                             % (m["name"], m["unit"]))
        result[m["name"]] = metrics[m["name"]]
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": result}))


if __name__ == "__main__":
    main()
