#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload batch-paper --seed 1 --trace 0

Run from the repository root. The script builds the program (library and
condsched_served daemon) and the perfbench binary from source with CMake
into .bench_build/perfbench, then runs the binary. Build output goes to
standard error; the binary's standard output is passed through, and its
last line is the JSON result. Workloads: batch-paper, batch-deep,
serve-mixed (see perfbench/NOTES.md).

Extra flags: --scale 0 shrinks every workload (the benchmark's own
tests); --write-golden regenerates perfbench/golden/<workload>.golden
for the default seed.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-paper", "batch-deep", "serve-mixed")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """Git commit when there is one; otherwise a digest of the sources."""
    try:
        top, sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return "git:" + sha
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if "__pycache__" in name:
                continue
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configure once, then build incrementally; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the program sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=600)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4",
         "--target", "perfbench", "condsched_served"],
        stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=850)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, choices=(0, 1), default=1)
    parser.add_argument("--golden-dir", default=os.path.join(HERE, "golden"))
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    out_dir = os.path.join(".bench_build", "perfbench-out")
    try:
        build(build_dir)
    except (OSError, subprocess.SubprocessError) as err:
        fail("build failed: %s" % err)
    os.makedirs(os.path.join(ROOT, out_dir), exist_ok=True)

    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--scale", str(args.scale),
        "--golden-dir", args.golden_dir,
        # Relative to ROOT, where the binary runs: keeps the daemon's
        # AF_UNIX socket path short.
        "--out-dir", out_dir,
        "--daemon", os.path.join(build_dir, "program", "condsched_served"),
        "--source-id", source_id(),
    ]
    if args.write_golden:
        command.append("--write-golden")
    # The daemon perfbench starts dies with it (PR_SET_PDEATHSIG), so
    # stopping perfbench stops everything the run started.
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        sys.exit(child.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("%s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
