#!/usr/bin/env python3
"""Build and run the chronostm benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (make) on first use into
$CARGO_TARGET_DIR (default .bench_build)/perfbench-<hash>, where <hash>
covers every file under perfbench/ and include/: a changed source gets its
own build, and two checkouts sharing one target directory never run each
other's binary. Then runs one workload in its own process. The last stdout
line is the benchmark's JSON result. Build output goes to stderr, so a
failed build prints no result and exits 1.
"""

import hashlib
import os
import subprocess
import sys

SOURCES = ("perfbench", "include")


def source_hash(root: str) -> str:
    h = hashlib.sha256()
    for top in SOURCES:
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, root).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "include", "chronostm")):
        print("perfbench: run from the repository root (no include/chronostm)",
              file=sys.stderr)
        return 1
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench-" + source_hash(root))
    binary = os.path.join(build, "perfbench")
    if not os.path.isfile(binary):
        tmp = os.path.join(build, "tmp")  # keep the compiler's scratch files here
        os.makedirs(tmp, exist_ok=True)
        made = subprocess.run(["make", "-s", "-C", here, "BUILD_DIR=" + build],
                              stdout=sys.stderr, stderr=sys.stderr, check=False,
                              env=dict(os.environ, TMPDIR=tmp))
        if made.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    span_dir = os.path.join(build, "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [binary, *sys.argv[1:], "--span-dir", span_dir]
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
