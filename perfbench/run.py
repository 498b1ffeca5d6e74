#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload {bulk,fanin,disorder} \
        --seed N --seconds S --trace {0,1}

The Go program in this directory is built from the checkout's sources
into .bench_build/ (build cache included, so nothing is written outside
the checkout) and re-built whenever a Go source file changes. Its
standard output is passed through; the last line is the JSON result.
The exit code is the program's: 0 only when every delivered byte was
correct.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BUILD = REPO / ".bench_build"
WORKLOADS = ("bulk", "fanin", "disorder")
BUILD_TIMEOUT = 850  # the first run in a fresh checkout compiles the standard library
RUN_TIMEOUT = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_hash():
    """Hash every Go source and module file the binary is built from."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(REPO):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and d != "testdata")
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = Path(dirpath) / name
                h.update(str(path.relative_to(REPO)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOTMPDIR=str(BUILD / "tmp"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
        GOFLAGS="",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    if not (REPO / "go.mod").is_file() or not (REPO / "internal" / "core").is_dir():
        fail("the chunks module sources are missing; run from a full checkout")
    go = shutil.which("go")
    if go is None:
        fail("no go toolchain on PATH")
    binary = BUILD / f"perfbench-{source_hash()}"
    if binary.is_file():
        return binary
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run([go, "build", "-o", str(binary), "."], cwd=HERE, env=go_env(),
                       check=True, timeout=BUILD_TIMEOUT, stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    return binary


def commit():
    if not (REPO / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except subprocess.TimeoutExpired:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--flip-byte", action="store_true",
                    help="corrupt one expected byte; the run must then fail")
    args = ap.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(BUILD / "results"), "--commit", commit()]
    if args.flip_byte:
        cmd.append("--flip-byte")
    proc = subprocess.Popen(cmd, cwd=REPO)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT} s", code=3)
    sys.exit(code)


if __name__ == "__main__":
    main()
