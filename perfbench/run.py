#!/usr/bin/env python3
"""Build and run the parlis benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (which pulls in the library from ../src through the
repository's CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, rebuilding whenever the sources' digest changes, then
runs one workload. The last line of stdout is the run's JSON result; build
output goes to stderr. Results and traces land in the same build root.

--self-test runs the benchmark's statistics tests and checks that the
metrics the binary reports are exactly the ones BENCHMARK.json declares.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over every file the build reads: the library, the root build
    file and this package's build file and sources."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", BENCH_DIR / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR / "src", BENCH_DIR / "tests"):
        files += [p for p in top.rglob("*") if p.is_file()]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def build(build_dir, digest):
    stamp = build_dir / "source.digest"
    binaries = [build_dir / "perfbench", build_dir / "perfbench_stats_test"]
    if all(b.exists() for b in binaries) and stamp.exists() and stamp.read_text() == digest:
        return
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench",
         "perfbench_stats_test"],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {r.returncode}")
    stamp.write_text(digest)


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def run(cmd, timeout):
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"{Path(cmd[0]).name} timed out after {timeout} s", 3)


def self_test(build_dir):
    ok = run([str(build_dir / "perfbench_stats_test")], RUN_TIMEOUT_S) == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    r = subprocess.run([str(build_dir / "perfbench"), "--list-metrics"],
                       capture_output=True, text=True, timeout=60)
    reported = {"end_to_end": [], "per_layer": []}
    for line in r.stdout.splitlines():
        kind, name, unit = line.split()
        reported[kind].append((name, unit))
    for kind in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in declared[kind]]
        if want != reported[kind]:
            print(f"FAIL: {kind} metrics differ: BENCHMARK.json {want} vs binary "
                  f"{reported[kind]}")
            ok = False
    print("metric sets match BENCHMARK.json" if ok else "self-test failed")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no parlis source tree next to {BENCH_DIR.name}/ (need CMakeLists.txt and src/)")
    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = out_dir / "perfbench"
    digest = source_digest()
    build(build_dir, digest)
    if args.self_test:
        return self_test(build_dir)

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", str(out_dir),
           "--git-sha", git_sha(), "--src-digest", digest]
    sys.stdout.flush()
    return run(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
