#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload datagen|train|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Configures and builds perfbench/ (Release)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, then runs the perfbench binary.  Its last stdout line is the result
JSON; the exit code is non-zero when the build or a correctness check fails.
A full labelled result (host, build, summary, layer table) is also written
to perfbench_results/, and the run's deterministic counts must repeat those
of the previous run of the same source and seed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
THREADS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under ./src; run from the "
                 "repository root")
    out = build_dir()
    quiet = {"stdout": subprocess.DEVNULL}
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", THREADS], check=True, **quiet)
    return os.path.join(out, "perfbench")


def source_digest():
    """Digest of the library and benchmark sources: what a deterministic
    count is keyed by, since a checkout need not be a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["datagen", "train", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    results = os.path.join(ROOT, "perfbench_results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    source = source_digest()
    env = dict(os.environ, OTA_THREADS=THREADS)
    env.pop("OTA_STATS", None)  # the benchmark enables stats itself
    env.pop("OTA_FAULTS", None)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--commit", f"{git_commit()} (sources {source})", "--results", out],
        env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not os.path.exists(out):
        print("\n".join(lines), flush=True)
        return proc.returncode or 1

    mismatches = check_repeats(results, args, source, out)
    result = lines.pop()
    for m in mismatches:
        lines.append(f"CHECK FAILED: {m}")
    if mismatches:
        parsed = json.loads(result)
        parsed["correct"] = False
        result = json.dumps(parsed)
    print("\n".join(lines + [result]), flush=True)
    return 1 if mismatches else 0


def check_repeats(results, args, source, out):
    """Compares this run's deterministic counts with the previous run of the
    same workload, seed and source (traced or not), then records them.
    Returns the names that did not repeat exactly."""
    with open(out) as f:
        current = json.load(f)["deterministic"]
    record = os.path.join(
        results, f"deterministic-{args.workload}-seed{args.seed}.json")
    previous = {}
    if os.path.exists(record):
        with open(record) as f:
            saved = json.load(f)
        if saved.get("source") == source:
            previous = saved["values"]
    mismatches = [f"{k} differs from the previous run of this code and seed: "
                  f"{previous[k]!r} then {v!r}"
                  for k, v in current.items()
                  if k in previous and previous[k] != v]
    if not mismatches:
        with open(record, "w") as f:
            json.dump({"source": source, "values": current}, f, indent=1)
    return mismatches


if __name__ == "__main__":
    sys.exit(main())
