#!/usr/bin/env python3
"""Self-test of the pipeline benchmark.

    python3 perfbench/tests/selftest.py

Run from the repository root.  Builds perfbench (as run.py does), then:
  1. runs `perfbench --self-test`, which feeds the correctness gate a
     perturbed outcome, a wrong count, a drifted loss trajectory and a
     non-finite metric, and fails unless the gate rejects every one;
  2. checks that the binary's metric catalogue matches BENCHMARK.json
     (names, units, directions, same order);
  3. runs a short datagen workload with --trace 0 and --trace 1 and checks
     that the emitted result line carries exactly the BENCHMARK.json metric
     names with their units;
  4. checks that a bad argument makes the benchmark exit non-zero without
     printing a result.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))
import run  # noqa: E402  (perfbench/run.py)


def fail(msg):
    sys.exit(f"selftest: FAIL: {msg}")


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no output")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    binary = run.build()

    gate = subprocess.run([binary, "--self-test"], capture_output=True,
                          text=True)
    print(gate.stdout, end="")
    if gate.returncode != 0:
        fail("correctness gate self-test")

    catalogue = json.loads(subprocess.run(
        [binary, "--list-metrics"], capture_output=True, text=True,
        check=True).stdout)
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        got = [(m["name"], m["unit"], m["better"]) for m in catalogue[key]]
        if got != want:
            fail(f"{key} catalogue differs from BENCHMARK.json:\n"
                 f"  binary: {got}\n  json:   {want}")
    print("selftest: metric catalogue matches BENCHMARK.json")

    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "datagen",
             "--seed", "3", "--seconds", "1", "--trace", trace],
            capture_output=True, text=True)
        if proc.returncode != 0:
            fail(f"datagen --trace {trace} exited {proc.returncode}:\n"
                 f"{proc.stdout}{proc.stderr}")
        res = result_line(proc.stdout)
        if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
            fail(f"result keys {sorted(res)}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != want:
            fail(f"--trace {trace} metrics {got} != BENCHMARK.json {want}")
        if not res["correct"] or res["attempted"] < 1:
            fail(f"--trace {trace} result {res}")
        print(f"selftest: datagen --trace {trace} emits the BENCHMARK.json "
              f"{key} metrics")

    bad = subprocess.run([binary, "--workload", "nope", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True)
    if bad.returncode == 0 or bad.stdout.strip().endswith("}"):
        fail("an unknown workload must exit non-zero without a result")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
