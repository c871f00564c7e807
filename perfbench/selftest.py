#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size. Run from the
repository root:

    python3 perfbench/selftest.py

For every workload it checks that a measured run prints exactly the
end-to-end metrics of BENCHMARK.json with their units, that a traced run
prints exactly the per-layer metrics, that both pass the correctness
gate, and that a deliberately corrupted golden digest trips the gate
(exit 1, "correct": false). Last, it checks that the benchmark fails
without printing a result when only BENCHMARK.json and the benchmark's
own directory are present.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

CORRUPT_GOLDEN = "0123456789abcdef"


def run(cmd, cwd=None):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    record = None
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, record, proc.stderr


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    base = spec["command"]
    expect = {
        "0": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "1": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    failures = []

    def check(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for w in [w["name"] for w in spec["workloads"]]:
        print(f"== {w}")
        tiny = base + ["--workload", w, "--seed", "1", "--seconds", "1", "--tiny"]
        for trace in ("0", "1"):
            code, record, err = run(tiny + ["--trace", trace])
            check(code == 0 and record and record["correct"] and record["failed"] == 0,
                  f"--trace {trace} passes the gate" + ("" if code == 0 else f": {err[-500:]}"))
            got = [(k, v["unit"]) for k, v in (record or {}).get("metrics", {}).items()]
            check(got == expect[trace], f"--trace {trace} prints every metric with its unit")
        code, record, _ = run(tiny + ["--trace", "0", "--golden", CORRUPT_GOLDEN])
        check(code == 1 and record and not record["correct"] and record["failed"] >= 1,
              "a corrupted golden digest trips the gate")

    print("== benchmark files alone")
    with tempfile.TemporaryDirectory(dir=".", prefix=".perfbench_selftest_") as bare:
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("target", ".bench_build"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        proc = subprocess.run(spec["command"] + ["--workload", "ilp_cold", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, timeout=180, cwd=bare, env=env)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "fails without printing a result")

    print("self-test " + ("passed" if not failures else f"FAILED: {failures}"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
