#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all by default) it makes one short untraced run and two
short traced runs with the same seed, and checks that

- every run exits 0 and ends with a well-formed, correct result line;
- the untraced run prints every end-to-end metric, and the traced runs every
  per-layer metric, by name and with the unit BENCHMARK.json gives;
- the two traced runs agree exactly on the accuracy metrics and on every
  per-layer count.

It also checks that the benchmark fails, without a result line, in a copy
that holds only BENCHMARK.json and the benchmark's own directory.  It takes
a few minutes, because each run still completes its accuracy results.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
ACCURACY = ("alpha_err_mean_deg", "axis_err_mean_deg", "alpha_within5_frac",
            "alpha_err_median_deg", "alpha_err_p90_deg", "alpha_err_max_deg")
COUNTS = ("spinmodel.eigensystem.calls", "odmrsim.spectrum_points", "odmrsim.shot_noise.calls",
          "fitkit.fit_dips.calls", "fitkit.fit_cos2.calls", "fitkit.nls_fit.calls",
          "fitkit.lm_iterations", "fitkit.lm_converged_frac", "fitkit.residual_evals",
          "fitkit.jacobian_evals", "fitkit.sigma_calib_dev", "reconstruct.planar_alpha.calls",
          "cli.bytes_written")


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300,
                          check=False)


def checked_run(workload, trace, problems):
    proc = run(workload, trace)
    tag = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result line has keys {sorted(last)}")
    if last.get("correct") is not True or last.get("attempted", 0) < 1 or last.get("failed"):
        problems.append(f"{tag}: result line reports a failure: {lines[-1][:300]}")
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        got = last["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{tag}: metric {m['name']} missing or malformed: {got}")
        elif not any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                     for line in lines[:-1]):
            problems.append(f"{tag}: metric {m['name']} not printed with its unit")
    result = json.loads((ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}"
                         / "result.json").read_text())
    return last, result


def same_seed_agreement(workload, problems):
    runs = [checked_run(workload, 1, problems) for _ in range(2)]
    if None in runs:
        return
    (a_last, a_rec), (b_last, b_rec) = runs
    for name in ACCURACY:
        if a_rec["end_to_end"][name] != b_rec["end_to_end"][name]:
            problems.append(f"{workload}: {name} differs between same-seed runs: "
                            f"{a_rec['end_to_end'][name]} vs {b_rec['end_to_end'][name]}")
    for name in COUNTS:
        a, b = a_last["metrics"][name]["value"], b_last["metrics"][name]["value"]
        if a != b:
            problems.append(f"{workload}: {name} differs between same-seed runs: {a} vs {b}")


def fails_without_program(problems):
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("benchmark did not fail in a copy without the program")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    workloads = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    problems = []
    fails_without_program(problems)
    for workload in workloads:
        checked_run(workload, 0, problems)
        same_seed_agreement(workload, problems)
        print(f"{workload}: done", flush=True)
    for p in problems:
        print(f"PROBLEM: {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
