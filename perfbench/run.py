#!/usr/bin/env python3
"""Benchmark of the nvorient simulate -> fit -> invert chain.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads, metrics and the reasons for them are in BENCHMARK.json and
perfbench/design.json.  One process and one thread drive a closed loop with
a single caller: each result starts when the previous one has finished and
been checked.  The run lasts `--seconds`, and at least until the workload's
accuracy results are done, so that accuracy figures depend on the seed alone.

Times are host-normalized.  Between results, outside the timed region, the
loop times a fixed reference computation that does not use nvorient (see
`reference_probe`).  Each time is divided by the probe's time around it
over PROBE_NOMINAL_S, so it reads as on a host where the probe takes 1 ms.  On a shared host whose speed drifts by tens of percent within
minutes, this keeps a change in the program apart from a change in the
host.  The run pins itself, and so its children, to one CPU, so that the
probes time the CPU the results ran on.  Raw times are kept in result.json.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics, taken
from traced results interleaved in blocks with untraced ones.  The full
record, with the environment, goes to `.bench_out/<workload>-seed<N>-trace<T>/`.
Exits 1, after naming the failed checks, if any result is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import LIBRARY_ERRORS, MAX_RESULTS, SRC_DIR, WORKLOADS  # noqa: E402

SETUP_PROBES = 7
PROBE_NOMINAL_S = 1e-3
# keyed by Workload.in_process
BLOCK = {True: 10, False: 1}              # results per traced/untraced block
WINDOW = {True: 20, False: 3}             # results per throughput window
PROBES_PER_RESULT = {True: 1, False: 10}  # reference probes after each result


def reference_probe():
    """Fixed work of the program's kind: small numpy arrays, 3x3 solves and
    Python arithmetic.  Takes about 1 ms on a 2-core Xeon VM when the host
    is quiet."""
    f = np.linspace(2850.0, 2950.0, 201)
    acc = 0.0
    for k in range(58):
        c = 2870.0 + k
        lor = 16.0 / ((f - c) ** 2 + 16.0)
        acc += float(lor @ lor)
        m = np.array([[c, 1.0, 0.0], [1.0, 0.5 * c, 1.0], [0.0, 1.0, c]])
        acc += float(np.linalg.solve(m, np.ones(3))[0])
        acc += math.fsum(math.sin(0.01 * x) for x in range(16))
    return acc


def host_slowness(n):
    """Median time of `n` reference probes over PROBE_NOMINAL_S."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_probe()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / PROBE_NOMINAL_S


def _read_first(path, key):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed, cpus):
    """Machine, versions and source identity recorded with every result;
    `cpus` is the set of CPUs the run was allowed before pinning itself."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(path.relative_to(SRC_DIR).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10, check=False)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "cpu_count": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "cpu_cache": _read_first("/proc/cpuinfo", "cache size"),
        "caches": caches,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure_setup(name, seed, workdir):
    """Raw and host-normalized wall times of fresh set-up probes.

    Exits the run if a probe fails, for example when nvorient is missing.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    raw, normalized = [], []
    for k in range(SETUP_PROBES):
        before = host_slowness(10)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), name,
                               str(seed), str(workdir / f"setup{k}")],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              check=False)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            sys.exit(f"set-up probe failed with exit code {proc.returncode}")
        raw.append(elapsed)
        normalized.append(elapsed / statistics.median([before, host_slowness(10)]))
    return raw, normalized


def normalize(latencies, slowness):
    """Host-normalized latencies.

    `slowness[i]` was measured just before result i and `slowness[i + 1]`
    just after it; each result is divided by the mean of the two.  The host
    switches speed within a second, so a longer window fits it worse.
    """
    slow = np.asarray(slowness)
    return np.asarray(latencies) / (0.5 * (slow[:-1] + slow[1:]))


def timing_metrics(latencies, window):
    """Throughput and latency percentiles of one set of latencies (seconds).

    Throughput is the median over consecutive windows of `window` results
    of results per second of summed latency.
    """
    lat = np.asarray(latencies)
    rates = [window / float(lat[k:k + window].sum())
             for k in range(0, lat.size - window + 1, window)]
    p90 = float(np.percentile(lat, 90))
    return {
        "results_per_s": statistics.median(rates) if rates else lat.size / float(lat.sum()),
        "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "latency_samples": int(lat.size),
        "latency_samples_beyond_p90": int(np.sum(lat > p90)),
    }


class Run:
    """One measured run: the closed loop and what it observed."""

    def __init__(self, workload, seconds, trace):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracing.Tracer() if trace else None
        self.in_process = workload.in_process
        self.latencies, self.traced = [], []
        self.slowness = []  # one sample before the first result and one after each
        self.acc_outs, self.traced_outs, self.traced_ids = [], [], []
        self.failures = []
        self.n_failed = 0
        self.attempted = 0

    def loop(self):
        wl, tracer = self.workload, self.tracer
        block, n_probe = BLOCK[self.in_process], PROBES_PER_RESULT[self.in_process]
        installed = False
        self.slowness.append(host_slowness(n_probe))
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i < MAX_RESULTS and (i < wl.accuracy_results or time.perf_counter() < deadline):
            traced = tracer is not None and (i // block) % 2 == 1
            if self.in_process and traced != installed:
                tracer.install() if traced else tracer.uninstall()
                installed = traced
            if traced:
                tracer.result_id = i
            t0 = time.perf_counter()
            try:
                out = wl.run(i, tracer if traced else None)
            except LIBRARY_ERRORS as exc:
                self.latencies.append(time.perf_counter() - t0)
                out, bad = None, [f"result {i}: {type(exc).__name__}: {exc}"]
            else:
                self.latencies.append(time.perf_counter() - t0)
                bad = wl.check(i, out)
            self.traced.append(traced)
            self.slowness.append(host_slowness(n_probe))
            if bad:
                self.n_failed += 1
                self.failures.extend(bad)
            if i < wl.accuracy_results and out is not None:
                self.acc_outs.append(out)
            if traced:
                self.traced_outs.append(out)
                self.traced_ids.append(i)
            i += 1
        if installed:
            tracer.uninstall()
        self.attempted = i

    def per_layer(self):
        """Per-result layer metrics; times are normalized by the run's median
        probe slowness."""
        wl, tracer = self.workload, self.tracer
        counted = ({r for r in self.traced_ids if r < wl.accuracy_results}
                   if self.in_process else None)
        metrics = tracing.layer_metrics(tracer.spans, len(self.traced_ids), counted)
        metrics.update(wl.layer_extras([o for o in self.traced_outs if o is not None]))
        slow = statistics.median(self.slowness)
        for name in metrics:
            if name.endswith("_s"):
                metrics[name] /= slow
        if hasattr(wl, "calib_dev"):
            metrics["fitkit.sigma_calib_dev"] = wl.calib_dev(self.acc_outs)
        metrics.setdefault("fitkit.sigma_calib_dev", 0.0)
        metrics.setdefault("cli.process_start_s", 0.0)
        metrics.setdefault("cli.bytes_written", 0.0)
        rate = {t: len(v) / sum(v) for t, v in self.split(self.normalized()).items()}
        metrics["trace_overhead_frac"] = (rate[True] - rate[False]) / rate[False]
        return metrics

    def normalized(self):
        return normalize(self.latencies, self.slowness)

    def split(self, values):
        """Values of untraced (False) and traced (True) results."""
        out = {False: [], True: []}
        for v, t in zip(values, self.traced):
            out[t].append(v)
        return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # one CPU for the loop, its probes and every child process, so that the
    # probes time the CPU the results ran on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    setup_raw, setup_norm = measure_setup(args.workload, args.seed, out_dir)
    workload = WORKLOADS[args.workload](args.seed, out_dir / "run")
    warm_failures = workload.check(-1, workload.run(-1))
    if warm_failures:
        sys.exit("warm-up result failed: " + "; ".join(warm_failures))

    run = Run(workload, args.seconds, args.trace)
    run.loop()

    window = WINDOW[workload.in_process]
    end_to_end = timing_metrics(run.split(run.normalized())[False], window)
    end_to_end.update({f"raw_{k}": v for k, v in
                       timing_metrics(run.split(run.latencies)[False], window).items()
                       if k.startswith(("results", "latency_p"))})
    end_to_end["host_slowness_median"] = statistics.median(run.slowness)
    end_to_end["setup_s"] = statistics.median(setup_norm)
    end_to_end["raw_setup_s"] = statistics.median(setup_raw)
    if run.acc_outs:
        accuracy, run_failures = workload.accuracy(run.acc_outs)
        end_to_end.update(accuracy)
        run.failures.extend(run_failures)
    end_to_end["error_rate"] = run.n_failed / run.attempted

    per_layer = None
    if run.tracer is not None:
        per_layer = run.per_layer()
        run.tracer.dump(out_dir / "spans.jsonl")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, cpus),
        "attempted": run.attempted,
        "failed": run.n_failed,
        "failures": run.failures,
        "accuracy_results": len(run.acc_outs),
        "traced_results": len(run.traced_ids),
        "setup_s_raw_probes": setup_raw,
        "latencies_s": run.latencies,
        "traced_flags": run.traced,
        "host_slowness": run.slowness,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "absent_layers": run.tracer.absent if run.tracer else [],
        "missing_functions": run.tracer.missing_functions if run.tracer else [],
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"results {run.attempted} ({run.n_failed} failed); untraced latency samples "
          f"{end_to_end['latency_samples']} ({end_to_end['latency_samples_beyond_p90']} "
          f"beyond p90); accuracy over the first {len(run.acc_outs)}; seed {args.seed}")
    print(f"host slowness {end_to_end['host_slowness_median']:.3f} (probe ms); raw "
          f"results_per_s {end_to_end['raw_results_per_s']:.4g}, latency_p50_ms "
          f"{end_to_end['raw_latency_p50_ms']:.4g}, latency_p90_ms "
          f"{end_to_end['raw_latency_p90_ms']:.4g}, setup_s {end_to_end['raw_setup_s']:.4g}")
    for layer in record["absent_layers"]:
        print(f"layer absent: {layer}")
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": run.n_failed, "metrics": metrics}))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
