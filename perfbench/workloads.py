"""The benchmark's workloads: inputs made from the seed, one result, checks.

All workloads use the scene of the paper's noise study: sensor at
(61, 18) um from a wire carrying 40 mA, 10.2 mT static field, 12 sweep
angles, the default frequency grid, and 200 kcps x 8 ms shot noise where
noise applies.  The program receives only the generated inputs (scene,
chain config and per-result noise seeds); the seeds derive from the
benchmark's `--seed`.

A workload answers four questions for the runner: how to run result `i`,
whether that result is correct, which accuracy figures its first
`accuracy_results` results give, and which layer figures only it can see.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from nvorient import geometry, reconstruct
from nvorient.errors import NvOrientError

import tracing

X_UM, Z_UM, CURRENT_MA = 61.0, 18.0, 40.0
RATE_KCPS, DWELL_S = 200.0, 0.008
PLANAR_NV = 3
PAIR_NV = (3, 1)
MAX_RESULTS = 20000
# Tolerance of the planar alpha check.  Angle errors below it are also
# reported as it: differences that small are round-off.
ALPHA_MATCH_DEG = 1e-6
ANGLE_FLOOR_DEG = ALPHA_MATCH_DEG

# Errors a result may raise from the library; anything else is a benchmark bug.
LIBRARY_ERRORS = (NvOrientError, ValueError, np.linalg.LinAlgError)

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def _circ_dist(a_deg, b_deg, period=360.0):
    d = abs(a_deg - b_deg) % period
    return min(d, period - d)


def angle_metrics(alpha_errs, axis_errs):
    """Accuracy figures shared by every workload.

    The means are the end-to-end metrics: over a few hundred noisy results
    they scatter between seeds about half as much as the medians do.  The
    rest go to result.json only.
    """
    a = np.maximum(np.asarray(alpha_errs, dtype=float), ANGLE_FLOOR_DEG)
    x = np.maximum(np.asarray(axis_errs, dtype=float), ANGLE_FLOOR_DEG)
    return {
        "alpha_err_mean_deg": float(np.mean(a)),
        "axis_err_mean_deg": float(np.mean(x)),
        "alpha_within5_frac": float(np.mean(a <= 5.0)),
        "alpha_err_median_deg": float(np.median(a)),
        "alpha_err_p90_deg": float(np.percentile(a, 90)),
        "alpha_err_max_deg": float(np.max(a)),
        "axis_err_median_deg": float(np.median(x)),
    }


class _NoiseStudy:
    """One noisy reconstruction per result, each with its own derived seed."""

    in_process = True
    accuracy_results = 0
    stream = 0

    def __init__(self, seed, workdir):
        self.scene = geometry.WireScene(X_UM, Z_UM, CURRENT_MA)
        self.truth = geometry.mw_direction(self.scene)
        self.alpha_truth = math.degrees(math.atan2(self.truth[0], self.truth[2])) % 360.0
        # seeds[0] is the warm-up result's; result i uses seeds[i + 1]
        state = np.random.SeedSequence(entropy=seed, spawn_key=(self.stream,))
        self.seeds = [int(s) for s in state.generate_state(MAX_RESULTS + 1)]

    def chain(self, i):
        noise = reconstruct.NoiseConfig(rate_kcps=RATE_KCPS, dwell_s=DWELL_S,
                                        seed=self.seeds[i + 1])
        return reconstruct.ChainConfig(noise=noise)

    def layer_extras(self, traced_outs):
        return {}


class PlanarNoiseStudy(_NoiseStudy):
    name = "planar_noise_study"
    accuracy_results = 600
    stream = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        nv_z = geometry.crystallographic_axes()[PLANAR_NV]
        self.nv_y_truth = np.cross(nv_z, self.truth)

    def run(self, i, tracer=None):
        return reconstruct.end_to_end_planar(self.scene, PLANAR_NV, self.chain(i))

    def check(self, i, out):
        oracle = reconstruct.closed_form_alpha_check(out.nv_y.axis)
        d = min(_circ_dist(out.alpha_est_deg, oracle),
                _circ_dist(out.alpha_est_deg, oracle + 180.0))
        if not d <= ALPHA_MATCH_DEG:
            return [f"result {i}: alpha {out.alpha_est_deg:.9f} deg differs from the "
                    f"closed form {oracle:.9f} deg by {d:.2e} deg"]
        return []

    def accuracy(self, outs):
        errs = [o.error_deg for o in outs]
        metrics = angle_metrics(errs, errs)
        median, within = metrics["alpha_err_median_deg"], metrics["alpha_within5_frac"]
        if median <= 3.0 and within >= 0.8:
            return metrics, []
        return metrics, [f"criterion 5: median error {median:.3f} deg (<= 3), "
                         f"{within:.3f} within 5 deg (>= 0.8)"]

    def calib_dev(self, outs):
        """|RMS(theta/sigma) - 1| of the NV_Y axis over the accuracy results."""
        ratios = [math.radians(geometry.line_angle_between(o.nv_y.axis, self.nv_y_truth))
                  / o.nv_y.sigma_angle for o in outs]
        return abs(math.sqrt(float(np.mean(np.square(ratios)))) - 1.0)


class Recon3dNoiseStudy(_NoiseStudy):
    name = "recon3d_noise_study"
    accuracy_results = 400
    stream = 2

    def run(self, i, tracer=None):
        return reconstruct.end_to_end_3d(self.scene, PAIR_NV, self.chain(i))

    def check(self, i, out):
        axis = np.asarray(out.axis, dtype=float)
        if axis.shape != (3,) or not np.all(np.isfinite(axis)):
            return [f"result {i}: axis {axis!r} is not a finite 3-vector"]
        if abs(float(np.linalg.norm(axis)) - 1.0) > 1e-9:
            return [f"result {i}: axis norm {np.linalg.norm(axis):.12f} is not 1"]
        return []

    def accuracy(self, outs):
        axis_errs = [geometry.line_angle_between(o.axis, self.truth) for o in outs]
        # the true field lies in the wire's cross-section plane, so the
        # azimuth of the 3-D axis in that plane is the planar angle alpha
        alpha_errs = [_circ_dist(math.degrees(math.atan2(o.axis[0], o.axis[2])),
                                 self.alpha_truth, 180.0) for o in outs]
        return angle_metrics(alpha_errs, axis_errs), []


class CliTable1:
    """`nvorient table1` in a fresh interpreter per result, run serially."""

    name = "cli_table1"
    in_process = False
    accuracy_results = 1
    config = {"mode": "table1", "wire": {"current_ma": CURRENT_MA}}

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "table1_config.json"
        self.config_path.write_text(json.dumps(self.config) + "\n")
        self.out_dir = self.workdir / "cli_out"
        self.out_dir.mkdir(exist_ok=True)
        self.spans_path = self.workdir / "cli_spans.jsonl"
        self.env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        self.reference = None

    def run(self, i, tracer=None):
        for old in self.out_dir.iterdir():
            old.unlink()
        args = ["table1", "--config", str(self.config_path), "--out", str(self.out_dir),
                "--format", "csv"]
        if tracer is None:
            cmd = [sys.executable, "-m", "nvorient.cli", *args]
        else:
            self.spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(self.spans_path), *args]
        t_spawn = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, check=False)
        out = {"returncode": proc.returncode, "stderr": proc.stderr.decode(errors="replace"),
               "bytes_written": sum(p.stat().st_size for p in self.out_dir.iterdir())}
        csv_path = self.out_dir / "table1.csv"
        out["csv"] = csv_path.read_bytes() if csv_path.exists() else None
        if tracer is not None and self.spans_path.exists():
            spans = tracing.load_spans(self.spans_path)
            starts = [s[1] for s in spans if s[0] == "cli.run"]
            if starts:
                out["process_start_s"] = min(starts) - t_spawn
            offset = len(tracer.spans)
            for s in spans:
                tracer.spans.append([s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1,
                                     i, s[5]])
        return out

    def check(self, i, out):
        if out["returncode"] != 0:
            return [f"invocation {i}: exit {out['returncode']}: {out['stderr'].strip()}"]
        if out["csv"] is None:
            return [f"invocation {i}: table1.csv not written"]
        if self.reference is None:
            self.reference = out["csv"]
        elif out["csv"] != self.reference:
            return [f"invocation {i}: table1.csv differs from the first invocation's"]
        worst = max(self._errors(out["csv"]))
        if not worst <= 0.1:
            return [f"invocation {i}: criterion 4: max alpha error {worst:.4f} deg > 0.1"]
        return []

    @staticmethod
    def _errors(csv_bytes):
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
        return [float(r["error_deg"]) for r in rows]

    def accuracy(self, outs):
        errs = self._errors(outs[0]["csv"])
        return angle_metrics(errs, errs), []

    def layer_extras(self, traced_outs):
        starts = [o["process_start_s"] for o in traced_outs if "process_start_s" in o]
        n = len(traced_outs)
        return {
            "cli.process_start_s": statistics.fmean(starts) if starts else 0.0,
            "cli.bytes_written": sum(o["bytes_written"] for o in traced_outs) / n if n else 0.0,
        }


WORKLOADS = {w.name: w for w in (PlanarNoiseStudy, Recon3dNoiseStudy, CliTable1)}
