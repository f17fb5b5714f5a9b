"""Scenario-driven command-line front end.

A run is described by a strict JSON config (unknown keys rejected, units at
the boundary: mT, MHz, um, degrees) and emits CSV/JSON data files plus a
manifest.  Reruns with the same config and seed produce byte-identical data
files; timestamps live only in the manifest.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, fitkit, geometry, odmrsim, reconstruct, sensitivity, spinmodel
from .errors import ConfigError, NvOrientError

MODES = ("simulate", "fit", "reconstruct-planar", "reconstruct-3d",
         "table1", "fieldmap", "sensitivity")

TABLE1_POSITIONS = [
    (47.7, 16.5), (47.0, 18.5), (46.3, 20.0), (45.5, 22.0), (44.0, 25.0),
    (43.0, 26.6), (38.6, 32.5), (36.9, 34.5), (38.5, 26.7),
]

EXIT_OK, EXIT_CONFIG, EXIT_PIPELINE = 0, 2, 3

# size bounds that keep a config from asking for unbounded memory
MAX_GRID_POINTS = 20_000  # frequency grid, and fieldmap rows
MAX_PSI_COUNT = 360


def _check_keys(obj: dict, ctx: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected an object")
    unknown = set(obj) - required - set(optional)
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{ctx}: missing keys {sorted(missing)}")


def _number(obj, ctx):
    # json.loads accepts NaN and Infinity, and overflows 1e400 to inf
    if not isinstance(obj, (int, float)) or isinstance(obj, bool) or not math.isfinite(obj):
        raise ConfigError(f"{ctx}: expected a finite number")
    return float(obj)


def _positive(obj, ctx):
    value = _number(obj, ctx)
    if not value > 0:
        raise ConfigError(f"{ctx}: expected a positive number")
    return value


def _grid_points(lo: float, hi: float, step: float, ctx: str) -> int:
    """Number of points of the grid lo, lo + step, ..., hi; bounded by MAX_GRID_POINTS."""
    if not (hi - lo) / step < MAX_GRID_POINTS:
        raise ConfigError(f"{ctx}: more than {MAX_GRID_POINTS} grid points")
    return int(round((hi - lo) / step)) + 1


def _integer(obj, ctx, lo: int, hi: int | None = None) -> int:
    if (not isinstance(obj, int) or isinstance(obj, bool) or obj < lo
            or (hi is not None and obj > hi)):
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ConfigError(f"{ctx}: expected an integer {bounds}")
    return obj


def _parse_constants(cfg: dict) -> spinmodel.SpinConstants:
    block = cfg.get("constants", {})
    _check_keys(block, "constants", set(), {"d_mhz", "gamma_e"})
    try:
        return spinmodel.SpinConstants(
            d_mhz=_number(block.get("d_mhz", 2870.0), "constants.d_mhz"),
            gamma_e=_number(block.get("gamma_e", 28.02495), "constants.gamma_e"),
        )
    except ValueError as exc:
        raise ConfigError(f"constants: {exc}") from exc


def _parse_lineshape(cfg: dict) -> odmrsim.LineshapeParams:
    block = cfg.get("lineshape", {})
    _check_keys(block, "lineshape", set(),
                {"fwhm_mhz", "contrast_ref", "omega_ref_mhz", "model"})
    try:
        return odmrsim.LineshapeParams(
            fwhm_mhz=_number(block.get("fwhm_mhz", 8.0), "lineshape.fwhm_mhz"),
            contrast_ref=_number(block.get("contrast_ref", 0.02), "lineshape.contrast_ref"),
            omega_ref_mhz=_number(block.get("omega_ref_mhz", 1.0), "lineshape.omega_ref_mhz"),
            model=block.get("model", "linear"),
        )
    except ValueError as exc:
        raise ConfigError(f"lineshape: {exc}") from exc


def _parse_grid(cfg: dict) -> np.ndarray:
    block = cfg.get("frequency_grid_mhz", {})
    _check_keys(block, "frequency_grid_mhz", set(), {"start", "stop", "step"})
    start = _number(block.get("start", 2850.0), "frequency_grid_mhz.start")
    stop = _number(block.get("stop", 2950.0), "frequency_grid_mhz.stop")
    step = _number(block.get("step", 0.5), "frequency_grid_mhz.step")
    if not step > 0 or not stop > start:
        raise ConfigError("frequency_grid_mhz: need stop > start and step > 0")
    _grid_points(start, stop, step, "frequency_grid_mhz")
    return odmrsim.default_grid(start, stop, step)


def _parse_noise(cfg: dict, seed_override: int | None) -> reconstruct.NoiseConfig | None:
    block = cfg.get("noise")
    if block is None:
        return None
    _check_keys(block, "noise", {"rate_kcps", "dwell_s"}, {"seed"})
    seed = seed_override if seed_override is not None else block.get("seed")
    if seed is None:
        raise ConfigError("noise: seed required (config key or --seed)")
    return reconstruct.NoiseConfig(
        rate_kcps=_positive(block["rate_kcps"], "noise.rate_kcps"),
        dwell_s=_positive(block["dwell_s"], "noise.dwell_s"),
        seed=_integer(seed, "noise.seed", 0),
    )


def _parse_wire(cfg: dict) -> tuple[list[tuple[float, float]], float, float]:
    block = cfg.get("wire")
    if block is None:
        raise ConfigError("wire: block required for this mode")
    _check_keys(block, "wire", {"current_ma"}, {"positions_um", "diameter_um"})
    current = _number(block["current_ma"], "wire.current_ma")
    diameter = _number(block.get("diameter_um", 25.0), "wire.diameter_um")
    if diameter < 0:
        raise ConfigError("wire.diameter_um: expected a number >= 0")
    positions = block.get("positions_um", TABLE1_POSITIONS)
    if (not isinstance(positions, list) or not positions
            or any(not isinstance(p, (list, tuple)) or len(p) != 2 for p in positions)):
        raise ConfigError("wire.positions_um: expected a nonempty list of [x, z] pairs")
    return ([(_number(x, "wire.positions_um"), _number(z, "wire.positions_um"))
             for x, z in positions], current, diameter)


def _chain_config(cfg: dict, seed_override: int | None) -> reconstruct.ChainConfig:
    psi_count = _integer(cfg.get("psi_count", 12), "psi_count", 4, MAX_PSI_COUNT)
    shape, grid = _parse_lineshape(cfg), _parse_grid(cfg)
    # the pinned dip fits search the linewidth inside this bracket only
    lo, hi = fitkit.fwhm_bracket(grid)
    if not lo < shape.fwhm_mhz < hi:
        raise ConfigError(
            f"lineshape.fwhm_mhz: must lie strictly inside (grid step, half the grid span) "
            f"= ({lo:g}, {hi:g}) MHz")
    return reconstruct.ChainConfig(
        constants=_parse_constants(cfg),
        b_static_mt=_positive(cfg.get("static_field_mt", 10.2), "static_field_mt"),
        shape=shape,
        grid=grid,
        psis=np.linspace(0.0, math.pi, psi_count, endpoint=False),
        noise=_parse_noise(cfg, seed_override),
    )


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.10g}" if isinstance(v, float) else v for v in row])


def _write_report(out_dir: Path, stem: str, header: list[str], rows, fmt: str) -> str:
    if fmt == "json":
        name = f"{stem}.json"
        payload = [dict(zip(header, row)) for row in rows]
        (out_dir / name).write_text(json.dumps(payload, indent=2) + "\n")
    else:
        name = f"{stem}.csv"
        _write_csv(out_dir / name, header, rows)
    return name


# ---------------------------------------------------------------------------
# Mode runners: each returns the list of output file names it wrote
# ---------------------------------------------------------------------------

# the shared blocks, accepted only by the modes that simulate spectra
_COMMON_KEYS = {"mode", "constants", "lineshape", "frequency_grid_mhz", "noise"}


def _run_simulate(cfg, out_dir, seed, fmt):
    _check_keys(cfg, "config", {"mode", "static", "mw"},
                _COMMON_KEYS)
    st = cfg["static"]
    _check_keys(st, "static", {"b_mt", "theta_deg"}, {"phi_deg"})
    mw = cfg["mw"]
    _check_keys(mw, "mw", {"amplitude_mt", "zeta_deg"}, {"transverse_azimuth_deg"})
    try:
        static = spinmodel.StaticFieldNV(
            b_mt=_number(st["b_mt"], "static.b_mt"),
            theta=math.radians(_number(st["theta_deg"], "static.theta_deg")),
            phi=math.radians(_number(st.get("phi_deg", 0.0), "static.phi_deg")) % (2 * math.pi),
        )
        mwf = spinmodel.MwFieldNV(
            amplitude_mt=_number(mw["amplitude_mt"], "mw.amplitude_mt"),
            zeta=math.radians(_number(mw["zeta_deg"], "mw.zeta_deg")),
            transverse_azimuth=math.radians(
                _number(mw.get("transverse_azimuth_deg", 0.0), "mw.transverse_azimuth_deg")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    shape = _parse_lineshape(cfg)
    spec = odmrsim.simulate_spectrum(_parse_constants(cfg), static, mwf, shape, _parse_grid(cfg))
    noise = _parse_noise(cfg, seed)
    if noise is not None:
        spec = odmrsim.add_shot_noise(spec, noise.rate_kcps, noise.dwell_s, noise.seed)
    outputs = []
    if fmt == "json":
        (out_dir / "spectrum.json").write_text(
            json.dumps(odmrsim.spectrum_to_json_dict(spec, shape), indent=2) + "\n")
        outputs.append("spectrum.json")
    else:
        odmrsim.spectrum_to_csv(spec, out_dir / "spectrum.csv")
        outputs.append("spectrum.csv")
    return outputs


def _run_fit(cfg, out_dir, seed, fmt):
    _check_keys(cfg, "config", {"mode", "spectrum_csv", "init_centers_mhz"})
    centers = cfg["init_centers_mhz"]
    if not isinstance(centers, list) or not centers:
        raise ConfigError("init_centers_mhz: expected a nonempty list")
    if not isinstance(cfg["spectrum_csv"], str):
        raise ConfigError("spectrum_csv: expected a path string")
    path = Path(cfg["spectrum_csv"])
    if not path.is_file():
        raise ConfigError(f"spectrum_csv: {path} is not a file")
    spec = odmrsim.spectrum_from_csv(path)
    dips = fitkit.fit_dips(spec, [_number(c, "init_centers_mhz") for c in centers])
    payload = [
        {"center_mhz": d.center_mhz, "fwhm_mhz": d.fwhm_mhz,
         "depth": d.depth, "depth_sigma": d.depth_sigma}
        for d in dips
    ]
    (out_dir / "dips.json").write_text(json.dumps(payload, indent=2) + "\n")
    return ["dips.json"]


def _planar_rows(cfg, seed, nv_index, positions, current, diameter):
    chain = _chain_config(cfg, seed)
    noise = chain.noise
    rows = []
    for j, (x, z) in enumerate(positions):
        if noise is not None:
            # position j draws from its own stream, seeded by a word of
            # SeedSequence(seed, spawn_key=(j,)), so no two positions share noise
            words = np.random.SeedSequence(noise.seed, spawn_key=(j,)).generate_state(1, np.uint64)
            chain = replace(chain, noise=replace(noise, seed=int(words[0])))
        res = reconstruct.end_to_end_planar(geometry.WireScene(x, z, current, diameter),
                                            nv_index, chain)
        # to 1e-9 deg: a noiseless error is float rounding (up to ~2e-13 deg),
        # and printing it would tie data files to the order of the arithmetic
        rows.append((x, z, res.alpha_est_deg, res.alpha_partner_deg,
                     res.alpha_theory_deg, round(res.error_deg, 9)))
    return rows


def _run_reconstruct_planar(cfg, out_dir, seed, fmt):
    _check_keys(cfg, "config", {"mode", "wire", "nv_index"},
                _COMMON_KEYS | {"static_field_mt", "psi_count"})
    positions, current, diameter = _parse_wire(cfg)
    nv_index = _integer(cfg["nv_index"], "nv_index", 0, 3)
    rows = _planar_rows(cfg, seed, nv_index, positions, current, diameter)
    name = _write_report(out_dir, "planar",
                         ["x_um", "z_um", "alpha_est_deg", "alpha_partner_deg",
                          "alpha_theory_deg", "error_deg"], rows, fmt)
    return [name]


def _run_table1(cfg, out_dir, seed, fmt):
    _check_keys(cfg, "config", {"mode", "wire"},
                _COMMON_KEYS | {"static_field_mt", "psi_count", "nv_index"})
    positions, current, diameter = _parse_wire(cfg)
    nv_index = _integer(cfg.get("nv_index", reconstruct.NV1_AXIS_INDEX), "nv_index", 0, 3)
    rows = _planar_rows(cfg, seed, nv_index, positions, current, diameter)
    table = [(x, z, est, theory, err) for x, z, est, _, theory, err in rows]
    name = _write_report(out_dir, "table1",
                         ["x_um", "z_um", "alpha_est_deg", "alpha_theory_deg", "error_deg"],
                         table, fmt)
    return [name]


def _run_reconstruct_3d(cfg, out_dir, seed, fmt):
    # measured axes replace the simulated chain, so its keys are not read
    measured = cfg.get("measured_y_axes")
    chain_keys = set() if measured is not None else _COMMON_KEYS | {"static_field_mt", "psi_count"}
    _check_keys(cfg, "config", {"mode", "wire", "nv_indices"}, {"measured_y_axes"} | chain_keys)
    positions, current, diameter = _parse_wire(cfg)
    if len(positions) != 1:
        raise ConfigError("reconstruct-3d: exactly one wire position expected")
    indices = cfg["nv_indices"]
    if not isinstance(indices, list) or len(indices) != 2:
        raise ConfigError("nv_indices: expected two integers in 0..3")
    indices = [_integer(i, "nv_indices", 0, 3) for i in indices]
    x, z = positions[0]
    scene = geometry.WireScene(x, z, current, diameter)
    truth = geometry.mw_direction(scene)
    if measured is not None:
        if (not isinstance(measured, list) or len(measured) != 2
                or any(not isinstance(v, list) or len(v) != 3 for v in measured)):
            raise ConfigError("measured_y_axes: expected two 3-vectors")
        try:
            y1, y2 = (reconstruct.NvYEstimate(geometry.unit(np.array(
                [_number(c, "measured_y_axes") for c in v])), 0.0) for v in measured)
        except ValueError as exc:
            raise ConfigError(f"measured_y_axes: {exc}") from exc
        est = reconstruct.mw_axis_from_two(y1, y2, truth_axis=truth)
    else:
        est = reconstruct.end_to_end_3d(scene, (indices[0], indices[1]),
                                        _chain_config(cfg, seed))
    # rounded like planar error_deg: past these digits the file would record
    # float rounding, which depends on the order of the arithmetic; + 0.0
    # writes a component rounded to -0.0 as 0.0, since its sign is rounding too
    payload = {
        "axis": [round(float(c), 12) + 0.0 for c in est.axis],
        "sign_ambiguous": est.sign_ambiguous,
        "angular_error_deg": round(est.angular_error_deg, 9),
        "truth_axis": [round(float(c), 12) + 0.0 for c in truth],
    }
    (out_dir / "reconstruct3d.json").write_text(json.dumps(payload, indent=2) + "\n")
    return ["reconstruct3d.json"]


def _run_fieldmap(cfg, out_dir, seed, fmt):
    _check_keys(cfg, "config", {"mode", "grid_um"})
    block = cfg["grid_um"]
    _check_keys(block, "grid_um", {"x", "z"})
    axes = []
    for key in ("x", "z"):
        spec = block[key]
        if not isinstance(spec, list) or len(spec) != 3:
            raise ConfigError(f"grid_um.{key}: expected [min, max, step]")
        lo, hi, step = (_number(v, f"grid_um.{key}") for v in spec)
        if not step > 0 or not hi >= lo:
            raise ConfigError(f"grid_um.{key}: need max >= min and step > 0")
        n = _grid_points(lo, hi, step, f"grid_um.{key}")
        axes.append([lo + k * step for k in range(n)])
    if len(axes[0]) * len(axes[1]) > MAX_GRID_POINTS:
        raise ConfigError(f"grid_um: more than {MAX_GRID_POINTS} grid points")
    rows = []
    for x in axes[0]:
        for z in axes[1]:
            if x == 0.0 and z == 0.0:
                continue
            m = geometry.wire_tangent(x, z)
            rows.append((x, z, float(m[0]), float(m[2])))
    if not rows:
        raise ConfigError("grid_um: no grid point away from the wire center")
    name = _write_report(out_dir, "fieldmap", ["x_um", "z_um", "mx", "mz"], rows, fmt)
    return [name]


def _run_sensitivity(cfg, out_dir, seed, fmt):
    _check_keys(cfg, "config", {"mode", "phi_deg"},
                {"mode", "sigma_rel", "rate_kcps", "contrast", "time_s", "n", "t"})
    phi = math.radians(_number(cfg["phi_deg"], "phi_deg"))
    n = _integer(cfg.get("n", 1), "n", 1)
    t = _number(cfg.get("t", 1.0), "t")
    try:
        if "sigma_rel" in cfg:
            sigma_rel = _number(cfg["sigma_rel"], "sigma_rel")
        elif all(k in cfg for k in ("rate_kcps", "contrast", "time_s")):
            sigma_rel = sensitivity.shot_noise_sigma_rel(
                _number(cfg["rate_kcps"], "rate_kcps"),
                _number(cfg["contrast"], "contrast"),
                _number(cfg["time_s"], "time_s"))
        else:
            raise ConfigError("sensitivity: need sigma_rel or rate_kcps+contrast+time_s")
        inp = sensitivity.SensitivityInput(phi=phi, sigma_rel=sigma_rel, n=n, t=t)
        row = (math.degrees(phi), sigma_rel, sensitivity.eta(inp),
               sensitivity.eta_max(sigma_rel, n=n, t=t))
    except (ValueError, ArithmeticError) as exc:
        # ArithmeticError: n * t beyond float range, or a sigma_rel that divides by 0
        raise ConfigError(f"sensitivity: {exc}") from exc
    if not all(math.isfinite(v) for v in row):
        raise ConfigError("sensitivity: inputs overflow the figures of merit")
    name = _write_report(out_dir, "sensitivity",
                         ["phi_deg", "sigma_rel", "eta_rad_per_sqrt_hz",
                          "eta_max_rad_per_sqrt_hz"], [row], fmt)
    return [name]


_RUNNERS = {
    "simulate": _run_simulate,
    "fit": _run_fit,
    "reconstruct-planar": _run_reconstruct_planar,
    "reconstruct-3d": _run_reconstruct_3d,
    "table1": _run_table1,
    "fieldmap": _run_fieldmap,
    "sensitivity": _run_sensitivity,
}


def run(mode: str, config_path, out_dir, seed: int | None = None,
        fmt: str = "csv") -> int:
    """Execute one scenario; returns the process exit code."""
    out_dir = Path(out_dir)
    started = datetime.now(timezone.utc).isoformat()
    try:
        raw = Path(config_path).read_text()
        try:
            cfg = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config: expected a JSON object")
        if cfg.get("mode") != mode:
            raise ConfigError(f"config mode {cfg.get('mode')!r} does not match subcommand {mode!r}")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {fmt!r}")
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = _RUNNERS[mode](cfg, out_dir, seed, fmt)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NvOrientError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    manifest = {
        "tool_version": __version__,
        "mode": mode,
        "config_sha256": hashlib.sha256(raw.encode()).hexdigest(),
        "seed": seed if seed is not None else cfg.get("noise", {}).get("seed"),
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvorient",
        description="Simulate CW-ODMR of NV centers and reconstruct microwave "
                    "field orientation.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", required=True, help="scenario JSON file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config noise seed")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args.mode, args.config, args.out, seed=args.seed, fmt=args.format)


if __name__ == "__main__":
    sys.exit(main())
