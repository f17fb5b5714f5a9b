"""Scenario-driven command-line front end.

A run is described by a strict JSON config (unknown keys rejected, units at
the boundary: mT, MHz, um, degrees) and emits CSV/JSON data files plus a
manifest.  Reruns with the same config and seed produce byte-identical data
files; timestamps live only in the manifest.  Every config key is declared
once, in the schema tables below, and read by `_read`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, fitkit, geometry, odmrsim, reconstruct, sensitivity, spinmodel
from .errors import ConfigError, NvOrientError

MODES = ("simulate", "fit", "reconstruct-planar", "reconstruct-3d",
         "table1", "fieldmap", "sensitivity")

TABLE1_POSITIONS = [
    [47.7, 16.5], [47.0, 18.5], [46.3, 20.0], [45.5, 22.0], [44.0, 25.0],
    [43.0, 26.6], [38.6, 32.5], [36.9, 34.5], [38.5, 26.7],
]

EXIT_OK, EXIT_CONFIG, EXIT_PIPELINE = 0, 2, 3

# size bounds that keep a config from asking for unbounded memory
MAX_GRID_POINTS = 20_000  # frequency grid, and fieldmap rows
MAX_PSI_COUNT = 360


# Value parsers: each takes a JSON value and its key path, for messages.

def _as_is(obj, ctx):
    # checked where it is used: the mode by `run`, the model by LineshapeParams
    return obj


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


def _nonnegative(obj, ctx):
    value = _number(obj, ctx)
    if value < 0:
        raise ConfigError(f"{ctx}: expected a number >= 0")
    return value


def _integer(lo: int, hi: int | None = None):
    """Parser of an integer in lo..hi, or >= lo when hi is None."""
    bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"

    def parse(obj, ctx):
        if (not isinstance(obj, int) or isinstance(obj, bool) or obj < lo
                or (hi is not None and obj > hi)):
            raise ConfigError(f"{ctx}: expected an integer {bounds}")
        return obj
    return parse


def _list_of(item, length: int | None = None, what: str = "a nonempty list"):
    """Parser of a nonempty list, of `length` entries when given, of `item` values."""
    def parse(obj, ctx):
        if (not isinstance(obj, list) or not obj
                or (length is not None and len(obj) != length)):
            raise ConfigError(f"{ctx}: expected {what}")
        return [item(v, ctx) for v in obj]
    return parse


def _file(obj, ctx):
    if not isinstance(obj, str):
        raise ConfigError(f"{ctx}: expected a path string")
    path = Path(obj)
    if not path.is_file():
        raise ConfigError(f"{ctx}: {path} is not a file")
    return path


# ---------------------------------------------------------------------------
# Schema: one table per config object, mapping each key to (parser, default).
# A nested object's parser is its own table.  An absent key takes its default
# through the same parser; REQUIRED makes it an error and None leaves it None.
# A present key always goes through its parser, so null is a bad value.
# ---------------------------------------------------------------------------

REQUIRED = object()
_MODE = {"mode": (_as_is, REQUIRED)}
_PAIRS = "a nonempty list of [x, z] pairs"
_VECTORS = "two 3-vectors"
_NV_INDEX = _integer(0, 3)
_RANGE = _list_of(_number, 3, "[min, max, step]")

# the shared blocks, accepted only by the modes that simulate spectra
SHARED = {
    "constants": ({"d_mhz": (_number, 2870.0), "gamma_e": (_number, 28.02495)}, {}),
    "lineshape": ({"fwhm_mhz": (_number, 8.0), "contrast_ref": (_number, 0.02),
                   "omega_ref_mhz": (_number, 1.0), "model": (_as_is, "linear")}, {}),
    "frequency_grid_mhz": ({"start": (_number, 2850.0), "stop": (_number, 2950.0),
                            "step": (_number, 0.5)}, {}),
    "noise": ({"rate_kcps": (_positive, REQUIRED), "dwell_s": (_positive, REQUIRED),
               "seed": (_integer(0), None)}, None),
}
_CHAIN = {
    **_MODE, **SHARED,
    "static_field_mt": (_positive, 10.2),
    "psi_count": (_integer(4, MAX_PSI_COUNT), 12),
    "wire": ({"current_ma": (_number, REQUIRED),
              "positions_um": (_list_of(_list_of(_number, 2, _PAIRS), what=_PAIRS),
                               TABLE1_POSITIONS),
              "diameter_um": (_nonnegative, 25.0)}, REQUIRED),
}
SCHEMAS = {
    "simulate": {
        **_MODE, **SHARED,
        "static": ({"b_mt": (_number, REQUIRED), "theta_deg": (_number, REQUIRED),
                    "phi_deg": (_number, 0.0)}, REQUIRED),
        "mw": ({"amplitude_mt": (_number, REQUIRED), "zeta_deg": (_number, REQUIRED),
                "transverse_azimuth_deg": (_number, 0.0)}, REQUIRED),
    },
    "fit": {**_MODE, "spectrum_csv": (_file, REQUIRED),
            "init_centers_mhz": (_list_of(_number), REQUIRED)},
    "reconstruct-planar": {**_CHAIN, "nv_index": (_NV_INDEX, REQUIRED)},
    "reconstruct-3d": {
        **_CHAIN,
        "nv_indices": (_list_of(_NV_INDEX, 2, "two integers in 0..3"), REQUIRED),
        "measured_y_axes": (_list_of(_list_of(_number, 3, _VECTORS), 2, _VECTORS), None),
    },
    "table1": {**_CHAIN, "nv_index": (_NV_INDEX, reconstruct.NV1_AXIS_INDEX)},
    "fieldmap": {**_MODE, "grid_um": ({"x": (_RANGE, REQUIRED), "z": (_RANGE, REQUIRED)},
                                      REQUIRED)},
    "sensitivity": {
        **_MODE, "phi_deg": (_number, REQUIRED),
        # sigma_rel, or the shot-noise figures it follows from
        "sigma_rel": (_number, None),
        "rate_kcps": (_number, None), "contrast": (_number, None), "time_s": (_number, None),
        "n": (_integer(1), 1), "t": (_number, 1.0),
    },
}
# measured axes replace the simulated chain, so reconstruct-3d then reads only these
_MEASURED_3D_KEYS = ("mode", "wire", "nv_indices", "measured_y_axes")


def _read(obj, table: dict, path: str = "") -> dict:
    """The values of config object `obj`, at key path `path`, read against `table`."""
    ctx = path or "config"
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected an object")
    unknown = set(obj) - set(table)
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")
    missing = {key for key, (_, default) in table.items() if default is REQUIRED} - set(obj)
    if missing:
        raise ConfigError(f"{ctx}: missing keys {sorted(missing)}")
    values = dict.fromkeys(table)  # None for an absent key without a default
    for key, (parse, default) in table.items():
        if key in obj or default is not None:
            value = obj[key] if key in obj else default
            name = f"{path}.{key}" if path else key
            values[key] = _read(value, parse, name) if isinstance(parse, dict) else parse(value, name)
    return values


def _build(cls, ctx: str, values: dict):
    """cls(**values), its range checks reported as config errors."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _grid_points(lo: float, hi: float, step: float, ctx: str) -> int:
    """Number of points of the grid lo, lo + step, ..., hi; bounded by MAX_GRID_POINTS."""
    if not (hi - lo) / step < MAX_GRID_POINTS:
        raise ConfigError(f"{ctx}: more than {MAX_GRID_POINTS} grid points")
    return int(round((hi - lo) / step)) + 1


def _grid(block: dict) -> np.ndarray:
    start, stop, step = block["start"], block["stop"], block["step"]
    if not step > 0 or not stop > start:
        raise ConfigError("frequency_grid_mhz: need stop > start and step > 0")
    _grid_points(start, stop, step, "frequency_grid_mhz")
    return odmrsim.default_grid(start, stop, step)


def _noise(block: dict | None, seed_override: int | None) -> reconstruct.NoiseConfig | None:
    """The read noise block, with `--seed` in place of its seed when given."""
    if block is None:
        return None
    seed = block["seed"] if seed_override is None else seed_override
    if seed is None:
        raise ConfigError("noise: seed required (config key or --seed)")
    return reconstruct.NoiseConfig(block["rate_kcps"], block["dwell_s"],
                                   _integer(0)(seed, "noise.seed"))


def _chain_config(p: dict, noise) -> reconstruct.ChainConfig:
    shape = _build(odmrsim.LineshapeParams, "lineshape", p["lineshape"])
    grid = _grid(p["frequency_grid_mhz"])
    # the pinned dip fits search the linewidth inside this bracket only
    lo, hi = fitkit.fwhm_bracket(grid)
    if not lo < shape.fwhm_mhz < hi:
        raise ConfigError(
            f"lineshape.fwhm_mhz: must lie strictly inside (grid step, half the grid span) "
            f"= ({lo:g}, {hi:g}) MHz")
    return reconstruct.ChainConfig(
        constants=_build(spinmodel.SpinConstants, "constants", p["constants"]),
        b_static_mt=p["static_field_mt"], shape=shape, grid=grid,
        psis=np.linspace(0.0, math.pi, p["psi_count"], endpoint=False), noise=noise)


def _write_report(out_dir: Path, stem: str, header: list[str], rows, fmt: str) -> str:
    name = f"{stem}.{fmt}"
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        (out_dir / name).write_text(json.dumps(payload, indent=2) + "\n")
    else:
        with open(out_dir / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([f"{v:.10g}" if isinstance(v, float) else v for v in row] for row in rows)
    return name


# ---------------------------------------------------------------------------
# Mode runners: each takes the values read by its schema and the noise
# config, and returns the list of output file names it wrote
# ---------------------------------------------------------------------------

def _run_simulate(p, noise, out_dir, fmt):
    st, mw = p["static"], p["mw"]
    try:
        static = spinmodel.StaticFieldNV(st["b_mt"], math.radians(st["theta_deg"]),
                                         math.radians(st["phi_deg"]) % (2 * math.pi))
        mwf = spinmodel.MwFieldNV(mw["amplitude_mt"], math.radians(mw["zeta_deg"]),
                                  math.radians(mw["transverse_azimuth_deg"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    shape = _build(odmrsim.LineshapeParams, "lineshape", p["lineshape"])
    spec = odmrsim.simulate_spectrum(_build(spinmodel.SpinConstants, "constants", p["constants"]),
                                     static, mwf, shape, _grid(p["frequency_grid_mhz"]))
    if noise is not None:
        spec = odmrsim.add_shot_noise(spec, noise.rate_kcps, noise.dwell_s, noise.seed)
    name = f"spectrum.{fmt}"
    if fmt == "json":
        (out_dir / name).write_text(
            json.dumps(odmrsim.spectrum_to_json_dict(spec, shape), indent=2) + "\n")
    else:
        odmrsim.spectrum_to_csv(spec, out_dir / name)
    return [name]


def _run_fit(p, noise, out_dir, fmt):
    spec = odmrsim.spectrum_from_csv(p["spectrum_csv"])
    payload = [asdict(d) for d in fitkit.fit_dips(spec, p["init_centers_mhz"])]
    (out_dir / "dips.json").write_text(json.dumps(payload, indent=2) + "\n")
    return ["dips.json"]


def _planar_rows(p, noise):
    chain, wire = _chain_config(p, noise), p["wire"]
    rows = []
    for j, (x, z) in enumerate(wire["positions_um"]):
        if noise is not None:
            # position j draws from its own stream, seeded by a word of
            # SeedSequence(seed, spawn_key=(j,)), so no two positions share noise
            words = np.random.SeedSequence(noise.seed, spawn_key=(j,)).generate_state(1, np.uint64)
            chain = replace(chain, noise=replace(noise, seed=int(words[0])))
        scene = geometry.WireScene(x, z, wire["current_ma"], wire["diameter_um"])
        res = reconstruct.end_to_end_planar(scene, p["nv_index"], chain)
        # to 1e-9 deg: a noiseless error is float rounding (up to ~2e-13 deg),
        # and printing it would tie data files to the order of the arithmetic
        rows.append((x, z, res.alpha_est_deg, res.alpha_partner_deg,
                     res.alpha_theory_deg, round(res.error_deg, 9)))
    return rows


def _run_reconstruct_planar(p, noise, out_dir, fmt):
    return [_write_report(out_dir, "planar",
                          ["x_um", "z_um", "alpha_est_deg", "alpha_partner_deg",
                           "alpha_theory_deg", "error_deg"], _planar_rows(p, noise), fmt)]


def _run_table1(p, noise, out_dir, fmt):
    table = [(x, z, est, theory, err) for x, z, est, _, theory, err in _planar_rows(p, noise)]
    return [_write_report(out_dir, "table1",
                          ["x_um", "z_um", "alpha_est_deg", "alpha_theory_deg", "error_deg"],
                          table, fmt)]


def _run_reconstruct_3d(p, noise, out_dir, fmt):
    wire = p["wire"]
    if len(wire["positions_um"]) != 1:
        raise ConfigError("reconstruct-3d: exactly one wire position expected")
    (x, z), = wire["positions_um"]
    scene = geometry.WireScene(x, z, wire["current_ma"], wire["diameter_um"])
    truth = geometry.mw_direction(scene)
    if p["measured_y_axes"] is not None:
        try:
            y1, y2 = (reconstruct.NvYEstimate(geometry.unit(np.array(v)), 0.0)
                      for v in p["measured_y_axes"])
        except ValueError as exc:
            raise ConfigError(f"measured_y_axes: {exc}") from exc
        est = reconstruct.mw_axis_from_two(y1, y2, truth_axis=truth)
    else:
        est = reconstruct.end_to_end_3d(scene, tuple(p["nv_indices"]), _chain_config(p, noise))
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


def _run_fieldmap(p, noise, out_dir, fmt):
    axes = []
    for key in ("x", "z"):
        lo, hi, step = p["grid_um"][key]
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
    return [_write_report(out_dir, "fieldmap", ["x_um", "z_um", "mx", "mz"], rows, fmt)]


def _run_sensitivity(p, noise, out_dir, fmt):
    phi, n, t = math.radians(p["phi_deg"]), p["n"], p["t"]
    shot_noise = (p["rate_kcps"], p["contrast"], p["time_s"])
    try:
        if p["sigma_rel"] is not None:
            sigma_rel = p["sigma_rel"]
        elif None not in shot_noise:
            sigma_rel = sensitivity.shot_noise_sigma_rel(*shot_noise)
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
    return [_write_report(out_dir, "sensitivity",
                          ["phi_deg", "sigma_rel", "eta_rad_per_sqrt_hz",
                           "eta_max_rad_per_sqrt_hz"], [row], fmt)]


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
        table = SCHEMAS[mode]
        if mode == "reconstruct-3d" and "measured_y_axes" in cfg:
            table = {key: table[key] for key in _MEASURED_3D_KEYS}
        values = _read(cfg, table)
        noise = _noise(values["noise"], seed) if "noise" in table else None
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = _RUNNERS[mode](values, noise, out_dir, fmt)
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
        "seed": noise.seed if noise is not None else seed,
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
