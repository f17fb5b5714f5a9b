"""Scenario-driven command-line front end.

A run is described by a strict JSON config (unknown keys rejected, units at
the boundary: mT, MHz, um, degrees) and emits CSV/JSON data files plus a
manifest.  Reruns with the same config and seed produce byte-identical data
files; timestamps live only in the manifest.  Every config key is declared
once, in the schema tables below, and read by `_read`.  Only `run` writes
files, once the mode's runner has returned them: a failed run writes nothing.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, fitkit, geometry, odmrsim, reconstruct, sensitivity, spinmodel
from .errors import ConfigError, NvOrientError

TABLE1_POSITIONS = [
    [47.7, 16.5], [47.0, 18.5], [46.3, 20.0], [45.5, 22.0], [44.0, 25.0],
    [43.0, 26.6], [38.6, 32.5], [36.9, 34.5], [38.5, 26.7],
]

EXIT_OK, EXIT_CONFIG, EXIT_PIPELINE = 0, 2, 3

# the columns of spectrum.csv, which `simulate` writes and `fit` reads
_SPECTRUM_HEADER = ["frequency_mhz", "signal"]
# the columns of the planar files after the wire position: PlanarRunResult
# fields; table1 leaves out the partner
_PLANAR_FIELDS = ["alpha_est_deg", "alpha_partner_deg", "alpha_theory_deg", "error_deg"]
_PLANAR_FILES = {"reconstruct-planar": ("planar", _PLANAR_FIELDS),
                 "table1": ("table1", [f for f in _PLANAR_FIELDS if f != "alpha_partner_deg"])}

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
# the chain's defaults are the library's
_DEFAULT = reconstruct.ChainConfig()
_CONSTANTS, _SHAPE = _DEFAULT.constants, _DEFAULT.shape
_START, _STOP, _STEP = _DEFAULT.grid_mhz

# the shared blocks, accepted only by the modes that simulate spectra
SHARED = {
    "constants": ({"d_mhz": (_number, _CONSTANTS.d_mhz),
                   "gamma_e": (_number, _CONSTANTS.gamma_e)}, {}),
    "lineshape": ({"fwhm_mhz": (_number, _SHAPE.fwhm_mhz),
                   "contrast_ref": (_number, _SHAPE.contrast_ref),
                   "omega_ref_mhz": (_number, _SHAPE.omega_ref_mhz),
                   "model": (_as_is, _SHAPE.model)}, {}),
    "frequency_grid_mhz": ({"start": (_number, _START), "stop": (_number, _STOP),
                            "step": (_number, _STEP)}, {}),
    "noise": ({"rate_kcps": (_positive, REQUIRED), "dwell_s": (_positive, REQUIRED),
               "seed": (_integer(0), None)}, None),
}
_CHAIN = {
    **_MODE, **SHARED,
    "static_field_mt": (_positive, _DEFAULT.b_static_mt),
    "psi_count": (_integer(4, MAX_PSI_COUNT), _DEFAULT.psi_count),
    "wire": ({"current_ma": (_number, REQUIRED),
              "positions_um": (_list_of(_list_of(_number, 2, _PAIRS), what=_PAIRS),
                               TABLE1_POSITIONS),
              "diameter_um": (_nonnegative, geometry.WIRE_DIAMETER_UM)}, REQUIRED),
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


def _unique_keys(pairs: list) -> dict:
    """A JSON object; json.loads alone keeps the last value of a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config: duplicate key {key!r}")
        obj[key] = value
    return obj


def _build(make, ctx: str, values: dict):
    """make(**values), a record or a checked value, its ValueError reported
    as a config error under `ctx`."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _grid_range(start: float, stop: float, step: float, ctx: str,
                at_least_two: bool = False) -> tuple[float, float, float]:
    """(start, stop, step), checked before odmrsim.default_grid builds it: a
    bad range, more than MAX_GRID_POINTS points, or one point when
    `at_least_two`, is a config error."""
    n = _build(odmrsim._grid_size, ctx, {"start": start, "stop": stop, "step": step})
    if n > MAX_GRID_POINTS:
        raise ConfigError(f"{ctx}: more than {MAX_GRID_POINTS} grid points")
    if at_least_two and n < 2:
        raise ConfigError(f"{ctx}: need at least two points (stop >= start + step)")
    return start, stop, step


def _noise(block: dict | None, seed_override: int | None) -> odmrsim.NoiseConfig | None:
    """The read noise block, with `--seed` in place of its seed when given;
    a seed for a run that draws no noise is an error."""
    if block is None:
        if seed_override is not None:
            raise ConfigError("--seed: this run draws no noise")
        return None
    seed = block["seed"] if seed_override is None else seed_override
    if seed is None:
        raise ConfigError("noise: seed required (config key or --seed)")
    return _build(odmrsim.NoiseConfig, "noise", dict(block, seed=_integer(0)(seed, "noise.seed")))


def _spectrum_blocks(p: dict):
    """The lineshape, spin constants and checked frequency grid range of a
    mode that simulates spectra, in that order of refusal."""
    return (_build(odmrsim.LineshapeParams, "lineshape", p["lineshape"]),
            _build(spinmodel.SpinConstants, "constants", p["constants"]),
            _grid_range(**p["frequency_grid_mhz"], ctx="frequency_grid_mhz", at_least_two=True))


def _chain_config(p: dict, noise) -> reconstruct.ChainConfig:
    # a linewidth the grid cannot resolve is refused by the pinned dip fit
    shape, consts, grid_mhz = _spectrum_blocks(p)
    return reconstruct.ChainConfig(
        constants=consts, b_static_mt=p["static_field_mt"], shape=shape, grid_mhz=grid_mhz,
        psi_count=p["psi_count"], noise=noise)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _report(stem: str, header: list[str], rows, fmt: str) -> dict[str, str]:
    """{file name: text} of a table of `rows` under `header`."""
    if fmt == "json":
        return {f"{stem}.json": _json([dict(zip(header, row)) for row in rows])}
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([f"{v:.10g}" if isinstance(v, float) else v for v in row] for row in rows)
    return {f"{stem}.csv": buf.getvalue()}


# ---------------------------------------------------------------------------
# Mode runners: each takes the values read by its schema, the noise config
# and the format, and returns {file name: text} of its data files
# ---------------------------------------------------------------------------

def _run_simulate(p, noise, fmt):
    st, mw = p["static"], p["mw"]
    static = _build(spinmodel.StaticFieldNV, "static", {
        "b_mt": st["b_mt"], "theta": math.radians(st["theta_deg"]),
        # a wrapped angle just below 0 rounds to 2*pi, which the second % maps to 0
        "phi": math.radians(st["phi_deg"]) % (2 * math.pi) % (2 * math.pi)})
    mwf = _build(spinmodel.MwFieldNV, "mw", {
        "amplitude_mt": mw["amplitude_mt"], "zeta": math.radians(mw["zeta_deg"]),
        "transverse_azimuth": math.radians(mw["transverse_azimuth_deg"])})
    shape, consts, grid_mhz = _spectrum_blocks(p)
    grid = odmrsim.default_grid(*grid_mhz)
    signal = odmrsim.simulate_spectrum(consts, static, mwf, shape, grid)
    if noise is not None:
        signal = noise.draw(signal)
    if fmt == "json":
        env = {"frequencies_mhz": grid.tolist(), "signal": signal.tolist(),
               "lineshape": shape._asdict()}
        if noise is not None:
            env["counts"] = noise._asdict()
        return {"spectrum.json": _json(env)}
    # strings pass through _report as they are: each frequency in the fewest
    # significant digits, from 10, that read back to it, and 12 for the signal
    return _report("spectrum", _SPECTRUM_HEADER,
                   [(next(t for d in range(10, 18) if float(t := f"{f:.{d}g}") == f),
                     f"{s:.12g}") for f, s in zip(grid.tolist(), signal)], fmt)


def _read_spectrum(path) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies, signal) of a CSV that `simulate` wrote; a malformed row
    raises ValueError naming the file and the row's 1-based line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader]
    if not rows or rows[0][1] != _SPECTRUM_HEADER:
        raise ValueError(f"{path}: not a spectrum CSV")
    if len(rows) < 2:
        raise ValueError(f"{path}: spectrum CSV has no data rows")
    points = []
    for line, row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"{path}: line {line}: expected 2 columns, got {len(row)}")
        try:
            points.append((float(row[0]), float(row[1])))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
    data = np.array(points)
    return data[:, 0], data[:, 1]


def _run_fit(p, noise, fmt):
    f, signal = _read_spectrum(p["spectrum_csv"])
    dips = fitkit.fit_dips(fitkit.FitPlan(f, p["init_centers_mhz"]), signal, None)
    return {"dips.json": _json([d._asdict() for d in dips])}


def _run_planar(p, noise, fmt):
    stem, fields = _PLANAR_FILES[p["mode"]]
    chain, wire = _chain_config(p, noise), p["wire"]
    rows = []
    for j, (x, z) in enumerate(wire["positions_um"]):
        if noise is not None:
            # position j appends j to the record's key, so no two positions share noise
            chain = chain._replace(noise=noise._replace(key=noise.key + (j,)))
        scene = geometry.WireScene(x, z, wire["current_ma"], wire["diameter_um"])
        res = reconstruct.end_to_end_planar(scene, p["nv_index"], chain)
        # to 1e-9 deg: a noiseless error is float rounding (up to ~2e-13 deg),
        # and printing it would tie data files to the order of the arithmetic
        res = res._replace(error_deg=round(res.error_deg, 9))
        rows.append((x, z, *(getattr(res, f) for f in fields)))
    return _report(stem, ["x_um", "z_um", *fields], rows, fmt)


def _run_reconstruct_3d(p, noise, fmt):
    wire = p["wire"]
    if len(wire["positions_um"]) != 1:
        raise ConfigError("reconstruct-3d: exactly one wire position expected")
    (x, z), = wire["positions_um"]
    scene = geometry.WireScene(x, z, wire["current_ma"], wire["diameter_um"])
    truth = geometry.mw_direction(scene)
    i1, i2 = p["nv_indices"]
    if i1 == i2:
        raise ConfigError("nv_indices: the two NV orientations must differ")
    if p["measured_y_axes"] is not None:
        est = _build(reconstruct.mw_axis_from_two, "measured_y_axes",
                     dict(zip(("y1", "y2"), p["measured_y_axes"]), truth_axis=truth))
    else:
        est = reconstruct.end_to_end_3d(scene, (i1, i2), _chain_config(p, noise))
    # rounded like planar error_deg: past these digits the file would record
    # float rounding, which depends on the order of the arithmetic; + 0.0
    # writes a component rounded to -0.0 as 0.0, since its sign is rounding too;
    # a reconstructed axis is a line, so its sign is always ambiguous
    return {"reconstruct3d.json": _json({
        "axis": [round(float(c), 12) + 0.0 for c in est.axis],
        "sign_ambiguous": True,
        "angular_error_deg": round(est.angular_error_deg, 9),
        "truth_axis": [round(float(c), 12) + 0.0 for c in truth],
    })}


def _run_fieldmap(p, noise, fmt):
    axes = [odmrsim.default_grid(*_grid_range(*p["grid_um"][key], f"grid_um.{key}")).tolist()
            for key in ("x", "z")]
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
    return _report("fieldmap", ["x_um", "z_um", "mx", "mz"], rows, fmt)


def _run_sensitivity(p, noise, fmt):
    phi, n, t = math.radians(p["phi_deg"]), p["n"], p["t"]
    shot_noise = (p["rate_kcps"], p["contrast"], p["time_s"])
    try:
        if p["sigma_rel"] is not None:
            if shot_noise != (None, None, None):
                raise ConfigError("sensitivity: give sigma_rel or rate_kcps+contrast+time_s, "
                                  "not both")
            sigma_rel = p["sigma_rel"]
        elif None not in shot_noise:
            sigma_rel = sensitivity.shot_noise_sigma_rel(*shot_noise)
        else:
            raise ConfigError("sensitivity: need sigma_rel or rate_kcps+contrast+time_s")
        row = (math.degrees(phi), sigma_rel, sensitivity.eta(phi, sigma_rel, n, t),
               sensitivity.eta_max(sigma_rel, n, t))
    except ValueError as exc:
        raise ConfigError(f"sensitivity: {exc}") from exc
    return _report("sensitivity", ["phi_deg", "sigma_rel", "eta_rad_per_sqrt_hz",
                                   "eta_max_rad_per_sqrt_hz"], [row], fmt)


_RUNNERS = {
    "simulate": _run_simulate,
    "fit": _run_fit,
    "reconstruct-planar": _run_planar,
    "reconstruct-3d": _run_reconstruct_3d,
    "table1": _run_planar,
    "fieldmap": _run_fieldmap,
    "sensitivity": _run_sensitivity,
}


def run(mode: str, config_path, out_dir, seed: int | None = None,
        fmt: str = "csv") -> int:
    """Execute one scenario; returns the process exit code."""
    out_dir = Path(out_dir)
    started = datetime.now(timezone.utc).isoformat()
    try:
        try:
            raw = Path(config_path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{config_path}: {exc}") from exc
        try:
            cfg = json.loads(raw, object_pairs_hook=_unique_keys)
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
        noise = _noise(values.get("noise"), seed)
        files = _RUNNERS[mode](values, noise, fmt)
        manifest = {
            "tool_version": __version__,
            "python_version": ".".join(map(str, sys.version_info[:3])),
            # noisy data files depend on numpy's Poisson sampler
            "numpy_version": np.__version__,
            "mode": mode,
            "config_sha256": hashlib.sha256(raw.encode()).hexdigest(),
            "seed": None if noise is None else noise.seed,
            "started_utc": started,
            "finished_utc": datetime.now(timezone.utc).isoformat(),
            "outputs": list(files),
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        # newline="" keeps the CSV files' \r\n line ends as csv wrote them
        for name, text in [*files.items(), ("manifest.json", _json(manifest))]:
            (out_dir / name).write_text(text, newline="")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # a --config that cannot be read, or an --out that cannot be created
        # or written; a write error without a file name (a full disk) is --out's
        print(f"error: {exc.filename or out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NvOrientError, ValueError) as exc:  # numpy's LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvorient",
        description="Simulate CW-ODMR of NV centers and reconstruct microwave "
                    "field orientation.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in SCHEMAS:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", required=True, help="scenario JSON file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config noise seed")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    """Entry of the `nvorient` command and of `python -m nvorient.cli`.

    The objects made at import live until the process exits, so they are
    frozen first: neither the run's collections nor interpreter shutdown
    traverse them.  `run`, which library callers use, leaves the collector alone.
    """
    gc.freeze()
    args = build_parser().parse_args(argv)
    return run(args.mode, args.config, args.out, seed=args.seed, fmt=args.format)


if __name__ == "__main__":
    sys.exit(main())
