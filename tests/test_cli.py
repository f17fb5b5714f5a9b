import contextlib
import copy
import csv
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tomllib
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvorient import cli, geometry, odmrsim, reconstruct, spinmodel
from nvorient.errors import NvOrientError


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


SIMULATE_CFG = {
    "mode": "simulate",
    "static": {"b_mt": 10.2, "theta_deg": 90.0},
    "mw": {"amplitude_mt": 0.0357, "zeta_deg": 90.0, "transverse_azimuth_deg": 45.0},
}


class TestSimulate:
    def test_csv_output_and_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, "sim.json", SIMULATE_CFG)
        out = tmp_path / "out"
        assert cli.run("simulate", cfg, out) == cli.EXIT_OK
        rows = read_csv(out / "spectrum.csv")
        assert rows[0] == ["frequency_mhz", "signal"]
        assert len(rows) == 202
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "simulate"
        assert manifest["outputs"] == ["spectrum.csv"]
        assert len(manifest["config_sha256"]) == 64
        # noisy data files depend on numpy's sampler, so the manifest says which ran
        assert manifest["python_version"] == "{}.{}.{}".format(*sys.version_info)
        assert manifest["numpy_version"] == np.__version__
        # a run without a noise block draws no noise, and records no seed
        assert manifest["seed"] is None

    def test_json_format(self, tmp_path):
        cfg = write_cfg(tmp_path, "sim.json", SIMULATE_CFG)
        out = tmp_path / "out"
        assert cli.run("simulate", cfg, out, fmt="json") == cli.EXIT_OK
        env = json.loads((out / "spectrum.json").read_text())
        assert len(env["frequencies_mhz"]) == 201

    def test_noisy_simulate_seeded(self, tmp_path):
        payload = dict(SIMULATE_CFG, noise={"rate_kcps": 100.0, "dwell_s": 0.5, "seed": 5})
        cfg = write_cfg(tmp_path, "sim.json", payload)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.run("simulate", cfg, out_a) == cli.EXIT_OK
        assert cli.run("simulate", cfg, out_b) == cli.EXIT_OK
        assert (out_a / "spectrum.csv").read_bytes() == (out_b / "spectrum.csv").read_bytes()

    @pytest.mark.parametrize("phi_deg", [-1e-14, -1e-300, 359.99999999999994])
    def test_phi_just_below_a_turn_wraps_to_zero(self, tmp_path, capsys, phi_deg):
        # radians(phi_deg) % 2pi once rounded to 2pi for phi_deg just below 0,
        # which StaticFieldNV refused (exit 2, "phi must lie in [0, 2*pi)")
        texts = []
        for name, phi in (("zero", 0.0), ("wrapped", phi_deg)):
            static = dict(SIMULATE_CFG["static"], phi_deg=phi)
            cfg = write_cfg(tmp_path, f"{name}.json", dict(SIMULATE_CFG, static=static))
            assert cli.run("simulate", cfg, tmp_path / name) == cli.EXIT_OK
            assert capsys.readouterr().err == ""
            texts.append((tmp_path / name / "spectrum.csv").read_bytes())
        assert texts[0] == texts[1]


    def test_fine_grid_reads_back_bit_for_bit(self, tmp_path, capsys):
        # points 1e-7 MHz apart need 11 significant digits: at 10, rows 2 and 3
        # both read 2897.9, and `fit` refused the grid as not strictly ascending
        grid = {"start": 2897.9, "stop": 2897.902, "step": 1e-7}
        cfg = write_cfg(tmp_path, "sim.json", dict(SIMULATE_CFG, frequency_grid_mhz=grid))
        assert cli.run("simulate", cfg, tmp_path / "sim") == cli.EXIT_OK
        path = tmp_path / "sim" / "spectrum.csv"
        expected = odmrsim.default_grid(2897.9, 2897.902, 1e-7)
        assert cli._read_spectrum(path)[0].tobytes() == expected.tobytes()
        # the grid passes, so `fit` goes on to the centers, which lie outside it
        fit = write_cfg(tmp_path, "fit.json", {"mode": "fit", "spectrum_csv": str(path),
                                               "init_centers_mhz": [2898.0]})
        capsys.readouterr()
        assert cli.run("fit", fit, tmp_path / "fit") == cli.EXIT_PIPELINE
        assert capsys.readouterr().err == ("error: dip centers 2898.000 MHz must lie inside the "
                                           "frequency grid [2897.9, 2897.902] MHz\n")

    @pytest.mark.parametrize("block, bad, message", [
        ("static", {"theta_deg": 200.0}, "static: theta must lie in [0, pi]"),
        ("static", {"b_mt": -1.0}, "static: field magnitude must be finite and nonnegative"),
        ("mw", {"zeta_deg": -1.0}, "mw: zeta must lie in [0, pi]"),
        ("mw", {"amplitude_mt": -1.0},
         "mw: microwave amplitude must be finite and nonnegative"),
    ], ids=["static-theta_deg", "static-b_mt", "mw-zeta_deg", "mw-amplitude_mt"])
    def test_field_error_names_its_block(self, tmp_path, capsys, block, bad, message):
        cfg = write_cfg(tmp_path, "sim.json",
                        dict(SIMULATE_CFG, **{block: dict(SIMULATE_CFG[block], **bad)}))
        out = tmp_path / "out"
        assert cli.run("simulate", cfg, out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestSerialization:
    # spectrum.csv and spectrum.json as `simulate` writes them, and
    # spectrum.csv as `fit` reads it back
    def test_csv_round_trip(self, consts, shape, grid, tmp_path):
        # the spectrum of SIMULATE_CFG
        static = spinmodel.StaticFieldNV(10.2, math.pi / 2.0, 0.0)
        mw = spinmodel.MwFieldNV(0.0357, math.pi / 2.0, math.pi / 4.0)
        signal = odmrsim.simulate_spectrum(consts, static, mw, shape, grid)
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "sim.json", SIMULATE_CFG)
        assert cli.run("simulate", cfg, out) == cli.EXIT_OK
        path = out / "spectrum.csv"
        assert path.read_bytes().startswith(b"frequency_mhz,signal\r\n")
        back_f, back_signal = cli._read_spectrum(path)
        assert np.allclose(back_f, grid, atol=1e-9)
        assert np.allclose(back_signal, signal, atol=1e-11)

    def test_csv_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            cli._read_spectrum(path)

    def test_csv_without_data_rows_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("frequency_mhz,signal\n")
        with pytest.raises(ValueError, match="no data rows"):
            cli._read_spectrum(path)

    @pytest.mark.parametrize("row, message", [
        ("2900.0,0.99,1", "expected 2 columns, got 3"),
        ("2900.0", "expected 2 columns, got 1"),
        ("2900.0,abc", "could not convert string to float: 'abc'"),
    ], ids=["three-columns", "one-column", "not-a-number"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"frequency_mhz,signal\n2890.0,1.0\n{row}\n2910.0,1.0\n")
        with pytest.raises(ValueError) as info:
            cli._read_spectrum(path)
        assert str(info.value) == f"{path}: line 3: {message}"

    def test_json_envelope(self, tmp_path):
        payload = dict(SIMULATE_CFG, noise={"rate_kcps": 100.0, "dwell_s": 1.0, "seed": 9})
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "sim.json", payload)
        assert cli.run("simulate", cfg, out, fmt="json") == cli.EXIT_OK
        env = json.loads((out / "spectrum.json").read_text())
        assert list(env) == ["frequencies_mhz", "signal", "lineshape", "counts"]
        assert env["lineshape"]["fwhm_mhz"] == 8.0
        assert env["counts"]["seed"] == 9
        assert len(env["frequencies_mhz"]) == len(env["signal"])


class TestFit:
    def test_fit_roundtrip(self, tmp_path):
        cfg = write_cfg(tmp_path, "sim.json", SIMULATE_CFG)
        out = tmp_path / "out"
        assert cli.run("simulate", cfg, out) == cli.EXIT_OK
        fit_cfg = write_cfg(tmp_path, "fit.json", {
            "mode": "fit",
            "spectrum_csv": str(out / "spectrum.csv"),
            "init_centers_mhz": [2898.0, 2926.0],
        })
        assert cli.run("fit", fit_cfg, out) == cli.EXIT_OK
        dips = json.loads((out / "dips.json").read_text())
        assert len(dips) == 2
        assert abs(dips[0]["center_mhz"] - 2898.2) < 0.5
        assert abs(dips[1]["center_mhz"] - 2926.4) < 0.5

    def test_missing_spectrum_is_config_error(self, tmp_path):
        fit_cfg = write_cfg(tmp_path, "fit.json", {
            "mode": "fit",
            "spectrum_csv": str(tmp_path / "absent.csv"),
            "init_centers_mhz": [2898.0],
        })
        assert cli.run("fit", fit_cfg, tmp_path / "out") == cli.EXIT_CONFIG

    @pytest.mark.parametrize("body", ["", "2890.0,1.0\nnan,0.99\n2910.0,1.0\n",
                                      "2890.0,1.0\n2900.0,0.99\ninf,1.0\n"],
                             ids=["no-data-rows", "nan-frequency", "inf-frequency"])
    def test_bad_spectrum_csv_is_pipeline_error(self, tmp_path, capsys, body):
        # the file is refused as read, not by a fit that fails on it later
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("frequency_mhz,signal\n" + body)
        fit_cfg = write_cfg(tmp_path, "fit.json", {
            "mode": "fit",
            "spectrum_csv": str(spectrum),
            "init_centers_mhz": [2898.0],
        })
        capsys.readouterr()
        assert cli.run("fit", fit_cfg, tmp_path / "out") == cli.EXIT_PIPELINE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "no data rows" in err or "frequency grid" in err

    @pytest.mark.parametrize("row", ["2900.0,0.99,1", "2900.0", "2900.0,abc"],
                             ids=["three-columns", "one-column", "not-a-number"])
    def test_malformed_spectrum_row_is_pipeline_error(self, tmp_path, capsys, row):
        # the message names the file and the 1-based line of the bad row
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text(f"frequency_mhz,signal\n2890.0,1.0\n{row}\n2910.0,1.0\n")
        fit_cfg = write_cfg(tmp_path, "fit.json", {
            "mode": "fit",
            "spectrum_csv": str(spectrum),
            "init_centers_mhz": [2898.0],
        })
        capsys.readouterr()
        assert cli.run("fit", fit_cfg, tmp_path / "out") == cli.EXIT_PIPELINE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spectrum}: line 3: ") and "Traceback" not in err

    def test_runaway_center_fails(self, tmp_path, capsys):
        # a vanishing noisy L0-Lm dip whose free center would leave the grid
        sim_cfg = write_cfg(tmp_path, "sim.json", dict(
            SIMULATE_CFG,
            mw={"amplitude_mt": 0.126, "zeta_deg": 90.0, "transverse_azimuth_deg": 0.0},
            noise={"rate_kcps": 200.0, "dwell_s": 0.008, "seed": 0}))
        sim = tmp_path / "sim"
        assert cli.run("simulate", sim_cfg, sim) == cli.EXIT_OK
        fit_cfg = write_cfg(tmp_path, "fit.json", {
            "mode": "fit",
            "spectrum_csv": str(sim / "spectrum.csv"),
            "init_centers_mhz": [2898.0, 2926.0],
        })
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.run("fit", fit_cfg, out) == cli.EXIT_PIPELINE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestErrorPaths:
    @pytest.mark.parametrize("mode, raw", [
        ("simulate", '{"mode": "simulate", "static": {"b_mt": 1e307, "theta_deg": 90}, '
                     '"mw": {"amplitude_mt": 0.0357, "zeta_deg": 90}}'),
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40}, "static_field_mt": 1e307}'),
    ], ids=["simulate", "table1"])
    def test_overflowing_static_field_exits_3(self, tmp_path, capsys, mode, raw):
        # a finite field whose Zeeman term overflows once warned twice on a
        # Hamiltonian of NaNs and exited 3 with "Eigenvalues did not converge"
        path = tmp_path / "cfg.json"
        path.write_text(raw)
        out = tmp_path / "out"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.run(mode, path, out)
        assert (code, capsys.readouterr().err, caught) == (
            cli.EXIT_PIPELINE,
            "error: Zeeman term gamma_e*B is not finite: 28.02495 MHz/mT times 1e+307 mT\n", [])
        assert not out.exists()

    @pytest.mark.parametrize("raw, message", [
        ('{"mode": "simulate", "static": {"b_mt": 113, "theta_deg": 20}, '
         '"mw": {"amplitude_mt": 0.0357, "zeta_deg": 90}}',
         "maximal |0> weight is 0.492 <= 0.5; labels undefined"),
        ('{"mode": "simulate", "static": {"b_mt": 10.2, "theta_deg": 90}, '
         '"mw": {"amplitude_mt": 1, "zeta_deg": 90}, "lineshape": {"contrast_ref": 1}}',
         "summed dip contrast reaches 754.838 > 1; signal would go negative"),
    ], ids=["labels-undefined", "contrast-overflow"])
    def test_unusable_spectrum_exits_3(self, tmp_path, capsys, raw, message):
        # the library refuses the model it was given, not the config's form
        path = tmp_path / "cfg.json"
        path.write_text(raw)
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.run("simulate", path, out) == cli.EXIT_PIPELINE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        payload = dict(SIMULATE_CFG, extra=1)
        cfg = write_cfg(tmp_path, "sim.json", payload)
        assert cli.run("simulate", cfg, tmp_path / "out") == cli.EXIT_CONFIG

    def test_mode_mismatch(self, tmp_path):
        cfg = write_cfg(tmp_path, "sim.json", SIMULATE_CFG)
        assert cli.run("fit", cfg, tmp_path / "out") == cli.EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.run("simulate", path, tmp_path / "out") == cli.EXIT_CONFIG

    def test_pipeline_error_exit_code(self, tmp_path):
        # sensor position inside the wire radius fails during the run, not
        # during config validation
        cfg = write_cfg(tmp_path, "t1.json", {
            "mode": "table1",
            "wire": {"current_ma": 40.0, "positions_um": [[2.0, 2.0]]},
        })
        assert cli.run("table1", cfg, tmp_path / "out") == cli.EXIT_PIPELINE

    def test_bad_format_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "sim.json", SIMULATE_CFG)
        assert cli.run("simulate", cfg, tmp_path / "out", fmt="xml") == cli.EXIT_CONFIG

    @pytest.mark.parametrize("case", ["config-missing", "config-directory",
                                      "config-not-utf8", "out-is-a-file"])
    def test_path_error_exits_2(self, tmp_path, capsys, case):
        # an unreadable --config or an --out that cannot be created is a
        # config error naming the path, not a traceback or a pipeline error
        config = write_cfg(tmp_path, "sim.json", SIMULATE_CFG)
        out = tmp_path / "out"
        if case == "config-missing":
            config = tmp_path / "absent.json"
        elif case == "config-directory":
            config = tmp_path / "cfg-dir"
            config.mkdir()
        elif case == "config-not-utf8":
            config.write_bytes(b'{"mode": "simulate", "note": "\xff"}')
        else:
            out = tmp_path / "out-file"
            out.write_text("not a directory")
        bad = config if case.startswith("config") else out
        capsys.readouterr()
        assert cli.run("simulate", config, out) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(bad) in err
        if case == "out-is-a-file":
            assert out.read_text() == "not a directory"
        else:
            assert not out.exists()

    @pytest.mark.parametrize("mode, raw", [
        ("table1", '{"mode": "table1", "wire": {"current_ma": NaN}}'),
        ("table1", '{"mode": "table1", "wire": {"current_ma": Infinity}}'),
        ("table1", '{"mode": "table1", "wire": {"current_ma": 1e400}}'),
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40, "positions_um": [["a", 1]]}}'),
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40}, '
                   '"noise": {"rate_kcps": 200, "dwell_s": 0.01, "seed": NaN}}'),
        ("sensitivity", '{"mode": "sensitivity", "phi_deg": 45, "sigma_rel": 0.01, "n": "x"}'),
        ("sensitivity", '{"mode": "sensitivity", "phi_deg": 45, "sigma_rel": 0.01, "n": 1.5}'),
        ("sensitivity", '{"mode": "sensitivity", "phi_deg": -Infinity, "sigma_rel": 0.01}'),
        ("reconstruct-3d", '{"mode": "reconstruct-3d", "nv_indices": [3, 1], '
                           '"wire": {"current_ma": 40, "positions_um": [[61, 18]]}, '
                           '"measured_y_axes": [1, 2]}'),
        ("fieldmap", '{"mode": "fieldmap", "grid_um": {"x": [0, 0, 1], "z": [0, 0, 1]}}'),
        ("fit", '{"mode": "fit", "spectrum_csv": 5, "init_centers_mhz": [2898.0]}'),
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40}, '
                   '"noise": {"rate_kcps": -1, "dwell_s": 0.01, "seed": 1}}'),
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40}, '
                   '"noise": {"rate_kcps": 200, "dwell_s": 0, "seed": 1}}'),
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40}, "static_field_mt": 0}'),
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40}, "constants": {"gamma_e": 0}}'),
        ("simulate", '{"mode": "simulate", "static": {"b_mt": 10.2, "theta_deg": 90}, '
                     '"mw": {"amplitude_mt": 0.0357, "zeta_deg": 90}, '
                     '"constants": {"d_mhz": -2870}}'),
        ("reconstruct-3d", '{"mode": "reconstruct-3d", "nv_indices": [3, 1], '
                           '"wire": {"current_ma": 40, "positions_um": [[61, 18]]}, '
                           '"measured_y_axes": [[0, 0, 0], [0.85, 0.46, 0.25]]}'),
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40, "diameter_um": -5}}'),
        ("simulate", '{"mode": "simulate", "static": {"b_mt": 10.2, "theta_deg": 90}, '
                     '"mw": {"amplitude_mt": 0.0357, "zeta_deg": 90}, '
                     '"frequency_grid_mhz": {"step": 1e-9}}'),
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40}, '
                   f'"psi_count": {cli.MAX_PSI_COUNT + 1}}}'),
        ("fieldmap", '{"mode": "fieldmap", "grid_um": {"x": [1, 30000, 1], "z": [1, 1, 1]}}'),
        ("fieldmap", '{"mode": "fieldmap", "grid_um": {"x": [1, 200, 1], "z": [1, 200, 1]}}'),
        ("sensitivity", '{"mode": "sensitivity", "phi_deg": 45, "sigma_rel": 0.01, '
                        f'"n": {10 ** 400}}}'),
        ("sensitivity", '{"mode": "sensitivity", "phi_deg": 45, "sigma_rel": 1e300, "t": 1e300}'),
        ("sensitivity", '{"mode": "sensitivity", "phi_deg": 45, "rate_kcps": 0, '
                        '"contrast": 0.3, "time_s": 1}'),
        ("fieldmap", '{"mode": "fieldmap", "grid_um": {"x": [61, 61, 1], "z": [18, 18, 1]}, '
                     '"constants": {"gamma_e": -5}, '
                     '"noise": {"rate_kcps": -1, "dwell_s": 0.01, "seed": 1}}'),
        ("reconstruct-3d", '{"mode": "reconstruct-3d", "nv_indices": [3, 1], '
                           '"wire": {"current_ma": 40, "positions_um": [[61, 18]]}, '
                           '"measured_y_axes": [[-0.86, 0.42, -0.29], [0.85, 0.46, 0.25]], '
                           '"static_field_mt": -4}'),
        ("reconstruct-3d", '{"mode": "reconstruct-3d", "nv_indices": [3, 1], '
                           '"wire": {"current_ma": 40, "positions_um": [[61, 18]]}, '
                           '"measured_y_axes": [[-0.86, 0.42, -0.29], [0.85, 0.46, 0.25]], '
                           '"psi_count": 2}'),
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40}, '
                   '"frequency_grid_mhz": {"start": 2850, "stop": 2851, "step": 5}}'),
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40}, "wire": {"current_ma": 20}}'),
        ("simulate", '{"mode": "simulate", "static": {"b_mt": 10.2, "theta_deg": 90}, '
                     '"mw": {"amplitude_mt": 0.0357, "zeta_deg": 90}, '
                     '"frequency_grid_mhz": {"step": 0}}'),
        # both positive, but 0 mean counts per point: the draw divided 0 by 0
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40}, '
                   '"noise": {"rate_kcps": 1e-300, "dwell_s": 1e-300, "seed": 1}}'),
    ], ids=["nan", "infinity", "overflow", "position-string", "seed-nan", "n-string",
            "n-float", "phi-minus-infinity", "measured-axes-scalars", "fieldmap-origin-only",
            "spectrum-path-number", "rate-negative", "dwell-zero", "static-field-zero",
            "gamma-zero", "d-negative", "measured-axes-zero-vector", "diameter-negative",
            "grid-step-tiny", "psi-count-oversized", "fieldmap-axis-oversized",
            "fieldmap-grid-oversized", "n-oversized", "eta-overflow", "rate-zero",
            "fieldmap-unread-blocks", "measured-axes-static-field", "measured-axes-psi-count",
            "grid-one-point", "duplicate-key", "grid-step-zero", "noise-underflow"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, mode, raw):
        path = tmp_path / "cfg.json"
        path.write_text(raw)
        out = tmp_path / "out"
        assert cli.run(mode, path, out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("mode, raw, bracket", [
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40}, '
                   '"lineshape": {"fwhm_mhz": 0.4}}', "[0.5, 50]"),
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40}, '
                   '"lineshape": {"fwhm_mhz": 60}}', "[0.5, 50]"),
        ("reconstruct-planar", '{"mode": "reconstruct-planar", "nv_index": 3, '
                               '"wire": {"current_ma": 40, "positions_um": [[61, 18]]}, '
                               '"frequency_grid_mhz": {"step": 10}}', "[10, 50]"),
    ], ids=["fwhm-below-grid-step", "fwhm-above-half-span", "grid-step-above-fwhm"])
    def test_unresolved_linewidth_exits_3(self, tmp_path, capsys, mode, raw, bracket):
        # the pinned dip fit owns the bracket (grid step, half the grid span):
        # a linewidth outside it runs to the bracket and is refused there
        path = tmp_path / "cfg.json"
        path.write_text(raw)
        out = tmp_path / "out"
        assert cli.run(mode, path, out) == cli.EXIT_PIPELINE
        assert capsys.readouterr().err == (
            f"error: dip fwhm ran to the bound of {bracket} MHz set by the grid\n")
        assert not out.exists()

    @pytest.mark.parametrize("payload, code", [
        ({"mode": "table1", "wire": {"current_ma": 0.0, "positions_um": [[47.7, 16.5]]}},
         cli.EXIT_PIPELINE),
        ({"mode": "table1", "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
          "lineshape": {"model": "cubic"}}, cli.EXIT_CONFIG),
    ], ids=["no-signal", "unknown-model"])
    def test_failed_rerun_keeps_previous_files(self, tmp_path, payload, code):
        # a run that fails into the --out of a good run leaves its files as they were
        out = tmp_path / "out"
        good = write_cfg(tmp_path, "good.json", {
            "mode": "table1", "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]}})
        assert cli.run("table1", good, out) == cli.EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["manifest.json", "table1.csv"]
        for fmt in ("csv", "json"):
            assert cli.run("table1", write_cfg(tmp_path, "bad.json", payload), out,
                           fmt=fmt) == code
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("block", ["constants", "lineshape", "frequency_grid_mhz", "noise"])
    @pytest.mark.parametrize("mode", ["fit", "fieldmap"])
    def test_unread_shared_block_rejected(self, tmp_path, fit_spectrum_csv, mode, block):
        # fit reads a spectrum file and fieldmap the wire geometry: a valid
        # block that neither reads is an error, not silently ignored
        cfg = dict(FUZZ_BASES[mode][0], **{block: COMMON_BLOCKS[block]})
        if mode == "fit":
            cfg["spectrum_csv"] = fit_spectrum_csv
        path = write_cfg(tmp_path, "cfg.json", cfg)
        assert cli.run(mode, path, tmp_path / "out") == cli.EXIT_CONFIG

    @pytest.mark.parametrize("mode, payload", [
        ("simulate", dict(SIMULATE_CFG, noise=None)),
        ("table1", {"mode": "table1", "wire": {"current_ma": 40.0}, "noise": None}),
        ("reconstruct-planar", {"mode": "reconstruct-planar", "nv_index": 3, "noise": None,
                                "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]}}),
        ("reconstruct-3d", {"mode": "reconstruct-3d", "nv_indices": [3, 1], "noise": None,
                            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]}}),
        ("reconstruct-3d", {"mode": "reconstruct-3d", "nv_indices": [3, 1],
                            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
                            "measured_y_axes": None}),
    ], ids=["simulate-noise", "table1-noise", "reconstruct-planar-noise",
            "reconstruct-3d-noise", "measured-y-axes"])
    def test_null_value_exits_2(self, tmp_path, capsys, mode, payload):
        # null is a bad value, not a missing key: a null noise block once
        # ran noiseless and then crashed writing the manifest, and null
        # measured axes ran the simulated chain
        cfg = write_cfg(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert cli.run(mode, cfg, out) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_no_outputs_on_config_error(self, tmp_path):
        payload = dict(SIMULATE_CFG, extra=1)
        cfg = write_cfg(tmp_path, "sim.json", payload)
        out = tmp_path / "out"
        cli.run("simulate", cfg, out)
        assert not out.exists()

    @pytest.mark.parametrize("mode, payload", [
        ("simulate", SIMULATE_CFG),
        ("table1", {"mode": "table1", "wire": {"current_ma": 40.0}}),
        ("reconstruct-planar", {"mode": "reconstruct-planar", "nv_index": 3,
                                "wire": {"current_ma": 40.0}}),
        ("reconstruct-3d", {"mode": "reconstruct-3d", "nv_indices": [3, 1],
                            "wire": {"current_ma": 40.0}}),
    ], ids=["simulate", "table1", "reconstruct-planar", "reconstruct-3d"])
    def test_noise_without_seed_exits_2(self, tmp_path, capsys, mode, payload):
        # the config's noise.seed is the run's only seed, so the schema
        # requires it and refuses its absence as it refuses any missing key
        cfg = write_cfg(tmp_path, "cfg.json",
                        dict(payload, noise={"rate_kcps": 200.0, "dwell_s": 0.5}))
        out = tmp_path / "out"
        assert cli.run(mode, cfg, out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: noise: missing keys ['seed']\n"
        assert not out.exists()


class TestTable1:
    def test_default_positions_and_accuracy(self, tmp_path):
        cfg = write_cfg(tmp_path, "t1.json", {
            "mode": "table1",
            "wire": {"current_ma": 40.0},
        })
        out = tmp_path / "out"
        assert cli.run("table1", cfg, out) == cli.EXIT_OK
        rows = read_csv(out / "table1.csv")
        assert rows[0] == ["x_um", "z_um", "alpha_est_deg", "alpha_theory_deg", "error_deg"]
        assert len(rows) == 10
        for row in rows[1:]:
            assert float(row[4]) < 1e-3

    def test_noiseless_error_written_as_zero(self, tmp_path):
        # a noiseless error is float rounding (up to 1.7e-13 deg), which
        # must not reach the data file, or reordered arithmetic changes it
        cfg = write_cfg(tmp_path, "t1.json", {"mode": "table1", "wire": {"current_ma": 40.0}})
        out = tmp_path / "out"
        assert cli.run("table1", cfg, out) == cli.EXIT_OK
        assert [row[4] for row in read_csv(out / "table1.csv")[1:]] == ["0"] * 9

    @pytest.mark.parametrize("fwhm_mhz, code", [(0.5, cli.EXIT_OK), (0.51, cli.EXIT_OK),
                                                (49.5, cli.EXIT_OK), (50.0, cli.EXIT_OK)])
    def test_linewidth_bracket(self, tmp_path, fwhm_mhz, code):
        # the pinned dip fits search the linewidth strictly inside (grid step,
        # half the grid span) = (0.5, 50) MHz; a noiseless run is exact up to
        # and at its ends, where the fitted linewidth still lies inside
        cfg = write_cfg(tmp_path, "t1.json", {
            "mode": "table1",
            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
            "lineshape": {"fwhm_mhz": fwhm_mhz},
        })
        out = tmp_path / "out"
        assert cli.run("table1", cfg, out) == code
        assert float(read_csv(out / "table1.csv")[1][4]) == 0.0

    @pytest.mark.parametrize("fwhm_mhz", [0.3, 0.5, 49.5, 50.0, 60.0])
    def test_linewidth_refused_as_the_library_refuses(self, tmp_path, capsys, fwhm_mhz):
        # one owner of the bracket: the command exits 0 exactly when
        # end_to_end_planar returns, and otherwise with the library's error
        chain = reconstruct.ChainConfig(shape=odmrsim.LineshapeParams(fwhm_mhz=fwhm_mhz))
        try:
            reconstruct.end_to_end_planar(geometry.WireScene(61.0, 18.0, 40.0), 3, chain)
            expected = (cli.EXIT_OK, "")
        except NvOrientError as exc:
            expected = (cli.EXIT_PIPELINE, f"error: {exc}\n")
        cfg = write_cfg(tmp_path, "t1.json", {
            "mode": "table1",
            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
            "lineshape": {"fwhm_mhz": fwhm_mhz},
        })
        capsys.readouterr()
        assert (cli.run("table1", cfg, tmp_path / "out"), capsys.readouterr().err) == expected

    def test_defaults_are_the_library_defaults(self):
        # the schema reads its defaults from ChainConfig() and its constants
        # and shape, and the wire's from WireScene; a config that sets only
        # the current must build the library's default chain, field by
        # field, and scene; the grid's defaults are ChainConfig's alone
        p = cli._read({"mode": "table1", "wire": {"current_ma": 40.0}}, cli.SCHEMAS["table1"])
        chain, ref = cli._chain_config(p, None), reconstruct.ChainConfig()
        assert chain == ref
        assert odmrsim.default_grid.__defaults__ is None
        assert p["wire"]["diameter_um"] == geometry.WireScene(61.0, 18.0, 40.0).wire_diameter_um

    def test_noise_beyond_the_poisson_sampler_exits_2(self, tmp_path, capsys):
        # 1e21 mean counts per point are finite and positive, but numpy's
        # Poisson sampler refuses means above about 9.2e18
        cfg = write_cfg(tmp_path, "t1.json", {
            "mode": "table1", "wire": {"current_ma": 40.0},
            "noise": {"rate_kcps": 1e12, "dwell_s": 1e6, "seed": 1}})
        out = tmp_path / "out"
        assert cli.run("table1", cfg, out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: noise: count rate and dwell time must be finite, with at most 1e18 "
            "mean counts per point\n")
        assert not out.exists()

    @pytest.mark.parametrize("current_ma, code", [(0.0, cli.EXIT_PIPELINE),
                                                  (0.01, cli.EXIT_OK)])
    def test_no_signal_fails(self, tmp_path, current_ma, code):
        # without microwave current there is no dip modulation to locate;
        # a weak but resolvable one still reconstructs; a failed run makes no --out
        cfg = write_cfg(tmp_path, "t1.json", {
            "mode": "table1",
            "wire": {"current_ma": current_ma, "positions_um": [[47.7, 16.5]]},
        })
        out = tmp_path / "out"
        assert cli.run("table1", cfg, out) == code
        if code == cli.EXIT_OK:
            assert float(read_csv(out / "table1.csv")[1][4]) < 1e-3
        else:
            assert not out.exists()


class TestReconstructPlanar:
    CFG = {
        "mode": "reconstruct-planar",
        "nv_index": 3,
        "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
        "noise": {"rate_kcps": 200.0, "dwell_s": 0.5, "seed": 7},
    }

    def test_seeded_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, "rp.json", self.CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.run("reconstruct-planar", cfg, out_a) == cli.EXIT_OK
        assert cli.run("reconstruct-planar", cfg, out_b) == cli.EXIT_OK
        assert (out_a / "planar.csv").read_bytes() == (out_b / "planar.csv").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        # two configs that differ in their seed alone; each manifest records its seed
        texts = []
        for seed in (7, 8):
            noise = dict(self.CFG["noise"], seed=seed)
            cfg = write_cfg(tmp_path, f"rp{seed}.json", dict(self.CFG, noise=noise))
            out = tmp_path / f"out{seed}"
            assert cli.run("reconstruct-planar", cfg, out) == cli.EXIT_OK
            assert json.loads((out / "manifest.json").read_text())["seed"] == seed
            texts.append((out / "planar.csv").read_bytes())
        assert texts[0] != texts[1]

    @pytest.mark.parametrize("mode", ["reconstruct-planar", "table1"])
    def test_positions_draw_distinct_streams(self, tmp_path, mode):
        # each wire position of a noisy run has its own noise stream, so a
        # position listed twice gives two different estimates: row j is the
        # library's result with the run's noise at spawn key (j,); table1
        # writes the same row without the partner
        wire = {"current_ma": 40.0, "positions_um": [[61.0, 18.0], [61.0, 18.0]]}
        cfg = write_cfg(tmp_path, "rp.json", dict(self.CFG, mode=mode, wire=wire))
        out = tmp_path / "out"
        assert cli.run(mode, cfg, out) == cli.EXIT_OK
        stem = "planar" if mode == "reconstruct-planar" else "table1"
        header, *rows = read_csv(out / f"{stem}.csv")
        col = header.index("alpha_est_deg")
        assert rows[0][col] != rows[1][col]
        noise, scene = self.CFG["noise"], geometry.WireScene(61.0, 18.0, 40.0)
        for j, row in enumerate(rows):
            chain = reconstruct.ChainConfig(noise=odmrsim.NoiseConfig(
                noise["rate_kcps"], noise["dwell_s"], noise["seed"], key=(j,)))
            res = reconstruct.end_to_end_planar(scene, self.CFG["nv_index"], chain)
            partner = [res.alpha_partner_deg] if mode == "reconstruct-planar" else []
            assert row == [f"{v:.10g}" for v in (61.0, 18.0, res.alpha_est_deg, *partner,
                                                 res.alpha_theory_deg,
                                                 round(res.error_deg, 9))]

    def test_all_zero_signals_fail(self, tmp_path, capsys):
        # 1e-15 counts per point: every noisy signal is 0, and the dip fit
        # refuses to report the linewidth it started from
        cfg = write_cfg(tmp_path, "rp.json", dict(
            self.CFG, noise={"rate_kcps": 1e-9, "dwell_s": 1e-9, "seed": 1}))
        assert cli.run("reconstruct-planar", cfg, tmp_path / "out") == cli.EXIT_PIPELINE
        assert "do not fix the dip fwhm" in capsys.readouterr().err


R3_HEADER = ["x_um", "z_um", "axis_x", "axis_y", "axis_z", "angular_error_deg",
             "truth_x", "truth_y", "truth_z"]
MEASURED = [[-0.86, 0.42, -0.29], [0.85, 0.46, 0.25]]


def r3_rows(out, fmt="csv"):
    """The rows of a reconstruct-3d run, as string lists (CSV) or dicts (JSON)."""
    if fmt == "json":
        return json.loads((out / "reconstruct3d.json").read_text())
    header, *rows = read_csv(out / "reconstruct3d.csv")
    assert header == R3_HEADER
    return rows


def r3_file_row(x, z, est, truth):
    """A reconstruct-3d row as the file rounds it: axes to 12 decimals, with
    no signed zero, and the error to 1e-9 deg."""
    axes = [round(float(c), 12) + 0.0 for c in (*est.axis, *truth)]
    return [x, z, *axes[:3], round(est.angular_error_deg, 9), *axes[3:]]


class TestReconstruct3d:
    def test_equal_nv_indices_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "r3.json", {
            "mode": "reconstruct-3d",
            "nv_indices": [3, 3],
            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
        })
        out = tmp_path / "out"
        assert cli.run("reconstruct-3d", cfg, out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: nv_indices: the two NV orientations must differ\n")
        assert not out.exists()

    def test_equal_nv_indices_rejected_with_measured_axes(self, tmp_path, capsys):
        # measured axes once skipped the check, and [3, 3] exited 0
        cfg = write_cfg(tmp_path, "r3.json", {
            "mode": "reconstruct-3d",
            "nv_indices": [3, 3],
            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
            "measured_y_axes": MEASURED,
        })
        out = tmp_path / "out"
        assert cli.run("reconstruct-3d", cfg, out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: nv_indices: the two NV orientations must differ\n")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_two_positions_reconstructed(self, tmp_path, fmt):
        # each wire position is a row (this config once exited 2 with
        # "exactly one wire position expected"): row j is the library's
        # result with the run's noise at key (j,), its sweep k at (j, k),
        # after the file's rounding; a position listed twice draws twice
        positions = [[61.0, 18.0], [40.0, 18.0], [61.0, 18.0]]
        noise = dict(NOISE, seed=3)
        cfg = write_cfg(tmp_path, "r3.json", {
            "mode": "reconstruct-3d", "nv_indices": [3, 1], "noise": noise,
            "wire": {"current_ma": 40.0, "positions_um": positions}})
        out = tmp_path / "out"
        assert cli.run("reconstruct-3d", cfg, out, fmt=fmt) == cli.EXIT_OK
        rows = r3_rows(out, fmt)
        assert len(rows) == 3 and rows[0] != rows[2]
        for j, (row, (x, z)) in enumerate(zip(rows, positions)):
            scene = geometry.WireScene(x, z, 40.0)
            chain = reconstruct.ChainConfig(noise=odmrsim.NoiseConfig(
                noise["rate_kcps"], noise["dwell_s"], noise["seed"], key=(j,)))
            est = reconstruct.end_to_end_3d(scene, (3, 1), chain)
            expected = r3_file_row(x, z, est, geometry.mw_direction(scene))
            if fmt == "json":
                assert row == dict(zip(R3_HEADER, expected))
            else:
                assert row == [f"{v:.10g}" for v in expected]

    def test_default_positions_reconstructed(self, tmp_path):
        # the mode's default config (one that exited 2 when the mode took
        # one position) reconstructs the nine reference positions exactly
        cfg = write_cfg(tmp_path, "r3.json", {
            "mode": "reconstruct-3d", "nv_indices": [3, 1], "wire": {"current_ma": 40}})
        out = tmp_path / "out"
        assert cli.run("reconstruct-3d", cfg, out) == cli.EXIT_OK
        rows = r3_rows(out)
        assert [[float(row[0]), float(row[1])] for row in rows] == cli.TABLE1_POSITIONS
        assert [row[5] for row in rows] == ["0"] * 9

    def test_two_positions_rejected_with_measured_axes(self, tmp_path, capsys):
        # one measured pair of axes belongs to one position
        cfg = write_cfg(tmp_path, "r3.json", {
            "mode": "reconstruct-3d",
            "nv_indices": [3, 1],
            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0], [40.0, 18.0]]},
            "measured_y_axes": MEASURED,
        })
        out = tmp_path / "out"
        assert cli.run("reconstruct-3d", cfg, out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: measured_y_axes: exactly one wire position expected\n")
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        ({"nv_indices": [3, 3]}, "nv_indices: the two NV orientations must differ"),
        ({"lineshape": {"fwhm_mhz": -1}}, "lineshape: fwhm must be finite and positive"),
    ], ids=["equal-nv-indices", "lineshape"])
    def test_config_refused_before_any_position(self, tmp_path, capsys, extra, message):
        # a config error exits 2 whatever the positions, as the planar modes
        # do; with a sensor at the wire center these exited 3 from the scene
        cfg = write_cfg(tmp_path, "r3.json", {
            "mode": "reconstruct-3d", "nv_indices": [3, 1],
            "wire": {"current_ma": 40.0, "positions_um": [[0.0, 0.0]]}, **extra})
        out = tmp_path / "out"
        assert cli.run("reconstruct-3d", cfg, out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_near_parallel_measured_axes_exit_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "r3.json", {
            "mode": "reconstruct-3d",
            "nv_indices": [3, 1],
            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
            "measured_y_axes": [[1.0, 0.0, 0.0], [2.0, 0.0, 0.001]],
        })
        out = tmp_path / "out"
        assert cli.run("reconstruct-3d", cfg, out) == cli.EXIT_PIPELINE
        assert capsys.readouterr().err == (
            "error: axes nearly parallel (|cross| = 5.00e-04); direction unresolvable\n")
        assert not out.exists()

    def test_measured_axes_bypass(self, tmp_path):
        cfg = write_cfg(tmp_path, "r3.json", {
            "mode": "reconstruct-3d",
            "nv_indices": [3, 1],
            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
            "measured_y_axes": MEASURED,
        })
        out = tmp_path / "out"
        assert cli.run("reconstruct-3d", cfg, out, fmt="json") == cli.EXIT_OK
        [row] = r3_rows(out, "json")
        scene = geometry.WireScene(61.0, 18.0, 40.0)
        truth = geometry.mw_direction(scene)
        est = reconstruct.mw_axis_from_two(*MEASURED, truth_axis=truth)
        assert row == dict(zip(R3_HEADER, r3_file_row(61.0, 18.0, est, truth)))
        assert 1.5 < row["angular_error_deg"] < 3.5
        assert abs(np.linalg.norm([row["axis_x"], row["axis_y"], row["axis_z"]]) - 1.0) < 1e-9

    @pytest.mark.parametrize("axes", [[[1e-200, 0, 0], [0, 1e-200, 0]],
                                      [[1e200, 0, 0], [0, 1, 0]]], ids=["1e-200", "1e200"])
    def test_measured_axes_of_any_length(self, tmp_path, capsys, axes):
        # numpy's norm once read 1e-200 as a zero vector (exit 2) and
        # overflowed at 1e200 with a RuntimeWarning (exit 3, "nearly parallel")
        texts = []
        for name, measured in (("unit", [[1, 0, 0], [0, 1, 0]]), ("scaled", axes)):
            cfg = write_cfg(tmp_path, f"{name}.json", {
                "mode": "reconstruct-3d",
                "nv_indices": [3, 1],
                "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
                "measured_y_axes": measured,
            })
            assert cli.run("reconstruct-3d", cfg, tmp_path / name) == cli.EXIT_OK
            assert capsys.readouterr().err == ""
            texts.append((tmp_path / name / "reconstruct3d.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_measured_axis_of_overflowing_length_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "r3.json", {
            "mode": "reconstruct-3d",
            "nv_indices": [3, 1],
            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
            "measured_y_axes": [[1.5e308, 1.5e308, 0], [0, 1, 0]],
        })
        out = tmp_path / "out"
        assert cli.run("reconstruct-3d", cfg, out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: measured_y_axes: cannot normalize a zero vector or one whose length "
            "overflows\n")
        assert not out.exists()

    def test_full_chain_accuracy(self, tmp_path):
        cfg = write_cfg(tmp_path, "r3.json", {
            "mode": "reconstruct-3d",
            "nv_indices": [3, 1],
            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
        })
        out = tmp_path / "out"
        assert cli.run("reconstruct-3d", cfg, out) == cli.EXIT_OK
        [row] = r3_rows(out)
        assert float(row[5]) < 1e-3

    def test_noiseless_error_written_as_zero(self, tmp_path):
        # the noiseless axis is ~5e-14 deg off by float rounding (its y
        # component is about -8e-16); the file rounds the error to 1e-9 deg and
        # the axes to 12 decimals, and writes no signed zero
        cfg = write_cfg(tmp_path, "r3.json", {
            "mode": "reconstruct-3d",
            "nv_indices": [3, 1],
            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
        })
        out = tmp_path / "out"
        assert cli.run("reconstruct-3d", cfg, out, fmt="json") == cli.EXIT_OK
        text = (out / "reconstruct3d.json").read_text()
        assert "-0.0," not in text and "-0.0\n" not in text
        [row] = json.loads(text)
        assert row["angular_error_deg"] == 0.0
        for key in R3_HEADER[2:]:
            assert row[key] == round(row[key], 12)
        assert cli.run("reconstruct-3d", cfg, tmp_path / "csv") == cli.EXIT_OK
        [row] = r3_rows(tmp_path / "csv")
        assert "-0" not in row


class TestGridRanges:
    # a [start, stop, step] range never passes stop: odmrsim.default_grid
    # takes floor((stop - start) / step) + 1 points, and a whole number of
    # steps still ends on stop
    def test_fieldmap_axis_stops_at_its_max(self, tmp_path):
        cfg = write_cfg(tmp_path, "fm.json", {
            "mode": "fieldmap", "grid_um": {"x": [40.0, 41.0, 0.6], "z": [18.0, 19.0, 0.5]}})
        out = tmp_path / "out"
        assert cli.run("fieldmap", cfg, out) == cli.EXIT_OK
        rows = read_csv(out / "fieldmap.csv")[1:]
        assert [(float(x), float(z)) for x, z, _, _ in rows] == [
            (x, z) for x in (40.0, 40.6) for z in (18.0, 18.5, 19.0)]

    def test_simulate_grid_stops_at_its_stop(self, tmp_path):
        cfg = write_cfg(tmp_path, "sim.json", dict(
            SIMULATE_CFG, frequency_grid_mhz={"start": 2850.0, "stop": 2851.0, "step": 0.6}))
        out = tmp_path / "out"
        assert cli.run("simulate", cfg, out) == cli.EXIT_OK
        assert [row[0] for row in read_csv(out / "spectrum.csv")[1:]] == ["2850", "2850.6"]

    @pytest.mark.parametrize("stop, step, size", [(19999.6, 1.0, 20000), (19999.0, 1.0, 20000),
                                                  (0.3, 0.1, 4), (0.35, 0.1, 4)])
    def test_size_bound_counts_the_points_made(self, stop, step, size):
        # 19999.6 steps make 20,000 points, within the bound (it counted
        # 20,001 and allocated them); 0.3 / 0.1 is 2.9999999999999996 in
        # floats and still ends on stop
        grid = odmrsim.default_grid(*cli._grid_range(0.0, stop, step, "frequency_grid_mhz"))
        assert grid.size == size and grid[-1] <= stop + 1e-12
        assert grid.size <= cli.MAX_GRID_POINTS

    @pytest.mark.parametrize("raw, code, message", [
        ('{"mode": "table1", "wire": {"current_ma": 40}, '
         '"frequency_grid_mhz": {"start": 2850, "stop": 2851, "step": 5}}', cli.EXIT_CONFIG,
         "frequency_grid_mhz: need at least two points (stop >= start + step)"),
        ('{"mode": "table1", "wire": {"current_ma": 40, "current_ma": 20}}', cli.EXIT_CONFIG,
         "config: duplicate key 'current_ma'"),
        ('{"mode": "table1", "wire": {"current_ma": 40}, '
         '"frequency_grid_mhz": {"start": 2850, "stop": 2900, "step": 0.5}}', cli.EXIT_PIPELINE,
         "dip centers 2898.194, 2926.389 MHz must lie inside the frequency grid [2850, 2900] MHz"),
        ('{"mode": "table1", "wire": {"current_ma": 40}, "constants": {"d_mhz": 1e-3}}',
         cli.EXIT_PIPELINE,
         "dip centers 285.855, 571.709 MHz must lie inside the frequency grid [2850, 2950] MHz"),
        ('{"mode": "table1", "wire": {"current_ma": 40}, "static_field_mt": 1e-9}',
         cli.EXIT_PIPELINE,
         "dip centers 2870.000, 2870.000 MHz must differ by at least the grid step 0.5 MHz"),
        ('{"mode": "table1", "wire": {"current_ma": 40}, "static_field_mt": 1e-4}',
         cli.EXIT_PIPELINE,
         "dip centers 2870.000, 2870.000 MHz must differ by at least the grid step 0.5 MHz"),
        ('{"mode": "table1", "wire": {"current_ma": 40}, "static_field_mt": 1e-6}',
         cli.EXIT_PIPELINE,
         "dip centers 2870.000, 2870.000 MHz must differ by at least the grid step 0.5 MHz"),
        ('{"mode": "fit", "spectrum_csv": "SPECTRUM", "init_centers_mhz": [2898.0, 2898.0]}',
         cli.EXIT_PIPELINE,
         "dip centers 2898.000, 2898.000 MHz must differ by at least the grid step 0.5 MHz"),
    ], ids=["grid-one-point", "duplicate-key", "grid-without-dips", "d-tiny", "equal-centers",
            "close-centers-1e-4", "close-centers-1e-6", "fit-equal-centers"])
    def test_error_names_the_key(self, tmp_path, capsys, fit_spectrum_csv, raw, code, message):
        # a one-point grid once exited 3 from the linewidth bracket, and a
        # repeated key ran on its last value; a grid without the dips exited
        # 3 with "initial dip centers must lie inside the frequency grid",
        # though table1 takes no initial centers, and dips at one center with
        # "Singular matrix" or, in `fit`, a depth of -4.7e12 not significant;
        # dips 2.7e-9 and 4.5e-13 MHz apart (static fields of 1e-4 and 1e-6
        # mT) with "Singular matrix" and "zero chi-square curvature"
        path = tmp_path / "cfg.json"
        path.write_text(raw.replace("SPECTRUM", fit_spectrum_csv))
        capsys.readouterr()
        assert cli.run(json.loads(raw)["mode"], path, tmp_path / "out") == code
        assert capsys.readouterr().err == f"error: {message}\n"


ETA_RANGE = "sigma_rel * sqrt(n * t) lies outside the float range"
SIGMA_REL_RANGE = "rate, contrast and time give a sigma_rel outside the float range"


class TestFieldmapAndSensitivity:
    def test_fieldmap_values(self, tmp_path):
        cfg = write_cfg(tmp_path, "fm.json", {
            "mode": "fieldmap",
            "grid_um": {"x": [61.0, 61.0, 1.0], "z": [18.0, 18.0, 1.0]},
        })
        out = tmp_path / "out"
        assert cli.run("fieldmap", cfg, out) == cli.EXIT_OK
        rows = read_csv(out / "fieldmap.csv")
        assert rows[0] == ["x_um", "z_um", "mx", "mz"]
        x, z, mx, mz = (float(v) for v in rows[1])
        r = math.hypot(61.0, 18.0)
        assert abs(mx - 18.0 / r) < 1e-9
        assert abs(mz + 61.0 / r) < 1e-9

    def test_sensitivity_report(self, tmp_path):
        cfg = write_cfg(tmp_path, "sens.json", {
            "mode": "sensitivity",
            "phi_deg": 45.0,
            "rate_kcps": 200.0,
            "contrast": 0.30,
            "time_s": 1.0,
        })
        out = tmp_path / "out"
        assert cli.run("sensitivity", cfg, out) == cli.EXIT_OK
        rows = read_csv(out / "sensitivity.csv")
        eta = float(rows[1][2])
        eta_max = float(rows[1][3])
        assert abs(eta - 2.64e-3) < 0.01e-3
        assert abs(eta - eta_max) < 1e-12
        assert json.loads((out / "manifest.json").read_text())["seed"] is None

    @pytest.mark.parametrize("extra, message", [
        ({"sigma_rel": 0.01, "n": 10 ** 400}, ETA_RANGE),
        ({"sigma_rel": 1e300, "t": 1e300}, ETA_RANGE),
        ({"rate_kcps": 1e300, "contrast": 1.0, "time_s": 1e300}, SIGMA_REL_RANGE),
        ({"rate_kcps": 1e-300, "contrast": 1e-300, "time_s": 1e-300}, SIGMA_REL_RANGE),
    ], ids=["n-oversized", "eta-overflow", "counts-overflow", "counts-underflow"])
    def test_figures_outside_float_range_exit_2(self, tmp_path, capsys, extra, message):
        # the library refuses them: these printed "int too large to convert to
        # float", "inputs overflow the figures of merit", "sigma_rel must be
        # finite and positive" for a sigma_rel the config never gave, and
        # "float division by zero"
        cfg = write_cfg(tmp_path, "sens.json", {"mode": "sensitivity", "phi_deg": 45, **extra})
        out = tmp_path / "out"
        assert cli.run("sensitivity", cfg, out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: sensitivity: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        {"rate_kcps": -5, "contrast": 7},
        {"rate_kcps": 200.0},
        {"contrast": 0.3},
        {"time_s": 1.0},
        {"rate_kcps": 200.0, "contrast": 0.3, "time_s": 1.0},
    ], ids=["bad-rate-and-contrast", "rate_kcps", "contrast", "time_s", "all-three"])
    def test_sigma_rel_with_shot_noise_keys_rejected(self, tmp_path, capsys, extra):
        # sigma_rel once won and the shot-noise keys were ignored, so a
        # negative rate and a contrast of 7 exited 0
        cfg = write_cfg(tmp_path, "sens.json", {
            "mode": "sensitivity", "phi_deg": 45, "sigma_rel": 0.01, **extra})
        out = tmp_path / "out"
        assert cli.run("sensitivity", cfg, out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: sensitivity: give sigma_rel or rate_kcps+contrast+time_s, not both\n")
        assert not out.exists()


NOISE = {"rate_kcps": 200.0, "dwell_s": 0.008}
T1_CFG = {"mode": "table1", "wire": {"current_ma": 40.0}}
ENTRY_CASES = {
    "table1-noiseless": T1_CFG,
    "table1-noisy": dict(T1_CFG, noise=dict(NOISE, seed=11)),
    "reconstruct-3d-noisy": {"mode": "reconstruct-3d", "nv_indices": [3, 1],
                             "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
                             "noise": dict(NOISE, seed=7)},
    "simulate-noisy": dict(SIMULATE_CFG, noise=dict(NOISE, seed=5)),
}


def run_module(*args, script=None):
    """`python -m nvorient.cli args`, or `python -c script args`, with src/ on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    head = ["-m", "nvorient.cli"] if script is None else ["-c", script]
    return subprocess.run([sys.executable, *head, *map(str, args)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))


class TestMain:
    @pytest.fixture(autouse=True)
    def unfreeze(self):
        # main() freezes what the process has made so far; give the test
        # process's objects back to the collector
        yield
        gc.unfreeze()

    def test_argv_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, "sim.json", SIMULATE_CFG)
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--format", "json"])
        assert code == cli.EXIT_OK
        assert (out / "spectrum.json").exists()

    def test_readme_examples_run(self, tmp_path, monkeypatch):
        # the configs of README's sh blocks (heredocs and echo lines) and the
        # `nvorient` lines after them run as written, in README order, in a
        # fresh working directory: each run exits 0 and writes its data file,
        # and every out/ file that README names is one that the runs wrote
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        monkeypatch.chdir(tmp_path)
        data_file = {"simulate": "spectrum.csv", "fit": "dips.json", "table1": "table1.csv",
                     "reconstruct-3d": "reconstruct3d.csv"}
        runs = []
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
            lines = iter(block.splitlines())
            for line in lines:
                if m := re.fullmatch(r"cat > (\S+) <<'JSON'", line):
                    Path(m[1]).write_text(
                        "\n".join(itertools.takewhile(lambda t: t != "JSON", lines)))
                elif m := re.fullmatch(r"echo '(.*)' > (\S+)", line):
                    Path(m[2]).write_text(m[1])
                elif line.startswith("nvorient ") and "<mode>" not in line:
                    argv = shlex.split(line)[1:]
                    runs.append(argv[0])
                    assert cli.main(argv) == cli.EXIT_OK, line
                    assert (Path(argv[argv.index("--out") + 1]) / data_file[argv[0]]).is_file()
        assert runs == ["simulate", "fit", "table1", "reconstruct-3d"]
        named = set(re.findall(r"\bout/([\w.]+)", readme))
        assert named and all((tmp_path / "out" / name).is_file() for name in named), named

    def test_console_script_target(self, tmp_path, monkeypatch):
        # the `nvorient` command an install makes calls pyproject.toml's
        # target with no arguments and exits with what it returns; a typo in
        # the target would ship a broken command (test_golden imports this
        # module, so its pins are imported here)
        from test_golden import PINS
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["nvorient"]
        module, _, attrs = target.partition(":")
        entry = importlib.import_module(module)
        for attr in attrs.split("."):
            entry = getattr(entry, attr)
        cfg, out = write_cfg(tmp_path, "t1.json", T1_CFG), tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["nvorient", "table1", "--config", str(cfg),
                                          "--out", str(out)])
        assert entry() == cli.EXIT_OK
        digest = hashlib.sha256((out / "table1.csv").read_bytes()).hexdigest()
        assert digest == PINS["out3/table1.csv"][0]

    def test_seed_option_is_unrecognized(self, tmp_path, capsys):
        # a run's config is its one input: an option that overrode its seed
        # is a usage error of argparse, which exits 2 before any run
        cfg = write_cfg(tmp_path, "rp.json", TestReconstructPlanar.CFG)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["reconstruct-planar", "--config", str(cfg), "--out", str(out),
                      "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_synopsis_matches_parser(self):
        # the long options of README's synopsis line are those of every
        # subcommand's parser, so an option added or removed shows in both
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        synopsis, = re.findall(r"^nvorient <mode> --config cfg\.json --out outdir .*$",
                               readme, re.M)
        named = set(re.findall(r"--[\w-]+", synopsis))
        sub, = (a for a in cli.build_parser()._actions if a.choices and a.dest == "mode")
        assert set(sub.choices) == set(cli.SCHEMAS)
        for mode, parser in sub.choices.items():
            options = {s for a in parser._actions for s in a.option_strings if s[:2] == "--"}
            assert options - {"--help"} == named, mode

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--config", "x.json"])

    def test_fresh_process_skips_numpy_ma(self, tmp_path):
        # numpy imports numpy.ma lazily on first use of some functions, at
        # about 10 ms per process; no pipeline step needs it
        cfg = write_cfg(tmp_path, "t1.json", {"mode": "table1", "wire": {"current_ma": 40.0}})
        script = (
            "import sys\n"
            "from nvorient import cli, geometry, reconstruct\n"
            "scene = geometry.WireScene(61.0, 18.0, 40.0)\n"
            "chain = reconstruct.ChainConfig(noise=reconstruct.NoiseConfig(200.0, 0.008, 1))\n"
            "reconstruct.end_to_end_planar(scene, 3, chain)\n"
            "reconstruct.end_to_end_3d(scene, (3, 1), chain)\n"
            "code = cli.main(['table1', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        proc = run_module(cfg, tmp_path / "out", script=script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(cli.EXIT_OK), "False"]

    def test_fresh_process_skips_dataclasses_and_copy(self, tmp_path):
        # the records are named tuples: dataclasses generated and compiled
        # their methods at every import of nvorient, and nothing else of a
        # run loads either module
        script = (
            "import sys\n"
            "from nvorient import cli\n"
            "codes = [cli.main(['table1', '--config', cfg, '--out', out])\n"
            "         for cfg, out in zip(sys.argv[1::2], sys.argv[2::2])]\n"
            "print(*codes, 'dataclasses' in sys.modules, 'copy' in sys.modules)\n"
        )
        noisy = dict(T1_CFG, noise=dict(NOISE, seed=11))
        proc = run_module(write_cfg(tmp_path, "t1.json", T1_CFG), tmp_path / "out",
                          write_cfg(tmp_path, "t1n.json", noisy), tmp_path / "noisy",
                          script=script)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split() == [str(cli.EXIT_OK)] * 2 + ["False", "False"]

    def test_main_freezes_import_graph(self, tmp_path):
        # the objects made at import are frozen, so interpreter shutdown does
        # not collect over them
        script = (
            "import gc, sys\n"
            "from nvorient import cli\n"
            "code = cli.main(['table1', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(code, gc.get_freeze_count() > 0)\n"
        )
        proc = run_module(write_cfg(tmp_path, "t1.json", T1_CFG), tmp_path / "out",
                          script=script)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split() == [str(cli.EXIT_OK), "True"]

    def test_run_leaves_collector_alone(self, tmp_path):
        cfg = write_cfg(tmp_path, "t1.json", T1_CFG)
        frozen = gc.get_freeze_count()
        assert cli.run("table1", cfg, tmp_path / "out") == cli.EXIT_OK
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("case", sorted(ENTRY_CASES))
    def test_module_entry_matches_run(self, tmp_path, case):
        # the command (which freezes its import graph) writes the data files
        # that an in-process run writes, and nothing to stderr
        payload = ENTRY_CASES[case]
        cfg = write_cfg(tmp_path, "cfg.json", payload)
        proc = run_module(payload["mode"], "--config", cfg, "--out", tmp_path / "cmd")
        assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")
        assert cli.run(payload["mode"], cfg, tmp_path / "lib") == cli.EXIT_OK
        names = sorted(p.name for p in (tmp_path / "lib").iterdir() if p.name != "manifest.json")
        assert names and names == sorted(p.name for p in (tmp_path / "cmd").iterdir()
                                         if p.name != "manifest.json")
        for name in names:
            assert (tmp_path / "cmd" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


# ---------------------------------------------------------------------------
# Config fuzzing: one field of a valid config replaced by a bad value
# ---------------------------------------------------------------------------

BAD_VALUES = {
    "negative": st.floats(-1e300, -1e-300) | st.integers(max_value=-1),
    "zero": st.sampled_from([0, 0.0, -0.0]),
    "nonfinite": st.sampled_from([math.nan, math.inf, -math.inf]),
    "string": st.text(max_size=8).filter(lambda t: t not in ("linear", "saturating")),
    "bool": st.booleans(),
    "list": st.lists(st.floats(-1e3, 1e3), max_size=2),
}
ANY = ("nonfinite", "string", "bool", "list")
NONNEGATIVE = ANY + ("negative",)
POSITIVE = NONNEGATIVE + ("zero",)
SCALAR = ("nonfinite", "string", "bool", "negative", "zero")  # where a short list may be valid

# values above a size bound, by field path
OVERSIZED = {
    ("frequency_grid_mhz", "step"): 1e-9,
    ("psi_count",): cli.MAX_PSI_COUNT + 1,
    ("nv_index",): 4,
    ("nv_indices", 0): 4,
    ("grid_um", "x", 2): 1e-9,
    ("grid_um", "z", 2): 1e-9,
    ("n",): 10 ** 400,
}

COMMON_BLOCKS = {
    "constants": {"d_mhz": 2870.0, "gamma_e": 28.02495},
    "lineshape": {"fwhm_mhz": 8.0, "contrast_ref": 0.02, "omega_ref_mhz": 1.0,
                  "model": "linear"},
    "frequency_grid_mhz": {"start": 2850.0, "stop": 2950.0, "step": 0.5},
    "noise": {"rate_kcps": 200.0, "dwell_s": 0.01, "seed": 1},
}
COMMON_FIELDS = [
    (("constants",), ANY), (("constants", "d_mhz"), POSITIVE),
    (("constants", "gamma_e"), POSITIVE),
    (("lineshape",), ANY), (("lineshape", "fwhm_mhz"), POSITIVE),
    (("lineshape", "contrast_ref"), POSITIVE), (("lineshape", "omega_ref_mhz"), POSITIVE),
    (("lineshape", "model"), POSITIVE),
    (("frequency_grid_mhz",), ANY), (("frequency_grid_mhz", "start"), ANY),
    (("frequency_grid_mhz", "stop"), POSITIVE), (("frequency_grid_mhz", "step"), POSITIVE),
    (("noise",), ANY), (("noise", "rate_kcps"), POSITIVE), (("noise", "dwell_s"), POSITIVE),
    (("noise", "seed"), NONNEGATIVE),
]
CHAIN_FIELDS = COMMON_FIELDS + [
    (("static_field_mt",), POSITIVE), (("psi_count",), POSITIVE),
    (("wire",), ANY), (("wire", "current_ma"), ANY), (("wire", "diameter_um"), NONNEGATIVE),
    (("wire", "positions_um"), POSITIVE), (("wire", "positions_um", 0), SCALAR),
    (("wire", "positions_um", 0, 0), ANY),
]
WIRE = {"current_ma": 40.0, "positions_um": [[61.0, 18.0]], "diameter_um": 25.0}
CHAIN = dict(COMMON_BLOCKS, static_field_mt=10.2, psi_count=12, wire=WIRE)
GRID_FIELDS = [(("grid_um",), ANY)]
for key in ("x", "z"):  # [min, max, step]
    GRID_FIELDS += [(("grid_um", key), POSITIVE), (("grid_um", key, 0), ANY),
                    (("grid_um", key, 1), POSITIVE), (("grid_um", key, 2), POSITIVE)]

# name -> (valid config, fuzzed fields with the kinds of bad value each must reject)
FUZZ_BASES = {
    "simulate": (dict(SIMULATE_CFG, **COMMON_BLOCKS), COMMON_FIELDS + [
        (("static",), ANY), (("static", "b_mt"), NONNEGATIVE),
        (("static", "theta_deg"), NONNEGATIVE), (("static", "phi_deg"), ANY),
        (("mw",), ANY), (("mw", "amplitude_mt"), NONNEGATIVE),
        (("mw", "zeta_deg"), NONNEGATIVE), (("mw", "transverse_azimuth_deg"), ANY),
    ]),
    "fit": ({"mode": "fit", "spectrum_csv": None, "init_centers_mhz": [2898.0, 2926.0]}, [
        (("spectrum_csv",), POSITIVE), (("init_centers_mhz",), SCALAR),
        (("init_centers_mhz", 0), ANY),
    ]),
    "table1": (dict(CHAIN, mode="table1", nv_index=3),
               CHAIN_FIELDS + [(("nv_index",), NONNEGATIVE)]),
    "reconstruct-planar": (dict(CHAIN, mode="reconstruct-planar", nv_index=3),
                           CHAIN_FIELDS + [(("nv_index",), NONNEGATIVE)]),
    "reconstruct-3d": (dict(CHAIN, mode="reconstruct-3d", nv_indices=[3, 1]), CHAIN_FIELDS + [
        (("nv_indices",), POSITIVE), (("nv_indices", 0), NONNEGATIVE),
    ]),
    "reconstruct-3d-measured": ({"mode": "reconstruct-3d", "nv_indices": [3, 1], "wire": WIRE,
                                 "measured_y_axes": [[-0.86, 0.42, -0.29],
                                                     [0.85, 0.46, 0.25]]}, [
        (("measured_y_axes",), POSITIVE), (("measured_y_axes", 0), POSITIVE),
        (("measured_y_axes", 0, 0), ANY),
    ]),
    "fieldmap": ({"mode": "fieldmap", "grid_um": {"x": [50.0, 60.0, 5.0],
                                                  "z": [10.0, 20.0, 5.0]}}, GRID_FIELDS),
    "sensitivity": ({"mode": "sensitivity", "phi_deg": 30.0, "sigma_rel": 0.01, "n": 4,
                     "t": 2.0}, [
        (("phi_deg",), ANY), (("sigma_rel",), POSITIVE), (("n",), POSITIVE),
        (("t",), POSITIVE),
    ]),
    "sensitivity-shot-noise": ({"mode": "sensitivity", "phi_deg": 30.0, "rate_kcps": 200.0,
                                "contrast": 0.3, "time_s": 1.0}, [
        (("rate_kcps",), POSITIVE), (("contrast",), POSITIVE), (("time_s",), POSITIVE),
    ]),
}
FUZZ_CASES = [(name, path, kind)
              for name, (_, fields) in FUZZ_BASES.items()
              for path, kinds in fields
              for kind in kinds + (("oversized",) if path in OVERSIZED else ())]


@pytest.fixture(scope="module")
def fit_spectrum_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-spectrum")
    cfg = write_cfg(out, "sim.json", SIMULATE_CFG)
    assert cli.run("simulate", cfg, out) == cli.EXIT_OK
    return str(out / "spectrum.csv")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_config_exits_2(fit_spectrum_csv, data):
    name, path, kind = data.draw(st.sampled_from(FUZZ_CASES), label="case")
    value = OVERSIZED[path] if kind == "oversized" else data.draw(BAD_VALUES[kind], label="value")
    base, _ = FUZZ_BASES[name]
    cfg = copy.deepcopy(base)
    if name == "fit":
        cfg["spectrum_csv"] = fit_spectrum_csv
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = write_cfg(Path(tmp), "cfg.json", cfg)
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.run(cfg["mode"], config, out)
        assert code == cli.EXIT_CONFIG
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()
        assert not out.exists()


# ---------------------------------------------------------------------------
# Schema-driven checks: every key that a mode's table declares
# ---------------------------------------------------------------------------

def schema_keys(table, prefix=()):
    """(key path, default) of every key of a schema table, nested keys too."""
    for key, (parse, default) in table.items():
        yield prefix + (key,), default
        if isinstance(parse, dict):
            yield from schema_keys(parse, prefix + (key,))


SCHEMA_CASES = [(mode, path, default) for mode, table in cli.SCHEMAS.items()
                for path, default in schema_keys(table)]


@pytest.mark.parametrize("mode, path, default", SCHEMA_CASES,
                         ids=[f"{mode}-{'.'.join(path)}" for mode, path, _ in SCHEMA_CASES])
def test_schema_key_rejects_null_and_wrong_type(tmp_path, capsys, fit_spectrum_csv,
                                                mode, path, default):
    # measured axes are read only without the simulated chain's keys
    name = "reconstruct-3d-measured" if path == ("measured_y_axes",) else mode
    cfg = copy.deepcopy(FUZZ_BASES[name][0])
    if mode == "fit":
        cfg["spectrum_csv"] = fit_spectrum_csv
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]  # the valid base config holds every nested block
    valid = parent.get(path[-1], default)
    for value in (None, 1.0 if isinstance(valid, str) else "x"):
        parent[path[-1]] = value
        config = write_cfg(tmp_path, "cfg.json", cfg)
        out = tmp_path / "out"
        assert cli.run(mode, config, out) == cli.EXIT_CONFIG, value
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert path[0] in err
        assert not out.exists()


def test_readme_names_config_defaults():
    # the README's config paragraph names every key of the shared blocks
    # and of the reconstruction modes, with its default when it is a number
    # or a string; the default wire positions are described in words
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("Config blocks shared by")
    paragraph = " ".join(readme[start:readme.index("\n\n", start)].split())
    shared = list(schema_keys(cli.SHARED))
    chain = [(path, default) for mode in ("table1", "reconstruct-planar", "reconstruct-3d")
             for path, default in schema_keys(cli.SCHEMAS[mode])
             if path[0] not in cli.SHARED and path != ("mode",)]
    for path, default in shared + chain:
        key = f"`{path[-1]}`"
        if isinstance(default, (int, float)):
            key += f" {default:.12g}"
        elif isinstance(default, str):
            key += f" {json.dumps(default)}"
        assert key in paragraph, key
