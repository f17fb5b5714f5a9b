import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvorient import cli


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

    def test_seed_override_recorded(self, tmp_path):
        payload = dict(SIMULATE_CFG, noise={"rate_kcps": 100.0, "dwell_s": 0.5})
        cfg = write_cfg(tmp_path, "sim.json", payload)
        out = tmp_path / "out"
        assert cli.run("simulate", cfg, out, seed=99) == cli.EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["seed"] == 99


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
        assert not (out / "manifest.json").exists()


class TestErrorPaths:
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
                   '"lineshape": {"fwhm_mhz": 0.4}}'),
        ("table1", '{"mode": "table1", "wire": {"current_ma": 40}, '
                   '"lineshape": {"fwhm_mhz": 60}}'),
        ("reconstruct-planar", '{"mode": "reconstruct-planar", "nv_index": 3, '
                               '"wire": {"current_ma": 40, "positions_um": [[61, 18]]}, '
                               '"frequency_grid_mhz": {"step": 10}}'),
    ], ids=["nan", "infinity", "overflow", "position-string", "seed-nan", "n-string",
            "n-float", "phi-minus-infinity", "measured-axes-scalars", "fieldmap-origin-only",
            "spectrum-path-number", "rate-negative", "dwell-zero", "static-field-zero",
            "gamma-zero", "d-negative", "measured-axes-zero-vector", "diameter-negative",
            "grid-step-tiny", "psi-count-oversized", "fieldmap-axis-oversized",
            "fieldmap-grid-oversized", "n-oversized", "eta-overflow", "rate-zero",
            "fieldmap-unread-blocks", "measured-axes-static-field", "measured-axes-psi-count",
            "fwhm-below-grid-step", "fwhm-above-half-span", "grid-step-above-fwhm"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, mode, raw):
        path = tmp_path / "cfg.json"
        path.write_text(raw)
        out = tmp_path / "out"
        assert cli.run(mode, path, out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "manifest.json").exists()

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
        assert not out.exists() or not any(out.iterdir())

    def test_no_outputs_on_config_error(self, tmp_path):
        payload = dict(SIMULATE_CFG, extra=1)
        cfg = write_cfg(tmp_path, "sim.json", payload)
        out = tmp_path / "out"
        cli.run("simulate", cfg, out)
        assert not (out / "manifest.json").exists()


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

    @pytest.mark.parametrize("fwhm_mhz, code", [(0.5, cli.EXIT_CONFIG), (0.51, cli.EXIT_OK),
                                                (49.5, cli.EXIT_OK), (50.0, cli.EXIT_CONFIG)])
    def test_linewidth_bracket(self, tmp_path, capsys, fwhm_mhz, code):
        # the pinned dip fits resolve linewidths strictly inside (grid step,
        # half the grid span); inside it a noiseless run is exact, outside it
        # the config is rejected with the bracket named
        cfg = write_cfg(tmp_path, "t1.json", {
            "mode": "table1",
            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
            "lineshape": {"fwhm_mhz": fwhm_mhz},
        })
        out = tmp_path / "out"
        assert cli.run("table1", cfg, out) == code
        if code == cli.EXIT_OK:
            assert abs(float(read_csv(out / "table1.csv")[1][4])) < 1e-9
        else:
            assert "(0.5, 50) MHz" in capsys.readouterr().err

    @pytest.mark.parametrize("current_ma, code", [(0.0, cli.EXIT_PIPELINE),
                                                  (0.01, cli.EXIT_OK)])
    def test_no_signal_fails(self, tmp_path, current_ma, code):
        # without microwave current there is no dip modulation to locate;
        # a weak but resolvable one still reconstructs
        cfg = write_cfg(tmp_path, "t1.json", {
            "mode": "table1",
            "wire": {"current_ma": current_ma, "positions_um": [[47.7, 16.5]]},
        })
        out = tmp_path / "out"
        assert cli.run("table1", cfg, out) == code
        if code == cli.EXIT_OK:
            assert float(read_csv(out / "table1.csv")[1][4]) < 1e-3


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
        cfg = write_cfg(tmp_path, "rp.json", self.CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.run("reconstruct-planar", cfg, out_a) == cli.EXIT_OK
        assert cli.run("reconstruct-planar", cfg, out_b, seed=8) == cli.EXIT_OK
        assert (out_a / "planar.csv").read_bytes() != (out_b / "planar.csv").read_bytes()

    def test_positions_draw_distinct_streams(self, tmp_path):
        # each wire position of a noisy run has its own noise stream, so a
        # position listed twice gives two different estimates
        wire = {"current_ma": 40.0, "positions_um": [[61.0, 18.0], [61.0, 18.0]]}
        cfg = write_cfg(tmp_path, "rp.json", dict(self.CFG, wire=wire))
        out = tmp_path / "out"
        assert cli.run("reconstruct-planar", cfg, out) == cli.EXIT_OK
        header, first, second = read_csv(out / "planar.csv")
        col = header.index("alpha_est_deg")
        assert first[col] != second[col]


class TestReconstruct3d:
    def test_measured_axes_bypass(self, tmp_path):
        cfg = write_cfg(tmp_path, "r3.json", {
            "mode": "reconstruct-3d",
            "nv_indices": [3, 1],
            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
            "measured_y_axes": [[-0.86, 0.42, -0.29], [0.85, 0.46, 0.25]],
        })
        out = tmp_path / "out"
        assert cli.run("reconstruct-3d", cfg, out) == cli.EXIT_OK
        payload = json.loads((out / "reconstruct3d.json").read_text())
        assert payload["sign_ambiguous"] is True
        assert 1.5 < payload["angular_error_deg"] < 3.5
        assert abs(np.linalg.norm(payload["axis"]) - 1.0) < 1e-9

    def test_full_chain_accuracy(self, tmp_path):
        cfg = write_cfg(tmp_path, "r3.json", {
            "mode": "reconstruct-3d",
            "nv_indices": [3, 1],
            "wire": {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]},
        })
        out = tmp_path / "out"
        assert cli.run("reconstruct-3d", cfg, out) == cli.EXIT_OK
        payload = json.loads((out / "reconstruct3d.json").read_text())
        assert payload["angular_error_deg"] < 1e-3

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
        assert cli.run("reconstruct-3d", cfg, out) == cli.EXIT_OK
        text = (out / "reconstruct3d.json").read_text()
        assert "-0.0," not in text and "-0.0\n" not in text
        payload = json.loads(text)
        assert payload["angular_error_deg"] == 0.0
        for c in payload["axis"] + payload["truth_axis"]:
            assert c == round(c, 12)


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


class TestMain:
    def test_argv_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, "sim.json", SIMULATE_CFG)
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--format", "json"])
        assert code == cli.EXIT_OK
        assert (out / "spectrum.json").exists()

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
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.split() == [str(cli.EXIT_OK), "False"]


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
        assert not (out / "manifest.json").exists()


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
        assert not out.exists() or not any(out.iterdir())


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
