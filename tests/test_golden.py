"""Each mode's data files, byte for byte.

The configs of `test_reachability` (one run of every mode) write the data
files below; each file's SHA-256 is pinned.  A change to the code that moves
any byte of them fails here, so a change that is meant to keep the output
must keep these pins, and one that is meant to change it must say so and
repin.  Noisy files (and the fit of a noisy spectrum) depend on numpy's
Poisson sampler, so they are pinned with the numpy version that wrote them
and skipped under any other.
"""

import gc
import hashlib
import json

import numpy as np
import pytest

from nvorient import cli
from test_reachability import run_every_mode

# numpy version under which the noisy pins were computed
NOISY_PINS_NUMPY = "2.4.6"

# file under the run's directory -> (SHA-256, whether its bytes depend on the sampler)
PINS = {
    "sim/spectrum.csv": (
        "f7907ca1660822af18df9210ae7829bce883e794eae598286a43422ac407d0d9", True),
    "out1/spectrum.json": (
        "0b8f9b90ff764eb586a6deb4f3c4abe3a7e79d5738caad740c10694e2b5a0814", False),
    "out2/dips.json": (
        "5b3a064adab74de0f412835b8a2a98c8e191e0aa0bd64e7dbcc45a92ba28f0c4", True),
    "out3/table1.csv": (
        "504f182a31e37ab31c553b898cf647522cc49e9103144c67c24c0b5bf3a2aa2f", False),
    "out4/planar.json": (
        "ba2983b3f59d228bcb6e214535326e34eb68888885b50d0f8b2e05ec6508c9bd", True),
    "out5/reconstruct3d.json": (
        "84ee89156aedae56af1a234269cfd3cd0531f74fb41292d3c9efd5dd7cc637e2", True),
    "out6/reconstruct3d.json": (
        "dde18c3a4a2bb26659888962a1df2a367d0d39958350109fa625f5738de0fa0d", False),
    "out7/fieldmap.csv": (
        "46c65c24b4365c01cd2747619c1505fb3a5186b24af8a0272794a3f150875840", False),
    "out8/sensitivity.csv": (
        "a1266fe87459ad34b7ea780d0725cb41aa47cea995b0e90a9720b342440bcf51", False),
    "out9/spectrum.json": (
        "bdc0fadd50d433bcfc7c67cc1b6ee5ba9b65a861a4f526319eeecb6c09f6577d", True),
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    try:
        run_every_mode(cli, path)
    finally:
        # main() froze the objects alive at each call; give them back to the collector
        gc.unfreeze()
    return path


def test_every_data_file_is_pinned(run_dir):
    # the configs sit in the run's directory, each mode's files one level down
    written = {p.relative_to(run_dir).as_posix() for p in run_dir.glob("*/*")
               if p.name != "manifest.json"}
    assert written == set(PINS)


def test_manifest_lists_its_directory(run_dir):
    # each run's directory holds its manifest and exactly the data files it names
    run_dirs = {p.parent for p in run_dir.glob("*/*")}
    assert run_dirs == {p.parent for p in run_dir.glob("*/manifest.json")}
    for path in run_dirs:
        outputs = json.loads((path / "manifest.json").read_text())["outputs"]
        assert sorted(outputs) == sorted(p.name for p in path.iterdir()
                                         if p.name != "manifest.json")


@pytest.mark.parametrize("name", sorted(PINS))
def test_data_file_bytes(run_dir, name):
    digest, noisy = PINS[name]
    if noisy and np.__version__ != NOISY_PINS_NUMPY:
        pytest.skip(f"noisy pin computed under numpy {NOISY_PINS_NUMPY}, not {np.__version__}")
    assert hashlib.sha256((run_dir / name).read_bytes()).hexdigest() == digest


# The library's own results, pinned as the data files are: the float.hex of
# the named fields of every planar (NV 3) and 3-D (NV 3, 1) result over 50
# seeds at two operating points and two count levels, or the name of the
# error a run raises.  Only named fields enter, so a field added to a result
# record does not move the pin.
RESULTS_PIN = "6de1bd772fb34d56c0ebe1f2f3afd38aa924057e08d2db5d7809656e55296319"


def _hex(values):
    return " ".join(float(v).hex() for v in np.ravel(values))


def _planar_fields(r):
    return [r.alpha_est_deg, r.alpha_partner_deg, r.alpha_theory_deg, r.error_deg,
            r.nv_y.axis, r.nv_y.sigma_angle,
            r.cos2.a, r.cos2.b, r.cos2.psi0, r.cos2.sigma_psi0, r.cos2.sigma_a]


def _axis_fields(r):
    return [r.axis, r.angular_error_deg]


def library_results_digest():
    from nvorient import geometry, reconstruct
    from nvorient.errors import NvOrientError

    h = hashlib.sha256()
    for x, current in ((61.0, 40.0), (40.0, -40.0)):
        scene = geometry.WireScene(x, 18.0, current)
        for dwell_s in (0.008, 0.002):  # 1,600 and 400 counts per point at 200 kcps
            for seed in range(50):
                cfg = reconstruct.ChainConfig(noise=reconstruct.NoiseConfig(200.0, dwell_s, seed))
                for run, fields in ((lambda: reconstruct.end_to_end_planar(scene, 3, cfg),
                                     _planar_fields),
                                    (lambda: reconstruct.end_to_end_3d(scene, (3, 1), cfg),
                                     _axis_fields)):
                    try:
                        line = " | ".join(_hex(v) for v in fields(run()))
                    except NvOrientError as exc:
                        line = type(exc).__name__
                    h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_library_results():
    if np.__version__ != NOISY_PINS_NUMPY:
        pytest.skip(f"noisy pin computed under numpy {NOISY_PINS_NUMPY}, not {np.__version__}")
    assert library_results_digest() == RESULTS_PIN
