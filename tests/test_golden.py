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
        "8bc33b036456ad2a28590f1e4ccb6a31643096c772aed4615855fa7bc93d9ce2", True),
    "out3/table1.csv": (
        "504f182a31e37ab31c553b898cf647522cc49e9103144c67c24c0b5bf3a2aa2f", False),
    "out4/planar.json": (
        "400eaabc15bda457dfcb2baa025ac508064d9d929455f87c13398ea12837f0b2", True),
    "out5/reconstruct3d.json": (
        "84ee89156aedae56af1a234269cfd3cd0531f74fb41292d3c9efd5dd7cc637e2", True),
    "out6/reconstruct3d.json": (
        "dde18c3a4a2bb26659888962a1df2a367d0d39958350109fa625f5738de0fa0d", False),
    "out7/fieldmap.csv": (
        "46c65c24b4365c01cd2747619c1505fb3a5186b24af8a0272794a3f150875840", False),
    "out8/sensitivity.csv": (
        "a1266fe87459ad34b7ea780d0725cb41aa47cea995b0e90a9720b342440bcf51", False),
    "out9/spectrum.json": (
        "fe02cea50fb5b064f75955db621bd6ee592d48f498faba5803eae92ee94a7a0a", True),
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


@pytest.mark.parametrize("name", sorted(PINS))
def test_data_file_bytes(run_dir, name):
    digest, noisy = PINS[name]
    if noisy and np.__version__ != NOISY_PINS_NUMPY:
        pytest.skip(f"noisy pin computed under numpy {NOISY_PINS_NUMPY}, not {np.__version__}")
    assert hashlib.sha256((run_dir / name).read_bytes()).hexdigest() == digest
