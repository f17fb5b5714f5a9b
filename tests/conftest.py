import math

import numpy as np
import pytest

from nvorient import geometry, odmrsim, reconstruct, spinmodel


@pytest.fixture(autouse=True)
def empty_sweep_memo():
    """Start every test with an empty noiseless-sweep memo, so that no test
    depends on which scenes earlier tests simulated."""
    reconstruct._noiseless_sweeps.cache_clear()


@pytest.fixture(scope="session")
def consts():
    return spinmodel.SpinConstants()


@pytest.fixture(scope="session")
def shape():
    return odmrsim.LineshapeParams()


@pytest.fixture(scope="session")
def grid():
    return odmrsim.default_grid(*reconstruct.ChainConfig().grid_mhz)


@pytest.fixture(scope="session")
def transverse_10mt(consts):
    """Eigensystem at the experiment's bias point: theta=pi/2, B=10.2 mT."""
    field = spinmodel.StaticFieldNV(10.2, math.pi / 2.0, 0.0)
    return spinmodel.eigensystem(spinmodel.ground_hamiltonian(consts, field))


@pytest.fixture(scope="session")
def nv1_basis():
    return geometry.transverse_basis(geometry.crystallographic_axes()[3])


def rng(seed=0):
    return np.random.default_rng(seed)
