"""The benchmark in `perfbench/` still runs against `src/`.

The benchmark calls the library's API and wraps its layer functions by
name, so a change to either can break it or blind a traced layer without
any other test noticing.  This runs a few results of each in-process noise
study through the workload's own `run` and `check`, and installs the tracer
to see which layers it finds.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    """The benchmark's `workloads` and `tracing` modules, imported as its
    runner imports them, and dropped again afterwards."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    for name in ("workloads", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing
    import workloads
    yield workloads, tracing
    for name in ("workloads", "tracing"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["planar_noise_study", "recon3d_noise_study"])
def test_noise_study_runs_and_checks(perfbench, tmp_path, name):
    workloads, tracing = perfbench
    study = workloads.WORKLOADS[name](0, tmp_path)
    assert study.in_process
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # every layer but Levenberg-Marquardt, which the library no longer has, is found
        assert tracer.absent == ["fitkit.nls_fit"]
        assert tracer.missing_functions == ["fitkit.nls_fit"]
        failures = [msg for i in range(3) for msg in study.check(i, study.run(i, tracer))]
    finally:
        tracer.uninstall()
    assert failures == []
    # the sweep synthesis was traced, with its grid and psis bound by name
    sweeps = [s for s in tracer.spans if s[0] == "odmrsim.simulate_phi_sweep"]
    assert sweeps and all(s[5]["spectrum_points"] == 12 * 201 for s in sweeps)
