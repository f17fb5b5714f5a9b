"""Every function defined in `src/nvorient` is entered by some run of the command,
every exception class of `errors.py` is raised by some module of it, and every
`raise` names a class of the refusal contract.

A fresh import of `nvorient.cli` and one `cli.main` call per mode run under
`sys.setprofile`, which records the code object of every Python frame
entered.  A function that neither the import nor any mode enters serves only
tests or the benchmark, and does not belong in `src/`; nor does an error
class that no `raise` names.
"""

import ast
import gc
import importlib
import inspect
import json
import sys
import types
from pathlib import Path

import pytest

import nvorient
from nvorient import errors
from test_cli import SIMULATE_CFG as SIMULATE

SRC = Path(nvorient.__file__).resolve().parent

# (file, qualified name) of the functions no run needs to enter
ALLOWED = {
    # the benchmark's planar correctness gate (perfbench/workloads.py) imports it
    ("reconstruct.py", "closed_form_alpha_check"),
}

WIRE = {"current_ma": 40.0, "positions_um": [[61.0, 18.0]]}
NOISE = {"rate_kcps": 200.0, "dwell_s": 0.008, "seed": 3}


def defined_functions():
    """(file, qualified name) of every function and lambda in the package source."""
    out = set()
    for path in SRC.glob("*.py"):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    # class bodies, comprehensions and generator expressions are
                    # not function definitions
                    if const.co_flags & inspect.CO_NEWLOCALS and (
                            not const.co_name.startswith("<") or const.co_name == "<lambda>"):
                        out.add((path.name, const.co_qualname))
    return out


def run_every_mode(cli, tmp_path):
    """One `cli.main` call per mode, `fit` on the spectrum of the first."""
    spectrum = tmp_path / "sim" / "spectrum.csv"
    configs = [
        ("simulate", dict(SIMULATE, noise={"rate_kcps": 2000.0, "dwell_s": 1.0, "seed": 1}),
         ["--out", spectrum.parent]),
        ("simulate", SIMULATE, ["--format", "json"]),
        # a high-SNR spectrum, so the free-center fit converges
        ("fit", {"mode": "fit", "spectrum_csv": str(spectrum),
                 "init_centers_mhz": [2898.0, 2926.0]}, []),
        ("table1", {"mode": "table1", "wire": {"current_ma": 40.0}}, []),
        ("reconstruct-planar", {"mode": "reconstruct-planar", "nv_index": 3, "wire": WIRE,
                                "noise": NOISE}, ["--format", "json"]),
        ("reconstruct-3d", {"mode": "reconstruct-3d", "nv_indices": [3, 1], "wire": WIRE,
                            "noise": NOISE}, []),
        ("reconstruct-3d", {"mode": "reconstruct-3d", "nv_indices": [3, 1], "wire": WIRE,
                            "measured_y_axes": [[-0.86, 0.42, -0.29], [0.85, 0.46, 0.25]]}, []),
        ("fieldmap", {"mode": "fieldmap", "grid_um": {"x": [40.0, 61.0, 7.0],
                                                      "z": [18.0, 30.0, 6.0]}}, []),
        ("sensitivity", {"mode": "sensitivity", "phi_deg": 30.0, "rate_kcps": 200.0,
                         "contrast": 0.3, "time_s": 1.0}, []),
        # a noisy spectrum as JSON, so its `counts` block is written
        ("simulate", dict(SIMULATE, noise=NOISE), ["--format", "json"]),
    ]
    for k, (mode, payload, extra) in enumerate(configs):
        cfg = tmp_path / f"cfg{k}.json"
        cfg.write_text(json.dumps(payload))
        # a second --out replaces the first
        argv = [mode, "--config", str(cfg), "--out", str(tmp_path / f"out{k}"), *extra]
        assert cli.main(list(map(str, argv))) == cli.EXIT_OK, argv


def is_package_module(name):
    return name == "nvorient" or name.startswith("nvorient.")


@pytest.fixture
def fresh_package():
    """Lets the test import nvorient anew; afterwards the modules every other
    test uses are back, and the objects main() froze go back to the collector."""
    saved = {name: mod for name, mod in sys.modules.items() if is_package_module(name)}
    for name in saved:
        del sys.modules[name]
    yield
    for name in [name for name in sys.modules if is_package_module(name)]:
        del sys.modules[name]
    sys.modules.update(saved)
    gc.unfreeze()


def test_every_function_runs(tmp_path, fresh_package):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_every_mode(importlib.import_module("nvorient.cli"), tmp_path)
    finally:
        sys.setprofile(None)
    reached = {(Path(code.co_filename).name, code.co_qualname) for code in entered
               if Path(code.co_filename).resolve().parent == SRC}
    assert not ALLOWED & reached, "an allowed function now runs; drop it from ALLOWED"
    never = sorted(defined_functions() - reached - ALLOWED)
    assert not never, f"functions no run enters: {never}"


def raises():
    """(file, line, name) of every `raise` statement of the package source that
    names what it raises: the class called or raised, or the expression
    raised; a bare re-raise names nothing."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else ast.unparse(exc)
                yield path.name, node.lineno, name


def test_every_error_is_raised():
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.NvOrientError)
               and obj is not errors.NvOrientError}
    assert defined, "errors.py defines no error classes"
    never = sorted(defined - {name for _, _, name in raises()})
    assert not never, f"error classes no module raises: {never}"


def test_every_raise_follows_the_contract():
    # errors.py's contract: input checks raise ValueError, unusable fits
    # DegenerateFitError and axes that fix no direction NearParallelAxesError;
    # ConfigError, which the command maps to exit 2, is the command's alone
    contract = {"ValueError", "DegenerateFitError", "NearParallelAxesError"}
    found = list(raises())
    assert found, "the package source has no raise statement"
    stray = [(file, line, name) for file, line, name in found
             if name not in contract and (file, name) != ("cli.py", "ConfigError")]
    assert not stray, f"raises outside the refusal contract: {stray}"
