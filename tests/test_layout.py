"""Package layout: no module imports a private helper of a sibling module,
the solving, planning and calibration paths never load scipy, importing
the package loads no process-pool machinery, every name
in a module's ``__all__`` exists there and, for each module the package
imports from, is re-exported by the package (``numerics`` is not: its
helpers are internal), and the planners take no order window or second
TLS list.

A helper a sibling needs is made public (as ``first_phase_harmonic`` is
for calibration), so each module's private names stay free to change.
scipy serves only the oracles and the optimizer's polish, which import it
where they use it; the same holds for the process pool of a parallel atlas.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fluxmod

PACKAGE = Path(fluxmod.__file__).parent


def _reach_ins(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "fluxmod":
            continue
        found += [
            f"{path.name}:{node.lineno} imports {alias.name} from {'.' * node.level}{module}"
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")
        ]
    return found


def test_no_private_names_imported_from_sibling_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    reach_ins = [line for path in modules for line in _reach_ins(path)]
    assert not reach_ins, reach_ins


def test_a_reach_in_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import __version__\nfrom .modulation import _solve, sweet_spot_solve\n"
    )
    assert _reach_ins(probe) == ["probe.py:2 imports _solve from .modulation"]


SCIPY_FREE_RUN = """
import math, sys
import fluxmod as fm
q1 = fm.fit_spec(5.250, 4.426, -0.205)
q2 = fm.fit_spec(4.269, 3.868, -0.187)
atlas = fm.sweet_spot_atlas(q1, 0.0, 3, [0.5], [-1.0, 0.0, 1.0])
pulse = fm.BichromaticPulse(
    fm_mhz=100.0, phi_ac_phi0=fm.sweet_spot_solve(q1, 0.0, 1, 0.0, 0.0)[0][0], p=1
)
plan = fm.plan_gate(fm.PairSpec(q1, q2, 4.0), fm.operating_point(q1, pulse), fm.GateType.CZ02, -2)
assert atlas.points and plan.collisions
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


SCIPY_FREE_CALIBRATION = """
import contextlib
import io
import sys
import fluxmod as fm
from fluxmod.cli import main
device = fm.load_device(sys.argv[1])
hw = fm.VirtualHardware(spec=device.qubits["q1"], theta0_rad=0.25)
desired = fm.BichromaticPulse(fm_mhz=100.0, phi_ac_phi0=0.45, alpha_rad=0.5, theta_rad=1.1, p=3)
probes = tuple(float(f) for f in sorted({*range(50, 451, 40), 100, 300}))
assert abs(fm.calibrate_and_verify(hw, desired, probes).residual_khz) < 1.0
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(["--spec", sys.argv[1], "--out", sys.argv[2], "calibrate", "--qubit", "q1"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _modules_loaded(*argv: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", *argv], env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_atlas_and_plan_load_no_scipy():
    assert _modules_loaded(SCIPY_FREE_RUN) == "[]"


def test_calibration_and_cli_calibrate_load_no_scipy(tmp_path):
    device = Path(__file__).parent / "golden" / "device.json"
    out = _modules_loaded(SCIPY_FREE_CALIBRATION, str(device), str(tmp_path))
    assert out == "[]"
    assert (tmp_path / "calibration.json").is_file()


def test_import_starts_no_process_machinery():
    # only sweet_spot_atlas with jobs > 1 starts a pool, and it imports the
    # pool's module there
    loaded = _modules_loaded(
        "import sys, fluxmod, fluxmod.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process'))"
    )
    assert loaded == "[]"


def _reexported_modules() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        node.module for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def test_every_public_name_exists_and_is_reexported():
    # perfbench's tracer wraps what each module's __all__ lists and only
    # notes a listed name that is missing, so a stale entry fails here
    import importlib

    reexported = _reexported_modules()
    assert {"calibration", "gates", "modulation", "pulses", "transmon"} <= reexported
    missing, unexported = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"fluxmod.{path.stem}")
        names = getattr(module, "__all__", ())
        missing += [f"{path.stem}.{name}" for name in names if not hasattr(module, name)]
        if path.stem in reexported:
            unexported += [
                f"{path.stem}.{name}" for name in names
                if getattr(fluxmod, name, None) is not getattr(module, name, None)
            ]
    assert not missing, missing
    assert not unexported, unexported


def test_planner_signatures_hold_one_collision_rule():
    # TLS lines come only from PairSpec.tls_ghz, and the collision scan reads
    # every order, so no planner takes a second TLS list or an order window
    import inspect

    from fluxmod import gates

    for fn in (gates.check_collisions, gates.plan_gate, gates.optimize_weight):
        stale = {"k_window", "tls_ghz"} & set(inspect.signature(fn).parameters)
        assert not stale, f"{fn.__name__} takes {sorted(stale)}"
