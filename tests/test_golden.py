"""Golden-output gate: the README commands against stored outputs.

Each case runs one CLI command on ``tests/golden/device.json`` (the README
device file) and compares every file it writes, and its stdout, with the
copy under ``tests/golden/<case>/``.  Text, flags, counts, CSV headers,
provenance lines and the ``*_run.json`` manifests must match exactly;
numeric fields must agree within ``TOLERANCE`` for their unit.  The
goldens change only through ``python tests/golden/regenerate.py``, and
every regeneration gets a CHANGES.md line saying why.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import fluxmod.modulation as modulation
from fluxmod.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEVICE = GOLDEN / "device.json"

# (case, argv after the global options, whether its numbers come from a
# solved sweet-spot amplitude)
CASES = [
    ("sweep", ("sweep", "--qubit", "q1"), False),
    ("atlas_p3", ("atlas", "--qubit", "q1", "--p", "3"), True),
    ("atlas_p5_dc", ("atlas", "--qubit", "q1", "--p", "5", "--phi-dc", "0.1"), True),
    ("plan_p1", ("plan", "--pair", "q1:q2", "--gate", "cz02", "--k=-2", "--p", "1"), True),
    (
        "plan_p3",
        ("plan", "--pair", "q1:q2", "--gate", "cz02", "--k=-2", "--p", "3",
         "--alpha", "0.085", "--theta", "-0.06"),
        True,
    ),
    (
        "plan_optimize",
        ("plan", "--pair", "q1:q2", "--gate", "cz02", "--k=-8", "--optimize",
         "--grid", "8"),
        True,
    ),
    ("chevron", ("chevron", "--pair", "q1:q2", "--gate", "iswap", "--k=-2", "--p", "1"), True),
    ("calibrate", ("calibrate", "--qubit", "q1"), False),
    ("calibrate_noise", ("calibrate", "--qubit", "q1", "--noise-khz", "2"), False),
]

# Allowed |new - golden| per unit: (any field, field of a solved case).
# The base column is the round-off budget of the series and the fit.  The
# solved column adds what the solver's documented accuracy, xtol/2 =
# 5e-7 flux quanta in each root amplitude, carries into each unit.  That
# was measured by rerunning every solved case with each root moved by
# +5e-7 and by -5e-7 Phi0 (f_bar and slopes re-evaluated there); the
# largest change of a full-precision field was:
#   Phi0      the amplitude itself                           5.0e-7
#   GHz       f_bar, stationary at a root: 1/2 f'' da^2      1.0e-11
#   GHz/Phi0  slope at the root, f'' da                      4.7e-6
#   MHz       g_eff through |eps_k(amp)| (plan --optimize)   6.2e-6
#   ns        duration = 1e3 / (2 or 4 g_eff)                2.7e-4
#   1         chevron populations                            1e-12
# Each solved bound is about twice that.  Counts and flags have no budget.
TOLERANCE = {
    "GHz": (1e-8, 1e-8),
    "Phi0": (1e-9, 1e-6),
    "GHz/Phi0": (1e-7, 1e-5),
    "MHz": (1e-5, 1.5e-5),
    "kHz": (1e-2, 1e-2),
    "ns": (1e-5, 6e-4),
    "rad": (1e-9, 1e-9),
    "turn": (1e-9, 1e-9),
    "1": (1e-8, 1e-8),
    "count": (0.0, 0.0),
}

FIELD_UNITS = {
    # CSV columns and JSON keys
    "flux_phi0": "Phi0", "phi_ac_phi0": "Phi0", "phi_ac": "Phi0",
    "f01_ghz": "GHz", "f12_ghz": "GHz", "fbar_ghz": "GHz",
    "fbar_min_ghz": "GHz", "fbar_max_ghz": "GHz", "target_fbar_ghz": "GHz",
    "measured_fbar_ghz": "GHz", "fit_residual_ghz": "GHz",
    "dfdac_ghz_per_phi0": "GHz/Phi0",
    "fm_mhz": "MHz", "freq_mhz": "MHz", "gap_mhz": "MHz", "g_eff_mhz": "MHz",
    "span_mhz": "MHz", "resonance_fm_mhz": "MHz",
    "residual_khz": "kHz",
    "duration_ns": "ns",
    "alpha_rad": "rad", "theta_rad": "rad", "theta0_rad": "rad",
    "theta0_ambiguity_rad": "rad", "theta0": "rad", "mod": "rad",
    "transmission": "1", "population": "1", "transfer": "1",
    "sweet_flag": "count", "sweet_points": "count", "k": "count", "p": "count",
    "seed": "count",
    # stdout numbers followed by their unit
    "GHz": "GHz", "MHz": "MHz", "kHz": "kHz", "ns": "ns", "rad": "rad", "turn": "turn",
}

_NUMBER = re.compile(
    r"(?<![\w.(])[-+]?(?:nan|inf|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"(?=$|[^\w.]|(?:GHz|MHz|kHz|ns|rad|turn)\b)"
)
_UNIT_AFTER = re.compile(r"\s*(GHz|MHz|kHz|ns|rad|turn)\b")
_NAMED = re.compile(r"([A-Za-z_]\w*(?:\(\d\))?)=$")


def run_case(argv: tuple[str, ...], out: Path) -> str:
    """Run one CLI command into ``out``; return stdout with ``out`` masked."""
    res = CliRunner().invoke(
        main, ["--spec", str(DEVICE), "--out", str(out), *argv], catch_exceptions=False
    )
    assert res.exit_code == 0, res.output
    return res.output.replace(str(out), "<out>")


def _tolerance(field: str, solved: bool) -> float:
    if field not in FIELD_UNITS:
        raise KeyError(f"no unit for numeric field {field!r}; add it to FIELD_UNITS")
    return TOLERANCE[FIELD_UNITS[field]][int(solved)]


def _last_place(token: str) -> float:
    """One unit in the last printed place of a fixed-point token."""
    mantissa = token.lower().split("e")[0]
    if "." not in mantissa or "e" in token.lower():
        return 0.0
    return 10.0 ** -len(mantissa.split(".")[1])


def _number_diff(where: str, field: str, old, new, solved: bool, slack: float = 0.0):
    old, new = float(old), float(new)
    if math.isnan(old) or math.isnan(new):
        return None if math.isnan(old) and math.isnan(new) else f"{where}: {field} {old!r} -> {new!r}"
    tol = _tolerance(field, solved) + slack
    if abs(new - old) > tol:
        return f"{where}: {field} {old!r} -> {new!r} (|diff| {abs(new - old):.3g} > {tol:.3g})"
    return None


def _compare_line(where: str, old: str, new: str, solved: bool) -> list[str]:
    """Words must match exactly; each number within its field's tolerance.

    A number's field is the unit word after it, else the ``name=`` before
    it, else the word before it.  Printed values may also differ by one
    unit in their last printed place, since a round-off change can cross
    a rounding boundary.
    """
    old_nums, new_nums = _NUMBER.findall(old), _NUMBER.findall(new)
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new) or len(old_nums) != len(new_nums):
        return [f"{where}: text differs:\n  golden: {old}\n  new:    {new}"]
    out = []
    spans = [m.span() for m in _NUMBER.finditer(old)]
    for (start, end), a, b in zip(spans, old_nums, new_nums):
        unit = _UNIT_AFTER.match(old, end)
        named = _NAMED.search(old[:start])
        if unit:
            field = unit.group(1)
        elif named:
            field = named.group(1)
        else:
            field = old[:start].split()[-1].strip("(")
        slack = max(_last_place(a), _last_place(b))
        msg = _number_diff(where, field, a, b, solved, slack)
        if msg:
            out.append(msg)
    return out


def _compare_csv(name: str, old: str, new: str, solved: bool) -> list[str]:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"{name}: {len(old_lines)} lines -> {len(new_lines)}"]
    out = []
    header = None
    for i, (a, b) in enumerate(zip(old_lines, new_lines)):
        where = f"{name}:{i + 1}"
        if a.startswith("# fluxmod v") or header is None and not a.startswith("#"):
            if a != b:
                out.append(f"{where}: provenance or header differs: {a!r} -> {b!r}")
            if not a.startswith("#"):
                header = a.split(",")
        elif a.startswith("#"):
            out.extend(_compare_line(where, a, b, solved))
        else:
            cells_a, cells_b = a.split(","), b.split(",")
            if len(cells_a) != len(cells_b):
                out.append(f"{where}: {len(cells_a)} cells -> {len(cells_b)}")
                continue
            for col, x, y in zip(header, cells_a, cells_b):
                if _NUMBER.fullmatch(x) and _NUMBER.fullmatch(y):
                    msg = _number_diff(where, col, x, y, solved)
                    if msg:
                        out.append(msg)
                elif x != y:
                    out.append(f"{where}: {col} {x!r} -> {y!r}")
    return out


def _compare_json(where: str, field: str, old, new, solved: bool) -> list[str]:
    if isinstance(old, dict) and isinstance(new, dict):
        if sorted(old) != sorted(new):
            return [f"{where}: keys {sorted(old)} -> {sorted(new)}"]
        return [
            msg for key in old
            for msg in _compare_json(f"{where}.{key}", key, old[key], new[key], solved)
        ]
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{where}: {len(old)} entries -> {len(new)}"]
        return [
            msg for i, (a, b) in enumerate(zip(old, new))
            for msg in _compare_json(f"{where}[{i}]", field, a, b, solved)
        ]
    if isinstance(old, float) and isinstance(new, float):
        msg = _number_diff(where, field, old, new, solved)
        return [msg] if msg else []
    if type(old) is not type(new) or old != new:
        if isinstance(old, str) and isinstance(new, str):
            return _compare_line(where, old, new, solved)
        return [f"{where}: {old!r} -> {new!r}"]
    return []


def compare_outputs(case: str, solved: bool, stdout: str, out: Path) -> list[str]:
    """Every difference between a fresh run and the goldens of ``case``."""
    gold = GOLDEN / case
    problems = []
    old_out = (gold / "stdout.txt").read_text(encoding="utf-8").splitlines()
    new_out = stdout.splitlines()
    if len(old_out) != len(new_out):
        problems.append(f"stdout: {len(old_out)} lines -> {len(new_out)}")
    for i, (a, b) in enumerate(zip(old_out, new_out)):
        problems.extend(_compare_line(f"stdout:{i + 1}", a, b, solved))
    expected = sorted(p.name for p in gold.iterdir() if p.name != "stdout.txt")
    written = sorted(p.name for p in out.iterdir())
    if expected != written:
        return problems + [f"files {expected} -> {written}"]
    for name in expected:
        old = (gold / name).read_text(encoding="utf-8")
        new = (out / name).read_text(encoding="utf-8")
        if name.endswith("_run.json"):
            if old != new:
                problems.append(f"{name}: manifest differs")
        elif name.endswith(".json"):
            problems.extend(
                _compare_json(name, "", json.loads(old), json.loads(new), solved)
            )
        else:
            problems.extend(_compare_csv(name, old, new, solved))
    return problems


@pytest.mark.parametrize("case, argv, solved", CASES, ids=[c[0] for c in CASES])
def test_outputs_match_goldens(tmp_path, case, argv, solved):
    stdout = run_case(argv, tmp_path)
    problems = compare_outputs(case, solved, stdout, tmp_path)
    assert not problems, "\n".join(problems[:20])


def test_gate_catches_a_small_fbar_shift(tmp_path, monkeypatch):
    kernel = modulation.avg_frequency_slopes

    def shifted(*args, **kwargs):
        fbar, dac, ddc = kernel(*args, **kwargs)
        return fbar + 1e-7, dac, ddc

    monkeypatch.setattr(modulation, "avg_frequency_slopes", shifted)
    case, argv, solved = next(c for c in CASES if c[0] == "plan_p1")
    problems = compare_outputs(case, solved, run_case(argv, tmp_path), tmp_path)
    assert any("fbar_ghz" in p for p in problems)


def test_comparer_is_exact_on_text_and_counts():
    assert _compare_line("x", "k=-2: fm=1.000 MHz", "k=-4: fm=1.000 MHz", True)
    assert _compare_line("x", "collision: none", "collision: some", True)
    assert not _compare_line("x", "fm=1.000 MHz", "fm=1.001 MHz", True)
    assert _compare_line("x", "fm=1.000 MHz", "fm=1.002 MHz", True)
    assert np.isclose(_last_place("0.6011"), 1e-4)


def test_regenerate_rewrites_only_the_named_cases(tmp_path, monkeypatch, capsys):
    import importlib.util
    import sys

    # the script puts tests/ and src/ on sys.path when loaded; undo that after
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = GOLDEN / "regenerate.py"
    spec = importlib.util.spec_from_file_location("regenerate", path)
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    monkeypatch.setattr(regenerate, "GOLDEN", tmp_path)
    monkeypatch.setattr(regenerate, "run_case", lambda argv, out: " ".join(argv))

    assert regenerate.main(["sweep", "no_such_case"]) == 2
    assert "no_such_case" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    assert regenerate.main(["calibrate", "sweep"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["calibrate", "sweep"]
    assert regenerate.main([]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(c[0] for c in CASES)
