"""Package layout: no module imports a private helper of a sibling module.

A helper a sibling needs is made public (as ``avg_frequency_harmonics``
was for calibration), so each module's private names stay free to change.
"""

import ast
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
