"""Rewrite the golden outputs that tests/test_golden.py compares against.

Run from the repository root with ``python tests/golden/regenerate.py``.
Regenerating is a deliberate act: it replaces every stored output with
what the current tree prints, so add a CHANGES.md line saying why.
"""

import shutil
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from test_golden import CASES, GOLDEN, run_case  # noqa: E402


def main() -> None:
    for case, argv, _ in CASES:
        out = GOLDEN / case
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        (out / "stdout.txt").write_text(run_case(argv, out), encoding="utf-8")
        print(f"{case}: {sorted(p.name for p in out.iterdir())}")


if __name__ == "__main__":
    main()
