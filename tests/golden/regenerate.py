"""Rewrite the golden outputs that tests/test_golden.py compares against.

Run from the repository root with ``python tests/golden/regenerate.py
[CASE ...]``.  With case names it rewrites only those cases; with none it
rewrites every case.  An unknown name changes nothing, exits 2 and lists
the valid names.  Regenerating is a deliberate act: it replaces the stored
outputs with what the current tree prints, so name only the cases a change
alters (another machine's last-place round-off would churn the rest) and
add a CHANGES.md line saying why.
"""

import shutil
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from test_golden import CASES, GOLDEN, run_case  # noqa: E402


def main(names: list[str]) -> int:
    known = [case for case, _, _ in CASES]
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown case(s) {', '.join(unknown)}; valid: {', '.join(known)}",
              file=sys.stderr)
        return 2
    for case, argv, _ in CASES:
        if names and case not in names:
            continue
        out = GOLDEN / case
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        (out / "stdout.txt").write_text(run_case(argv, out), encoding="utf-8")
        print(f"{case}: {sorted(p.name for p in out.iterdir())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
