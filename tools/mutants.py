"""Defects that the unit tests must catch: one one-line defect per copy of the package.

    python3 tools/mutants.py

For each defect below, copies ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` to a fresh temporary directory, replaces exactly one line of the
copy, and runs ``pytest -q -x -k "not acceptance"`` there.  It prints, per
defect, ``caught`` with the first failing test and that test's own time, or
``missed``, and the wall time of the run.  The exit code is 1 if any defect is
missed or does not apply.  The tree itself is never changed.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name: (file, the text as it is, the defect)
DEFECTS = {
    "f2 with (c-2)/(n-1)": (
        "src/surecov/theory.py",
        "(c - 2.0) / n * w) * t2",
        "(c - 2.0) / (n - 1) * w) * t2",
    ),
    "window with floor": (
        "src/surecov/sim.py",
        "window_hi = k0 + math.ceil(math.log(config.n))",
        "window_hi = k0 + math.floor(math.log(config.n))",
    ),
    "loss cross term with w**2": (
        "src/surecov/sim.py",
        "- 2.0 * (self.grid.w @ cross)",
        "- 2.0 * (self.w_sq @ cross)",
    ),
    "Philox keyed by the raw seed": (
        "src/surecov/model.py",
        "np.random.Philox(np.random.SeedSequence(seed))",
        "np.random.Philox(key=seed)",
    ),
    "banding with d <= tau": (
        "src/surecov/estimate.py",
        "return (np.arange(width) < np.array(taus)[:, None])",
        "return (np.arange(width) <= np.array(taus)[:, None])",
    ),
    "czz with half + 1": (
        "src/surecov/estimate.py",
        "half = t // 2  #",
        "half = t // 2 + 1  #",
    ),
    "SURE total with + b_n (tr S)^2": (
        "src/surecov/criterion.py",
        "- g * b * trace_sq",
        "+ g * b * trace_sq",
    ),
    "grid width not capped at p": (
        "src/surecov/criterion.py",
        "self.dmax = min(max(self.taus), p)",
        "self.dmax = max(self.taus)",
    ),
    "n check accepting n = 3": (
        "src/surecov/criterion.py",
        "    if n < 4:",
        "    if n < 3:",
    ),
    "CSV floats as .12g": (
        "src/surecov/cli.py",
        "_format_float(v) if isinstance(v, float)",
        'f"{v:.12g}" if isinstance(v, float)',
    ),
    "flags added at every parse": (
        "src/surecov/cli.py",
        "flags, self.flags = self.flags, {}",
        "flags = self.flags",
    ),
}


def _copy(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _apply(dest: Path, path: str, old: str, new: str) -> bool:
    """Replace ``old`` by ``new`` in ``dest/path``; False unless ``old`` occurs exactly once."""
    target = dest / path
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        return False
    target.write_text(text.replace(old, new), encoding="utf-8")
    return True


def _first_failure(report: Path) -> tuple[str, float] | None:
    """The first failing or erroring test in a JUnit XML report, and its own time."""
    if not report.exists():
        return None
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            return f"{case.get('classname')}::{case.get('name')}", float(case.get("time", 0.0))
    return None


def run(name: str) -> bool:
    path, old, new = DEFECTS[name]
    with tempfile.TemporaryDirectory(prefix="surecov-mutant-") as tmp:
        dest = Path(tmp)
        _copy(dest)
        if not _apply(dest, path, old, new):
            print(f"{name:32s} does not apply: {old!r} is not once in {path}")
            return False
        report = dest / "report.xml"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-k", "not acceptance",
             "-p", "no:cacheprovider", f"--junitxml={report}"],
            cwd=dest, capture_output=True, text=True,
        )
        wall = time.perf_counter() - t0
        failure = _first_failure(report)
    if proc.returncode == 0 or failure is None:
        print(f"{name:32s} missed  (run {wall:.1f} s)")
        return False
    test, seconds = failure
    print(f"{name:32s} caught  by {test} in {seconds:.3f} s (run {wall:.1f} s)")
    return True


def main() -> int:
    results = [run(name) for name in DEFECTS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
