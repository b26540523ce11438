"""Run Tier-1 against one-line mutants of the episode tick, of sweep
seeding and of task ordering.

    python3 tools/mutants.py [NAME ...]

Each mutant is an exact (old, new) text replacement in one source file;
a mutant whose old text does not occur exactly once in the checkout is
refused before anything runs.  For every mutant the script copies src,
tests, demos, README.md and pyproject.toml to a temporary directory,
applies the mutant there and runs the Tier-1 command in that copy (less
tests/test_tools.py, which checks the mutants themselves), so the
checkout is never written.  The unmutated copy runs first and must pass.
It prints, per mutant, "killed" with the number of failed tests or
"survived", and exits 1 when any mutant survives.  Runs go one at a time.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "demos", "README.md", "pyproject.toml")
SIM = "src/risknav/sim.py"
PLANNER = "src/risknav/planner.py"

# (name, file, old text, new text); each changes one line of the tick,
# of the seeding of a sweep chunk or of the task-order scorer
MUTANTS = (
    ("settled >= 1", SIM,
     "(human.goal is None or settled >= 2)",
     "(human.goal is None or settled >= 1)"),
    ("threshold <=", SIM,
     "if eff < mission.threshold:",
     "if eff <= mission.threshold:"),
    ("redirect_tried kept on a move", SIM,
     "            redirect_tried = False\n",
     "            pass\n"),
    ("REDIRECT_PATIENCE = 3", SIM,
     "REDIRECT_PATIENCE = 2\n",
     "REDIRECT_PATIENCE = 3\n"),
    ("holds kept on a move", SIM,
     "            holds = 0\n",
     "            pass\n"),
    ("retry clears holds", SIM,
     "        draw = rng.random()\n",
     "        draw = rng.random(); holds = 0\n"),
    ("redirect tie-break reversed", SIM,
     "key=lambda leg: (leg.total_distance, leg.nodes[-1]))",
     "key=lambda leg: (leg.total_distance, -leg.nodes[-1]))"),
    ("increment loses its odd bit", SIM,
     "inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128",
     "inc = ((i0 << 64 | i1) << 1) & _MASK128"),
    ("chunk numbers episodes from 0", SIM,
     "for j in range(lo, hi)]",
     "for j in range(hi - lo)]"),
    ("prefix product reset to 1", PLANNER,
     "total_prob, total_dist, at = p, d, 0",
     "total_prob, total_dist, at = 1.0, d, 0"),
)


def read(root, name):
    with open(os.path.join(root, name), encoding="utf-8") as fh:
        return fh.read()


def check(mutant):
    name, path, old, _ = mutant
    count = read(ROOT, path).count(old)
    if count != 1:
        sys.exit(f"mutant {name!r}: its old text occurs {count} times in "
                 f"{path}, not once")


def tier1(mutant):
    """Run Tier-1 in a fresh copy with mutant applied (None for the
    unmutated copy); returns whether it passed, the number of failed or
    erroring tests, and the run's last output line."""
    with tempfile.TemporaryDirectory(prefix="risknav-mutant-") as tmp:
        for name in COPIED:
            src, dst = os.path.join(ROOT, name), os.path.join(tmp, name)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
                    "__pycache__", "*.egg-info"))
            else:
                shutil.copy2(src, dst)
        if mutant is not None:
            _, path, old, new = mutant
            text = read(tmp, path).replace(old, new)
            with open(os.path.join(tmp, path), "w", encoding="utf-8") as fh:
                fh.write(text)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p)
        # tests/test_tools.py repeats check(), which main() has already
        # run; in a mutated copy it would fail by construction and kill
        # every mutant, so it is left out of these runs
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors",
             "--ignore=tests/test_tools.py"],
            cwd=tmp, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    failed = sum(int(n) for n in re.findall(r"(\d+) (?:failed|errors?)\b",
                                            last))
    return proc.returncode == 0, failed, last


def main(argv=None):
    names = sys.argv[1:] if argv is None else argv
    known = {m[0]: m for m in MUTANTS}
    for name in names:
        if name not in known:
            sys.exit(f"unknown mutant {name!r}; known: {sorted(known)}")
    chosen = [known[n] for n in names] or list(MUTANTS)
    for mutant in chosen:
        check(mutant)

    passed, _, last = tier1(None)
    if not passed:
        sys.exit(f"the unmutated copy fails Tier-1: {last}")
    print(f"unmutated: {last}", flush=True)
    survivors = 0
    for mutant in chosen:
        passed, failed, last = tier1(mutant)
        survivors += passed
        verdict = "survived" if passed else f"killed ({failed} failed)"
        print(f"{mutant[0]:<30} {verdict:<20} {last}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
