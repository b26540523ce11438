"""Run Tier-1 against one-line mutants of the episode tick in both
engines, of the human table, of sweep seeding, of task ordering, of the
heat overlay, of the graph's adjacency, of the PRISM export and of the
JSON reader.

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
HUMAN = "src/risknav/human.py"
ENV = "src/risknav/env.py"
LOCKSTEP = "src/risknav/_lockstep.py"
VERIFY = "src/risknav/verify.py"

# (name, file, old text, new text); each changes one line of the scalar
# tick, of its retry scan or of its lockstep twin, of the redirect memo
# both engines read, of the human table's layout, emptying or replacement
# for another mission, of a step's proof shortcut, of the seeding of a
# sweep job, of its PCG64 word kernel or of its outcome tally, of the
# task-order scorer or its gather table, of the overlay's
# effective-success list or of the heated-row memo, of the graph's hop
# rows, of the row the PRISM export reads or of the reader's answer to a
# JSON document nested too deeply
MUTANTS = (
    ("settled >= 1", SIM,
     "(human.goal is None or settled >= 2)",
     "(human.goal is None or settled >= 1)"),
    ("threshold <=", SIM,
     "if effs[s] < mission.threshold:",
     "if effs[s] <= mission.threshold:"),
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
    ("retry run under a moving human", SIM,
     "elif human.uncertainty == 0.0 and follows[hid] == hid:",
     "elif human.uncertainty == 0.0:"),
    ("skipped retries not counted", SIM,
     "            steps += run\n",
     "            pass\n"),
    # the same rules in the lockstep engine of a sweep
    ("lockstep settled >= 1", LOCKSTEP,
     "& ((goal < 0) | (settled >= 2)))",
     "& ((goal < 0) | (settled >= 1)))"),
    ("lockstep threshold <=", LOCKSTEP,
     "hold = eff < mission.threshold",
     "hold = eff <= mission.threshold"),
    ("lockstep redirect_tried kept on a move", LOCKSTEP,
     "        tried[ok] = False\n",
     "        pass\n"),
    ("lockstep patience 3", LOCKSTEP,
     "hold & (holds >= REDIRECT_PATIENCE)",
     "hold & (holds > REDIRECT_PATIENCE)"),
    ("lockstep holds kept on a move", LOCKSTEP,
     "        holds[ok] = 0\n",
     "        pass\n"),
    ("lockstep retry clears holds", LOCKSTEP,
     "        wp += move\n",
     "        wp += move; holds[move] = 0\n"),
    ("a u = 0 lane draws for its human", LOCKSTEP,
     "        wp += draws\n",
     "        wp += 1\n"),
    ("the redirect memo ignores the step", SIM,
     "    key = (hid, s)\n",
     "    key = (hid, 0)\n"),
    ("redirect tie-break reversed", SIM,
     "key=lambda leg: (leg[1], leg[2][-1]))",
     "key=lambda leg: (leg[1], -leg[2][-1]))"),
    ("increment loses its odd bit", SIM,
     "inc_hi, inc_lo = i0 << 1 | i1 >> 63, i1 << 1 | 1\n",
     "inc_hi, inc_lo = i0 << 1 | i1 >> 63, i1 << 1\n"),
    ("word kernel drops its carry", SIM,
     "return hi + inc_hi + (lo < inc_lo), lo",
     "return hi + inc_hi, lo"),
    ("word kernel rotates by 5 bits", SIM,
     "x, r = hi ^ lo, hi >> 58",
     "x, r = hi ^ lo, hi >> 59"),
    ("tally key folds redirects into the cause", SIM,
     "(level * 4 + why) * span + redirects",
     "(level * 4 + why + redirects) * span"),
    ("chunk numbers episodes from 0", SIM,
     "np.arange(lo, hi, dtype=np.uint64)",
     "np.arange(hi - lo, dtype=np.uint64)"),
    ("prefix product reset to 1", PLANNER,
     "total_prob = p * prob.take(gather[0])",
     "total_prob = 1.0 * prob.take(gather[0])"),
    ("gather row read at the column", PLANNER,
     "(k + 1) * (gather[i - 1] + 1)",
     "(k + 1) * gather[i - 1]"),
    ("proof reads the start's entry as a hop", PLANNER,
     "if (hit is not None and hit <= entry and dst != start",
     "if (hit is not None and hit <= entry"),
    ("overlay keeps base effective success", HUMAN,
     "        rows[i], effs[i] = hit\n",
     "        rows[i] = hit[0]\n"),
    ("memo keeps the unheated effective success", HUMAN,
     "hit = per[i] = (row, effective_success(row))",
     "hit = per[i] = (row, effective_success(p))"),
    ("distances summed over every order", PLANNER,
     "total_dist = d + dist.take(gather[0, top])\n"
     "        for ix in gather[1:, top]:",
     "total_dist = d + dist.take(gather[0])\n"
     "        for ix in gather[1:]:"),
    ("hop rows left unsorted", ENV,
     "self._hops[node] = tuple(sorted(row))",
     "self._hops[node] = tuple(row)"),
    ("tick reads the base row", HUMAN,
     "heat.rows.get(i) or g.probs(g.edges[key])",
     "g.probs(g.edges[key])"),
    ("a heat that raises a row is proved from the base tree", HUMAN,
     "if heat.lowers else None",
     "if True else None"),
    ("degree-0 row gets no slot", HUMAN,
     "self.divs.extend([-1] * max(deg, 1))",
     "self.divs.extend([-1] * deg)"),
    ("a full table is never emptied at a tick", SIM,
     "            hid = table.reintern(g, (hid,))[hid]\n",
     "            pass\n"),
    ("a table outlives its mission", HUMAN,
     "if table is None or (table.waypoints, table.safe) != key:",
     "if table is None or table.waypoints != key[0]:"),
    ("export reads the base row on an overlay", VERIFY,
     "        p = g.probs(g.edge(a, b))\n",
     "        p = getattr(g, \"base\", g).probs(g.edge(a, b))\n"),
    ("deep JSON is not mapped to an input error", ENV,
     "        except RecursionError as exc:\n",
     "        except ZeroDivisionError as exc:\n"),
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
