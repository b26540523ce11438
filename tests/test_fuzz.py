"""Seeded mutation fuzzing of the command line's input documents.

Each case takes the bundled environment, the bundled mission or a sweep
configuration naming both, applies one to three random edits to it (a
value replaced by one of another kind or size, a number moved by one, a
key or item dropped, an item repeated or a key added), writes it and runs
it in process through cli.main: plan, validate and simulate for an
environment, simulate for a mission, and sweep, at two episodes a level
and one worker, for a sweep configuration.  Every run must exit 0, 1 or
2, with exactly one error: line on standard error when it does not exit
0, and raise nothing.

The seed and the number of cases are fixed.  An edit that writes an
environment's node count takes it from NODE_COUNTS, since a run in
process has no memory cap (tests/test_cli.py runs the out-of-memory path
in a capped child), and the tick guard is lowered so that an episode that
would run to it ends early, as the same exit 2.
"""

import copy
import json
import pathlib

import numpy as np

import risknav
from risknav import cli, sim

DATA = pathlib.Path(risknav.__file__).parent / "data"
ENVIRONMENT = DATA / "default_environment.json"
MISSION = DATA / "default_mission.json"

SEED = 20261020
CASES = 150
VALUES = (None, True, False, 0, 1, 2, -1, 0.5, 1.5, -0.0, 1e300, 2 ** 64,
          float("nan"), float("inf"), "", "Low", "random", [], [0, 1], {},
          {"x": 1})
NODE_COUNTS = (0, 1, 2, 5, 40)


def spots(doc, path=()):
    """The path of every value inside doc, by keys and indices."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from spots(value, path + (key,))


def mutate(rng, doc, is_environment):
    doc = copy.deepcopy(doc)
    for _ in range(rng.integers(1, 4)):
        paths = list(spots(doc))
        if not paths:
            break
        path = paths[rng.integers(len(paths))]
        parent, key = doc, path[-1]
        for step in path[:-1]:
            parent = parent[step]
        edit = rng.integers(4)
        if edit == 0:
            if is_environment and path == ("nodes",):
                parent[key] = NODE_COUNTS[rng.integers(len(NODE_COUNTS))]
            else:
                parent[key] = copy.deepcopy(VALUES[rng.integers(len(VALUES))])
        elif edit == 1:
            value = parent[key]
            if type(value) in (int, float):
                parent[key] = value + (1 if rng.random() < 0.5 else -1)
            else:
                del parent[key]
        elif edit == 2:
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent["extra"] = copy.deepcopy(VALUES[rng.integers(len(VALUES))])
    return doc


def commands(rng, kind, path):
    seed, u = str(rng.integers(1000)), str((0.0, 0.5, 1.0)[rng.integers(3)])
    simulate = ["simulate", "--seed", seed, "--uncertainty", u]
    if kind == "environment":
        return [["plan", "0", "22", "--env", path, "--human", "5,20," + u],
                ["validate", "25", "10", "11", "--env", path],
                simulate + ["--env", path]]
    if kind == "mission":
        return [simulate + ["--mission", path]]
    return [["sweep", "--config", path, "--episodes", "2", "--workers",
             "1"]]


def test_mutated_documents_exit_with_one_named_cause(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(sim, "_TICK_GUARD", 1000)
    bases = {"environment": json.loads(ENVIRONMENT.read_text()),
             "mission": json.loads(MISSION.read_text()),
             "sweep": {"environment": str(ENVIRONMENT),
                       "mission": str(MISSION),
                       "heat": {"path_heat": 0.998, "neighbor_heat": 0.6},
                       "levels": [0.0, 0.5, 1.0], "episodes_per_level": 2,
                       "seed": 7, "workers": 1}}
    kinds = sorted(bases)
    rng = np.random.default_rng(SEED)
    failures, codes = [], []
    for case in range(CASES):
        kind = kinds[case % len(kinds)]
        doc = mutate(rng, bases[kind], kind == "environment")
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc))
        for argv in commands(rng, kind, str(path)):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:
                capsys.readouterr()
                failures.append((case, argv, doc, repr(exc)))
                continue
            err = capsys.readouterr().err
            codes.append(code)
            one_error = (err.startswith("error: ")
                         and err.count("\n") == 1 and err.endswith("\n"))
            if code not in (0, 1, 2) or one_error != (code != 0) \
                    or (code == 0 and "error" in err):
                failures.append((case, argv, doc, code, err))
    assert not failures, failures[:3]
    # the edits reach runs that work, not only the parsers' refusals
    assert {0, 1} <= set(codes)
