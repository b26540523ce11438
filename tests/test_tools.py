"""The mutation tool still points at the code it mutates."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).parent.parent


def test_every_mutant_old_text_occurs_once():
    # tools/mutants.py refuses a mutant whose old text is missing or
    # repeated (check exits naming it); running that check here, without
    # the tool's Tier-1 runs, fails a refactor that orphans a mutant
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    for mutant in mutants.MUTANTS:
        mutants.check(mutant)
