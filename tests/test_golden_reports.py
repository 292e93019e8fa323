"""Builtin reports against stored copies, byte for byte.

``golden_reports.json`` maps "<scenario> seed=<seed> sign=<sign>" to the
report's ``to_json(include_timing=False)`` text for every builtin scenario,
the scenario's own seed and seeds 1 and 2, and both sign conventions.  A
change that alters any verdict, witness, magnitude or detail shows here.
A change that alters reports on purpose rewrites the file from the same
loop, with ``json.dump(..., indent=1, sort_keys=True)``.
"""

import json
from pathlib import Path

import pytest

from twistdirac.cli import SEED_ENV_VAR, run_scenario

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_reports.json")).read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_builtin_report_is_byte_identical(key, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    name, seed, sign = key.split()
    seed = seed.split("=")[1]
    report = run_scenario(name, seed=None if seed == "default" else int(seed),
                          sign=sign.split("=")[1])
    assert report.to_json(include_timing=False) == GOLDEN[key]
