"""The benchmark's tracer wraps public gammalab functions by name and times
registry checks by id; every name and id it lists must still exist.

The tracer is read as source, never imported, so this stays a check on
the names alone.
"""

import ast
import importlib
from pathlib import Path

from gammalab import verify as v
from gammalab.polynomial import UniPoly

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_constants() -> dict:
    tree = ast.parse(TRACER.read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("POLY_METHODS", "FUNCTIONS", "VERIFY_IDS")
    }


def test_every_traced_name_and_id_exists():
    constants = _tracer_constants()
    missing = [
        f"{layer}.{name}"
        for layer, names in constants["FUNCTIONS"].items()
        for name in names
        if not callable(getattr(importlib.import_module(f"gammalab.{layer}"), name, None))
    ]
    missing += [
        f"UniPoly.{attr}"
        for attrs in constants["POLY_METHODS"].values()
        for attr in attrs
        if not callable(vars(UniPoly).get(attr))
    ]
    missing += [ident for ident in constants["VERIFY_IDS"] if ident not in v.REGISTRY]
    assert constants["FUNCTIONS"] and constants["VERIFY_IDS"]
    assert not missing, missing
