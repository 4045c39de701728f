"""The benchmark's tracer wraps library functions by name; a name that the
library no longer has breaks every traced benchmark run."""

import importlib
import sys
from pathlib import Path

from flagheight import cli

FLAGBENCH = Path(__file__).resolve().parent.parent / "flagbench"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(FLAGBENCH))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.modules.pop("tracer", None)
    for name in tracer.WRAPPED:
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"flagheight.{module_name}")
        for part in path:
            assert hasattr(owner, part), name
            owner = getattr(owner, part)
        assert callable(owner), name
    main = cli.main
    with tracer.Tracer():  # looks each name up as a traced run does
        assert cli.main is not main
    assert cli.main is main
