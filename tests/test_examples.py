"""Smoke tests for the scripts in ``examples/``.

Every example is imported as a module (its ``__main__`` block does not
run), so a name an example imports that the package no longer provides
fails here.  The two fast examples also run end to end.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in EXAMPLES.glob("*.py"))
)
def test_example_imports(name):
    assert callable(_load(name).main)


def test_quickstart_runs(capsys):
    _load("quickstart").main()
    out = capsys.readouterr().out
    assert "MBPTA analysis report: quickstart" in out
    headline = out.rstrip().splitlines()[-1]
    assert headline.startswith("MBPTA pWCET@1e-12 = ")
    assert " vs MBTA bound = " in headline


def test_estimator_bands_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["estimator_bands.py", "300"])
    _load("estimator_bands").main()
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "campaign: synthetic-cache@RAND, n=300"
    for method in ("block-maxima-gumbel", "auto", "pot-gpd"):
        assert f"{method:>20}: pWCET@1e-12 = " in out
    assert "95% CI [" in out
