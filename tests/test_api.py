"""The public surface: every exported name resolves, and every demo runs."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import mtcontrol

MODULES = sorted(info.name for info in pkgutil.iter_modules(mtcontrol.__path__))
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"mtcontrol.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"mtcontrol.{name}.__all__ names missing: {missing}"
    if name != "cli":  # the CLI entry points are not library names
        missing = [n for n in module.__all__ if not hasattr(mtcontrol, n)]
        assert not missing, f"not re-exported by mtcontrol: {missing}"


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
