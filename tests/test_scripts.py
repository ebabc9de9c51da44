"""The example scripts run end to end on a small sphere (162 vertices).

Each script's main() is loaded from its file and run with --subdivisions 2;
a script that writes a file writes it under tmp_path.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# script -> whether it takes --out
OUT_FLAG = {"matching_demo": False, "noise_sweep": True, "refinement_trace": True}


def test_every_script_is_covered():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == sorted(OUT_FLAG)


@pytest.mark.parametrize("name", sorted(OUT_FLAG))
def test_script_runs(name, tmp_path, capsys):
    argv = ["--subdivisions", "2"]
    if OUT_FLAG[name]:
        argv += ["--out", str(tmp_path / f"{name}.csv")]
    assert load(name).main(argv) == 0
    assert capsys.readouterr().out
    if OUT_FLAG[name]:
        assert (tmp_path / f"{name}.csv").read_text()


def test_scripts_import_only_public_names():
    """A script shows the public API: it imports no `_`-prefixed fmapkit name."""
    private = []
    for path in sorted(SCRIPTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            private += [f"{path.name}: {name}" for name in names if name.startswith("fmapkit")
                        and any(part.startswith("_") for part in name.split("."))]
    assert private == []
