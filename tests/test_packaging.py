import ast
import importlib
import re
import warnings
from pathlib import Path

import eigenschaft


def test_version_has_one_source():
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] support is "beta"
        project = read_configuration(pyproject)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == eigenschaft.__version__


def test_readme_threshold_table_matches_the_constants():
    """Each row of README's 'Named thresholds' table names a module constant
    and its value, and every numeric module constant of ``linalg``,
    ``operators``, ``states`` and ``interferometer`` has a row."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Named thresholds", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `([^`]+)` \|", section, re.M)
    table = {}
    for name, module, value in rows:
        constant = getattr(importlib.import_module(f"eigenschaft.{module}"), name)
        assert type(constant) in (int, float)
        assert constant == ast.literal_eval(value), name
        table[name] = module
    constants = {}
    for module in ("linalg", "operators", "states", "interferometer"):
        mod = importlib.import_module(f"eigenschaft.{module}")
        for node in ast.parse(Path(mod.__file__).read_text()).body:
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                constants.update((name, module) for name in names if name.isupper()
                                 and type(getattr(mod, name)) in (int, float))
    assert table == constants
