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
