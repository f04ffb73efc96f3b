"""The package front: every public name, imported from its module on
first use."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lotoskit

SUBMODULES = ("adl", "contracts", "semantics", "syntax", "verify")


@pytest.mark.parametrize("name", lotoskit.__all__)
def test_every_public_name_is_its_modules_object(name):
    module = importlib.import_module(f"lotoskit.{lotoskit._MODULE[name]}")
    assert getattr(lotoskit, name) is getattr(module, name)


def test_dir_lists_every_public_name_and_submodule():
    assert set(lotoskit.__all__) | set(SUBMODULES) <= set(dir(lotoskit))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve_as_attributes(name):
    assert getattr(lotoskit, name) is importlib.import_module(f"lotoskit.{name}")


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'Fact'"):
        lotoskit.Fact
    assert not hasattr(lotoskit, "no_such_name")


def test_a_fresh_import_loads_no_module_until_a_name_is_read():
    code = (
        "import sys, lotoskit\n"
        "before = sorted(m for m in sys.modules if m.startswith('lotoskit'))\n"
        "from lotoskit import *\n"
        "print(before, check_deadlock.__module__, sorted(lotoskit.__all__) == lotoskit.__all__)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(lotoskit.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env).stdout
    assert out == "['lotoskit'] lotoskit.verify True\n"


def test_importing_the_cli_loads_no_dataclasses():
    # -S, so that no site hook imports anything before lotoskit does
    code = "import sys, lotoskit.cli\nprint('dataclasses' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": str(Path(lotoskit.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out == "False\n"
