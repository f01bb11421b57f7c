import importlib
import json

import pytest

import fanochain
from fanochain import dispersion


@pytest.mark.parametrize("name", fanochain.__all__)
def test_public_name_is_its_submodule_attribute(name):
    obj = getattr(fanochain, name)
    assert obj.__module__.startswith("fanochain.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert name in dir(fanochain)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fanochain import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == fanochain.__all__
    assert all(namespace[name] is getattr(fanochain, name) for name in namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'fanochain' has no attribute 'no_such_name'"):
        getattr(fanochain, "no_such_name")


def test_a_name_rebound_in_its_submodule_is_what_the_package_returns(monkeypatch):
    # a tracer wraps a layer's functions in the layer module: fanochain.X must see it
    original = dispersion.discrete_states
    assert fanochain.discrete_states is original

    def wrapped(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(dispersion, "discrete_states", wrapped)
    assert fanochain.discrete_states is wrapped
    monkeypatch.undo()
    assert fanochain.discrete_states is original
    assert "discrete_states" not in vars(fanochain)


def test_importing_the_package_loads_no_submodule(python_child):
    child = python_child(
        "-c", "import json, sys, fanochain; print(json.dumps(sorted(sys.modules)))"
    )
    assert child.returncode == 0, child.stderr
    loaded = [m for m in json.loads(child.stdout) if m.startswith("fanochain.")]
    assert loaded == []
