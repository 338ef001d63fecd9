"""The public names: every export resolves, and deleted API stays gone."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import gradetwo
from gradetwo import stokes

# the package and each submodule that declares its public names
MODULES = [name for name in ["gradetwo"] + [
    f"gradetwo.{m.name}" for m in pkgutil.iter_modules(gradetwo.__path__)]
    if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("module", MODULES)
def test_exports_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes {missing}"


@pytest.mark.parametrize("name", ["SaddleSystem",
                                  "assemble_generalized_stokes"])
def test_deleted_stokes_assembly_not_exported(name):
    for mod in (gradetwo, stokes):
        assert name not in mod.__all__
        assert not hasattr(mod, name)


@pytest.mark.parametrize("owner,name", [
    (stokes.StokesEnergyReport, "skew"),
    (gradetwo.SpaceDescriptor, "zero_mean"),
    (gradetwo.InflowDatum, "variant"),
    (stokes.PreparedStokes, "lift"),
    (gradetwo.uniqueness_probe, "start_scale")])
def test_unread_fields_removed(owner, name):
    """No field of a record, and no argument of a function, that no
    caller reads."""
    if inspect.isfunction(owner):
        names = inspect.signature(owner).parameters
    else:
        names = getattr(owner, "_fields", None) or [
            f.name for f in dataclasses.fields(owner)]
    assert name not in names
