"""The package root: one list of public names, each read from its module on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import latglue

SRC = Path(latglue.__file__).resolve().parent.parent

PUBLIC = [
    "DiscriminantGroup", "FiniteAbelianMap", "GlueError", "IntegerLattice", "Isometry",
    "IsometryGroup", "IsotropicSubgroup", "LatticeError", "Sublattice", "discriminant_group",
    "enumerate_isotropic_subgroups", "extends_to_overlattice", "forms_isometric",
    "glue_extension_check", "glue_subgroup", "induced_map", "is_anti_isometry", "orbit_witness",
    "orbits", "orthogonal_group", "overlattice_from_isotropic", "overlattice_with_basis",
    "preserves_form", "pullback_form", "solve_psi_bar", "vectors_of_norm", "with_generators",
]


def loaded_after(statement: str) -> list[str]:
    """The ``latglue`` modules a fresh interpreter (``-S``) has loaded after ``statement``."""
    code = f"import sys\n{statement}\nprint(*sorted(m for m in sys.modules if m.startswith('latglue')))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import latglue") == ["latglue"]


def test_importing_lattices_loads_only_what_it_imports():
    assert loaded_after("import latglue.lattices") == ["latglue", "latglue.exact", "latglue.lattices"]


def test_each_public_name_is_the_object_its_home_module_defines():
    assert latglue.__all__ == PUBLIC
    for name in PUBLIC:
        obj = getattr(latglue, name)
        home = obj.__module__
        assert home in ("latglue.discforms", "latglue.isometries", "latglue.lattices"), name
        assert obj.__name__ == name and vars(sys.modules[home])[name] is obj


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(latglue, "nope")
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from latglue import nope  # noqa: F401


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from latglue import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == latglue.__all__
