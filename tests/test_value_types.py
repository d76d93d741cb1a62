"""The package's value types: constructors, equality and immutability."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import harmonic_atlas
from harmonic_atlas import (
    BoundaryDescriptor, CatalogEntry, Certificate, CoeffClassReport, FlagSet,
    HarmonicMap, RenderOptions, RZParams, SeriesMismatch, ShearRecipe,
    catalog_lookup, default_grid, parse_expr_text,
)
from harmonic_atlas.verify import VerifyConfig

_NONE = inspect.Parameter.empty

# each type's constructor parameters, in order, with their defaults
_CONSTRUCTORS = {
    BoundaryDescriptor: [("kind", _NONE), ("params", ())],
    FlagSet: [("integer_coeffs", _NONE), ("half_integer_coeffs", _NONE),
              ("cv_real", None), ("cv_imag", None), ("starlike", None),
              ("u_class", None), ("boundary", None)],
    ShearRecipe: [("source_id", _NONE), ("omega_sign", _NONE), ("axis", _NONE)],
    CatalogEntry: [("id", _NONE), ("family", _NONE), ("h", _NONE), ("g", _NONE),
                   ("expected", _NONE), ("recipe", None), ("twin", None)],
    CoeffClassReport: [("klass", _NONE), ("first_violation", None)],
    Certificate: [("kind", _NONE), ("margin", _NONE), ("witness", None),
                  ("params", None)],
    RZParams: [("mu", _NONE), ("nu", _NONE)],
    RenderOptions: [("circles", 8), ("rays", 16), ("r_max", 0.95),
                    ("samples_per_curve", 512)],
    HarmonicMap: [("h_series", _NONE), ("g_series", _NONE), ("omega", _NONE),
                  ("h_expr", None), ("g_expr", None), ("source", None),
                  ("axis", "real")],
    VerifyConfig: [("order", 64), ("grid_radii", 64), ("grid_angles", 256)],
}


def _instances():
    koebe = catalog_lookup("koebe")
    return [
        koebe.expected.boundary, koebe.expected, catalog_lookup("f3_cv1").recipe,
        koebe, CoeffClassReport("integer"), default_grid(), RZParams(0.0, 0.0),
        Certificate("rz_real", 0.5, 0.5j, RZParams(0.0, 0.0)), RenderOptions(),
        koebe.harmonic_map(8), VerifyConfig(),
    ]


def _fields(value) -> tuple:
    return getattr(value, "_fields", None) or type(value).__slots__


def test_no_class_in_the_package_is_a_dataclass():
    modules = [importlib.import_module(f"harmonic_atlas.{m.name}")
               for m in pkgutil.iter_modules(harmonic_atlas.__path__)]
    classes = [c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__]
    assert len(classes) > 12
    assert not [c for c in classes if dataclasses.is_dataclass(c)]


@pytest.mark.parametrize("cls", _CONSTRUCTORS, ids=lambda c: c.__name__)
def test_constructor_parameters_and_defaults(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == _CONSTRUCTORS[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_equal_grids_are_equal_and_hash_alike():
    a, b = default_grid(), default_grid()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != default_grid(angles=128) and a != default_grid(r_max=0.9)
    assert RZParams(1.0, 0.5) == RZParams(1.0, 0.5)
    assert hash(RZParams(1.0, 0.5)) == hash(RZParams(1.0, 0.5))


@pytest.mark.parametrize("value", _instances(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(value):
    for name in _fields(value):
        before = getattr(value, name, None)  # a memo slot may be unset
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name, None) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_replace_checks_the_new_map():
    fm = catalog_lookup("koebe").harmonic_map(8)
    with pytest.raises(SeriesMismatch, match="for h"):
        fm.replace(h_expr=parse_expr_text("rat(1; 0,1; 1,-1)"))
    with pytest.raises(TypeError):
        fm.replace(order=4)
    shear = catalog_lookup("f3_cv1").harmonic_map(8)
    assert shear.replace(h_expr=None, g_expr=None).h_expr is None
