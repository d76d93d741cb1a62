"""Exact-plus-numeric toolkit for univalent harmonic mappings on the disk.

Construct the classical catalogs of univalent maps with integer or
half-integer coefficients, run the shear construction on exact truncated
series, classify coefficients exactly, and verify the geometric claims
(direction convexity, starlikeness, boundary shapes) with exact
certificates where the closed forms allow and grid-sampled checks
elsewhere.
"""

from .analytic import AnalyticExpr, LogTerm, Poly, RationalTerm
from .catalog import (
    BoundaryDescriptor, CatalogEntry, FlagSet, ShearRecipe,
    catalog_build, catalog_ids, catalog_lookup, export_atlas,
)
from .classify import CoeffClassReport, classify_harmonic, coeff_class
from .errors import (
    DilatationTooLarge, HarmonicAtlasError, InvalidExpression, NearPole,
    NoClosedForm, NotNormalized, PoleAtOrigin, SeriesMismatch, UnknownId, ZeroConstantTerm,
    ZeroValue,
)
from .exprtext import format_expr, parse_any, parse_expr_text, parse_formula
from .geomtest import (
    Certificate, Grid, RZParams, boundary_trace, default_grid,
    direction_convexity_probe, jacobian_min, m_theta_check, rz_certificate,
    rz_search, starlike_derivative, u_class_margin,
)
from .numkernel import GaussRational, Series, gauss
from .render import RenderOptions, render_svg
from .shear import HarmonicMap, dilatation_check, shear_imag, shear_real

__version__ = "0.1.0"

__all__ = [
    "AnalyticExpr", "LogTerm", "Poly", "RationalTerm",
    "BoundaryDescriptor", "CatalogEntry", "FlagSet", "ShearRecipe",
    "catalog_build", "catalog_ids", "catalog_lookup", "export_atlas",
    "CoeffClassReport", "classify_harmonic", "coeff_class",
    "DilatationTooLarge", "HarmonicAtlasError", "InvalidExpression", "NearPole",
    "NoClosedForm", "NotNormalized", "PoleAtOrigin", "SeriesMismatch", "UnknownId",
    "ZeroConstantTerm", "ZeroValue",
    "format_expr", "parse_any", "parse_expr_text", "parse_formula",
    "Certificate", "Grid", "RZParams", "boundary_trace", "default_grid",
    "direction_convexity_probe", "jacobian_min", "m_theta_check",
    "rz_certificate", "rz_search", "starlike_derivative", "u_class_margin",
    "GaussRational", "Series", "gauss",
    "RenderOptions", "render_svg",
    "HarmonicMap", "dilatation_check", "shear_imag", "shear_real",
    "__version__",
]
