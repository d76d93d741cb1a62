"""src holds what a command runs: the reach census.

A fresh process installs ``sys.setprofile`` before ``harmonic_atlas`` is
imported, runs ``cli.main`` over ``_argvs()`` and reports the code objects
it entered in ``src/harmonic_atlas``.  Every ``def`` that ``ast`` finds
there, methods and nested functions included, matched by file and first
line with its decorators counted, must be entered, or be on ``ALLOWLIST``
with its reason.  An allowlisted function that the sweep enters fails too,
so the list can only shrink.

``python tests/test_reach.py`` prints the census: each function the sweep
leaves unentered, with its reason, and the lines the allowlist holds.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PACKAGE = SRC / "harmonic_atlas"
PERFBENCH = TESTS.parent / "perfbench"

# The reasons, grouped by the ROADMAP item that removes them.  Items 17,
# then 20 and 5: the float oracles of verify's exact rows stay in src while
# perfbench/spans.py binds them by name.  A ``_BOUND`` entry is in
# ``spans.TARGETS`` or entered only under a call of one (``_bound_calls``).
_BOUND = "perfbench/spans.py binds it, or only what it binds calls it"
_BOUND_VALUE = "compares rz_search's lattice points by value, as its tests do"
# Item 20: the float evaluation that only those oracles read.
_BOUND_INPUT = "only the geomtest oracles that perfbench/spans.py binds call it"
_FROZEN = "refuses to mutate an immutable value"
_REPR = "shows the value in a traceback or a REPL"
_HASH = "keeps hash consistent with __eq__"
_PAIR = "the other half of an operator or constructor pair, which the tests use"

# module.qualname -> why no command needs to enter it
ALLOWLIST = {
    "geomtest.Grid.__eq__": _BOUND,
    "geomtest.Grid.__hash__": _BOUND,
    "geomtest.RZParams.__init__": _BOUND,
    "geomtest.RZParams.__eq__": _BOUND_VALUE,
    "geomtest.RZParams.__hash__": _BOUND_VALUE,
    "geomtest.jacobian_min": _BOUND,
    "geomtest._phi_prime": _BOUND,
    "geomtest.rz_certificate": _BOUND,
    "geomtest.rz_search": _BOUND,
    "geomtest.direction_convexity_probe": _BOUND,
    "geomtest.starlike_derivative": _BOUND,
    "geomtest.u_class_margin": _BOUND,
    "geomtest.boundary_trace": _BOUND,
    "shear.HarmonicMap.eval": _BOUND_INPUT,
    "shear.HarmonicMap.h_prime": _BOUND_INPUT,
    "shear.HarmonicMap.g_prime": _BOUND_INPUT,
    "errors.Frozen.__setattr__": _FROZEN,
    "errors.Frozen.__delattr__": _FROZEN,
    "analytic.Poly.__repr__": _REPR,
    "analytic.AnalyticExpr.__repr__": _REPR,
    "numkernel.GaussRational.__repr__": _REPR,
    "numkernel.Series.__repr__": _REPR,
    "numkernel.GaussRational.__hash__": _HASH,
    "numkernel.Series.__hash__": _HASH,
    "numkernel.GaussRational.__rsub__": _PAIR,
    "numkernel.GaussRational.__rtruediv__": _PAIR,
    "numkernel.GaussRational.im": _PAIR,
    "numkernel.Series.__neg__": _PAIR,
    "analytic.AnalyticExpr.log": _PAIR,
}


class Def(namedtuple("Def", "name file line lines")):
    """A ``def`` in src: where it starts, decorators counted, and its size."""

    def __str__(self):
        return f"{self.name} ({self.file}:{self.line}, {self.lines} lines)"


def src_defs() -> dict:
    """module.qualname -> ``Def``, for every function of the package."""
    out = {}

    def visit(node, module, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = f"{module}.{name}"
                assert key not in out, f"two functions named {key}"
                out[key] = Def(key, file, line, child.end_lineno - line + 1)
                visit(child, module, file, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, file, f"{prefix}{child.name}.")
            else:
                visit(child, module, file, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.name, "")
    return out


# the command of each exit-2 test of ``test_cli`` parametrized by one
# argument of it, not by a whole argv: "{}" stands for the argument.
_EXIT_2_COMMANDS = {
    "test_expand_pole_just_inside_the_disk_exit_2": ("expand", "{}", "3"),
    "test_expand_oversized_power_exit_2_fast": ("expand", "{}", "2"),
    "test_expand_terms_not_joined_by_plus_exit_2": ("expand", "{}", "3"),
    "test_shear_omega_out_of_the_disk_exit_2": ("shear", "z", "{}", "real"),
}


def _exit_2_argvs(module) -> list:
    """The argv of each case of the parametrized ``*exit_2*`` tests of
    ``module`` that name an argv or are in ``_EXIT_2_COMMANDS``."""
    out = []
    for name, fn in vars(module).items():
        if not (name.startswith("test_") and "exit_2" in name):
            continue
        for mark in getattr(fn, "pytestmark", ()):
            if mark.name != "parametrize":
                continue
            names, values = mark.args
            first = [v[0] for v in values] if "," in names else list(values)
            if names.split(",")[0] == "argv":
                out += first
            elif name in _EXIT_2_COMMANDS:
                out += [tuple(a.format(v) for a in _EXIT_2_COMMANDS[name]) for v in first]
    return out


def _argvs(tmp: str) -> list:
    """The sweep: every command over the catalog, the expressions, and the
    usage and exit-2 cases that ``tests/test_cli.py`` lists."""
    import test_cli
    from harmonic_atlas.catalog import catalog_ids

    svg = os.path.join(tmp, "out.svg")
    config = os.path.join(tmp, "atlas.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("order = 16  # a comment\n\ngrid.radii = 8\ngrid.angles = 16\n")
    table = [("list",), ("list", "--json"), ("list", "--family", "T6"),
             ("verify", "all"), ("verify", "all", "--json")]
    for entry_id in catalog_ids():
        table += [("expand", entry_id, "128"), ("classify", entry_id),
                  ("classify", entry_id, "--json"), ("render", entry_id, svg)]
    for axis in ("real", "imag"):
        table += [("shear", "koebe", omega, axis) for omega in ("+z", "-z")]
    table += [("shear", "hslits_wide", "z/(2-z)", "real"),
              ("shear", "z/(1-z)", "+z", "real", "--show", "4", "--json")]
    # formula text, one with a complex coefficient; term text, one with a log
    for text in ("z/(1-z+z^2)", "z/(1-iz)", "rat(1; 0,1; 1,-2,1)", "log(-1; 1,-1)"):
        table += [("expand", text, "8"), ("expand", text, "4", "--json"), ("classify", text)]
    table += [("--help",), ("classify", "koebe", "--config", config),
              ("verify", "REMARK", "--config", config)]
    table += [tuple(a.replace("{out}", svg) for a in argv) for argv in test_cli.USAGE_ARGVS]
    return table + _exit_2_argvs(test_cli)


def _bound_calls() -> dict:
    """One small call of each geomtest function that perfbench may bind,
    keyed by its name in ``spans.TARGETS``; rz_search runs on both axes
    with a grid each, as verify's two tables find it."""
    from harmonic_atlas import catalog_lookup
    from harmonic_atlas import geomtest as g

    F = catalog_lookup("f3_cv1").harmonic_map(8)
    phi = F.source
    return {
        "geomtest.jacobian_min": lambda: g.jacobian_min(F, g.default_grid(2, 8)),
        "geomtest.u_class_margin": lambda: g.u_class_margin(phi, g.default_grid(2, 8)),
        "geomtest.m_theta_check": lambda: g.m_theta_check(F, g.default_grid(2, 8)),
        "geomtest.direction_convexity_probe": lambda: g.direction_convexity_probe(
            F, "real", lines=4, samples=64),
        "geomtest.starlike_derivative": lambda: g.starlike_derivative(F, 0.5, 0.5),
        "geomtest.rz_search": lambda: [g.rz_search(phi, axis, g.default_grid(2, 8))
                                       for axis in ("real", "imag")],
    }


def _entered(run) -> list:
    """[file, first line] of each package function that ``run()`` enters."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    files = {f for f in {c.co_filename for c in codes} if Path(f).resolve().parent == PACKAGE}
    return sorted({(Path(c.co_filename).name, c.co_firstlineno)
                   for c in codes if c.co_filename in files})


def _child(tmp: str) -> dict:
    """The sweep ("sweep"), run before ``harmonic_atlas`` is imported so
    that its import is counted, then the calls of ``_bound_calls`` whose
    names ``spans.TARGETS`` holds ("bound")."""
    assert "harmonic_atlas" not in sys.modules

    def sweep():
        from harmonic_atlas.cli import main

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in _argvs(tmp):
                main(list(argv))

    out = {"sweep": _entered(sweep)}
    import spans

    targets = {f"{module}.{path}" for module, path, _, _ in spans.TARGETS}
    calls = [run for name, run in _bound_calls().items() if name in targets]
    out["bound"] = _entered(lambda: [run() for run in calls])
    return out


class Census:
    """``defs``, every function of src (``src_defs``); ``unentered``, the
    names of those that the sweep leaves unentered; ``bound``, those that
    the calls of bound functions enter."""

    def __init__(self):
        env = {k: v for k, v in os.environ.items() if k != "HARMONIC_ATLAS_CONFIG"}
        env["PYTHONPATH"] = os.pathsep.join(map(str, (SRC, TESTS, PERFBENCH)))
        with tempfile.TemporaryDirectory() as tmp:
            child = subprocess.run([sys.executable, __file__, "--sweep", tmp], cwd=tmp,
                                   env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        out = json.loads(child.stdout)
        self.defs = src_defs()
        where = {(d.file, d.line): name for name, d in self.defs.items()}
        entered = {where.get(tuple(x)) for x in out["sweep"]}
        self.unentered = [name for name in self.defs if name not in entered]
        self.bound = {where.get(tuple(x)) for x in out["bound"]}

    def listing(self, names) -> str:
        return "".join(f"\n  {self.defs[name]}" for name in names)


@pytest.fixture(scope="module")
def census():
    return Census()


def test_every_function_is_entered_or_allowlisted(census):
    missing = [name for name in census.unentered if name not in ALLOWLIST]
    assert not missing, (
        "no command enters these functions: delete each, or call it from a "
        "command, or add it to ALLOWLIST with its reason:" + census.listing(missing))


def test_the_allowlist_only_shrinks(census):
    gone = sorted(set(ALLOWLIST) - set(census.defs))
    assert not gone, f"no such function in src; delete its ALLOWLIST entry: {gone}"
    entered = [name for name in ALLOWLIST if name not in census.unentered]
    assert not entered, ("a command enters these functions now; delete their "
                         "ALLOWLIST entries:" + census.listing(entered))


def test_every_allowlist_entry_has_a_reason():
    assert len(ALLOWLIST) <= 29
    empty = [name for name, reason in ALLOWLIST.items() if not reason.strip()]
    assert not empty, f"give each ALLOWLIST entry its reason: {empty}"


def test_bound_reasons_name_what_perfbench_binds(census):
    # spans.TARGETS, read only: a _BOUND or _BOUND_INPUT entry is a target
    # or is entered under a target's call, and a _BOUND_VALUE entry is a
    # method of a class that only targets build
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    targets = {f"{module}.{path}" for module, path, _, _ in spans.TARGETS}
    bound = {name for name, reason in ALLOWLIST.items() if reason in (_BOUND, _BOUND_INPUT)
             and (name in targets or name in census.bound)}
    wrong = [name for name, reason in ALLOWLIST.items()
             if reason in (_BOUND, _BOUND_INPUT) and name not in bound
             or reason == _BOUND_VALUE and f"{name.rsplit('.', 1)[0]}.__init__" not in bound]
    assert not wrong, ("perfbench binds none of these, and none is entered under "
                       "what it binds; delete each, or give it its reason:"
                       + census.listing(wrong))


def _main():
    if sys.argv[1:2] == ["--sweep"]:
        print(json.dumps(_child(sys.argv[2])))
        return
    census = Census()
    lines = sum(census.defs[name].lines for name in census.unentered)
    print(f"{len(census.defs)} functions in src; the sweep leaves "
          f"{len(census.unentered)} unentered, {lines} lines:")
    for name in census.unentered:
        print(f"  {census.defs[name]}: {ALLOWLIST.get(name, 'NOT ON THE ALLOWLIST')}")
    listed = [name for name in ALLOWLIST if name in census.defs]
    print(f"allowlist: {len(ALLOWLIST)} entries, "
          f"{sum(census.defs[name].lines for name in listed)} lines")


if __name__ == "__main__":
    _main()
