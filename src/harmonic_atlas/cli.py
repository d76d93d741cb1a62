"""Command-line interface.

Subcommands: list | expand | shear | classify | verify | render.
Numbers the catalog pins exactly are always printed as exact rationals.

Configuration is read from a key=value file named by --config or the
HARMONIC_ATLAS_CONFIG environment variable; command-line flags win.
Recognized keys: order, grid.radii, grid.angles, tol, r_max.  list and
render read no config, so they refuse its flags (exit 2).

Exit codes: 0 success / all rows matched; 1 verification mismatch;
2 usage, config or input error; 3 I/O error.

A call builds only its command's parser, once per process, and later
``main`` calls reuse it.  The full parser, also built once, answers only
top-level help, no or an unknown command, and arguments the command parser
leaves over, which it reports with the top-level usage.  Both come from one
table of commands.  Parsing does not change a parser, and its usage errors
and help go to ``sys.stderr`` and ``sys.stdout`` as they are when printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .catalog import catalog_build, catalog_lookup, export_atlas
from .classify import classify_harmonic, coeff_class
from .errors import HarmonicAtlasError, UnknownId
from .exprtext import parse_any
from .render import RenderOptions, render_svg
from .shear import HarmonicMap, shear_imag, shear_real
from .verify import SUITES, VerifyConfig, report_json, run_suite

_CONFIG_KEYS = {"order", "grid.radii", "grid.angles", "tol", "r_max"}
# The largest series order and verify grid (radii x angles) a call may ask
# for: well above the benchmark's order 128 and 64 x 1024 grid.
_MAX_ORDER = 1024
_MAX_GRID_POINTS = 2**20


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{line_no}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise CliError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    return values


def _build_config(args) -> VerifyConfig:
    values = {}
    path = args.config or os.environ.get("HARMONIC_ATLAS_CONFIG")
    if path:
        values = _load_config_file(path)
    default = VerifyConfig()
    try:
        order = (args.order if args.order is not None
                 else int(values.get("order", default.order)))
        radii = (args.grid_radii if args.grid_radii is not None
                 else int(values.get("grid.radii", default.grid_radii)))
        angles = (args.grid_angles if args.grid_angles is not None
                  else int(values.get("grid.angles", default.grid_angles)))
        r_max = (args.r_max if args.r_max is not None
                 else float(values.get("r_max", default.r_max)))
        tol = args.tol if args.tol is not None else float(values.get("tol", default.tol))
    except ValueError as exc:
        raise CliError(f"bad config value: {exc}") from exc
    if not (1 <= order <= _MAX_ORDER and radii >= 1 and angles >= 1 and 0 < r_max < 1
            and tol >= 0 and radii * angles <= _MAX_GRID_POINTS):
        raise CliError("config values out of range: need "
                       f"1 <= order <= {_MAX_ORDER}, radii and angles >= 1, "
                       f"radii x angles <= {_MAX_GRID_POINTS}, 0 < r_max < 1, tol >= 0")
    return VerifyConfig(order=order, grid_radii=radii, grid_angles=angles,
                        r_max=r_max, tol=tol)


def _resolve_map(text: str, order: int):
    """Catalog id first, then expression text; returns a HarmonicMap."""
    try:
        return catalog_lookup(text).harmonic_map(order)
    except UnknownId:
        pass
    try:
        expr = parse_any(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"not a catalog id and not parseable: {text!r} ({exc})")
    return HarmonicMap.conformal(expr, order)


def _coeff_table(series, upto):
    return [str(series.coeff(n)) for n in range(upto + 1)]


def _cmd_list(args) -> int:
    if args.json:
        atlas = export_atlas()
        if args.family:
            atlas["entries"] = [e for e in atlas["entries"]
                                if e["family"] == args.family]
        print(json.dumps(atlas, sort_keys=True, indent=1))
        return 0
    for entry in catalog_build():
        if args.family and entry.family != args.family:
            continue
        flags = entry.expected
        bits = []
        if flags.integer_coeffs:
            bits.append("integer")
        elif flags.half_integer_coeffs:
            bits.append("half-integer")
        for name in ("cv_real", "cv_imag", "starlike", "u_class"):
            value = getattr(flags, name)
            if value is not None:
                bits.append(f"{name}={'yes' if value else 'no'}")
        print(f"{entry.id:32s} {entry.family:10s} {' '.join(bits)}")
    return 0


def _cmd_expand(args) -> int:
    config = _build_config(args)
    order = args.count if args.count is not None else config.order
    if not 0 <= order <= _MAX_ORDER:
        raise CliError(f"count must be >= 0 and <= {_MAX_ORDER}, got {order}")
    fm = _resolve_map(args.target, max(order, 1))
    h = _coeff_table(fm.h_series, order)
    g = _coeff_table(fm.g_series, order)
    if args.json:
        out = {"target": args.target, "order": order, "h": h}
        if any(c != "0" for c in g):
            out["g"] = g
        print(json.dumps(out, sort_keys=True, indent=1))
        return 0
    print("n:", " ".join(str(n) for n in range(order + 1)))
    print("h:", " ".join(h))
    if any(c != "0" for c in g):
        print("g:", " ".join(g))
    return 0


def _cmd_shear(args) -> int:
    config = _build_config(args)
    if args.show < 0:
        raise CliError(f"--show must be >= 0, got {args.show}")
    try:
        phi = catalog_lookup(args.phi).h
    except UnknownId:
        phi = parse_any(args.phi)
    omega = parse_any(args.omega)
    fn = shear_real if args.axis == "real" else shear_imag
    fm = fn(phi, omega, config.order)
    rh, rg = classify_harmonic(fm)
    upto = min(config.order, args.show)
    if args.json:
        print(json.dumps({
            "axis": args.axis,
            "h": _coeff_table(fm.h_series, upto),
            "g": _coeff_table(fm.g_series, upto),
            "h_class": rh.to_json(), "g_class": rg.to_json(),
        }, sort_keys=True, indent=1))
        return 0
    print("h:", " ".join(_coeff_table(fm.h_series, upto)))
    print("g:", " ".join(_coeff_table(fm.g_series, upto)))
    print(f"h class: {rh.klass}   g class: {rg.klass}")
    return 0


def _cmd_classify(args) -> int:
    config = _build_config(args)
    fm = _resolve_map(args.target, config.order)
    rh, rg = classify_harmonic(fm)
    if args.json:
        print(json.dumps({"target": args.target, "h": rh.to_json(),
                          "g": rg.to_json()}, sort_keys=True, indent=1))
        return 0
    print(f"h: {rh.to_json()}")
    print(f"g: {rg.to_json()}")
    return 0


def _cmd_verify(args) -> int:
    config = _build_config(args)
    report = run_suite(args.theorem, config)
    if args.json:
        print(report_json(report))
    else:
        suites = report.get("suites", [report])
        for suite in suites:
            s = suite["summary"]
            print(f"[{suite['theorem']}] matched {s['matched']}/{s['total']}")
            for row in suite["rows"]:
                if not row["match"] and not row["asserted"]:
                    print(f"  MISMATCH {row['id']} {row['check']}: "
                          f"computed={row['computed']} expected={row['expected']}")
        s = report["summary"]
        print(f"total matched {s['matched']}/{s['total']}")
    return 0 if report["summary"]["matched"] == report["summary"]["total"] else 1


def _cmd_render(args) -> int:
    entry = catalog_lookup(args.target)  # UnknownId -> exit 2
    opts = RenderOptions(circles=args.circles, rays=args.rays,
                         r_max=args.rmax, samples_per_curve=args.samples)
    svg = render_svg(entry.harmonic_map(32), opts)
    try:
        with open(args.out, "wb") as fh:
            fh.write(svg)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}", code=3) from exc
    print(f"wrote {args.out}")
    return 0


_PROG = "harmonic-atlas"
_JSON = ("--json", {"action": "store_true", "help": "JSON on stdout"})
_CONFIG_FLAGS = (
    ("--config", {"help": "key=value config file"}),
    ("--order", {"type": int, "help": "series truncation order"}),
    ("--grid-radii", {"type": int}),
    ("--grid-angles", {"type": int}),
    ("--r-max", {"type": float}),
    ("--tol", {"type": float}),
    _JSON,
)
_TARGET = {"help": "catalog id or expression"}

# command -> (help, handler, arguments as (name, add_argument keywords))
_COMMANDS = {
    "list": ("list catalog entries", _cmd_list, (("--family", {}), _JSON)),
    "expand": ("exact coefficient table", _cmd_expand, (
        ("target", _TARGET),
        ("count", {"type": int, "nargs": "?", "help": "highest coefficient index"}),
        *_CONFIG_FLAGS)),
    "shear": ("run the shear construction", _cmd_shear, (
        ("phi", {"help": "catalog id or expression for the conformal map"}),
        ("omega", {"help": "+z, -z, or an expression"}),
        ("axis", {"choices": ["real", "imag"]}),
        ("--show", {"type": int, "default": 12, "help": "coefficients to print"}),
        *_CONFIG_FLAGS)),
    "classify": ("exact coefficient classification", _cmd_classify, (
        ("target", _TARGET), *_CONFIG_FLAGS)),
    "verify": ("run a claim-table verification suite", _cmd_verify, (
        ("theorem", {"choices": list(SUITES) + ["all"]}), *_CONFIG_FLAGS)),
    "render": ("render a map's disk image as SVG", _cmd_render, (
        ("target", {"help": "catalog id"}),
        ("out", {"help": "output .svg path"}),
        ("--circles", {"type": int, "default": 8}),
        ("--rays", {"type": int, "default": 16}),
        ("--rmax", {"type": float, "default": 0.95}),
        ("--samples", {"type": int, "default": 512}))),
}


def _declare(parser, command: str):
    """Give ``parser`` the arguments and handler of ``command``."""
    _, fn, arguments = _COMMANDS[command]
    for name, keywords in arguments:
        parser.add_argument(name, **keywords)
    parser.set_defaults(fn=fn)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command is a subparser."""
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="catalog, shear, classify, verify and render univalent "
                    "harmonic mappings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _) in _COMMANDS.items():
        _declare(sub.add_parser(command, help=help_text), command)
    return parser


@functools.cache
def _command_parser(command: str) -> argparse.ArgumentParser:
    """One command's parser, the same as its subparser in the full one."""
    return _declare(argparse.ArgumentParser(prog=f"{_PROG} {command}"), command)


def _parse(argv: list) -> argparse.Namespace:
    """The arguments of ``argv``; argparse exits on help and usage errors."""
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    # top-level help, no or an unknown command, or arguments left over:
    # the full parser reports them with the top-level usage
    return build_parser().parse_args(argv)


def _run(args) -> int:
    """Run the parsed command; errors are printed and give its exit code."""
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except UnknownId as exc:
        print(f"error: unknown catalog id {exc}", file=sys.stderr)
        return 2
    except HarmonicAtlasError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a bare "-z" is the omega argument of `shear`, not an option
    argv = [" -z" if a == "-z" else a for a in argv]
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return _run(args)


if __name__ == "__main__":
    raise SystemExit(main())
