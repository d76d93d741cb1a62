"""Command-line interface.

Subcommands: list | expand | shear | classify | verify | render.
Numbers the catalog pins exactly are always printed as exact rationals.

Configuration is read from a key=value file named by --config or the
HARMONIC_ATLAS_CONFIG environment variable; command-line flags win.
Recognized keys (``_SETTINGS``): order, grid.radii, grid.angles.  verify
reads all three; expand, shear and classify read order, but check the
whole file.  expand's count is its order, so a count given with --order
exits 2.  list and render read no config, so they refuse its flags.

Exit codes: 0 success / all rows matched; 1 verification mismatch;
2 usage, config or input error; 3 I/O error.

Arguments take one of two routes, both declared by one table of commands.
A plain argv (see ``_plain``) is read straight from the table, and no
``ArgumentParser`` is built.  Any other (help, ``--``, an abbreviated,
unknown or refused argument, split positionals) goes to the full parser,
built once per process, which prints usage errors and help to
``sys.stderr`` and ``sys.stdout`` as they are when printed.  Only the full
parser imports ``argparse``.

verify and render keep their process's heap resident (``_keep_heap``, once
per process, on glibc only).  Both evaluate grids of 12,800 to 16,384
points and free each large temporary when done.  With glibc's default
thresholds the freed top of the heap goes back to the OS after each render
or suite, and the next array faults it in again: about 220 minor page
faults per warm render, 2,300 for a second ``verify T32`` in one process
and 8,800 for a second ``verify all``, against 0 to 7 under the policy.  A
command owns its process, so the policy is set there; importing the
package, or calling ``render_svg`` or ``run_suite`` from another program,
leaves that program's allocator as it is.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import sys
import types

from .catalog import catalog_ids, catalog_lookup, export_atlas
from .classify import classify_harmonic
from .errors import HarmonicAtlasError, UnknownId
from .exprtext import parse_any
from .render import RenderOptions, render_svg
from .shear import HarmonicMap, shear_imag, shear_real
from .verify import _MAX_ORDER, SUITES, VerifyConfig, report_json, run_suite

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


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
                if key not in _SETTINGS:
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
    fields = {}
    try:
        for key, (flag, keywords) in _SETTINGS.items():
            field = _dest(flag)
            value = getattr(args, field, None)  # None: not given, or not declared
            if value is None and key in values:
                value = keywords["type"](values[key])
            if value is not None:
                fields[field] = value
    except ValueError as exc:
        raise CliError(f"bad config value: {exc}") from exc
    return VerifyConfig(**fields)


@functools.cache
def _keep_heap() -> bool:
    """Keep this process's heap resident; True when glibc took the policy.

    A grid holds at most 2**20 points, so no grid array exceeds 16 MiB of
    complex values.  A 32 MiB mmap threshold serves every such array from
    the heap, and a 64 MiB trim threshold keeps the freed top of the heap
    for the next one.  Setting either turns off glibc's dynamic thresholds,
    which alone would fault more, so both are set.  On another C library,
    or when glibc refuses the mmap threshold, nothing is set.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False
    if not libc.startswith("glibc "):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) != 0
            and mallopt(_M_TRIM_THRESHOLD, 64 << 20) != 0)


def _resolve_map(text: str, order: int):
    """Catalog id first, then expression text; returns a HarmonicMap at
    ``order``.  A catalog map's closed forms hold for every n at any order
    (``shear`` module doc)."""
    try:
        entry = catalog_lookup(text)
    except UnknownId:
        pass
    else:
        return entry.harmonic_map(order)
    try:
        expr = parse_any(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"not a catalog id and not parseable: {text!r} ({exc})")
    return HarmonicMap.conformal(expr, order)


def _coeff_table(series, upto):
    """The texts of coefficients 0..upto (upto <= the order), each read off
    its triple by ``GaussRational.literal``."""
    return [c.literal() for c in series.coeffs[:upto + 1]]


def _cmd_list(args) -> int:
    ids = catalog_ids(args.family or None)  # ValueError for an unknown family
    if args.json:
        atlas = export_atlas()
        if args.family:
            atlas["entries"] = [e for e in atlas["entries"]
                                if e["family"] == args.family]
        print(json.dumps(atlas, sort_keys=True, indent=1))
        return 0
    for entry in map(catalog_lookup, ids):
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
    if args.count is not None and args.order is not None:
        raise CliError("give the count or --order, not both: the count is the order")
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


def _proofs(summary: dict) -> str:
    """The rows by proof kind, as "(exact 20, order 0, grid 0, asserted 0)"."""
    return "(" + ", ".join(f"{k} {n}" for k, n in summary["proofs"].items()) + ")"


def _cmd_verify(args) -> int:
    _keep_heap()
    config = _build_config(args)
    report = run_suite(args.theorem, config)
    if args.json:
        print(report_json(report))
    else:
        suites = report.get("suites", [report])
        for suite in suites:
            s = suite["summary"]
            print(f"[{suite['theorem']}] matched {s['matched']}/{s['total']} {_proofs(s)}")
            for row in suite["rows"]:
                if not row["match"] and not row["asserted"]:
                    print(f"  MISMATCH {row['id']} {row['check']}: "
                          f"computed={row['computed']} expected={row['expected']}")
        s = report["summary"]
        print(f"total matched {s['matched']}/{s['total']} {_proofs(s)}")
    return 0 if report["summary"]["matched"] == report["summary"]["total"] else 1


def _cmd_render(args) -> int:
    _keep_heap()
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
# config key -> its flag, as (name, add_argument keywords); the flag's
# attribute names the ``VerifyConfig`` field it sets
_SETTINGS = {
    "order": ("--order", {"type": int, "help": "series truncation order"}),
    "grid.radii": ("--grid-radii", {"type": int}),
    "grid.angles": ("--grid-angles", {"type": int}),
}
_CONFIG = ("--config", {"help": "key=value config file"})
_ORDER_FLAGS = (_CONFIG, _SETTINGS["order"], _JSON)
_TARGET = {"help": "catalog id or expression"}
_RENDER = RenderOptions()  # the defaults of the render flags

# command -> (help, handler, arguments as (name, add_argument keywords))
_COMMANDS = {
    "list": ("list catalog entries", _cmd_list, (("--family", {}), _JSON)),
    "expand": ("exact coefficient table", _cmd_expand, (
        ("target", _TARGET),
        ("count", {"type": int, "nargs": "?", "help": "highest coefficient index"}),
        *_ORDER_FLAGS)),
    "shear": ("run the shear construction", _cmd_shear, (
        ("phi", {"help": "catalog id or expression for the conformal map"}),
        ("omega", {"help": "+z, -z, or an expression"}),
        ("axis", {"choices": ["real", "imag"]}),
        ("--show", {"type": int, "default": 12, "help": "coefficients to print"}),
        *_ORDER_FLAGS)),
    "classify": ("exact coefficient classification", _cmd_classify, (
        ("target", _TARGET), *_ORDER_FLAGS)),
    "verify": ("run a claim-table verification suite", _cmd_verify, (
        ("theorem", {"choices": list(SUITES) + ["all"]}),
        _CONFIG, *_SETTINGS.values(), _JSON)),
    "render": ("render a map's disk image as SVG", _cmd_render, (
        ("target", {"help": "catalog id"}),
        ("out", {"help": "output .svg path"}),
        ("--circles", {"type": int, "default": _RENDER.circles}),
        ("--rays", {"type": int, "default": _RENDER.rays}),
        ("--rmax", {"type": float, "default": _RENDER.r_max}),
        ("--samples", {"type": int, "default": _RENDER.samples_per_curve}))),
}


def _declare(parser, command: str):
    """Give ``parser`` the arguments and handler of ``command``."""
    _, fn, arguments = _COMMANDS[command]
    for name, keywords in arguments:
        parser.add_argument(name, **keywords)
    parser.set_defaults(fn=fn)
    return parser


@functools.cache
def build_parser():
    """The full parser, an ``argparse.ArgumentParser``: every command is a
    subparser.  Only this function imports ``argparse``, so a plain argv
    never loads it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An argument of one "-" and more, other than -h, is a positional
        or an option's value, not an option: a formula such as -z or
        -z^2+z, or a negative number (every option but -h starts with
        "--"), as in ``_plain``.  It reaches the command, and every message,
        as typed.  An option's explicit value "--" (``--name=--``) is kept
        as its value, where argparse would strip it and leave none.
        ``_parse_optional`` and ``_get_values`` are the argparse hooks that
        sort one argument and convert an action's values."""

        def _parse_optional(self, arg_string):
            if (arg_string[:1] == "-" and arg_string[1:2] not in ("", "-")
                    and arg_string != "-h"):
                return None
            return super()._parse_optional(arg_string)

        def _get_values(self, action, arg_strings):
            if action.option_strings and arg_strings == ["--"]:
                value = self._get_value(action, "--")
                self._check_value(action, value)
                return value
            return super()._get_values(action, arg_strings)

    parser = _Parser(
        prog=_PROG,
        description="catalog, shear, classify, verify and render univalent "
                    "harmonic mappings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _) in _COMMANDS.items():
        _declare(sub.add_parser(command, help=help_text), command)
    return parser


def _plain(argv: list):
    """A namespace with the fields the full parser gives a plain ``argv``,
    read straight from ``_COMMANDS``; None for any other argv.

    In a plain argv, ``argv[0]`` names a command, and every later argument
    is a positional (one that neither starts with "--" nor is -h) or one of
    the command's declared options written in full: ``--name value``, where
    the value neither starts with "--" nor is -h, ``--name=value``, or a
    bare ``--name`` for a flag.  The positionals form one run of at least
    the required ones.  Each value passes its ``type`` and then its
    ``choices``, and a repeated option keeps its last value, as in argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, fn, arguments = _COMMANDS[argv[0]]
    declared = dict(arguments)
    args = types.SimpleNamespace(command=argv[0], fn=fn)
    for name, keywords in arguments:
        setattr(args, _dest(name), False if keywords.get("action") == "store_true"
                else keywords.get("default"))
    run, split = [], False
    rest = iter(argv[1:])
    try:
        for arg in rest:
            if arg[:2] != "--" and arg != "-h":
                if split:
                    return None
                run.append(arg)
                continue
            split = bool(run)
            name, eq, value = arg.partition("=")
            if name not in declared:
                return None
            if declared[name].get("action") == "store_true":
                if eq:
                    return None
                setattr(args, _dest(name), True)
                continue
            if not eq:
                value = next(rest, "--")
                if value[:2] == "--" or value == "-h":
                    return None
            setattr(args, _dest(name), _convert(declared[name], value))
        positionals = [name for name, _ in arguments if name[:2] != "--"]
        required = [name for name in positionals if declared[name].get("nargs") != "?"]
        if not len(required) <= len(run) <= len(positionals):
            return None
        for name, value in zip(positionals, run):
            setattr(args, name, _convert(declared[name], value))
    except ValueError:
        return None
    return args


def _dest(name: str) -> str:
    """argparse's attribute for a declared argument."""
    return name[2:].replace("-", "_") if name[:2] == "--" else name


def _convert(keywords: dict, text: str):
    """``text`` through its ``type``, then checked against its ``choices``;
    ValueError where argparse would refuse it."""
    value = keywords.get("type", str)(text)
    if "choices" in keywords and value not in keywords["choices"]:
        raise ValueError(f"invalid choice: {value!r}")
    return value


def _parse(argv: list):
    """The arguments of ``argv``; the full parser, which answers what
    ``_plain`` does not, exits on help and usage errors."""
    args = _plain(argv)
    return args if args is not None else build_parser().parse_args(argv)


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
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return _run(args)


if __name__ == "__main__":
    raise SystemExit(main())
