"""The package under test and the four benchmark workloads.

Every operation is one call of the public entry point
``harmonic_atlas.cli.main(argv)``, with stdout and stderr captured, and every
output is checked against what the seed commit produced (``expected.json``,
written by ``record_expected.py``).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import sys
import time
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

PACKAGE = "harmonic_atlas"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"

# expand_deep: every term shape the catalog has, at twice the verify order.
EXPAND_ORDER = 128
EXPAND_POOL = (
    "koebe", "hslits_wide", "vslits_avg", "parabola",  # rational conformal
    "t4_re_koebe_im_halfplane",                        # T4 with a closed form
    "f9_cv1",                                          # rational shear
    "f13_cv1", "f25_cv1", "f7_cvi",                    # series-only shears
    "f3_cvi",                                          # log-term closed form
)
# The catalog's closed forms of the rational conformal entries, c * num / den
# with ascending coefficients, for an independent long-division cross-check.
RATIONAL_FORMS = {
    "koebe": (Fraction(1), [0, 1], [1, -2, 1]),
    "hslits_wide": (Fraction(1), [0, 1], [1, -1, 1]),
    "vslits_avg": (Fraction(1, 2), [0, 2, 0, -1], [1, 0, -1]),
    "parabola": (Fraction(1, 2), [0, 2, -1], [1, -2, 1]),
}
# certify_dense: the grid-only suites, with four times the default angles.
CERTIFY_SUITES = ("T31", "T32", "LEM42", "REMARK")
CERTIFY_ANGLES = 1024
# Families whose order-64 maps those suites read, plus the two REMARK maps.
CERTIFY_FAMILIES = ("S_Z", "T1", "T2")
CERTIFY_EXTRA = ("t4_re_koebe_im_halfplane", "t6_re_halfplane_im_koebe")
VERIFY_ORDER = 64
RENDER_ORDER = 32  # the order `render` builds its map at
SCRATCH_FILE = "out.svg"


class SetupError(RuntimeError):
    """The package or a seed record is missing or unusable."""


@dataclass
class Output:
    rc: int | None       # None: cli.main raised instead of returning
    stdout: str
    stderr: str
    start: float         # time.perf_counter() around the call
    end: float


class Program:
    """The package, imported from the checkout's ``src`` and re-imported on demand.

    Dropping every package module and importing again gives each cold
    operation the state of a fresh process, whatever caches the package
    keeps.  A tracer, when set, is installed on every fresh import.
    """

    def __init__(self):
        self.src = (ROOT / "src").resolve()
        if not (self.src / PACKAGE / "cli.py").is_file():
            raise SetupError(f"no {PACKAGE} package under {self.src}")
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))
        self.tracer = None
        self.cli = None

    def unload(self):
        if self.tracer is not None:
            self.tracer.uninstall()
        for name in [n for n in sys.modules
                     if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        self.cli = None
        gc.collect()

    def load(self):
        cli = importlib.import_module(PACKAGE + ".cli")
        if not Path(cli.__file__).resolve().is_relative_to(self.src):
            raise SetupError(f"{PACKAGE} imported from {cli.__file__}, not {self.src}")
        self.cli = cli
        if self.tracer is not None:
            self.tracer.install()

    def call(self, argv) -> Output:
        out, err = io.StringIO(), io.StringIO()
        main = self.cli.main
        clock = time.perf_counter
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = clock()
            try:
                rc = main(list(argv))
                end = clock()
            except Exception:  # an uncaught error is a failed operation
                end = clock()
                rc = None
                err.write(traceback.format_exc())
        return Output(rc, out.getvalue(), err.getvalue(), start, end)


@dataclass
class Check:
    attempted: int            # units: counted rows for verify, else 1
    failed: int
    completed: bool           # the call returned a result it should have
    unexpected: list = field(default_factory=list)  # failures new since the seed
    notes: list = field(default_factory=list)


@dataclass(frozen=True)
class Op:
    key: str                  # names the op's seed record
    argv: tuple               # "{out}" stands for the scratch output file

    def resolved_argv(self, scratch: Path) -> list:
        return [a.replace("{out}", str(scratch / SCRATCH_FILE)) for a in self.argv]


# -- checks ------------------------------------------------------------------

def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def counted_rows(stdout: str) -> tuple:
    """(rows, failing) of a ``verify --json`` report: the counted rows, and
    the 'suite id check' names of those whose match flag is false."""
    report = json.loads(stdout)
    rows = [(s["theorem"], r) for s in report.get("suites", [report])
            for r in s["rows"] if not r["asserted"]]
    return rows, {f"{t} {r['id']} {r['check']}" for t, r in rows if not r["match"]}


def check_rows(op: Op, out: Output, record: dict, scratch: Path) -> Check:
    """A counted verify row is one unit; it fails when its match flag is false."""
    counted, known = record["counted"], set(record["failing"])
    try:
        rows, failing = counted_rows(out.stdout)
    except (ValueError, KeyError, TypeError, AttributeError):
        return Check(counted, counted, False,
                     [f"{op.key}: no report (exit {out.rc}) {out.stderr.strip()[-200:]}"])
    missing = max(0, counted - len(rows))  # a row that disappeared has failed
    check = Check(max(counted, len(rows)), len(failing) + missing, out.rc in (0, 1))
    check.unexpected += [f"{op.key}: {row}" for row in sorted(failing - known)]
    check.notes += [f"{op.key}: known failure {row}" for row in sorted(failing & known)]
    if len(rows) != counted:
        check.unexpected.append(f"{op.key}: {len(rows)} counted rows, seed had {counted}")
    return check


def expand_coefficients(stdout: str, line: str = "h") -> list:
    for text in stdout.splitlines():
        if text.startswith(line + ":"):
            return [Fraction(c) for c in text.split()[1:]]
    raise ValueError(f"no {line}: line")


def long_division_oracle(target: str, order: int = EXPAND_ORDER) -> list:
    from oracles import long_division_series  # tests/oracles.py, read-only
    c, num, den = RATIONAL_FORMS[target]
    return [c * a for a in long_division_series(num, den, order)]


def check_expand(op: Op, out: Output, record: dict, scratch: Path,
                 oracles: dict) -> Check:
    target = op.argv[1]
    problems = []
    if out.rc != 0:
        problems.append(f"exit {out.rc} {out.stderr.strip()[-200:]}")
    elif sha256(out.stdout) != record["sha256"]:
        problems.append("coefficient table differs from the seed digest")
    if out.rc == 0 and target in oracles:
        try:
            if expand_coefficients(out.stdout) != oracles[target]:
                problems.append("h differs from the long-division oracle")
        except ValueError as exc:
            problems.append(f"unreadable table: {exc}")
    return Check(1, int(bool(problems)), not problems,
                 [f"{op.key}: {p}" for p in problems])


def check_svg(op: Op, out: Output, record: dict, scratch: Path) -> Check:
    path = scratch / SCRATCH_FILE
    data = path.read_bytes() if out.rc == 0 and path.is_file() else None
    if path.exists():
        path.unlink()
    want = record["sha256"]
    if want is None:  # this entry failed at the seed
        if data is None:
            return Check(1, 1, False, notes=[f"{op.key}: known failure (exit {out.rc})"])
        try:
            ok = ET.fromstring(data).find("{http://www.w3.org/2000/svg}path") is not None
        except ET.ParseError:
            ok = False
        if not ok:
            return Check(1, 1, False, [f"{op.key}: malformed SVG"])
        return Check(1, 0, True, notes=[f"{op.key}: passes now, failed at the seed"])
    if data is None:
        return Check(1, 1, False, [f"{op.key}: exit {out.rc} {out.stderr.strip()[-200:]}"])
    if sha256(data) != want:
        return Check(1, 1, False, [f"{op.key}: SVG differs from the seed digest"])
    return Check(1, 0, True)


# -- workloads -------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    ops: tuple
    check: object              # check(op, output, record, scratch) -> Check
    cold: bool                 # re-import the package before every op
    shuffle: bool              # the seed permutes the ops of every pass
    warm_up: object = None     # warm_up(program), run after each set-up import
    min_beyond: int = 0        # samples required beyond a reported percentile

    def pass_ops(self, rng) -> list:
        return rng.sample(self.ops, len(self.ops)) if self.shuffle else list(self.ops)


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read seed records {path}: {exc}") from exc


def _verify_op(*args) -> Op:
    argv = ("verify",) + args + ("--json",)
    return Op(" ".join(argv), argv)


def _expand_all(program: Program, ids, order: int):
    """Build each entry's map at the given order, through the CLI."""
    for t in ids:
        out = program.call(["expand", t, str(order)])
        if out.rc != 0:
            raise SetupError(f"warm-up expand {t} {order} exited {out.rc}: {out.stderr}")


def _certify_warm_up(program: Program):
    atlas = json.loads(program.call(["list", "--json"]).stdout)
    ids = [e["id"] for e in atlas["entries"] if e["family"] in CERTIFY_FAMILIES]
    _expand_all(program, ids + list(CERTIFY_EXTRA), VERIFY_ORDER)


def build_workloads(expected: dict) -> dict:
    """The four workloads; the render pool is the seed's catalog, in order."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        oracles = {t: long_division_oracle(t) for t in RATIONAL_FORMS}
    except ImportError as exc:
        raise SetupError(f"cannot import tests/oracles.py: {exc}") from exc
    finally:
        sys.path.remove(str(ROOT / "tests"))

    def check_expand_deep(op, out, record, scratch):
        return check_expand(op, out, record, scratch, oracles)

    render_ids = expected["render_ids"]
    workloads = [
        Workload("verify_all", (_verify_op("all"),), check_rows,
                 cold=True, shuffle=False),
        Workload("expand_deep",
                 tuple(Op(f"expand {t} {EXPAND_ORDER}", ("expand", t, str(EXPAND_ORDER)))
                       for t in EXPAND_POOL),
                 check_expand_deep, cold=True, shuffle=True),
        Workload("certify_dense",
                 tuple(_verify_op(s, "--grid-angles", str(CERTIFY_ANGLES))
                       for s in CERTIFY_SUITES),
                 check_rows, cold=False, shuffle=False,
                 warm_up=_certify_warm_up),
        Workload("render_atlas",
                 tuple(Op(f"render {t}", ("render", t, "{out}")) for t in render_ids),
                 check_svg, cold=False, shuffle=True,
                 warm_up=lambda program: _expand_all(program, render_ids, RENDER_ORDER),
                 min_beyond=10),
    ]
    return {w.name: w for w in workloads}

