"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import gc
import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
import speed
import workloads as wl
from spans import Span

BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    recorded = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("d", 2.0, 3.0, 1),
        Span("c", 5.0, 6.0, 0),
        Span("e", 20.0, 26.0, -1),
        Span("f", 21.0, 24.0, 4),   # f and g overlap: covered once
        Span("g", 23.0, 25.0, 4),
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 2.0, 1.0, 1.0, 2.0, 3.0, 2.0])
    assert spans.top_level_seconds(recorded) == pytest.approx(16.0)


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert run.percentile(samples, 0.9, min_beyond=10) == 90
    assert run.percentile(samples, 0.5, min_beyond=10) == 50
    with pytest.raises(ValueError):
        run.percentile(samples[:99], 0.9, min_beyond=10)
    with pytest.raises(ValueError):
        run.percentile([], 0.5)
    assert run.percentile([3.0], 0.9) == 3.0
    # a failed op is infinitely slow and ranks last
    assert run.percentile([1.0, float("inf"), 2.0], 0.5) == 2.0


def test_rescale_takes_out_the_ticks_and_the_machine_speed():
    probe = speed.SpeedProbe()
    with pytest.raises(RuntimeError):
        probe.rescale(0.0, 1.0)
    nominal = speed.NOMINAL
    probe.starts = [0.1 * k for k in range(40)]          # one tick per 0.1 s
    probe.durations = [nominal] * 20 + [2 * nominal] * 20  # then twice as slow
    probe.costs = [2 * d for d in probe.durations]         # two loops a tick
    inside = 10 * 2 * nominal                              # starts 0.0 .. 0.9
    assert probe.rescale(0.0, 0.95) == pytest.approx(0.95 - inside)
    assert probe.rescale(3.0, 3.95) == pytest.approx((0.95 - 40 * nominal) / 2)
    assert probe.rescale(10.0, 10.01) == pytest.approx(0.01 / 2)  # nearest sample
    probe.durations[5] = 40 * nominal  # one preempted loop does not move the speed
    assert probe.rescale(0.0, 0.95) == pytest.approx(0.95 - inside)
    probe.durations[5] = 2 * nominal   # a slowed one does: the mean of 12 samples
    assert probe.rescale(0.0, 0.95) == pytest.approx((0.95 - inside) * 12 / 13)


def test_ticks_run_without_the_garbage_collector(monkeypatch):
    states = []
    monkeypatch.setattr(speed, "calibration_loop", lambda: states.append(gc.isenabled()))
    probe = speed.SpeedProbe()
    probe._tick(None, None)
    assert states == [False, False] and gc.isenabled()
    assert probe.costs[0] >= probe.durations[0]


def test_probe_samples_while_entered():
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    count = len(probe.durations)
    assert count >= 3 and all(d > 0 for d in probe.durations)
    time.sleep(0.15)
    assert len(probe.durations) == count  # the timer is off again


@pytest.fixture
def program():
    p = wl.Program()
    p.unload()
    p.load()
    yield p
    p.unload()


def _bindings(program):
    found = {}
    for m in spans.package_modules():
        for key, value in vars(m).items():
            found[m.__name__, key] = value
            if isinstance(value, type):
                for attr, v in vars(value).items():
                    found[m.__name__, key, attr] = v
    return found


def test_install_and_uninstall_restore_the_original_objects(program):
    before = _bindings(program)
    tracer = spans.Tracer()
    tracer.install()
    verify = sys.modules["harmonic_atlas.verify"]
    numkernel = sys.modules["harmonic_atlas.numkernel"]
    wrapped = [verify.rz_search, verify.run_suite, program.cli.main,
               program.cli.run_suite, numkernel.Series.__mul__,
               numkernel.Series.__rmul__, numkernel.Series.reciprocal]
    assert all(getattr(w, "__perfbench_wrapped__", False) for w in wrapped)
    with pytest.raises(RuntimeError):
        tracer.assert_clean()

    out = program.call(["expand", "koebe", "6"])
    assert out.rc == 0
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent == -1
    assert {"catalog.harmonic_map", "analytic.series", "numkernel.mul",
            "numkernel.reciprocal"} <= set(names)
    mul = next(s for s in tracer.spans if s.name == "numkernel.mul")
    assert mul.attrs["products"] == 7 * 8 // 2

    tracer.uninstall()
    after = _bindings(program)
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert all(not callable(before[k]) for k in changed), changed  # data, e.g. caches
    tracer.assert_clean()


def _outcome(rc=0, stdout="", stderr=""):
    return wl.Output(rc, stdout, stderr, 0.0, 0.01)


def test_checks_count_failures_against_the_seed(tmp_path):
    op = wl.Op("verify X --json", ("verify", "X", "--json"))
    report = {"theorem": "X", "rows": [
        {"id": "a", "check": "c", "match": True, "asserted": False},
        {"id": "b", "check": "c", "match": False, "asserted": False},
        {"id": "z", "check": "c", "match": False, "asserted": True},
    ]}
    known = wl.check_rows(op, _outcome(1, json.dumps(report)),
                          {"counted": 2, "failing": ["X b c"]}, tmp_path)
    assert (known.attempted, known.failed, known.unexpected) == (2, 1, [])
    new = wl.check_rows(op, _outcome(1, json.dumps(report)),
                        {"counted": 2, "failing": []}, tmp_path)
    assert new.failed == 1 and len(new.unexpected) == 1
    missing = wl.check_rows(op, _outcome(1, json.dumps(report)),
                            {"counted": 4, "failing": ["X b c"]}, tmp_path)
    assert (missing.attempted, missing.failed, len(missing.unexpected)) == (4, 3, 1)
    crashed = wl.check_rows(op, _outcome(2, "", "boom"), {"counted": 2, "failing": []},
                            tmp_path)
    assert (crashed.attempted, crashed.failed, crashed.completed) == (2, 2, False)

    svg = '<svg xmlns="http://www.w3.org/2000/svg"><path d="M0,0"/></svg>'
    render = wl.Op("render k", ("render", "k", "{out}"))
    for record, expect_failed, expect_unexpected in (
            ({"sha256": wl.sha256(svg)}, 0, 0),
            ({"sha256": "0" * 64}, 1, 1),
            ({"sha256": None}, 0, 0)):       # failed at the seed, passes now
        (tmp_path / wl.SCRATCH_FILE).write_text(svg)
        c = wl.check_svg(render, _outcome(), record, tmp_path)
        assert (c.failed, len(c.unexpected)) == (expect_failed, expect_unexpected)
        assert not (tmp_path / wl.SCRATCH_FILE).exists()
    c = wl.check_svg(render, _outcome(2), {"sha256": None}, tmp_path)
    assert (c.failed, c.unexpected) == (1, [])


def test_expand_check_uses_the_long_division_oracle(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(wl.ROOT / "tests"))
    oracle = {"koebe": wl.long_division_oracle("koebe", 5)}
    assert oracle["koebe"] == [0, 1, 2, 3, 4, 5]
    op = wl.Op("expand koebe 5", ("expand", "koebe", "5"))
    good = "n: 0 1 2 3 4 5\nh: 0 1 2 3 4 5\n"
    record = {"sha256": wl.sha256(good)}
    assert wl.check_expand(op, _outcome(0, good), record, tmp_path, oracle).failed == 0
    bad = good.replace("h: 0 1 2 3 4 5", "h: 0 1 2 3 4 6")
    c = wl.check_expand(op, _outcome(0, bad), {"sha256": wl.sha256(bad)}, tmp_path, oracle)
    assert c.failed == 1 and "oracle" in c.unexpected[0]


def test_workloads_match_the_benchmark_file():
    built = wl.build_workloads(wl.load_expected())
    assert tuple(built) == run.WORKLOADS
    listed = [w["name"] for w in BENCHMARK["workloads"]]
    assert listed == [w for w in run.WORKLOADS if w not in run.UNLISTED]
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]
    render = built["render_atlas"]
    assert len(render.ops) == 101 and render.min_beyond == 10


def _tiny_workload():
    op = wl.Op("verify REMARK --json", ("verify", "REMARK", "--json"))
    return (wl.Workload("tiny", (op,), wl.check_rows, cold=True, shuffle=False),
            {op.key: {"counted": 5, "failing": []}})


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(trace, section):
    workload, records = _tiny_workload()
    result, lines, code = run.benchmark("tiny", 7, 0, trace, workload, records)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and (result["attempted"], result["failed"]) == (
        5 * (1 + trace), 0)
    names = [m["name"] for m in BENCHMARK[section]]
    assert list(result["metrics"]) == names
    for m in BENCHMARK[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.coverage"] >= run.MIN_COVERAGE
        assert 0 < metrics["trace.layer_coverage"] < metrics["trace.coverage"]
        assert metrics["verify.run_suite.REMARK.wall_s"] > 0
        assert metrics["geomtest.m_theta_check.self_s"] > 0
        assert metrics["numkernel.mul.calls"] > 0
        assert not any(getattr(v, "__perfbench_wrapped__", False)
                       for m in spans.package_modules() for v in vars(m).values())
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(wl.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "expand_deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
