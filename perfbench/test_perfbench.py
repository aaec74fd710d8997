"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def make(name, seed, tmp_path):
    return workloads.make(name, seed, str(HERE.parent), str(tmp_path))


def snapshot(items, work_dir):
    """Items as text, with the work directory (inside file paths) blanked."""
    return [
        (item.ident, item.kind, repr(sorted(item.params.items())).replace(str(work_dir), "<work>"))
        for item in items
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    first = make(name, 7, tmp_path / "a")
    again = make(name, 7, tmp_path / "b")
    other = make(name, 8, tmp_path / "c")
    for directory in ("a", "b", "c"):
        (tmp_path / directory).mkdir()
    for r in (0, 1):
        one = snapshot(first.round_items(r), tmp_path / "a")
        assert one and one == snapshot(again.round_items(r), tmp_path / "b")
        assert one != snapshot(other.round_items(r), tmp_path / "c")
    if name == "cli-pipeline":
        for path in sorted((tmp_path / "a").iterdir()):
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100, 0, -1))) == (90, 90.0)
    value, pct = run.tail(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)
    value, pct = run.tail([5.0] * 30 + [9.0] * 10)
    assert value == 5.0 and pct == 75.0
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_self_time_subtracts_the_union_of_children():
    def span(start, end, parent):
        return {"name": "x", "start": start, "end": end, "parent": parent}

    tree = [
        span(0.0, 10.0, None),  # children cover [1, 4] and [6, 7]
        span(1.0, 3.0, 0),  # one child covering [1.5, 2]
        span(2.0, 4.0, 0),  # overlaps its sibling
        span(6.0, 7.0, 0),
        span(1.5, 2.0, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 1.5, 2.0, 1.0, 0.5])


def test_layer_metrics_count_calls_self_time_and_smop_inputs():
    def span(name, start, end, parent, **extra):
        return dict(name=name, start=start, end=end, parent=parent, **extra)

    tree = [
        span("associated.inverse_recurrence", 0.0, 4.0, None),
        span(spans.SMOP, 0.0, 1.0, 0, key=1, bits=40),
        span(spans.SMOP, 1.0, 3.0, 0, key=1, bits=90),
        span("poly.Polynomial.mul", 1.5, 2.0, 2),
    ]
    m = spans.layer_metrics(tree)
    assert m[spans.SMOP + ".calls"] == 2
    assert m[spans.SMOP + ".self_s"] == pytest.approx(2.5)
    assert m["associated.inverse_recurrence.self_s"] == pytest.approx(1.0)
    assert m["orthopoly.self_s"] == pytest.approx(2.5)
    assert m[spans.SMOP + ".distinct_frac"] == 0.5
    assert m["orthopoly.out_bits_max"] == 90
    names = {name for name, _ in spans.metric_units()}
    assert names - {"cli.startup_ms", "trace.overhead_frac"} == set(m)


def test_install_rebinds_aliases_and_uninstall_restores_them():
    from opoly import associated, families, orthopoly, poly

    originals = (orthopoly.smop_from_moments, associated.smop_from_moments,
                 poly.Polynomial.__mul__, poly.Polynomial.__rmul__)
    recorder = spans.Recorder()
    recorder.item = "probe"
    undo = spans.install(recorder)
    try:
        assert associated.smop_from_moments is not originals[1]
        assert poly.Polynomial.__mul__ is poly.Polynomial.__rmul__ is not originals[2]
        associated.inverse_recurrence(families.laguerre(1, 12), 4)
    finally:
        spans.uninstall(undo)
    assert (orthopoly.smop_from_moments, associated.smop_from_moments,
            poly.Polynomial.__mul__, poly.Polynomial.__rmul__) == originals
    names = [s[0] for s in recorder.spans]
    assert names[0] == "associated.inverse_recurrence" and names.count(spans.SMOP) == 2
    top = recorder.spans[0]
    assert all(s[4] == "probe" for s in recorder.spans)
    assert all(s[3] is not None for s in recorder.spans[1:]) and top[3] is None


def first_of(workload, kind):
    return next(item for item in workload.round_items(0) if item.kind == kind)


def test_roundtrip_counts_a_corrupted_recurrence_as_failed(tmp_path):
    workload = make("roundtrip-high-order", 3, tmp_path)
    item = first_of(workload, "random")
    u, rc, system, inv = workload.execute(item)
    assert workload.check(item, (u, rc, system, inv))[0] == workloads.PASS
    bad = type(rc)(rc.b[:-1] + (rc.b[-1] + 1,), rc.a)
    assert workload.check(item, (u, bad, system, inv))[0] == workloads.FAILED
    bad_inv = type(inv)(inv.b, inv.a[:-1] + (inv.a[-1] * 2,))
    assert workload.check(item, (u, rc, system, bad_inv))[0] == workloads.FAILED


def test_roundtrip_expects_the_typed_error_at_the_vanishing_level(tmp_path):
    workload = make("roundtrip-high-order", 3, tmp_path)
    item = first_of(workload, "degenerate")
    _, status, text = workloads.run_item(workload, item, time.perf_counter)
    assert status == workloads.EXPECTED and "level=%d" % item.level in text
    from opoly.errors import NotQuasiDefinite

    wrong = NotQuasiDefinite(item.level + 1, guard="norm")
    assert workload.check(item, wrong)[0] == workloads.FAILED


def test_verify_counts_a_corrupted_report_as_failed(tmp_path):
    workload = make("verify-catalogue", 3, tmp_path)
    item = workload.round_items(0)[0]
    code, out, err = workload.execute(item)
    assert workload.check(item, (code, out, err))[0] == workloads.PASS
    corrupted = out.replace('"status": "pass"', '"status": "fail"', 1)
    assert workload.check(item, (code, corrupted, err))[0] == workloads.FAILED
    assert workload.check(item, (2, out, err))[0] == workloads.FAILED


def test_cli_counts_a_corrupted_stage_output_as_failed(tmp_path):
    workload = make("cli-pipeline", 3, tmp_path)
    item = next(i for i in workload.round_items(0) if i.kind == "transform")
    raw = workload.execute(item)
    assert workload.check(item, raw)[0] == workloads.PASS
    code, out, err = raw[-1]
    record = json.loads(out)
    record["b"][-1] = str(Fraction(record["b"][-1]) + 1)
    corrupted = raw[:-1] + [(code, json.dumps(record).encode(), err)]
    assert workload.check(item, corrupted)[0] == workloads.FAILED


def test_benchmark_json_lists_every_per_layer_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == spans.metric_units()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_round_has_the_same_slots(name, tmp_path):
    def slots(seed, r):
        return [item.ident.split(".", 1)[1] for item in make(name, seed, tmp_path).round_items(r)]

    first = slots(7, 0)
    assert first and first == slots(7, 1) == slots(8, 2)


def test_slot_latency_is_the_fastest_round():
    assert run.slot_bests([[3.0, 1.0, 4.0], [2.0, 5.0, 4.5], [9.0, 2.0, 6.0]]) == [2.0, 1.0, 4.0]


def test_setup_is_the_median_of_group_minima():
    samples = [0.9, 0.2, 0.5, 0.7, 0.3] + [0.4] * 5 + [0.8, 0.6, 0.9, 0.7, 0.6] + [0.1] * 5
    assert run.setup_seconds(samples) == pytest.approx((0.2 + 0.4) / 2)
