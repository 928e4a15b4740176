"""The summary of ``tools/bench_pairs.py`` on fabricated run results; no
benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_ref_s", "unit": "s", "better": "lower"},
           {"name": "rate", "unit": "1/s", "better": "higher"}]


def pairs(parent, change, failed=(0, 0)):
    return [{"first": "parent",
             "parent": {"wall_ref_s": p, "rate": 1.0 / p, "failed": failed[0]},
             "change": {"wall_ref_s": c, "rate": 1.0 / c, "failed": failed[1]}}
            for p, c in zip(parent, change)]


def test_medians_quartiles_and_wins():
    parent = [1.0, 1.1, 0.9, 1.2, 1.0, 1.05, 0.95, 1.0, 1.1, 1.0]
    change = [0.8, 0.85, 0.8, 1.3, 0.8, 0.8, 0.75, 1.0, 0.9, 0.8]
    s = bench_pairs.summarize(pairs(parent, change, (0, 2)), METRICS)
    wall = s["wall_ref_s"]
    assert wall["parent"] == {"median": 1.0, "q1": 0.9875, "q3": 1.1, "n": 10}
    assert wall["change"]["median"] == 0.8 and wall["change"]["n"] == 10
    assert wall["change_over_parent"] == 0.8
    # pair 4 is worse and pair 8 a tie, which counts for neither side
    assert wall["change_better_pairs"] == 8 and wall["pairs"] == 10
    assert not wall["gain_shown"]
    assert s["rate"]["change_better_pairs"] == 8  # higher is better there
    assert s["failed_operations"] == {"parent": 0, "change": 20}  # 2 a run
    assert "change better in 8 of 10 pairs; gain not shown" in \
        bench_pairs.report("w", s)


@pytest.mark.parametrize("change,shown", [
    ([0.85] * 10, True),                        # 10 of 10, beyond the IQR
    ([0.85] * 9 + [1.5], True),                 # 9 of 10 still wins
    ([0.99] * 10, False),                       # within the parent's IQR
])
def test_the_gain_rule(change, shown):
    parent = [0.95, 1.0, 1.05] * 3 + [1.0]
    s = bench_pairs.summarize(pairs(parent, change), METRICS)
    assert s["wall_ref_s"]["gain_shown"] is shown
    assert s["rate"]["gain_shown"] is shown


def test_per_layer_metrics_a_run_lacks_or_at_zero():
    runs = pairs([1.0, 1.1, 0.9], [0.8, 0.8, 0.9])
    for i, pair in enumerate(runs):
        pair["parent"]["count"] = pair["change"]["count"] = 0.0
        pair["parent"]["rarely"] = pair["change"]["rarely"] = float(i)
    del runs[1]["change"]["rarely"]
    s = bench_pairs.summarize(runs, METRICS + [
        {"name": "count", "unit": "count", "better": "lower"},
        {"name": "rarely", "unit": "s", "better": "lower"},
        {"name": "absent", "unit": "s", "better": "lower"}])
    assert set(s) == {"wall_ref_s", "rate", "count", "failed_operations"}
    assert s["count"]["change_over_parent"] is None
    assert s["count"]["change_better_pairs"] == 0
    assert s["wall_ref_s"]["change_better_pairs"] == 2


def test_traced_pairs_alternate_like_the_untraced(monkeypatch):
    calls = []

    def run_once(tree, command, workload, seed, seconds, trace):
        calls.append((tree, seed, trace))
        return {"trace.wall_s": 1.0, "failed": 0}, ({}, tree)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    meta = {}
    traced = bench_pairs.run_pairs({"parent": "P", "change": "C"}, ["run"],
                                   "w", [0, 5], 25, bench_pairs.TRACED_PAIRS,
                                   1, meta)
    assert bench_pairs.TRACED_PAIRS == 3 and len(traced) == 3
    assert [pair["first"] for pair in traced] == ["parent", "change", "parent"]
    assert calls == [("P", 0, 1), ("C", 0, 1), ("C", 0, 1), ("P", 0, 1),
                     ("P", 5, 1), ("C", 5, 1)]
    assert meta == {"parent": ({}, "P"), "change": ({}, "C")}
