"""Tests of the benchmark's tracer and output checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import ddehopf  # noqa: E402
import run  # noqa: E402
from ddehopf import cli, epsseries, expansion, models  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics, metric_specs  # noqa: E402

CLASSES = (ddehopf.TrigPoly, ddehopf.EpsSeries, ddehopf.ReconstructedOrbit,
           ddehopf.DdeModel)


def _namespaces():
    mods = [ddehopf] + [getattr(ddehopf, layer) for layer in LAYERS]
    return {id(ns): dict(vars(ns)) for ns in mods + list(CLASSES)}


def _coefficients(result):
    parts = [result.lambda_hats, result.T_hats]
    for z in result.Z:
        parts += [z.const, z.cos.ravel(), z.sin.ravel()]
    return np.concatenate(parts)


@pytest.mark.parametrize("make, order", [(models.make_ndde, 4),
                                         (models.make_sir, 3)])
def test_traced_expand_is_bitwise_identical(make, order):
    plain = expansion.expand(make(), order, z0_scale="msq")
    with Tracer() as tracer:
        traced = expansion.expand(make(), order, z0_scale="msq")
    assert np.array_equal(_coefficients(plain), _coefficients(traced))
    assert tracer.spans["expansion.assemble_rhs"][0] == order


def test_uninstall_restores_every_attribute():
    before = _namespaces()
    tracer = Tracer().install()
    try:
        during = _namespaces()
        changed = [attr for key, ns in before.items() for attr, value in ns.items()
                   if during[key][attr] is not value]
        assert {"expand", "delayed_state", "main", "__init__"} <= set(changed)
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    for key, ns in before.items():
        assert after[key].keys() == ns.keys()
        assert all(after[key][attr] is value for attr, value in ns.items())


def test_wraps_names_where_callers_look_them_up(tmp_path):
    expand_fn, delayed_fn = expansion.expand, epsseries.delayed_state
    with Tracer() as tracer:
        assert cli.expand is expansion.expand is not expand_fn
        assert expansion.delayed_state is epsseries.delayed_state is not delayed_fn
        rc = cli.main(["expand", "--model", "ndde", "--order", "3",
                       "--out", str(tmp_path / "e.csv")])
    assert rc == 0
    report = tracer.report()
    assert report["edges"][">cli.main"] == 1
    assert report["edges"]["cli.cmd_expand>expansion.expand"] == 1
    assert report["spans"]["epsseries.delayed_state"]["calls"] == 9
    assert report["spans"]["models.rhs_jet"]["calls"] > 0
    assert report["counts"]["trigpoly.TrigPoly.created"] > 0
    assert len(report["order_times"]) == 3


def test_model_rhs_is_plain_after_uninstall():
    with Tracer() as tracer:
        model = models.make_ndde()
        model.rhs(1.0, [0.1, 0.2], [0.3, 0.4])
    calls = tracer.spans["models.rhs_num"][0]
    model.rhs(1.0, [0.1, 0.2], [0.3, 0.4])
    assert calls == 1 and tracer.spans["models.rhs_num"][0] == 1


def test_layer_self_times_add_up_to_the_traced_call(tmp_path):
    with Tracer() as tracer:
        cli.main(["validate", "--model", "ndde", "--order", "3",
                  "--lambda", "1.4", "--out", str(tmp_path / "v.csv")])
    metrics = layer_metrics(tracer.report())
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["orbit.reconstruct.calls"] == 1
    assert metrics["ddeint.steps_accepted"] > 0
    assert 0.0 < metrics["ddeint.step_acceptance"] <= 1.0
    assert metrics["ddeint.useful_fraction"] == 1.0


def test_derived_layer_metrics():
    report = Tracer().report()
    report["order_times"] = [0.01 * j ** 3 for j in range(1, 21)]
    report["spans"]["ddeint.integrate"] = {"calls": 2, "total_s": 4.0,
                                           "self_s": 3.0}
    report["edges"]["ddeint.integrate>models.rhs_num"] = 2 + 6 * 100
    report.update(steps_accepted=80, integrated_t=300.0, settled_t=200.0)
    metrics = layer_metrics(report)
    assert metrics["expansion.order_time_s.j16"] == pytest.approx(0.01 * 16 ** 3)
    assert metrics["expansion.growth_exponent"] == pytest.approx(3.0)
    assert metrics["ddeint.step_acceptance"] == pytest.approx(0.8)
    assert metrics["ddeint.steps_per_s"] == pytest.approx(20.0)
    assert metrics["ddeint.useful_fraction"] == pytest.approx(2.0 / 3.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == metric_specs()
    computed = set(layer_metrics(Tracer().report())) | {"trace_overhead"}
    assert computed == {name for name, _, _ in metric_specs()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_expand_check_rejects_a_moved_coefficient(tmp_path):
    ref = json.loads((run.REFERENCE / "expand-ndde-n20.json").read_text())
    path = tmp_path / "e.json"
    path.write_text(json.dumps(ref))
    assert run.check_expand(path, 0) == (0, [])
    ref["coefficients"][12]["cos"][3][1] *= 1.0 + 1e-10
    path.write_text(json.dumps(ref))
    failed, reasons = run.check_expand(path, 0)
    assert failed == 1 and reasons[0].startswith("Z[12]")


def test_diagram_check_counts_flagged_points(tmp_path):
    ref = (run.REFERENCE / "diagram-sir-n14.seed0.csv").read_text()
    path = tmp_path / "d.csv"
    path.write_text(ref)
    assert run.check_diagram(path, run.REFERENCE_SEED) == (0, [])
    lines = ref.splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",extrapolated"
    path.write_text("\n".join(lines) + "\n")
    assert run.check_diagram(path, 5)[0] == 1


def test_diagram_grid_keeps_clear_of_the_bifurcation():
    # The sweep fails when the first grid point past the bifurcation lies
    # within about a third of a step of it (README.md, "Known defect").
    from ddehopf.bifurcation import find_hopf
    lam0 = find_hopf(models.make_sir()).lambda0
    assert run.diagram_grid(0) == (95.0, 150.0, 200)
    for seed in [*range(200), 282486010, 2**31 - 1]:
        grid = np.linspace(*run.diagram_grid(seed))
        assert np.allclose(np.diff(grid), 55.0 / 199)
        step = grid[1] - grid[0]
        assert 0.5 < (grid[grid >= lam0][0] - lam0) / step < 0.95
