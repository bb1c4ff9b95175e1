"""The benchmark's own tests: tiny workloads, metric names, and the gate."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from schema import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def test_benchmark_json_lists_the_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = run.measure(workload, seed=5, seconds=0, trace=trace, tiny=True)
    assert result["correct"], result["_failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    des = workload.startswith("des-")
    des_layers = ("sim.", "net.", "protocols.", "energy.", "metrics.")
    assert (values["sim.events"] > 0) == des
    if not des:
        assert not any(v for k, v in values.items() if k.startswith(des_layers))
    else:
        assert not any(v for k, v in values.items() if k.startswith("array."))
    assert (values["array.hop.batch_steps"] > 0) == (workload == "rounds-deep")
    assert (values["store.load_calls"] > 0) == (workload == "campaign-store")
    assert values["host.reference_s"] > 0
    if workload == "des-flood":
        assert values["protocols.rule_calls"] == 0
    if workload == "des-spst-e":
        assert values["protocols.rule_calls"] > 0


def _tiny_pass(workload, pinned):
    p = workloads.Pass()
    workloads.run_workload(p, workload, seed=0, tiny=True, pinned=pinned)
    return p


def test_wrong_pinned_des_value_is_a_failure():
    clean = _tiny_pass("des-spst-e", {})
    unit = clean.units[0]
    assert unit["failures"] == []
    wrong = dict(unit["output"], frames_sent=unit["output"]["frames_sent"] + 1)
    p = _tiny_pass("des-spst-e", {unit["key"]: wrong})
    assert any("frames_sent" in f for f in p.units[0]["failures"])


def test_wrong_pinned_rounds_value_is_a_failure():
    clean = _tiny_pass("rounds-deep", {})
    key = clean.units[0]["key"]
    p = _tiny_pass("rounds-deep", {key: {"moves": -1}})
    assert [u["key"] for u in p.units if u["failures"]] == [key]


def test_broken_des_invariants_are_failures():
    stats = SimpleNamespace(
        receptions_total=10, frames_delivered=6, frames_collided=3, frames_sent=5
    )
    network = SimpleNamespace(
        medium=SimpleNamespace(stats=stats),
        nodes=[SimpleNamespace(mac=SimpleNamespace(frames_sent=2))] * 2,
    )
    result = SimpleNamespace(summary=SimpleNamespace(pdr=1.5))
    failures = workloads.des_invariants(result, network)
    assert len(failures) == 3


def test_failed_check_or_disagreeing_passes_fail_the_run(monkeypatch, capsys):
    good = {"key": "k", "output": {"x": 1}, "failures": []}
    timing = {"setup_s": 1.0, "wall_s": 1.0, "peak_rss_mb": 1.0, "reference_s": 0.3,
              "scale": 1.0}
    passes = [
        dict(timing, units=[good]),
        dict(timing, units=[dict(good, output={"x": 2})]),
    ]
    result = run.summarize(passes, trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)

    failing = dict(passes[0], units=[dict(good, failures=["broken"])])
    monkeypatch.setattr(
        run, "measure",
        lambda *a, **k: dict(
            run.summarize([failing], trace=False),
            _passes=1, _kernel="numpy", _raw={"setup_s": 1.0, "wall_s": 1.0},
        ),
    )
    assert run.main(["--workload", "des-flood", "--seconds", "0"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["failed"] == 1


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des-flood",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.start.extend([0.0, 1.0, 4.0])
    tracer.end.extend([10.0, 3.0, 4.5])
    tracer.name_id.extend([tracer._id("outer"), tracer._id("inner"), tracer._id("inner")])
    tracer.parent.extend([-1, 0, 0])
    totals = tracer.span_totals()
    assert totals["outer"] == (1, 7.5, 10.0)
    assert totals["inner"] == (2, 2.5, 2.5)


def test_install_wraps_and_restores():
    from repro.net.medium import WirelessMedium
    from repro.protocols import ss_spst

    before = (WirelessMedium.broadcast, ss_spst.compute_update_local)
    uninstall = install(Tracer())
    try:
        assert WirelessMedium.broadcast is not before[0]
        assert ss_spst.compute_update_local is not before[1]
    finally:
        uninstall()
    assert (WirelessMedium.broadcast, ss_spst.compute_update_local) == before
