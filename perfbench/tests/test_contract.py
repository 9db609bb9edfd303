"""BENCHMARK.json and the code that emits the metrics agree."""

import metrics
from layers import per_layer_units
from workloads import WORKLOADS

CONTRACT = metrics.load_contract()


def test_top_level_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["command"] == ["python3", "perfbench/run.py"]
    assert CONTRACT["paths"] == ["perfbench"]
    assert 1 <= CONTRACT["run_seconds"] <= 60


def test_every_name_is_plain():
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.match(name) and len(name) <= 64, name
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert metrics.NAME_RE.match(metric["unit"].replace("/", "").replace("%", ""))


def test_workloads_agree():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_end_to_end_metrics_agree_both_ways():
    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert declared == metrics.END_TO_END_UNITS
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_per_layer_metrics_agree_both_ways():
    declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert declared == per_layer_units()
    assert 1 <= len(declared) <= 128
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
