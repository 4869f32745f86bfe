"""Self-tests of the benchmark (not part of the tier-1 suite).

    python3 -m pytest perfbench -q

The smoke tests launch real edge processes for about a second of load
each, with the correctness wall on.
"""

from __future__ import annotations

import json

import pytest

from perfbench import run as bench
from perfbench.scrape import child_pids
from perfbench.stats import Span, Tracer, covered, marginals, percentile, self_time
from perfbench.workloads import (
    WORKLOADS,
    Item,
    build,
    check_responses,
    witness_error,
)


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_seed_one_stream(name):
    first, again, other = build(name, 7, 1), build(name, 7, 1), build(name, 8, 1)
    assert first.fingerprints() == again.fingerprints()
    assert first.fingerprints() != other.fingerprints()


def test_mix_cold_never_repeats_a_fingerprint():
    keys = build("mix-cold", 3, 1).fingerprints()
    assert len(keys) == len(set(keys))


def test_query_store_serves_half_the_items_in_setup():
    workload = build("query-store", 3, 1)
    assert len(workload.seen) == len(workload.items) // 2
    assert {workload.items[i].op for i in workload.stream} == {"containment", "datalog"}


def test_percentile_reports_its_sample_count():
    result = percentile([float(v) for v in range(1, 101)], 90)
    assert result.count == 100
    assert result.value == pytest.approx(90.1)
    assert percentile([4.0], 50).value == 4.0
    assert percentile([], 50).count == 0


def test_marginals_subtract_the_inner_layer_per_request():
    assert marginals([5.0, 7.0], [2.0, 6.5]) == [3.0, 0.5]
    with pytest.raises(ValueError):
        marginals([1.0], [])


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered([(1, 3), (2, 4), (6, 12)], 0, 10) == pytest.approx(7)
    assert covered([], 0, 10) == 0


def test_self_time_is_duration_minus_children():
    parent = Span(1, "outer", 0.0, 10.0, None, "t")
    spans = [
        parent,
        Span(2, "a", 1.0, 4.0, 1, "t"),
        Span(3, "b", 3.0, 5.0, 1, "t"),
        Span(4, "grandchild", 1.0, 2.0, 2, "t"),
    ]
    assert self_time(parent, spans) == pytest.approx(6.0)
    assert self_time(spans[1], spans) == pytest.approx(2.0)


def test_tracer_nests_and_summarises():
    tracer = Tracer()
    with tracer.span("root") as root:
        tracer.record("child", root.start, root.start, parent=root.id, trace="x")
    summary = tracer.summary()
    assert summary["root"]["count"] == 1
    assert summary["child"]["total_ms"] == 0
    assert summary["root"]["self_ms"] == pytest.approx(summary["root"]["total_ms"])


def test_wall_rejects_a_wrong_verdict_and_a_non_homomorphic_witness():
    from repro.structures.graphs import clique, cycle

    item = Item("k", "solve", "cycle", cycle(4), clique(2))
    workload = build("tiny-hot", 1, 1)
    workload.items = [item]
    good = {"verdict": True, "witness": [[0, 0], [1, 1], [2, 0], [3, 1]]}
    assert check_responses(workload, [(0, good)]) == []
    bad = {"verdict": True, "witness": [[0, 0], [1, 0], [2, 0], [3, 1]]}
    assert check_responses(workload, [(0, bad)])
    assert check_responses(workload, [(0, {"verdict": False, "witness": None})])
    assert witness_error(cycle(4), clique(2), None)


@pytest.mark.parametrize(
    "name,trace",
    [("mix-cold", 0), ("tiny-hot", 0), ("query-store", 0), ("query-store", 1)],
)
def test_tiny_smoke_run(name, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SETUP_LAUNCHES", 1)
    monkeypatch.setitem(bench.LEDGER_LENGTH, name, 6)
    code = bench.main(
        ["--workload", name, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--out", str(tmp_path)]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1
    assert not child_pids(), "a process the run started outlived it"
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert sorted(result["metrics"]) == sorted(expected)
    if trace:
        assert list(tmp_path.glob("*/spans.json"))
