"""Tests of the ledger harness itself (not of the simulator)."""

import dataclasses
import json
import os

import pytest

import compare
import measure
import run
from tracer import Tracer, layer_targets
from workloads import WORKLOADS, facts_of, received_digest

from repro.distributed.multiprocess import WorkerPool

SEED = 5


def shm_segments():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def patched_attributes():
    """Every attribute the tracer replaces, as it is right now."""
    return {(owner, attr): vars(owner)[attr]
            for __, owner, attr in layer_targets()}


class FakeClock:
    """Returns the given readings in order."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_children():
    # outer 0..10, inner 1..3 and 4..5
    tracer = Tracer(clock=FakeClock(0, 1, 3, 4, 5, 10))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    totals = tracer.totals()
    assert totals["outer"] == {"calls": 1, "useful": 1, "total_s": 10,
                               "self_s": 7}
    assert totals["inner"] == {"calls": 2, "useful": 0, "total_s": 3,
                               "self_s": 3}


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer(clock=FakeClock(0, 2, 6, 7), keep_spans=True)

    def boom():
        raise ValueError("boom")

    inner = tracer.wrap("inner", boom)

    def swallow():
        try:
            inner()
        except ValueError:
            pass

    tracer.wrap("outer", swallow)()
    totals = tracer.totals()
    assert totals["inner"]["total_s"] == 4
    assert totals["outer"]["self_s"] == 7 - 4
    by_name = {span[4]: span for span in tracer.spans()}
    # (run, thread, span, parent, name, start, end)
    assert by_name["inner"][3] == by_name["outer"][2]
    assert by_name["outer"][3] == 0
    # The stack unwound: a fresh root span has no parent.
    tracer.clock = FakeClock(8, 9)
    tracer.wrap("again", lambda: None)()
    assert [s for s in tracer.spans() if s[4] == "again"][0][3] == 0


def test_wrappers_are_fully_removed_after_a_traced_rep():
    before = patched_attributes()
    workload = WORKLOADS["stream_pair_coop"]
    inputs = workload.prepare(SEED, workload.sizes["check"])
    tracer = Tracer()
    rep = measure.one_rep(workload, inputs, workload.expect(inputs), None,
                          tracer=tracer)
    assert not rep["problems"]
    assert tracer.totals()["transport.codec.encode"]["calls"] > 0
    assert patched_attributes() == before


def test_wrappers_are_removed_when_the_rep_raises():
    before = patched_attributes()

    def broken_build(inputs, pool):
        raise RuntimeError("no instance")

    workload = dataclasses.replace(WORKLOADS["stream_pair_coop"],
                                   build=broken_build)
    rep = measure.one_rep(workload, {}, {}, None, tracer=Tracer())
    assert rep["problems"] == ["RuntimeError: no instance"]
    assert patched_attributes() == before


def test_span_stacks_are_per_thread_under_the_threaded_executor():
    workload = WORKLOADS["pingpong_threaded"]
    inputs = workload.prepare(SEED, workload.sizes["check"])
    tracer = Tracer(keep_spans=True)
    rep = measure.one_rep(workload, inputs, workload.expect(inputs), None,
                          tracer=tracer)
    assert not rep["problems"]
    spans = {span[2]: span for span in tracer.spans()}
    # The coordinator plus one thread per node.
    assert len({span[1] for span in spans.values()}) >= 3
    children = [span for span in spans.values() if span[3]]
    assert children
    for span in children:
        parent = spans[span[3]]
        assert parent[1] == span[1], "parent span is on another thread"
        assert parent[5] <= span[5] and span[6] <= parent[6]


# ----------------------------------------------------------------------
# the whole benchmark, through real child processes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def check_document(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "check.json"
    before = shm_segments()
    assert run.main(["--check", "--json", str(out)]) == 0
    assert shm_segments() == before, "a shm segment was left behind"
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def test_emitted_names_are_exactly_the_declared_ones(check_document):
    benchmark = run.load_benchmark()
    # The driver fences a subset; run.py measures every workload.
    declared = [spec["name"] for spec in benchmark["workloads"]]
    assert declared == [name for name in WORKLOADS if name in declared]
    assert list(check_document["workloads"]) == list(WORKLOADS)
    end_to_end = {spec["name"] for spec in benchmark["end_to_end"]}
    per_layer = {spec["name"] for spec in benchmark["per_layer"]}
    for name, entry in check_document["workloads"].items():
        assert entry["failed"] == 0, entry["problems"]
        assert set(entry["end_to_end"]) == end_to_end, name
        assert set(entry["per_layer"]) == per_layer, name


def test_contract_line_carries_one_metric_family(check_document):
    benchmark = run.load_benchmark()
    entry = check_document["workloads"]["stream_pair_coop"]
    dark = json.loads(run.contract_line(entry, benchmark, trace=False))
    traced = json.loads(run.contract_line(entry, benchmark, trace=True))
    assert set(dark) == {"correct", "attempted", "failed", "metrics"}
    assert dark["correct"] is True and dark["failed"] == 0
    assert set(dark["metrics"]) == \
        {spec["name"] for spec in benchmark["end_to_end"]}
    assert set(traced["metrics"]) == \
        {spec["name"] for spec in benchmark["per_layer"]}
    assert all(set(row) == {"value", "unit"}
               for row in dark["metrics"].values())


def test_a_value_is_the_best_of_its_samples(check_document):
    assert run.best([3.0, 1.0, 2.0], "lower") == 1.0
    assert run.best([3.0, 1.0, 2.0], "higher") == 3.0
    rows = check_document["workloads"]["stream_pair_coop"]["end_to_end"]
    assert rows["wall_s"]["value"] == min(rows["wall_s"]["samples"])
    assert rows["events_per_s"]["value"] == \
        max(rows["events_per_s"]["samples"])


def test_local_word_bypasses_every_distribution_layer(check_document):
    layers = check_document["workloads"]["wubbleu_local_word"]["per_layer"]
    for name, value in layers.items():
        if name.startswith(("distributed.conservative.",
                            "transport.codec.")):
            assert value == 0, name


def test_a_hung_child_is_a_failed_workload_not_a_hung_benchmark():
    before = shm_segments()
    entry = run.run_workload("pingpong_mp_shm", seed=SEED, scale="check",
                             reps=2, seconds=None, trace=False,
                             trace_out=None, timeout=0.3)
    assert entry["failed"] == entry["attempted"] == 2
    assert entry["failed_share"] == 1.0
    assert shm_segments() == before


# ----------------------------------------------------------------------
# failed reps
# ----------------------------------------------------------------------
def test_a_wrong_digest_fails_the_rep():
    workload = dataclasses.replace(
        WORKLOADS["stream_pair_coop"],
        expect=lambda inputs: {"digest": "0" * 64})
    result = measure.measure(workload, seed=SEED, scale="check", t0=0.0,
                             reps=2)
    assert result["failed"] == result["attempted"] == 2
    assert "digest" in result["problems"][0]


def test_a_timeout_fails_the_rep_threaded():
    good = WORKLOADS["pingpong_threaded"]
    inputs = good.prepare(SEED, good.sizes["check"])
    rep = measure.one_rep(dataclasses.replace(good, timeout=1e-6), inputs,
                          good.expect(inputs), None)
    assert rep["wall_s"] is None
    assert "did not quiesce" in rep["problems"][0]


def test_a_timeout_fails_the_rep_multiprocess_and_leaves_no_segment():
    good = WORKLOADS["pingpong_mp_shm"]
    inputs = good.prepare(SEED, good.sizes["check"])
    expected = good.expect(inputs)
    before = shm_segments()
    pool = WorkerPool()
    try:
        hung = measure.one_rep(dataclasses.replace(good, timeout=1e-6),
                               inputs, expected, pool)
        # The pool is still usable afterwards.
        fine = measure.one_rep(good, inputs, expected, pool)
    finally:
        pool.close()
    assert hung["problems"] and hung["wall_s"] is None
    assert not fine["problems"]
    assert shm_segments() == before


def test_counts_that_differ_from_the_first_rep_fail():
    workload = WORKLOADS["stream_pair_coop"]
    facts = {name: 1 for name in workload.exact}
    reps = [{"facts": dict(facts), "problems": []},
            {"facts": dict(facts, frames=2), "problems": []},
            {"facts": dict(facts), "problems": []}]
    measure.check_exact(workload, reps)
    assert [bool(rep["problems"]) for rep in reps] == [False, True, False]


# ----------------------------------------------------------------------
# seeds
# ----------------------------------------------------------------------
def run_stream(seed):
    workload = WORKLOADS["stream_pair_coop"]
    inputs = workload.prepare(seed, workload.sizes["check"])
    cosim = workload.build(inputs, None)
    cosim.run()
    facts = facts_of(cosim.report())
    return ({name: facts[name] for name in workload.exact},
            received_digest(cosim))


def test_same_seed_same_counts_other_seed_other_digest():
    first, second, other = run_stream(1), run_stream(1), run_stream(2)
    assert first == second
    assert other[1] != first[1]


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def test_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.01]
    judge = compare.verdict
    assert judge(steady, [x * 1.05 for x in steady],
                 better="lower", bound=0.10)[0] == "ok"
    assert judge(steady, [x * 1.20 for x in steady],
                 better="lower", bound=0.10)[0] == "regressed"
    assert judge(steady, [x * 0.80 for x in steady],
                 better="higher", bound=0.10)[0] == "regressed"
    noisy = [1.0, 1.4, 0.8, 1.3, 0.9]
    assert judge(steady, noisy, better="lower", bound=0.10)[0] == \
        "unresolved"
    # Wide spread, but every run of B beats every run of A.
    assert judge([x + 1 for x in noisy], [x * 0.5 for x in noisy],
                 better="lower", bound=0.10)[0] == "ok"


def test_compare_refuses_mismatched_documents(check_document, tmp_path,
                                              capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(check_document))
    assert compare.main([str(a), str(a)]) == 0
    for key, value in (("backend", "python"), ("nproc", 64)):
        other = json.loads(json.dumps(check_document))
        other["env"][key] = value
        b = tmp_path / f"{key}.json"
        b.write_text(json.dumps(other))
        assert compare.main([str(a), str(b)]) == 2
    other = json.loads(json.dumps(check_document))
    other["seed"] += 1
    b = tmp_path / "seed.json"
    b.write_text(json.dumps(other))
    assert compare.main([str(a), str(b)]) == 2
    capsys.readouterr()


def test_compare_flags_a_higher_failed_share(check_document, tmp_path,
                                             capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(check_document))
    other = json.loads(json.dumps(check_document))
    other["workloads"]["stream_pair_coop"]["failed_share"] = 0.5
    b = tmp_path / "b.json"
    b.write_text(json.dumps(other))
    assert compare.main([str(a), str(b)]) == 1
    assert "regressed" in capsys.readouterr().out
