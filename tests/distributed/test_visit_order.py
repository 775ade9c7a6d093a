"""Visit order cannot change a run.

A cooperative round steps every node once, in name order (Gauss-Seidel);
the threaded and multiprocess executors run the same round body in
whatever order their threads and processes happen to take.  Here a
test-side ``CoSimulation`` steps its nodes in a seeded shuffle of that
order, a fresh one each round, and must end exactly where the name-order
run ends: the same behaviour rows on every spec-matrix workload, and the
same rows and restore point when a crash is recovered from a periodic
cut — including a cut and a crash owed at one instant, where the cut
is taken first.
"""

import random

import pytest

from repro.bench.workloads import compute_star_spec
from repro.distributed import CoSimulation, build
from repro.faults import FaultPlan, NodeCrash
from repro.observability import TraceKind
from tests.distributed.test_spec_matrix import SPECS, behaviour

SEEDS = range(20)


class ShuffledCoSimulation(CoSimulation):
    """Steps, pumps and cuts visit the nodes in a seeded shuffle of the
    usual order, drawn afresh each round."""

    def __init__(self, seed: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self._rng = random.Random(seed)
        self._shuffled = (None, [])

    def _ordered_nodes(self):
        drawn_in, order = self._shuffled
        if drawn_in != self.rounds:
            order = list(super()._ordered_nodes())
            self._rng.shuffle(order)
            self._shuffled = (self.rounds, order)
        return order


def shuffled(spec, seed, **kwargs):
    return ShuffledCoSimulation(seed, **kwargs).load(spec)


@pytest.mark.parametrize("batching", [False, True],
                         ids=["unbatched", "batched"])
@pytest.mark.parametrize("workload", SPECS)
def test_a_shuffled_round_ends_where_the_name_order_run_ends(workload,
                                                            batching):
    expected = behaviour(build(SPECS[workload](), batching=batching))
    for seed in SEEDS:
        assert behaviour(shuffled(SPECS[workload](), seed,
                                  batching=batching)) == expected, seed


def crash_rows(cosim):
    """Final rows — each subsystem's progress, each channel end's message
    ledgers — and where the recovery rewound to."""
    cosim.run()
    report = cosim.report()
    return (sorted((row["name"], row["time"], row["dispatched"])
                   for row in report.subsystems),
            [(row["name"], row["forwarded"], row["injected"])
             for row in report.channels],
            [record["restored_time"] for record in report.trace_records
             if record["kind"] == TraceKind.NODE_RECOVER])


@pytest.mark.parametrize("batching", [False, True],
                         ids=["unbatched", "batched"])
@pytest.mark.parametrize("interval, restored",
                         [(0.5, 1.0), (1.0, 1.0), (1.25, 1.25)])
def test_crash_recovery_rewinds_alike_in_any_order(interval, restored,
                                                   batching):
    """``n-w0`` is lost at 1.25; with cuts every 1.25 the cut owed at the
    crash's own instant is taken before the crash fires.  The recovered
    run ends with the uncrashed star's channel rows: the ledgers come
    back with the images."""
    def star(seed=None, crashes=(NodeCrash("n-w0", at_time=1.25),)):
        spec = compute_star_spec(2, 6, words=50)
        kwargs = dict(batching=batching, snapshot_interval=interval,
                      failure_policy="recover",
                      fault_plan=FaultPlan(seed=3, crashes=crashes))
        return build(spec, **kwargs) if seed is None \
            else shuffled(spec, seed, **kwargs)

    expected = crash_rows(star())
    rows, channels, rewound = expected
    assert (rows, rewound) == ([("hub", 9.0, 24), ("w0", 8.75, 12),
                                ("w1", 8.75, 12)], [restored])
    assert channels == crash_rows(star(crashes=()))[1]
    for seed in range(10):
        assert crash_rows(star(seed)) == expected, seed
