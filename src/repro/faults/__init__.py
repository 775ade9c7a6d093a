"""Deterministic fault injection and fault tolerance for the backplane.

Three layers (see each module's docstring):

* :mod:`repro.faults.plan` — the **injection plane**: a seeded
  :class:`FaultPlan` of message drop/duplicate/delay/reorder rates, link
  partition windows and scheduled node crashes, decided as a pure
  function of the seed so chaos experiments replay bit for bit;
* :mod:`repro.faults.retry` / :mod:`repro.faults.injector` — the
  **resilience layer**: a :class:`RetryPolicy` (exponential backoff,
  plan-seeded jitter) driven by the :class:`FaultInjector` that both
  transports consult at their send/poll boundary;
* :mod:`repro.faults.detector` — heartbeat **failure detection**, with
  which the multiprocess supervisor confirms a dead or silent worker
  before failing its node over from the last consistent global snapshot.
"""

from .. import _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    "FailureDetector": ".detector",
    "FaultInjector": ".injector",
    **dict.fromkeys(("DEFAULT_KINDS", "DELAY", "DELIVER", "DROP", "DUPLICATE",
                     "FaultPlan", "LinkFaults", "LOST", "NO_FAULTS",
                     "NodeCrash", "PARTITION", "Partition", "REORDER"),
                    ".plan"),
    **dict.fromkeys(("NO_RETRY", "RetryPolicy"), ".retry"),
})
