"""Repo-wide test fixtures."""

import pytest


@pytest.fixture(autouse=True)
def _isolate_bench_files(tmp_path, monkeypatch):
    """Keep test runs out of the checked-in ``benchmarks/results``.

    ``Table.save`` reads ``$PIA_BENCH_RESULTS`` at call time, so pointing
    it at ``tmp_path`` redirects every table a test saves.
    """
    monkeypatch.setenv("PIA_BENCH_RESULTS", str(tmp_path / "results"))


@pytest.fixture(scope="session", autouse=True)
def _flight_dumps_in_tmp(tmp_path_factory):
    """Point automatic flight-recorder dumps at a per-session directory.

    Failovers, migrations and aborted runs dump their black box into
    ``$PIA_FLIGHT_DIR`` (default: the system temp dir) — dozens of
    ``pia-flight-*.jsonl`` files per suite run.  Session-scoped, so pool
    workers spawned at any point of the session inherit the variable.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PIA_FLIGHT_DIR",
                     str(tmp_path_factory.mktemp("flight")))
        yield
