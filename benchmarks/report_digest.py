"""Did a change move a single byte of what a run reports?

Prints one line per fenced ledger workload and seed: the sha256 (first 16
hex digits) of the run's full ``RunReport`` — every subsystem row, link
row, counter, gauge, histogram, fault and stall-attribution row plus the
whole trace, record by record in ``seq`` order, with only the wall-clock
stamps dropped — then the ``run`` digest of the same report with its
``trace`` section removed, and the number of trace records.  A change that
moves only what is recorded shows "the run is what it was" as equal
``run`` digests beside different whole-report ones.  Under each line, one
indented line per ``to_dict`` section gives that section's own digest, so
a diff between two trees names the sections that moved.  The models
are the ledger's own (``benchmarks/ledger/workloads.py``, full size,
read-only use), so the digests are the ones CHANGES.md and EXPERIMENTS.md
quote.

A refactor or a performance change that claims "the run is what it was"
shows it by running this against both trees and diffing the output::

    python benchmarks/report_digest.py --tree /path/to/parent > A.txt
    python benchmarks/report_digest.py > B.txt && diff A.txt B.txt

``--tree`` names the checkout whose ``src/`` and ledger workloads are
loaded (default: the one this file is in), so the parent does not need to
have this script.  Prefix ``PIA_PURE=1`` for the pure-Python backend; the
digests do not depend on the backend either.
"""

import argparse
import hashlib
import json
import os
import sys

FENCED = ("wubbleu_local_word", "stream_pair_coop", "wubbleu_remote_word")


def digest(document):
    blob = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def report_digest(report):
    """``(digest, run digest, trace records, {section: digest})`` of one
    finished run's report; the run digest leaves out the ``trace``
    section."""
    document = report.to_dict(include_trace=True)
    records = len(document["trace"]["records"])
    whole = digest(document)
    sections = {name: digest(part) for name, part in sorted(document.items())}
    del document["trace"]
    return whole, digest(document), records, sections


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=here,
                        help="checkout to load src/ and the ledger "
                             "workloads from (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[2, 7])
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(args.tree, "src"),
                    os.path.join(args.tree, "benchmarks", "ledger")]
    import workloads
    from repro import _native

    print(f"# backend {_native.BACKEND}")
    for name in FENCED:
        workload = workloads.WORKLOADS[name]
        for seed in args.seeds:
            inputs = workload.prepare(seed, workload.sizes["full"])
            instance = workload.build(inputs, None)
            workload.run(instance)
            whole, run, records, sections = report_digest(
                instance.report())
            print(f"{name:22s} seed {seed:<3d} {whole}  run {run}  "
                  f"{records} records")
            for section, value in sections.items():
                print(f"  {section:18s} {value}")


if __name__ == "__main__":
    main()
