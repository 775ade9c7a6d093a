"""Harness tests run from a plain checkout: put ``src/`` on the path.

Run with ``python -m pytest benchmarks/ledger -q`` (tier-1 collects
``tests/`` only, so these stay out of it).
"""

from _paths import add_src

add_src()
