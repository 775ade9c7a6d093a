"""Copy elision for the checkpoint and transport hot paths.

Checkpoint capture/restore and the simulated wire both defensively copy
values so that stored or delivered state can never alias live mutable
state.  Most values crossing those paths are immutable scalars (net
levels, small tuples of them), for which the defensive copy buys nothing:
an immutable object may be shared freely.  :func:`smart_copy` keeps the
deep-copy guarantee for mutable values and skips it for provably
immutable ones.

"Provably immutable" is deliberately narrow — exact builtin types only
(``bool``/``int``/``float``/``complex``/``str``/``bytes``/``None`` plus
enum members, and ``tuple``/``frozenset`` containers thereof up to a
small depth).  Subclasses and everything else fall back to
``copy.deepcopy``; correctness never depends on the fast path firing.
"""

from __future__ import annotations

import copy
import enum
from typing import Any

#: Exact types that are immutable no matter what they contain.
_ATOMIC = frozenset({type(None), bool, int, float, complex, str, bytes})

#: Containers that are immutable iff every element is.
_CONTAINERS = (tuple, frozenset)

#: How deep nested tuples/frozensets are inspected before giving up.
_MAX_DEPTH = 4


def is_immutable(obj: Any, _depth: int = _MAX_DEPTH) -> bool:
    """True when ``obj`` is provably immutable (safe to share, not copy)."""
    kind = type(obj)
    if kind in _ATOMIC:
        return True
    if kind in _CONTAINERS:
        if _depth <= 0:
            return False
        for item in obj:
            # Most items are scalars: settle those here, recurse only
            # into what needs a second look.
            if type(item) not in _ATOMIC \
                    and not is_immutable(item, _depth - 1):
                return False
        return True
    return isinstance(obj, enum.Enum)


def smart_copy(obj: Any) -> Any:
    """``copy.deepcopy`` with elision for provably immutable values."""
    if is_immutable(obj):
        return obj
    return copy.deepcopy(obj)


def smart_copy_dict(mapping: dict) -> dict:
    """Per-value :func:`smart_copy` of a dict (checkpoint attr images)."""
    return {key: smart_copy(value) for key, value in mapping.items()}


def smart_copy_list(items) -> list:
    """Per-item :func:`smart_copy` of a sequence (buffers, replay logs)."""
    return [smart_copy(item) for item in items]
