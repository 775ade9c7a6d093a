"""Dynamic component (re)loading — Pia's class loader (paper section 3.2)."""

from .. import _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    "ComponentLoader": ".class_loader",
})
