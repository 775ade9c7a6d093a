"""Wrappers connecting external design tools to Pia (paper section 2)."""

from .. import _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    **dict.fromkeys(("ExternalToolComponent", "ToolError", "python_tool_argv"),
                    ".wrapper"),
})
