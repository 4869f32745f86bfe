"""The ``repro`` logger hierarchy.

Library logging etiquette: the package root logger gets a
``logging.NullHandler`` so importing :mod:`repro` never configures or
spams the host application's logging; anything that wants the messages
attaches its own handler to ``"repro"`` (or a subsystem child).

Subsystems log through children of ``"repro"`` — ``repro.service``,
``repro.persist``, ``repro.edge.*``, ``repro.kernel`` — at WARNING for
operational anomalies (shard respawns, budget trips, an unavailable
artifact store) with machine-readable context in ``extra`` fields
(``event``, plus event-specific keys) so a structured formatter can do
better than parsing message strings.
"""

from __future__ import annotations

import logging

__all__ = ["ROOT_LOGGER_NAME", "get_logger", "root_logger"]

ROOT_LOGGER_NAME = "repro"

_root = logging.getLogger(ROOT_LOGGER_NAME)
if not any(isinstance(h, logging.NullHandler) for h in _root.handlers):
    _root.addHandler(logging.NullHandler())


def root_logger() -> logging.Logger:
    return _root


def get_logger(subsystem: str) -> logging.Logger:
    """The ``repro.<subsystem>`` child logger."""
    if not subsystem:
        return _root
    return _root.getChild(subsystem)
