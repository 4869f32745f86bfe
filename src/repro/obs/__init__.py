"""Observability plane: tracing, metrics, flight recorder, calibration.

This package is deliberately leaf-like — it imports only the standard
library, never :mod:`repro.service` or the kernel, so every layer of the
repo can instrument itself without import cycles:

* :mod:`repro.obs.trace` — request-scoped :class:`Span` trees with
  monotonic timings, ambient propagation across thread boundaries, and
  ``(trace_id, parent_span_id)`` coordinates for crossing a process
  boundary;
* :mod:`repro.obs.metrics` — the unified :class:`MetricsRegistry`
  (counters / gauges / bucketed histograms, Prometheus text exposition,
  JSON snapshots), the :func:`kcount` kernel-counter hooks with their
  disabled-mode fast path, and :class:`LatencyHistogram` (moved here
  from ``repro.service.stats``, which keeps a re-export);
* :mod:`repro.obs.recorder` — the :class:`FlightRecorder` ring buffer
  of lifecycle events the chaos suite asserts against;
* :mod:`repro.obs.logs` — the ``repro`` logger hierarchy
  (``NullHandler`` root, per-subsystem children);
* :mod:`repro.obs.calibration` — the plan-vs-actual
  :class:`CalibrationLog` that ``benchmarks/bench_p07_obs.py`` fills
  from ``solution.stats`` (the solve path keeps no log of its own).

``SolveService`` feeds the recorder and the traces from one record per
request: one method closes each request into its ``ServiceStats`` fold,
its recorder event and its span attributes.
"""

from repro.obs.calibration import CalibrationLog, observed_work
from repro.obs.logs import get_logger, root_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    KERNEL_COUNTERS,
    LatencyHistogram,
    MetricsRegistry,
    collect_kernel_counters,
    default_registry,
    kcount,
    kernel_counter_name,
    kernel_metrics_enabled,
    set_kernel_metrics_enabled,
)
from repro.obs.recorder import FlightRecorder, default_recorder
from repro.obs.trace import (
    Span,
    TraceLog,
    child_scope,
    current_span,
    maybe_span,
    span_scope,
)

__all__ = [
    "CalibrationLog",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "KERNEL_COUNTERS",
    "LatencyHistogram",
    "MetricsRegistry",
    "Span",
    "TraceLog",
    "child_scope",
    "collect_kernel_counters",
    "current_span",
    "default_recorder",
    "default_registry",
    "get_logger",
    "kcount",
    "kernel_counter_name",
    "kernel_metrics_enabled",
    "maybe_span",
    "observed_work",
    "root_logger",
    "set_kernel_metrics_enabled",
    "span_scope",
]
