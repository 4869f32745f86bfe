"""The unified metrics plane: counters, gauges, histograms, exposition.

One :class:`MetricsRegistry` holds every metric family the repo emits.
Two registration styles coexist:

* **Direct instruments** — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` created via the registry's get-or-create methods
  and mutated at the instrumentation site.  The kernel counters (search
  nodes, AC-2001 residual hits, DP bag cells, Datalog rounds, …) are
  direct instruments funneled through :func:`kcount`.
* **Collectors** — callables registered with
  :meth:`MetricsRegistry.register_collector` that *derive* samples at
  scrape time from pre-existing stat bags (:class:`ServiceStats`, the
  artifact store's counters).  This is how the existing APIs join the
  registry without changing shape.

Exposition is Prometheus text format (``exposition()``) or a JSON
snapshot (``snapshot()``).

The kernel hooks are built to vanish: :func:`kcount` first reads one
module-level boolean (``REPRO_OBS_METRICS=0`` turns it off), which is
what the ``bench_p07_obs.py`` overhead gate toggles to prove the
instrumented loops stay within 3% of the bare ones.  When enabled it
both bumps the process-wide counter and adds into an optional
thread-local per-solve dict installed by :func:`collect_kernel_counters`
— that dict is how a single solve's counters end up on its
``SolveStats.kernel``.
"""

from __future__ import annotations

import json
import math
import os
import threading
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyHistogram",
    "MetricsRegistry",
    "Sample",
    "collect_kernel_counters",
    "default_registry",
    "kcount",
    "kernel_counter_name",
    "kernel_metrics_enabled",
    "set_kernel_metrics_enabled",
]

LabelValues = tuple[str, ...]


class Sample:
    """One exposition sample: name suffix, label values, value."""

    __slots__ = ("suffix", "labels", "value")

    def __init__(
        self, suffix: str, labels: Mapping[str, str], value: float
    ) -> None:
        self.suffix = suffix
        self.labels = dict(labels)
        self.value = value


class _Instrument:
    """Shared base: a named family with per-label-tuple values."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> None:
        _check_metric_name(name)
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, str]) -> LabelValues:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(labels[ln]) for ln in self.labelnames)

    def _labels_dict(self, key: LabelValues) -> dict[str, str]:
        return dict(zip(self.labelnames, key))


class Counter(_Instrument):
    """A monotonically increasing counter family."""

    kind = "counter"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def samples(self) -> Iterator[Sample]:
        with self._lock:
            items = list(self._values.items())
        for key, value in sorted(items):
            yield Sample("", self._labels_dict(key), value)


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[LabelValues, float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def samples(self) -> Iterator[Sample]:
        with self._lock:
            items = list(self._values.items())
        for key, value in sorted(items):
            yield Sample("", self._labels_dict(key), value)


#: Default histogram buckets (milliseconds-flavoured but unit-neutral).
DEFAULT_BUCKETS = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


class Histogram(_Instrument):
    """A cumulative-bucket histogram family (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        # per label tuple: (per-bound counts, total count, total sum)
        self._values: dict[LabelValues, tuple[list[int], int, float]] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        index = bisect_left(self.bounds, value)
        with self._lock:
            entry = self._values.get(key)
            if entry is None:
                entry = ([0] * len(self.bounds), 0, 0.0)
            counts, count, total = entry
            if index < len(counts):
                counts[index] += 1
            self._values[key] = (counts, count + 1, total + value)

    def samples(self) -> Iterator[Sample]:
        with self._lock:
            items = [
                (key, (list(counts), count, total))
                for key, (counts, count, total) in self._values.items()
            ]
        for key, (counts, count, total) in sorted(items):
            labels = self._labels_dict(key)
            cumulative = 0
            for bound, bucket_count in zip(self.bounds, counts):
                cumulative += bucket_count
                yield Sample(
                    "_bucket", {**labels, "le": _format_value(bound)}, cumulative
                )
            yield Sample("_bucket", {**labels, "le": "+Inf"}, count)
            yield Sample("_sum", labels, total)
            yield Sample("_count", labels, count)


#: A collector yields ``(instrument-like)`` objects at scrape time; any
#: object with ``name``/``help``/``kind``/``samples()`` works, so
#: collectors may hand back throwaway Counter/Gauge instances.
Collector = Callable[[], Iterable[_Instrument]]


class MetricsRegistry:
    """Process-wide metric families plus scrape-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}
        self._collectors: list[Collector] = []

    # -- get-or-create instruments --------------------------------------

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}"
                    )
                return existing
            instrument = Histogram(name, help, labelnames, buckets)
            self._instruments[name] = instrument
            return instrument

    def _get_or_create(self, cls, name, help, labelnames):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}"
                    )
                return existing
            instrument = cls(name, help, labelnames)
            self._instruments[name] = instrument
            return instrument

    # -- collectors ------------------------------------------------------

    def register_collector(self, collector: Collector) -> None:
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def unregister_collector(self, collector: Collector) -> None:
        with self._lock:
            try:
                self._collectors.remove(collector)
            except ValueError:
                pass

    # -- scraping --------------------------------------------------------

    def _families(self) -> list[_Instrument]:
        with self._lock:
            families = list(self._instruments.values())
            collectors = list(self._collectors)
        for collector in collectors:
            families.extend(collector())
        return families

    def exposition(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for family in self._families():
            if family.help:
                lines.append(
                    f"# HELP {family.name} {_escape_help(family.help)}"
                )
            lines.append(f"# TYPE {family.name} {family.kind}")
            for sample in family.samples():
                label_text = ""
                if sample.labels:
                    inner = ",".join(
                        f'{key}="{_escape_label(value)}"'
                        for key, value in sample.labels.items()
                    )
                    label_text = "{" + inner + "}"
                lines.append(
                    f"{family.name}{sample.suffix}{label_text} "
                    f"{_format_value(sample.value)}"
                )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready view keyed by family name."""
        out: dict[str, Any] = {}
        for family in self._families():
            series = [
                {
                    "suffix": sample.suffix,
                    "labels": sample.labels,
                    "value": sample.value,
                }
                for sample in family.samples()
            ]
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "samples": series,
            }
        return out

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry the kernel counters report into."""
    return _DEFAULT_REGISTRY


# -- kernel counters -----------------------------------------------------

#: Short kernel-counter keys → Prometheus family names.  The short keys
#: are what the instrumentation sites use (and what lands on
#: ``SolveStats.kernel``); the families carry the ``repro_kernel_``
#: prefix in exposition.
KERNEL_COUNTERS: dict[str, tuple[str, str]] = {
    "search.nodes": (
        "repro_kernel_search_nodes_total",
        "Assignments attempted by the bitset backtracking search.",
    ),
    "search.backtracks": (
        "repro_kernel_search_backtracks_total",
        "Dead ends undone by the bitset backtracking search.",
    ),
    "propagate.residual_hits": (
        "repro_kernel_ac_residual_hits_total",
        "AC-2001 support checks answered by the residual cache.",
    ),
    "propagate.revisions": (
        "repro_kernel_ac_revisions_total",
        "Variable-domain revisions performed by GAC propagation.",
    ),
    "dp.bag_cells": (
        "repro_kernel_dp_bag_cells_total",
        "Bag-table cells materialised by the treewidth DP.",
    ),
    "pebble.steps": (
        "repro_kernel_pebble_steps_total",
        "Worklist positions processed by the k-pebble game fixpoint.",
    ),
    "datalog.rounds": (
        "repro_kernel_datalog_rounds_total",
        "Semi-naive rounds executed by the compiled Datalog engine.",
    ),
    "datalog.delta_bits": (
        "repro_kernel_datalog_delta_bits_total",
        "Delta-table bits produced across semi-naive rounds.",
    ),
    "deadline.checks": (
        "repro_deadline_checks_total",
        "Cooperative cancellation checks performed inside kernel loops.",
    ),
    "compile.targets": (
        "repro_kernel_compile_targets_total",
        "Target structures compiled into bitset form (cache/store misses).",
    ),
    "compile.sources": (
        "repro_kernel_compile_sources_total",
        "Source structures compiled into constraint form.",
    ),
}


def kernel_counter_name(key: str) -> str:
    """The Prometheus family name for a short kernel-counter key."""
    return KERNEL_COUNTERS[key][0]


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS_METRICS", "1") not in ("0", "false", "no")


_kernel_enabled: bool = _env_enabled()


def kernel_metrics_enabled() -> bool:
    return _kernel_enabled


def set_kernel_metrics_enabled(enabled: bool) -> bool:
    """Toggle the kernel-counter hooks; returns the previous setting.

    This is the A/B lever the overhead benchmark flips: with the hooks
    disabled every :func:`kcount` call is one boolean test.
    """
    global _kernel_enabled
    previous = _kernel_enabled
    _kernel_enabled = bool(enabled)
    return previous


class _SolveLocal(threading.local):
    counters: dict[str, int] | None = None


_SOLVE_LOCAL = _SolveLocal()

_KERNEL_FAMILIES: dict[str, Counter] = {}


def _kernel_family(key: str) -> Counter:
    counter = _KERNEL_FAMILIES.get(key)
    if counter is None:
        name, help_text = KERNEL_COUNTERS[key]
        counter = _DEFAULT_REGISTRY.counter(name, help_text)
        _KERNEL_FAMILIES[key] = counter
    return counter


def kcount(key: str, amount: int = 1) -> None:
    """Bump a kernel counter (process-wide + ambient per-solve dict).

    Hot-loop contract: instrumentation sites accumulate into a local
    int and flush once per phase, so this runs a handful of times per
    solve, not per node.  Disabled mode short-circuits on one boolean.
    """
    if not _kernel_enabled:
        return
    _kernel_family(key).inc(amount)
    bag = _SOLVE_LOCAL.counters
    if bag is not None:
        bag[key] = bag.get(key, 0) + amount


class collect_kernel_counters:
    """Collect this thread's kernel counters for one solve.

    ``with collect_kernel_counters() as bag:`` installs a fresh dict as
    the thread's per-solve sink; nested scopes shadow (the innermost
    wins), which is what makes the pipeline's deadline-recursion outer
    call harmless — the inner, real solve owns the dict that matters.
    """

    __slots__ = ("bag", "_previous")

    def __init__(self) -> None:
        self.bag: dict[str, int] = {}
        self._previous: dict[str, int] | None = None

    def __enter__(self) -> dict[str, int]:
        self._previous = _SOLVE_LOCAL.counters
        _SOLVE_LOCAL.counters = self.bag
        return self.bag

    def __exit__(self, *exc: object) -> None:
        _SOLVE_LOCAL.counters = self._previous


# -- formatting helpers --------------------------------------------------

def _check_metric_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name: {name!r}")
    if name[0].isdigit():
        raise ValueError(f"invalid metric name: {name!r}")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


# -- latency histogram (moved here from repro.service.stats) -------------

class LatencyHistogram:
    """Latency samples (milliseconds) with nearest-rank percentiles.

    Sample storage is capped: once ``max_samples`` is reached, new
    samples overwrite old ones round-robin, bounding memory while keeping
    the percentiles tracking recent traffic.  The total count keeps
    counting past the cap.
    """

    DEFAULT_MAX_SAMPLES = 65536

    __slots__ = ("_samples", "_max_samples", "_next", "count", "total_ms")

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be positive")
        self._samples: list[float] = []
        self._max_samples = max_samples
        self._next = 0
        self.count = 0
        self.total_ms = 0.0

    def record(self, latency_ms: float) -> None:
        self.count += 1
        self.total_ms += latency_ms
        if len(self._samples) < self._max_samples:
            self._samples.append(latency_ms)
        else:
            self._samples[self._next] = latency_ms
            self._next = (self._next + 1) % self._max_samples

    def percentiles(self, *qs: float) -> tuple[float, ...]:
        """Nearest-rank percentiles (``0 < q <= 100``), one shared sort."""
        if not self._samples:
            return tuple(0.0 for _ in qs)
        ordered = sorted(self._samples)
        return tuple(
            ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]
            for q in qs
        )

    def percentile(self, q: float) -> float:
        """The nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
        return self.percentiles(q)[0]

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, float]:
        p50, p95, p99 = self.percentiles(50, 95, 99)
        return {
            "count": self.count,
            "mean_ms": round(self.mean_ms, 4),
            "p50_ms": round(p50, 4),
            "p95_ms": round(p95, 4),
            "p99_ms": round(p99, 4),
        }
