"""Run-level observability: trace spans and metrics.

Two surfaces, both zero-RNG-impact, both off by default, and both
installed around a run (never passed into it) with a context manager:

- :mod:`repro.obs.trace` — :class:`TraceRecorder`, structured JSONL
  span/event records with monotonic durations and parent/child ids;
  :func:`use_recorder` installs one.
- :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, process-local
  counters/gauges/timing histograms with snapshot/merge so parallel
  workers ship their numbers home; :func:`use_metrics` installs one.

Per-layer cost lives in the trace: ``row`` → ``sweep`` → ``batch``
(carrying the grid point's ``n``/``d``/``k``) → ``trial`` → ``build`` /
``protocol`` → ``referee`` spans.  ``python -m repro.obs summarize
<trace.jsonl|dir>`` renders a run report from a recorded trace (phase
breakdown, retry/fault counts, cache effectiveness, backend/path mix).
"""

from .metrics import (
    MetricsRegistry,
    get_metrics,
    set_metrics,
    use_metrics,
)
from .trace import (
    TraceRecorder,
    event,
    get_recorder,
    set_recorder,
    span,
    use_recorder,
)

__all__ = [
    "MetricsRegistry",
    "TraceRecorder",
    "event",
    "get_metrics",
    "get_recorder",
    "set_metrics",
    "set_recorder",
    "span",
    "use_metrics",
    "use_recorder",
]
