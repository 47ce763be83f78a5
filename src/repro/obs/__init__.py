"""``repro.obs`` — unified structured observability.

One span vocabulary across the whole stack (see docs/OBSERVABILITY.md):

==========================  =============================================
span name                   emitted by
==========================  =============================================
``exec.run``                :meth:`repro.exec.ParallelRunner.run` (the
                            single-job memo-hit fast path skips it)
``exec.job``                per *simulated* job (hits are counted on
                            the parent ``exec.run`` span instead)
``exec.execute``            the simulate step (inline/pool/fallback)
``calibrate.platform``      :func:`repro.estimation.workflow.calibrate_platform`
                            (``operation`` attribute: any collective)
``calibrate.prefetch``      the up-front parallel simulation batch
``estimate.gamma``          :func:`repro.estimation.gamma.estimate_gamma`
``estimate.alphabeta``      :func:`repro.estimation.alphabeta.estimate_alpha_beta`
                            (``operation`` attribute, bcast included)
``artifact.build``          :func:`repro.service.artifact.build_artifact`
``artifact.calibrate``      per-operation calibration phase
``artifact.tables``         per-operation decision-table build
``artifact.codegen``        per-operation code generation
``artifact.package``        hashing + packaging
``http.request``            :class:`repro.service.server.HttpServer`
==========================  =============================================

Collection is off by default and costs one attribute check per span site;
``obs.enable()`` (or the CLI's ``--trace-out`` / ``repro-mpi trace``)
turns it on.  ``obs.save_trace(path)`` writes JSONL (``.jsonl``) or a
Chrome trace (anything else).
"""

from repro.obs.bridge import SpanMetricsBridge
from repro.obs.export import (
    build_tree,
    load_chrome_trace,
    load_jsonl,
    save,
    save_chrome_trace,
    save_jsonl,
    span_names,
    to_chrome_events,
    to_chrome_json,
    to_jsonl,
)
from repro.obs.spans import (
    NULL_SPAN,
    Span,
    SpanRecorder,
    current_span,
    disable,
    enable,
    get_recorder,
    is_enabled,
    new_trace_id,
    span,
    traced,
)


def save_trace(path):
    """Write the process-wide recorder's spans to ``path`` (by suffix)."""
    return save(get_recorder(), path)


__all__ = [
    "NULL_SPAN",
    "Span",
    "SpanMetricsBridge",
    "SpanRecorder",
    "build_tree",
    "current_span",
    "disable",
    "enable",
    "get_recorder",
    "is_enabled",
    "load_chrome_trace",
    "load_jsonl",
    "new_trace_id",
    "save",
    "save_chrome_trace",
    "save_jsonl",
    "save_trace",
    "span",
    "span_names",
    "to_chrome_events",
    "to_chrome_json",
    "to_jsonl",
    "traced",
]
