"""The taint lattice and the source / sanitizer / sink catalog.

The lattice is deliberately small: a value is either CLEAN or it carries
a set of *taint labels* naming the confidential origin(s) it derives
from ("relational row/cell accessor", "inferred feasibility interval",
...).  Join is set union; CLEAN is the empty set.  What turns the
lattice into a policy is the catalog:

* **Sources** introduce taint: the relational engine's row/cell
  accessors, ``DisclosureForm`` payload construction in the source-side
  result builder, warehouse tuple reads, the inference solver's cell
  bounds (an *inferred* confidential value is still confidential), the
  validation zoo's ground truth, and the audit trail's compromised
  record identities.

* **Sanitizers** clear taint: the k-anonymity generalization hierarchy,
  the Laplace mechanism, aggregation (``len``/``sum``), sha256 hashing,
  canonical plan fingerprints, the validation metrics (which score a
  release rather than repeat it), and :mod:`repro.telemetry.redact` —
  the helpers written specifically so side channels have something safe
  to carry.

* **Sinks** are where taint must never arrive: structured event
  emission, metric name/label/observation calls, the observatory's
  journal and JSONL sink and exporters, persistence WAL record
  encoding, and exception message construction (``raise`` is handled
  structurally by the engine; it consults :data:`Catalog.exception_sink`
  only for the *kind* label).

Patterns match the call-graph builder's resolved qualified names with
``fnmatch`` globs (``repro.relational.table.Table.rows_as_dicts``), and
``*.name`` patterns additionally match *unresolved* attribute calls by
bare method name — the analyzer errs conservative when it cannot prove
a receiver's type.  Method-name sinks that collide with ubiquitous
builtins (``append``) carry a *receiver hint* regex so ``rows.append``
stays a list and ``self._backend.append`` stays a WAL write.
"""

from __future__ import annotations

import re
from fnmatch import fnmatchcase


class SinkSpec:
    """One sink pattern: where tainted data must never arrive."""

    __slots__ = ("kind", "pattern", "receiver_hint", "description")

    def __init__(self, kind, pattern, receiver_hint=None, description=""):
        self.kind = kind
        self.pattern = pattern
        self.receiver_hint = (
            re.compile(receiver_hint) if receiver_hint else None
        )
        self.description = description


class Catalog:
    """A taint policy: source, sanitizer, and sink patterns."""

    def __init__(self, sources, sanitizers, sinks,
                 exception_sink="exception"):
        self.sources = dict(sources)        # pattern → label
        self.sanitizers = list(sanitizers)  # patterns
        self.sinks = list(sinks)            # SinkSpec
        self.exception_sink = exception_sink

    # -- classification ----------------------------------------------------

    def source_label(self, names):
        """The source label when any resolved ``names`` matches, else None."""
        for pattern, label in self.sources.items():
            if any(_matches(pattern, name) for name in names):
                return label
        return None

    def is_sanitizer(self, names):
        return any(
            _matches(pattern, name)
            for pattern in self.sanitizers
            for name in names
        )

    def sink_for(self, names, receiver_text=None):
        """The :class:`SinkSpec` any of ``names`` matches, else None.

        ``receiver_text`` is the dotted receiver of an attribute call
        (``"self._backend"``); sinks with a receiver hint match only
        when the hint is found in it.
        """
        for spec in self.sinks:
            if not any(_matches(spec.pattern, name) for name in names):
                continue
            if spec.receiver_hint is not None:
                if receiver_text is None:
                    continue
                if not spec.receiver_hint.search(receiver_text):
                    continue
            return spec
        return None


def _matches(pattern, name):
    if name is None:
        return False
    return fnmatchcase(name, pattern)


#: Taint labels, named once so findings and docs agree.
LABEL_ROWS = "relational row/cell accessor"
LABEL_RESULT = "source-side disclosure payload"
LABEL_WAREHOUSE = "warehouse tuple"
LABEL_BOUNDS = "inferred feasibility interval (cell bounds)"
LABEL_TRUTH = "validation-zoo confidential ground truth"
LABEL_RECORDS = "audit-trail compromised record identity"


DEFAULT_SOURCES = {
    # the relational engine's raw row/cell accessors
    "repro.relational.table.Table.rows_as_dicts": LABEL_ROWS,
    "*.rows_as_dicts": LABEL_ROWS,
    "repro.relational.table.Table.column_values": LABEL_ROWS,
    "*.column_values": LABEL_ROWS,
    # the column view the WHERE masks and the executor read cells from,
    # and the row ids a predicate selects (which records match it)
    "repro.relational.table.Table.columns": LABEL_ROWS,
    "repro.relational.table.Table.select": LABEL_ROWS,
    # DisclosureForm payload assembly (tagged result documents carry the
    # post-rewrite cell values a source agreed to disclose)
    "repro.source.results.tag_results": LABEL_RESULT,
    "*.tag_results": LABEL_RESULT,
    "repro.source.results.untag_results": LABEL_RESULT,
    "*.untag_results": LABEL_RESULT,
    # warehouse entries hand back whole materialized result sets
    "repro.mediator.warehouse.Warehouse.answer": LABEL_WAREHOUSE,
    "repro.mediator.warehouse.Warehouse.entry": LABEL_WAREHOUSE,
    # statdb protected views hold the raw microdata rows
    "repro.statdb.protected.*._column_values": LABEL_ROWS,
    "*._column_values": LABEL_ROWS,
    # the inference solver: a bound tight enough to alert on IS the value
    "repro.inference.bounds.cell_bounds": LABEL_BOUNDS,
    "*.cell_bounds": LABEL_BOUNDS,
    # validation zoo ground truth (the confidential matrix itself)
    "repro.validation.adversaries.zoo_truth": LABEL_TRUTH,
    "*.zoo_truth": LABEL_TRUTH,
    # which records a query sequence pins down identifies *people*
    "repro.statdb.audit.SumAuditor.compromised_now": LABEL_RECORDS,
    "*.compromised_now": LABEL_RECORDS,
}

DEFAULT_SANITIZERS = [
    # the sanctioned redaction helpers
    "repro.telemetry.redact.digest",
    "repro.telemetry.redact.bucket",
    "repro.telemetry.redact.bucket_interval",
    "repro.telemetry.redact.scrub_reason",
    "*.hexdigest",
    # aggregation: a count or sum over a collection is a sanctioned form
    "len",
    "sum",
    # class identity is metadata, never the value itself
    "type",
    # schema-identifier accessors: column names are metadata even when
    # read off a table built from confidential rows
    "*.column_names",
    # privacy-loss compounding: 1 - Π(1 - l_i) over per-source losses is
    # an aggregate by construction — the quantity the mediator is
    # *supposed* to account and publish, not a confidential payload
    "repro.metrics.privacy_loss.compound_loss",
    "repro.metrics.privacy_loss.aggregate_interval_loss",
    # k-anonymity generalization and anonymization
    "*.generalize",
    "*.anonymize",
    "repro.anonymity.*",
    # differential privacy output perturbation
    "repro.statdb.laplace.LaplaceMechanism.answer",
    # canonical fingerprints are sha256-derived
    "repro.cache.fingerprint.plan_fingerprint",
    "*.plan_fingerprint",
    # validation metrics score a release; they do not repeat it
    "repro.validation.api.validate",
    "repro.validation.api.summarize",
    "*.summarize",
]

DEFAULT_SINKS = [
    SinkSpec("event", "*.emit",
             description="structured event emission (EventLog.emit)"),
    SinkSpec("event", "*.offer",
             description="JSONL sink hand-off (JsonlSink.offer)"),
    SinkSpec("metric", "*.counter",
             description="metric name/label registration"),
    SinkSpec("metric", "*.gauge",
             description="metric name/label registration"),
    SinkSpec("metric", "*.histogram",
             description="metric name/label registration"),
    SinkSpec("metric", "*.observe",
             description="histogram observation"),
    SinkSpec("metric", "*.set",
             receiver_hint=r"gauge|metric",
             description="gauge value"),
    SinkSpec("journal", "repro.observatory.journal.*",
             description="hash-chained audit journal record"),
    SinkSpec("journal", "*.append",
             receiver_hint=r"journal|backend|wal|_sink",
             description="journal/WAL append"),
    SinkSpec("export", "repro.telemetry.export.*",
             description="Chrome-trace / Prometheus exporters"),
    SinkSpec("wal", "repro.persistence.wal._dump",
             description="WAL record encoding"),
    SinkSpec("wal", "*.write_atomic",
             description="atomic snapshot write"),
    SinkSpec("wal", "repro.persistence.*.append",
             description="persistence backend append"),
    SinkSpec("wal", "repro.persistence.*.save_snapshot",
             description="persistence snapshot"),
]


DEFAULT_CATALOG = Catalog(DEFAULT_SOURCES, DEFAULT_SANITIZERS, DEFAULT_SINKS)
