"""Whole-program information-flow and shared-state analysis.

Everything in :mod:`repro.analysis.lint` is *per-file*: a rule sees one
AST and must answer from it alone.  That is the wrong granularity for
the two questions this package answers:

* **REP010 — does any confidential value reach a side channel?**  The
  paper's disclosure guarantee covers the mediated ``pose()`` path only;
  the structured event log, metric labels, audit journal, JSONL sink,
  exporters, persistence WAL, and exception messages are *side
  channels* that nothing in the runtime accounts for.  One careless
  ``emit(..., value=row[col])`` outflanks every defense the validation
  suite measures.  Proving its absence requires following values across
  function and module boundaries — an interprocedural taint analysis
  (:mod:`~repro.analysis.flow.engine`) over a declared catalog of
  sources, sanitizers, and sinks
  (:mod:`~repro.analysis.flow.catalog`).

* **REP011 — is every shared mutable guarded by a consistent lock?**
  A check of one method at a time cannot see that a private helper is
  only ever called with the lock already held, that two methods guard
  the same attribute with *different* locks, or that a lock-owning
  class mutates another object's state under its lock.  The lockset
  pass (:mod:`~repro.analysis.flow.locks`) resolves these
  whole-program and emits ``shared_state_map.json`` — the verified
  inventory of lock-guarded mutables the sharded-service work consumes
  as its partitioning spec.

Findings carry the established ``repro-lint`` codes and honor the same
per-line suppression-with-justification comments.  Run it as::

    python -m repro.analysis.flow src/repro --map shared_state_map.json
"""

from __future__ import annotations

from repro.analysis.flow.catalog import Catalog, DEFAULT_CATALOG
from repro.analysis.flow.driver import FlowReport, run_analysis
from repro.analysis.flow.engine import FlowAnalysis, analyze_flows
from repro.analysis.flow.loader import Program, load_program
from repro.analysis.flow.locks import LockAnalysis, analyze_locks

__all__ = [
    "Catalog",
    "DEFAULT_CATALOG",
    "FlowAnalysis",
    "FlowReport",
    "LockAnalysis",
    "Program",
    "analyze_flows",
    "analyze_locks",
    "load_program",
    "run_analysis",
]
