"""Static analysis for PRIVATE-IYE: plan checking and repo linting.

Two engines live here:

* :mod:`repro.analysis.plancheck` + :mod:`repro.analysis.taint` — a
  taint-tracking abstract interpreter over PIQL fragmentation plans.  It
  decides, *before any source is contacted*, whether a plan is ``SAFE``
  (no policy can refuse it), ``REFUSE`` (some policy is guaranteed to
  refuse it, with the offending source and path), or ``RUNTIME_CHECK``
  (the verdict depends on data or query history, with the remaining
  runtime checks enumerated).  The mediation engine runs it as a
  pre-dispatch gate (``PrivateIye(static_check=...)``, on by default).
* :mod:`repro.analysis.lint` — a stdlib-``ast`` lint framework with
  repo-specific rules (REP002–REP009, REP012–REP013) guarding the
  invariants earlier PRs introduced by convention: refusal finality,
  the :class:`~repro.errors.ReproError` hierarchy, layering, swallowed
  exceptions, and mutable default arguments.  Lock discipline is the
  whole-program REP011 of :mod:`repro.analysis.flow`.  Run it with
  ``python -m repro.analysis.lint src/``.

See ``docs/static_analysis.md`` for the verdict lattice and rule
catalog.
"""

from repro.analysis.plancheck import (
    REFUSE,
    RUNTIME_CHECK,
    SAFE,
    PlanAnalyzer,
    PlanVerdict,
    SourceStaticOutcome,
    resolve_static_check,
)
from repro.analysis.taint import TaintLabel, label_source_query

__all__ = [
    "SAFE",
    "REFUSE",
    "RUNTIME_CHECK",
    "PlanAnalyzer",
    "PlanVerdict",
    "SourceStaticOutcome",
    "resolve_static_check",
    "TaintLabel",
    "label_source_query",
]
