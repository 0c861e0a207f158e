"""Batch-scoped sharing state for ``pose_many()``.

One :class:`BatchContext` lives for exactly one ``pose_many`` /
``pose_stream`` call and carries the memoization the batch pipeline is
allowed to do — and *only* that.  The contract (``docs/performance.md``)
is the same one the mediation cache lives under: **sharing never skips
accounting**.  Everything a batch reuses is a pure recomputation —
transforms, policy decisions, rewrites, executed-and-anonymized result
documents, integration row sets — while everything stateful or charged
(sequence-guard checks, history entries, budget charging, cluster
absorption, audit-journal records, observatory folds, per-query events)
still runs once per query, in batch order, through the exact same code
path a looped ``pose()`` would take.

The shared tiers:

* per-source plan memos (``shared[name]``), handed to the static
  gate and to :meth:`repro.source.server.RemoteSource.answer` as
  ``shared=``: one :class:`~repro.source.server.SourcePlan` per
  (MAXLOSS-stripped fragment, role, subjects, policy state), whoever
  compiles it first (or the cache's cross-pose source-plan tier),
  plus nested tiers (selectivities, record-level documents); a lone
  ``pose()`` gets fresh ones;
* ``integrate_memo`` — integration output per (mediated-name mapping,
  aggregate flag, exact response documents); every query gets fresh
  row dicts so results stay independently mutable.

``shared=`` is part of the source ``answer`` interface: every source
(and every test double standing in for one) accepts it; direct callers
outside the engine pass ``shared=None``.  The engine empties the memos
with :func:`release_memos` when their pose (or batch) ends.
"""

from __future__ import annotations

from collections import defaultdict


def release_memos(memos):
    """Empty per-source plan memos once their pose (or batch) has ended.

    A memo can hold a refusal whose traceback holds the frame holding
    the memo; emptying it lets reference counting free the pose.
    """
    for memo in list(memos.values()):  # a hung attempt may still add one
        memo.clear()
    memos.clear()


class PoseOutcome:
    """One query's outcome inside a ``pose_many`` batch.

    A refusal mid-batch must not abort the queries behind it — a looped
    caller would catch and continue — so ``pose_many`` captures each
    refusal instead of raising.  ``ok`` distinguishes the two shapes;
    :meth:`unwrap` restores the single-pose contract (return the result
    or raise the refusal) for callers that want it.
    """

    __slots__ = ("query", "requester", "result", "error")

    def __init__(self, query, requester, result=None, error=None):
        self.query = query
        self.requester = requester
        self.result = result
        self.error = error

    @property
    def ok(self):
        return self.error is None

    def unwrap(self):
        """The result, or re-raise the refusal exactly as ``pose()`` would."""
        if self.error is not None:
            raise self.error
        return self.result

    def __repr__(self):
        if self.ok:
            return f"PoseOutcome(answered, rows={len(self.result.rows)})"
        return f"PoseOutcome(refused, {type(self.error).__name__})"


class BatchContext:
    """Everything one batch may share between its queries.

    The batch also owns one :class:`~repro.telemetry.obs.context.
    TraceContext` (``trace``): every pose in the batch opens its root
    span under the same trace id, so a 256-query ``pose_many`` reads as
    one trace across the dispatcher's worker threads and the WAL
    records — sharing an *identifier* is not sharing state, so the
    accounting contract above is untouched.
    """

    __slots__ = ("integrate_memo", "retained", "shared", "trace")

    def __init__(self, trace=None):
        self.trace = trace
        # repro-lint: disable=REP007 -- batch-scoped, not a long-lived
        # cache: the memo lives exactly as long as one pose_many() call,
        # is bounded by the batch size, and must not survive into the
        # next batch (repro.cache epochs would let it).
        self.integrate_memo = {}
        # Response documents referenced (by id) in integrate_memo keys:
        # pinned here so an id can never be recycled mid-batch.
        self.retained = []
        # source name → that source's per-batch plan memo, handed to the
        # static gate and to ``answer(shared=...)`` alike
        self.shared = defaultdict(dict)
