"""The MediationEngine facade — Figure 2(b) end to end.

Wires mediated-schema generation, fragmentation, fault-tolerant per-source
answering (:mod:`repro.mediator.dispatch` — deadlines, retries, circuit
breakers, partial-results policies), result integration, privacy
control, history/sequence guarding, and the hybrid warehouse into one
``pose()`` call.

Every pose settles into one :class:`PoseRecord`, answered or refused,
once its ``mediator.pose`` span closes.  One settle step then projects
it, in one order: the disclosure-journal record (the pose's chained
payload, serialized once), the write-ahead log record (those bytes, in
an envelope), the ``pose.<status>`` event, the snooper fold (answered
only), the per-query :class:`~repro.telemetry.explain.ExplainReport` and
the metrics.  The ledger records nothing as the pipeline runs: each
stage sets the facts it decides (the fragment plan, the epoch vector,
the static verdict, the warehouse leg, the per-source outcomes, the
verified losses) on its own span, and the ledger reads them off the
pose's span tree and its record.  With telemetry disabled (the default)
the spans, ledger, events and metrics degrade to no-op singleton calls;
see :mod:`repro.telemetry`.

Durability contract (:mod:`repro.persistence`): with a persistence sink
attached, the WAL append comes before anything else learns of the pose
— the event, the snooper fold, the ledger, and the caller, who gets the
answer or the re-raised refusal.  A crash at any instant therefore
leaves the store describing a superset of what requesters were shown:
charged-but-unreleased is possible, released-but-forgotten is not.
With ``persistence=None`` (the default) the query path carries a single
``is not None`` check and behaves byte-identically to before.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analysis.plancheck import REFUSE, resolve_static_check
from repro.cache import canonical_render, plan_fingerprint, resolve_cache
from repro.errors import (
    AuditRefusal,
    IntegrationError,
    PrivacyViolation,
    ReproError,
    SourceUnavailable,
)
from repro.mediator.batch import BatchContext, PoseOutcome, release_memos
from repro.mediator.control import PrivacyControl
from repro.mediator.dispatch import FAULT_DEADLINE, FAULT_TRANSIENT, can_block, resolve_dispatch
from repro.mediator.fragmenter import QueryFragmenter
from repro.mediator.history import MediatorHistory, SequenceGuard
from repro.mediator.integrator import IntegratedResult, ResultIntegrator
from repro.mediator.mediated_schema import MediatedSchema, SourceExport
from repro.mediator.warehouse import Warehouse
from repro.observatory import released_cells, resolve_observatory
from repro.policy.model import DisclosureForm
from repro.query.language import parse_piql
from repro.query.model import PiqlQuery
from repro.telemetry import resolve_telemetry
from repro.telemetry.obs.context import TraceContext


@dataclass(frozen=True, slots=True)
class PoseRecord:
    """How one pose settled; every record of the pose is read off it.

    A refused pose disclosed nothing: no losses, no cells, no rows.
    :meth:`chained` is what the journal hashes and the WAL writes.
    """

    requester: str
    fingerprint: str
    status: str                 # "answered" | "refused"
    refusal_kind: str | None    # the refusal's class name
    refusal_reason: str | None
    trace_id: str | None
    history: dict | None        # HistoryEntry.to_dict() of what was charged
    per_source_loss: dict
    aggregated_loss: float
    cells: tuple                # released_cells(): (measure, source, value)
    rows: int
    duplicates_removed: int
    duration_ms: float

    @classmethod
    def of(cls, query, requester, fingerprint, span, history, result=None,
           error=None):
        """The record of a pose that returned ``result`` or raised ``error``."""
        if error is not None:
            return cls(requester, fingerprint, "refused",
                       type(error).__name__, str(error), span.trace_id,
                       history, {}, 0.0, (), 0, 0, span.duration_ms)
        return cls(requester, fingerprint, "answered", None, None,
                   span.trace_id, history, dict(result.per_source_loss),
                   float(result.aggregated_loss),
                   tuple(released_cells(query, result)), len(result.rows),
                   result.duplicates_removed, span.duration_ms)

    def chained(self, seq=None, ts=None, cumulative_loss=None):
        """The chained payload: every field but ``trace_id`` and
        ``duration_ms`` (they describe the run, not the disclosure, and
        differ between a loop and a ``pose_many`` batch), plus the
        journal's ``seq``, ``ts`` and cumulative loss (``None`` when no
        journal keeps the pose)."""
        payload = {name: getattr(self, name) for name in self.__slots__
                   if name not in ("trace_id", "duration_ms")}
        payload["cells"] = [list(cell) for cell in self.cells]
        payload.update(seq=seq, ts=ts, cumulative_loss=cumulative_loss)
        return payload

    def settle(self, engine, span, event_mark, query, role):
        """Project the pose onto every record of it, in one order.

        Journal (hashes the chained bytes) → WAL (writes them: the
        write-ahead point, the pose is durable before anyone hears of
        it) → ``pose.<status>`` event → snooper fold
        (answered only) → explain ledger → metrics, for both statuses.
        The caller then returns the result or re-raises the refusal.
        ``span`` is the pose's root span, ``query`` its posed text and
        ``role`` the requester's role: the ledger reads them.
        Reading the fields through ``self`` lets the flow analyzer track
        them one by one: only the losses and cells carry the result's
        taint.
        """
        telemetry, observatory = engine.telemetry, engine.observatory
        events, metrics = telemetry.events, telemetry.metrics
        journal = None
        if observatory is not None:
            journal = observatory.record_pose(self)
        if engine.persistence is not None:
            engine.persistence.record_pose(self, journal)
        answered = self.status == "answered"
        if answered:
            # repro-lint: disable=REP010 -- aggregated/cumulative loss
            # are the §5 accounting aggregates the requester is handed
            # anyway (compound_loss outputs; tainted by tuple-return
            # granularity).
            events.emit(
                "pose.answered", requester=self.requester,
                fingerprint=self.fingerprint, trace_id=self.trace_id,
                rows=self.rows, aggregated_loss=self.aggregated_loss,
                cumulative_loss=(journal.cumulative_loss
                                 if journal is not None else None),
            )
        else:
            events.emit(
                "pose.refused", requester=self.requester,
                fingerprint=self.fingerprint, trace_id=self.trace_id,
                kind=self.refusal_kind, reason=self.refusal_reason,
            )
        if answered and observatory is not None:
            # Alert events land after this pose's ``pose.answered`` and
            # before the next pose's.
            observatory.observe_result(self.requester, self.cells)
        telemetry.explain.record(query, role, self, journal,
                                 events.since(event_mark), span)
        if not answered:
            metrics.counter("mediator.queries_refused").inc()
            metrics.counter(f"mediator.refusals.{self.refusal_kind}").inc()
            return
        metrics.counter("mediator.queries_answered").inc()
        metrics.histogram("mediator.pose_ms").observe(self.duration_ms)
        # repro-lint: disable=REP010 -- same accounting aggregate as the
        # pose.answered payload above.
        metrics.histogram("mediator.aggregated_loss").observe(
            self.aggregated_loss
        )


class MediationEngine:
    """The privacy-preserving mediation engine."""

    def __init__(self, shared_secret="mediation-secret", linkage_attributes=(),
                 synonyms=None, warehouse=None, max_distinct_probes=4,
                 telemetry=None, dispatch=None, static_check=True,
                 cache=True, observatory=None, persistence=None):
        self.shared_secret = shared_secret
        self.linkage_attributes = list(linkage_attributes)
        self.synonyms = synonyms
        self.telemetry = resolve_telemetry(telemetry)
        self.warehouse = warehouse or Warehouse(mode="hybrid")
        # One Telemetry instance spans the whole deployment: the warehouse,
        # privacy control, and dispatcher report into the engine's registry.
        self.warehouse.telemetry = self.telemetry
        # ``dispatch``: None (default concurrent fan-out), a DispatchPolicy,
        # or a shared FanoutDispatcher (breakers persist across engines).
        self.dispatcher = resolve_dispatch(dispatch)
        self.dispatcher.telemetry = self.telemetry
        self.max_distinct_probes = max_distinct_probes
        # ``static_check``: True (default pre-dispatch plan analyzer),
        # False (gate off), or a PlanAnalyzer instance to share.
        self.static_analyzer = resolve_static_check(static_check)
        # ``cache``: True (default multi-tier mediation cache), False
        # (every pose recomputes), or a MediationCache to share/inject.
        # The warehouse remains the answer tier either way; with the
        # cache off it simply receives no epoch vectors.
        self.cache = resolve_cache(cache)
        if self.cache is not None:
            self.cache.telemetry = self.telemetry

        # ``observatory``: None (default — the query path carries a single
        # ``is None`` check and nothing else), True (fresh disclosure
        # journal + snooper watch), or an Observatory to share.  Alerts
        # and journal events land in the engine's event log.
        self.observatory = resolve_observatory(observatory)
        if self.observatory is not None:
            self.observatory.events = self.telemetry.events

        self.sources = {}
        self.schema = None
        self.fragmenter = None
        self.integrator = None
        self.control = PrivacyControl(telemetry=self.telemetry)
        self.history = MediatorHistory()
        self._sequence_guard = None

        # ``persistence``: None (default — in-memory privacy state,
        # byte-identical to the pre-durability behavior), True (a
        # memory-backend sink for restart simulation), a path / backend
        # / PersistenceSink (share one across rebuilds — that *is* the
        # restart story).  Deferred import: the persistence layer sits
        # *above* the mediator in the layering (it captures engine
        # state wholesale), so the module-level dependency must point
        # the other way.
        self.persistence = None
        if persistence is not None and persistence is not False:
            from repro.persistence import resolve_persistence

            self.persistence = resolve_persistence(persistence)
            self.persistence.bind(self)

    # -- setup ----------------------------------------------------------------

    def register_source(self, remote):
        """Register a :class:`~repro.source.server.RemoteSource`.

        The source adopts the engine's telemetry unless it was built with
        its own enabled instance, so per-source pipeline spans land in the
        same trace as the mediator's, and the cache's source-plan tier,
        so its compiled plans outlive the pose (see
        :meth:`~repro.source.server.RemoteSource.prepare`).
        """
        if remote.name in self.sources:
            raise IntegrationError(f"source {remote.name!r} already registered")
        if not remote.telemetry.enabled:
            remote.telemetry = self.telemetry
        if self.cache is not None:
            remote.plan_tier = self.cache.source_plans
        self.sources[remote.name] = remote
        self.schema = None  # invalidate; rebuilt lazily
        if self.cache is not None:
            # The mediated schema (and every cached plan/verdict/answer
            # fanning out over it) is now stale.
            self.cache.note_source_registered()

    def build_schema(self):
        """(Re)build the mediated schema from the registered sources."""
        if not self.sources:
            raise IntegrationError("no sources registered")
        with self.telemetry.span("mediator.build_schema",
                                 n_sources=len(self.sources)):
            exports = [
                SourceExport.from_remote_source(
                    self.sources[name], self.shared_secret, self.synonyms
                )
                for name in sorted(self.sources)
            ]
            self.schema = MediatedSchema.build(exports)
            self.fragmenter = QueryFragmenter(self.schema)
            self.integrator = ResultIntegrator(
                self.schema, self.linkage_attributes
            )
            private = {
                name for name, attribute in self.schema.attributes.items()
                if attribute.form < DisclosureForm.EXACT
            }
            self._sequence_guard = SequenceGuard(
                self.history, private, self.max_distinct_probes,
                telemetry=self.telemetry,
            )
        return self.schema

    def mediated_vocabulary(self):
        """The attribute names requesters may use in queries."""
        self._ensure_schema()
        return self.schema.vocabulary()

    # -- querying ---------------------------------------------------------------

    def pose(self, query, requester="anonymous", role=None, subjects=(),
             emergency=False, use_warehouse=True):
        """Answer a PIQL query (text or :class:`PiqlQuery`).

        Returns an :class:`~repro.mediator.integrator.IntegratedResult`.
        Raises :class:`AuditRefusal` when the sequence guard blocks the
        requester, :class:`IntegrationError` when no source can answer,
        and :class:`PrivacyViolation` when every relevant source refused.

        With telemetry enabled, the call is wrapped in a ``mediator.pose``
        span and fully accounted for in an explain report retrievable via
        ``telemetry.explain_last()``.
        """
        return self._pose_wrapped(query, requester, role, subjects,
                                  emergency, use_warehouse)

    def pose_many(self, queries, requester="anonymous", role=None,
                  subjects=(), emergency=False, use_warehouse=True):
        """Answer a whole batch of queries for one principal, in order.

        Returns one :class:`~repro.mediator.batch.PoseOutcome` per query
        (in input order); a refused query is *captured* in its outcome —
        exactly as final as the exception ``pose()`` would have raised,
        and charged identically — instead of aborting the queries behind
        it.

        Equivalence contract: each query runs the full ``pose()``
        pipeline — admission (sequence guard, probe bookkeeping, static
        gate), dispatch, settlement (history entry, journal record,
        budget accounting, per-query events and explain ledger) — as a
        strict per-query loop in input order, so guards that read the
        history observe exactly the prefix a looped caller would have
        written.  What the batch *shares* is pure recomputation:
        MAXLOSS-independent analyzer and source-pipeline stages and
        integration of identical response sets.  See
        :mod:`repro.mediator.batch` and ``docs/performance.md``.
        """
        return list(self.pose_stream(
            queries, requester=requester, role=role, subjects=subjects,
            emergency=emergency, use_warehouse=use_warehouse,
        ))

    def pose_stream(self, queries, requester="anonymous", role=None,
                    subjects=(), emergency=False, use_warehouse=True):
        """Lazy :meth:`pose_many`: yields each outcome as it settles.

        Queries are admitted, charged, and recorded only as the iterator
        is consumed — abandoning the iterator abandons the unposed tail
        without side effects.
        """
        self._ensure_schema()
        # One trace id for the whole batch: every pose's root span (and
        # everything restored from it — fan-out attempts, WAL appends)
        # carries it, so the batch reads as one trace end to end.
        batch = BatchContext(
            trace=TraceContext.ensure(self.telemetry.tracer)
        )
        try:
            for query in queries:
                if isinstance(query, str):
                    query = parse_piql(query)
                try:
                    result = self._pose_wrapped(
                        query, requester, role, subjects, emergency,
                        use_warehouse, batch=batch,
                    )
                except ReproError as error:
                    yield PoseOutcome(query, requester, error=error)
                else:
                    yield PoseOutcome(query, requester, result=result)
        finally:
            release_memos(batch.shared)

    def _pose_wrapped(self, query, requester, role, subjects, emergency,
                      use_warehouse, batch=None):
        """The ``pose()`` body; ``batch`` enables pose_many sharing."""
        self._ensure_schema()
        if isinstance(query, str):
            query = parse_piql(query)
        if not isinstance(query, PiqlQuery):
            raise IntegrationError("pose needs PIQL text or a PiqlQuery")

        telemetry = self.telemetry
        # Tier-1 fingerprint: canonical text + principal + policy epoch.
        # Hoisted out of the pipeline body so a refused pose settles
        # under the same identity as an answered one.  The ledger keeps
        # the posed text, rendered alongside the canonical one.
        canonical, posed = canonical_render(query)
        policy_epoch = self._policy_epoch()
        fingerprint = plan_fingerprint(canonical, requester, role,
                                       subjects, policy_epoch)
        event_mark = telemetry.events.mark()
        # Batched poses share the batch's trace id; a lone pose mints
        # its own (inside Span._push).  The id rides the span stack to
        # fan-out workers and is stamped into the pose record.
        batch_trace = (batch.trace.trace_id
                       if batch is not None and batch.trace is not None
                       else None)
        # One plan memo per source for this pose (the batch's, across a
        # pose_many): whichever of the static gate and the source
        # compiles a source's plan first, the other reuses it.
        memos = batch.shared if batch is not None else defaultdict(dict)
        try:
            # ``warehouse``: the mode of the answer tier serving the pose
            with telemetry.span(
                "mediator.pose", trace_id=batch_trace, requester=requester,
                warehouse=self.warehouse.mode if use_warehouse else None,
            ) as span:
                result, history = self._pose(
                    query, requester, role, subjects, emergency,
                    use_warehouse, canonical, fingerprint, policy_epoch,
                    batch, memos,
                )
        except ReproError as error:
            # Only a sequence-guard refusal charges history (see _pose).
            PoseRecord.of(
                query, requester, fingerprint, span,
                getattr(error, "history", None), error=error,
            ).settle(self, span, event_mark, posed, role)
            raise
        finally:
            if batch is None:
                release_memos(memos)
        PoseRecord.of(
            query, requester, fingerprint, span, history, result=result,
        ).settle(self, span, event_mark, posed, role)
        return result

    def _pose(self, query, requester, role, subjects, emergency,
              use_warehouse, canonical, fingerprint, policy_epoch, batch,
              memos):
        """The ``pose()`` pipeline body (refusals propagate to the caller).

        Returns ``(result, history)``: the integrated result and the
        logged form of the history entry the pose charged.

        The mediation cache accelerates this path but never shortens the
        accounting around it: the sequence guard runs, and the history
        records, on *every* pose — a cached answer is charged exactly
        like a fresh one.  Caching never bypasses auditing (see
        ``docs/performance.md``).
        """
        telemetry = self.telemetry
        cache = self.cache

        with telemetry.span("mediator.fragment") as span:
            if cache is not None:
                plan, plan_hit = cache.plan_for(
                    canonical, lambda: self.fragmenter.fragment(query)
                )
                span.set(plan=plan, cached=plan_hit)
            else:
                plan = self.fragmenter.fragment(query)
                span.set(plan=plan)
        attributes = sorted(set(plan.mediated_names.values()))
        signature = self._predicate_signature(query)

        with telemetry.span("mediator.sequence_guard",
                            requester=requester) as guard:
            try:
                self._sequence_guard.check(
                    requester, attributes, signature, query.is_aggregate
                )
            except AuditRefusal as refusal:
                # The one refusal that charges history: its entry rides
                # the refusal to the settle step.
                refusal.history = self.history.record(
                    requester, attributes, signature, query.is_aggregate,
                    refused=True,
                ).to_dict()
                raise

        # Probe bookkeeping sits between the guard check and the epoch
        # snapshot: a *novel* aggregate probe advances the requester's
        # epoch first, so the entry stored below carries the post-advance
        # vector — valid for exact repeats, dead on the next novel probe.
        # The fingerprint (computed in ``pose()``) is also the warehouse
        # key when the cache is disabled — unlike the old ad-hoc
        # ``requester|role|text`` string it includes subjects, so two
        # subject sets can no longer collide on one entry.
        epochs = None
        if cache is not None:
            cache.note_probe(requester, attributes, signature,
                             query.is_aggregate)
            epochs = cache.epoch_vector(policy_epoch, requester)
            # the vector this admitted pose is served under, for the ledger
            guard.set(epochs=epochs)

        # RBAC on every pose, where the gate would check it: the static
        # and answer tiers serve by fingerprint, and no grant is in it.
        for name in plan.sources:
            remote = self.sources[name]
            if getattr(remote, "rbac", None) is not None:
                remote.check_access(plan.fragments[name], requester, role,
                                    subjects, memo=memos[name])

        if self.static_analyzer is not None:
            self._static_gate(query, plan, requester, role, subjects,
                              fingerprint, memos)

        if use_warehouse:
            with telemetry.span("mediator.warehouse") as span:
                result, stats = self.warehouse.answer(
                    fingerprint,
                    lambda: self._compute(
                        query, plan, requester, role, subjects, batch, memos,
                    ),
                    n_sources=len(plan.sources),
                    emergency=emergency,
                    epochs=epochs,
                )
                span.set(from_cache=stats.from_cache,
                         staleness=stats.staleness,
                         source_calls=stats.source_calls)
        else:
            result = self._compute(
                query, plan, requester, role, subjects, batch, memos,
            )

        entry = self.history.record(
            requester, attributes, signature, query.is_aggregate
        )
        telemetry.metrics.gauge("mediator.history_entries").set(
            len(self.history)
        )
        return result, entry.to_dict()

    def analyze(self, query, requester="anonymous", role=None, subjects=()):
        """Statically check a query without executing it.

        Fragments ``query`` and runs the plan analyzer
        (:class:`repro.analysis.plancheck.PlanAnalyzer`) over the
        registered sources.  Nothing is dispatched, no history is
        recorded, and the sequence guard is not consulted.  Returns a
        :class:`~repro.analysis.plancheck.PlanVerdict`.
        """
        self._ensure_schema()
        if isinstance(query, str):
            query = parse_piql(query)
        if not isinstance(query, PiqlQuery):
            raise IntegrationError("analyze needs PIQL text or a PiqlQuery")
        analyzer = self.static_analyzer or resolve_static_check(True)
        plan = self.fragmenter.fragment(query)
        return analyzer.analyze(
            query, plan, self.sources,
            requester=requester, role=role, subjects=subjects,
        )

    # -- internals -----------------------------------------------------------

    def _static_gate(self, query, plan, requester, role, subjects,
                     fingerprint, memos=None):
        """Run the pre-dispatch plan analyzer; raise on a REFUSE verdict.

        A ``REFUSE`` is raised with the same exception type — and a
        message containing the same per-source reasons — that the
        runtime path would eventually produce, so callers and tests see
        one refusal contract regardless of where it was decided; the
        ledger reads the per-source refusals off the verdict, in the
        runtime path's shape.  Tier 2 memoizes the verdict on the
        fingerprint: a cached REFUSE replays the identical ledger
        entries and raises the identical message
        (sound because refusals are final and the fingerprint pins the
        policy epoch the verdict was decided under).
        """
        telemetry = self.telemetry
        cache = self.cache

        def analyze():
            return self.static_analyzer.analyze(
                query, plan, self.sources,
                requester=requester, role=role, subjects=subjects,
                memos=memos,
            )

        with telemetry.span("mediator.static_check",
                            n_sources=len(plan.sources)) as span:
            if cache is not None:
                verdict, cached = cache.static_verdict(fingerprint, analyze)
            else:
                verdict, cached = analyze(), False
            span.set(verdict=verdict.verdict, cached=cached,
                     plan_verdict=verdict)
        metrics = telemetry.metrics
        metrics.counter(
            f"mediator.static.{verdict.verdict.lower()}"
        ).inc()
        if not cached:
            # a replayed verdict would re-observe a stale timing
            metrics.histogram("mediator.static.analysis_ms").observe(
                verdict.analysis_ms
            )
        if verdict.verdict != REFUSE:
            return
        # Dispatch is skipped entirely: account for the saved fan-out.
        metrics.counter("mediator.static.saved_source_calls").inc(
            len(plan.sources)
        )
        raise PrivacyViolation(verdict.reason)

    def _compute(self, query, plan, requester, role, subjects, batch=None,
                 memos=None):
        telemetry = self.telemetry

        def call(source_name):
            return self.sources[source_name].answer(
                plan.fragments[source_name],
                requester=requester, role=role, subjects=subjects,
                shared=None if memos is None else memos[source_name],
            )

        dispatcher = self.dispatcher
        with telemetry.span(
            "mediator.fanout",
            mode=dispatcher.policy.describe(), n_sources=len(plan.sources),
        ) as span:
            outcome_set = dispatcher.dispatch(
                plan.sources, call, enforce=False,
                blocking=[name for name in plan.sources
                          if can_block(self.sources[name])],
            )
            span.set(answered=len(outcome_set.responses),
                     retries=outcome_set.total_retries,
                     wall_ms=outcome_set.wall_ms,
                     executor=outcome_set.mode,
                     outcomes=outcome_set.outcomes)
            self._record_dispatch(outcome_set, telemetry.metrics)
            # Enforced after the outcomes are on the span, so a failed
            # quorum still leaves them in explain_last().
            dispatcher.enforce_partial(outcome_set)

        responses = outcome_set.responses
        budgets = {
            name: response.rewrite.loss_budget
            for name, response in responses.items()
        }
        # Unreachable sources ride along with refusals so the integrated
        # result (and error messages) account for every planned source.
        refused = dict(outcome_set.refused)
        refused.update(outcome_set.unavailable)

        if not responses:
            detail = "; ".join(
                f"{s}: {r}" for s, r in sorted(refused.items())
            )
            if outcome_set.unavailable and not outcome_set.refused:
                raise SourceUnavailable(
                    f"no relevant source could be reached: {detail}"
                )
            raise PrivacyViolation(
                f"every relevant source refused the query: {detail}"
            )

        with telemetry.span("mediator.integrate", n_sources=len(responses)):
            rows, per_source_loss, duplicates = self._integrate(
                responses, plan, query.is_aggregate, batch
            )
        with telemetry.span("mediator.privacy_control") as span:
            kept_rows, aggregated, notices = self.control.verify(
                rows, per_source_loss, budgets
            )
            span.set(per_source_loss=per_source_loss,
                     aggregated_loss=aggregated, max_loss=query.max_loss,
                     notices=notices)
        if aggregated > query.max_loss + 1e-9:
            # repro-lint: disable=REP010 -- the refusal quotes the
            # requester's own MAXLOSS and the compound-loss aggregate
            # that exceeded it; both are accounting quantities, not
            # cells (tainted by tuple-return granularity).
            raise PrivacyViolation(
                f"aggregated privacy loss {aggregated:.3f} exceeds the "
                f"requester's MAXLOSS {query.max_loss:.3f}"
            )
        return IntegratedResult(
            kept_rows, per_source_loss, aggregated, notices, refused,
            duplicates,
        )

    def _integrate(self, responses, plan, is_aggregate, batch=None):
        """Integrate, with per-batch memoization of identical response sets.

        Integration is a pure function of the exact response documents
        and the plan's mediated-name mapping — the Bloom-filter dedup is
        deterministic and ``untag_results`` builds fresh row dicts —
        so a batch whose MAXLOSS variants produced the *same* documents
        (shared through the sources' per-pose memos) can reuse the
        integrated rows.  Every query still gets its own row-dict
        copies, keeping results independently mutable, and the privacy
        control + MAXLOSS check downstream run per query regardless.
        """
        if batch is None:
            return self.integrator.integrate(responses, plan, is_aggregate)
        key = (
            tuple(sorted(plan.mediated_names.items())),
            is_aggregate,
            tuple((name, id(responses[name].document))
                  for name in sorted(responses)),
        )
        cached = batch.integrate_memo.get(key)
        if cached is None:
            cached = batch.integrate_memo[key] = self.integrator.integrate(
                responses, plan, is_aggregate
            )
            # Pin the documents behind the key's ids for the batch's
            # lifetime so a recycled id can never alias a dead document.
            batch.retained.extend(
                responses[name].document for name in sorted(responses)
            )
        rows, per_source_loss, duplicates = cached
        return [dict(row) for row in rows], dict(per_source_loss), duplicates

    def _record_dispatch(self, outcome_set, metrics):
        """Fold fan-out outcomes into the metrics."""
        for outcome in outcome_set.outcomes.values():
            if outcome.status == "refused":
                metrics.counter("mediator.source_refusals").inc()
            elif outcome.status != "answered":
                metrics.counter("mediator.fanout.unavailable").inc()
            metrics.histogram("mediator.fanout.source_wall_ms").observe(
                outcome.wall_ms
            )
        faults = [f for o in outcome_set.outcomes.values() for f in o.faults]
        if outcome_set.total_retries:
            metrics.counter("mediator.fanout.retries").inc(
                outcome_set.total_retries
            )
        timeouts = sum(1 for f in faults if f == FAULT_DEADLINE)
        if timeouts:
            metrics.counter("mediator.fanout.timeouts").inc(timeouts)
        transients = sum(1 for f in faults if f == FAULT_TRANSIENT)
        if transients:
            metrics.counter("mediator.fanout.transients").inc(transients)
        metrics.histogram("mediator.fanout.wall_ms").observe(
            outcome_set.wall_ms
        )

    def _policy_epoch(self):
        """The policy epoch: the sum of per-source policy-store versions.

        Replica stores advance only through their own ``register_*``
        calls, so the sum advances whenever any source's policy state
        does — and a changed epoch changes every fingerprint, making all
        older cached artifacts unreachable.  Sources without a versioned
        store (duck-typed test doubles) contribute nothing.
        """
        total = 0
        for source in self.sources.values():
            store = getattr(source, "policy_store", None)
            version = getattr(store, "version", 0)
            if isinstance(version, int):
                total += version
        return total

    def _predicate_signature(self, query):
        return " AND ".join(
            sorted(repr(p) for p in query.where)
        ) or "<none>"

    def _ensure_schema(self):
        if self.schema is None:
            self.build_schema()

    def __repr__(self):
        return f"MediationEngine(sources={sorted(self.sources)})"
