"""The PrivateIye system facade.

Owns the authoritative policy store, builds per-source privacy-preserving
query processors around registered data, replicates policies into the
mediation engine (paper §3: policies live at sources *and* mediator), and
exposes querying, schema inspection, and violation notifications.

Observability lives behind the same facade: ``explain_last()`` returns
the newest per-query privacy ledger, ``metrics_snapshot()`` the
deployment-wide counters/gauges/histograms, and ``last_trace()`` the
most recent span tree — all no-ops unless the system was built with
``telemetry=True`` or ``REPRO_TELEMETRY=1`` (see ``docs/observability.md``).
"""

from __future__ import annotations

from repro.errors import IntegrationError, ReproError
from repro.core.session import Session
from repro.mediator.engine import MediationEngine
from repro.mediator.warehouse import Warehouse
from repro.policy.store import PolicyStore
from repro.query.language import parse_piql
from repro.relational.catalog import Catalog
from repro.relational.table import Table
from repro.source.server import RemoteSource


class PrivateIye:
    """A deployable privacy-preserving data integration system."""

    def __init__(self, policy_store=None, linkage_attributes=(),
                 warehouse_mode="hybrid", shared_secret="private-iye",
                 synonyms=None, telemetry=None, dispatch=None,
                 static_check=True, cache=True, events=None,
                 observatory=None, persistence=None,
                 max_distinct_probes=None, seed=None):
        self.policy_store = policy_store or PolicyStore()
        # ``seed``: one deployment-wide noise seed.  Every randomized
        # component (currently the per-source Laplace mechanisms built by
        # ``add_relational_source(noise_epsilon=...)``) draws from an
        # independent child of this SeedSequence, so cross-source call
        # ordering never perturbs any source's stream.  ``None`` keeps
        # OS-entropy noise.
        self.seed = seed
        self._seed_sequence = None
        if seed is not None:
            import numpy as np

            self._seed_sequence = np.random.SeedSequence(seed)
        # ``events``: a JSONL path (async sink), True (ring only), or an
        # EventLog to share.  Asking for an event stream implies enabling
        # telemetry — the stream is one of its instruments.
        if events is not None:
            from repro.telemetry import Telemetry, resolve_events

            if isinstance(telemetry, Telemetry):
                telemetry.events = resolve_events(events)
            else:
                telemetry = Telemetry(enabled=True, events=events)
        engine_kwargs = {}
        if max_distinct_probes is not None:
            engine_kwargs["max_distinct_probes"] = max_distinct_probes
        self.engine = MediationEngine(
            shared_secret=shared_secret,
            linkage_attributes=linkage_attributes,
            synonyms=synonyms,
            warehouse=Warehouse(mode=warehouse_mode),
            telemetry=telemetry,
            dispatch=dispatch,
            static_check=static_check,
            cache=cache,
            observatory=observatory,
            persistence=persistence,
            **engine_kwargs,
        )
        self._sessions = {}

    @property
    def dispatcher(self):
        """The engine's fan-out dispatcher (breakers, dispatch policy).

        Configure at construction: ``PrivateIye(dispatch=DispatchPolicy(
        timeout_s=0.5, partial=("quorum", 2)))``; see
        :mod:`repro.mediator.dispatch`.
        """
        return self.engine.dispatcher

    @property
    def telemetry(self):
        """The deployment-wide :class:`~repro.telemetry.Telemetry`.

        Disabled (no-op) by default; enable with ``PrivateIye(telemetry=
        True)`` or ``REPRO_TELEMETRY=1`` in the environment.
        """
        return self.engine.telemetry

    def spawn_rng(self):
        """An independent noise generator from the system seed.

        Seeded systems hand out successive children of the seed's
        :class:`numpy.random.SeedSequence` — deterministic per spawn
        order, statistically independent of each other.  Unseeded
        systems return ``None`` (components fall back to OS entropy via
        :func:`repro.statdb.laplace.resolve_rng`).
        """
        if self._seed_sequence is None:
            return None
        import numpy as np

        return np.random.default_rng(self._seed_sequence.spawn(1)[0])

    # -- policy management -------------------------------------------------

    def load_policies(self, dsl_text, view_source=None):
        """Load a policy DSL document into the authoritative store."""
        return self.policy_store.load_document(dsl_text, view_source)

    # -- source management ---------------------------------------------------

    def add_relational_source(self, name, table, rbac=None,
                              consent_predicate=None, hierarchies=None,
                              qi_columns=(), output_mechanism=None,
                              knowledge=None, noise_epsilon=None,
                              noise_sensitivity=1.0, noise_budget=None):
        """Wrap ``table`` in a privacy-preserving remote source.

        The source receives a *replica* of the policy store, mirroring the
        paper's two-level enforcement: the source enforces before data
        leaves; the mediator re-verifies after integration.

        ``noise_epsilon`` is a convenience for the common mechanism:
        instead of constructing a ``LaplaceMechanism`` by hand, pass the
        per-query epsilon (plus optional ``noise_sensitivity`` /
        ``noise_budget``) and the source gets one wired to the system
        seed — on a seeded system (``PrivateIye(seed=...)``) each
        source's noise stream is independently derived from that seed
        and fully reproducible.
        """
        if not isinstance(table, Table):
            raise ReproError("add_relational_source needs a Table")
        if noise_epsilon is not None:
            if output_mechanism is not None:
                raise ReproError(
                    "pass either output_mechanism or noise_epsilon, not both"
                )
            from repro.statdb.laplace import LaplaceMechanism

            output_mechanism = LaplaceMechanism(
                noise_epsilon, sensitivity=noise_sensitivity,
                budget=noise_budget, rng=self.spawn_rng(),
            )
        catalog = Catalog(name)
        catalog.add(table)
        remote = RemoteSource(
            name, catalog, table.name, self.policy_store.replicate(),
            rbac=rbac, consent_predicate=consent_predicate,
            hierarchies=hierarchies, qi_columns=qi_columns,
            output_mechanism=output_mechanism, knowledge=knowledge,
            # Shared pseudonym secret: sources emit identical (still
            # irreversible) pseudonyms for identical identities, which is
            # what lets the integrator deduplicate without plaintext.
            pseudonym_secret=self.engine.shared_secret,
        )
        self.engine.register_source(remote)
        return remote

    def add_xml_source(self, name, document, record_path, **kwargs):
        """Wrap a hierarchical (XML) store in a privacy-preserving source.

        ``document`` is an :class:`~repro.xmlkit.node.Element` (or XML
        text); ``record_path`` selects the record nodes (e.g.
        ``//patient``).  Flattening happens once at registration; the §4
        pipeline then treats the source exactly like a relational one.
        """
        from repro.xmlkit.parser import parse_xml

        if isinstance(document, str):
            document = parse_xml(document)
        remote = RemoteSource.from_xml(
            name, document, record_path, self.policy_store.replicate(),
            pseudonym_secret=self.engine.shared_secret, **kwargs,
        )
        self.engine.register_source(remote)
        return remote

    def add_source(self, remote):
        """Register a pre-built :class:`RemoteSource`."""
        if not isinstance(remote, RemoteSource):
            raise ReproError("add_source needs a RemoteSource")
        self.engine.register_source(remote)
        return remote

    def source(self, name):
        """Look up a registered source."""
        if name not in self.engine.sources:
            raise IntegrationError(f"unknown source {name!r}")
        return self.engine.sources[name]

    # -- querying -----------------------------------------------------------

    def session(self, requester, **kwargs):
        """Get or create the requester's :class:`Session`."""
        if requester not in self._sessions:
            self._sessions[requester] = Session(requester, **kwargs)
        return self._sessions[requester]

    def query(self, text, requester="anonymous", role=None, subjects=(),
              emergency=False):
        """Pose a PIQL query and return the integrated result."""
        session = self.session(requester, role=role)
        query = parse_piql(text) if isinstance(text, str) else text
        if query.purpose is None:
            query.purpose = session.default_purpose
        session.queries_posed += 1
        return self.engine.pose(
            query,
            requester=requester,
            role=role or session.role,
            subjects=subjects or session.subjects,
            emergency=emergency,
        )

    def pose_many(self, texts, requester="anonymous", role=None,
                  subjects=(), emergency=False):
        """Pose a whole batch of PIQL queries for one principal, in order.

        Returns one :class:`~repro.mediator.batch.PoseOutcome` per
        query; refusals are captured in their outcome (``outcome.ok``,
        ``outcome.unwrap()``) instead of aborting the batch, and every
        query is guarded, charged, and journaled exactly as ``query()``
        would have — see
        :meth:`~repro.mediator.engine.MediationEngine.pose_many`.
        """
        return list(self.pose_stream(
            texts, requester=requester, role=role, subjects=subjects,
            emergency=emergency,
        ))

    def pose_stream(self, texts, requester="anonymous", role=None,
                    subjects=(), emergency=False):
        """Lazy :meth:`pose_many`: yields outcomes as they settle."""
        session = self.session(requester, role=role)

        def prepared():
            for text in texts:
                query = parse_piql(text) if isinstance(text, str) else text
                if query.purpose is None:
                    query.purpose = session.default_purpose
                session.queries_posed += 1
                yield query

        return self.engine.pose_stream(
            prepared(),
            requester=requester,
            role=role or session.role,
            subjects=subjects or session.subjects,
            emergency=emergency,
        )

    def analyze(self, text, requester="anonymous", role=None, subjects=()):
        """Statically check a query without contacting any source.

        Returns the :class:`~repro.analysis.plancheck.PlanVerdict` —
        ``SAFE`` (no policy can refuse), ``REFUSE`` (guaranteed refusal,
        with the offending source and path), or ``RUNTIME_CHECK`` (the
        remaining data/history-dependent checks are listed).  The same
        analyzer gates every ``query()`` call unless the system was
        built with ``static_check=False``; see ``docs/static_analysis.md``.
        """
        session = self.session(requester, role=role)
        query = parse_piql(text) if isinstance(text, str) else text
        if query.purpose is None:
            query.purpose = session.default_purpose
        return self.engine.analyze(
            query, requester=requester, role=role or session.role,
            subjects=subjects or session.subjects,
        )

    # -- aggregate publication ---------------------------------------------

    def plan_release(self, measure_paths, purpose, requester="_steward",
                     guard=None):
        """Plan the safest informative publication of per-source averages.

        Computes, through the normal privacy-preserving pipeline, the
        average of each ``measure_paths`` entry at every source, then asks
        the :class:`~repro.inference.planner.ReleasePlanner` for the most
        informative release of the measures × sources matrix that no
        participating source can exploit (Figure 1 run defensively).

        Returns ``(chosen ReleasePlan or None, rejected plans)``.
        """
        from repro.errors import PrivacyViolation
        from repro.inference.guard import InferenceGuard
        from repro.inference.planner import ReleasePlanner

        sources = sorted(self.engine.sources)
        measures = [str(path) for path in measure_paths]
        matrix = []
        for path in measure_paths:
            row = {}
            result = self.engine.pose(
                parse_piql(
                    f"SELECT AVG({path}) AS value PURPOSE {purpose}"
                ),
                requester=requester,
                use_warehouse=False,
            )
            for item in result.rows:
                row[item["_source"]] = float(item["value"])
            missing = [s for s in sources if s not in row]
            if missing:
                raise PrivacyViolation(
                    f"sources {missing} refused the measure {path!r}; "
                    "cannot plan a release over all participants"
                )
            matrix.append([row[s] for s in sources])
        planner = ReleasePlanner(
            guard or InferenceGuard(min_interval_width=5.0, starts=2)
        )
        return planner.plan(measures, sources, matrix)

    # -- observability -------------------------------------------------------

    def explain_last(self, requester=None):
        """The privacy ledger of the most recent query (telemetry on).

        Returns an :class:`~repro.telemetry.explain.ExplainReport` covering
        fragmentation, sequence-guard verdict, warehouse hit/miss,
        per-source outcomes (including refusal kinds), and aggregated loss
        vs the requester's MAXLOSS — or ``None`` when telemetry is
        disabled or nothing has been posed yet.
        """
        return self.engine.telemetry.explain_last(requester)

    def metrics_snapshot(self):
        """Plain-dict snapshot of every counter/gauge/histogram.

        Always safe to call; with telemetry disabled the sections are
        simply empty.
        """
        return self.engine.telemetry.metrics_snapshot()

    def last_trace(self):
        """The most recent finished root span (telemetry on), else None."""
        return self.engine.telemetry.tracer.last_root()

    @property
    def observatory(self):
        """The disclosure observatory, or ``None`` when disabled.

        Enable with ``PrivateIye(observatory=True)`` (or pass a shared
        :class:`~repro.observatory.Observatory`); see
        ``docs/observability.md``.
        """
        return self.engine.observatory

    def audit_journal(self):
        """The hash-chained disclosure journal, or ``None`` when disabled.

        Every ``query()`` appends one tamper-evident record (requester,
        plan fingerprint, per-source disclosure, cumulative
        ``1 − Π(1 − loss)``); verify with ``audit_journal().verify_chain()``.
        """
        observatory = self.engine.observatory
        return observatory.journal if observatory is not None else None

    def observatory_report(self):
        """Journal + snooper-watch summary (empty dict when disabled)."""
        observatory = self.engine.observatory
        return observatory.report() if observatory is not None else {}

    # -- durability ----------------------------------------------------------

    @property
    def persistence(self):
        """The write-ahead persistence sink, or ``None`` when disabled.

        Enable with ``PrivateIye(persistence=...)`` — a path (a JSONL
        WAL directory), a backend, or a shared
        :class:`~repro.persistence.PersistenceSink`.  See
        ``docs/persistence.md`` for the durability model and runbook.
        """
        return self.engine.persistence

    def recover(self):
        """Replay the persistence store into this freshly built system.

        Call after rebuilding the deployment (same sources, same
        policies, same ``persistence=`` target) and *before* serving
        queries: it restores the query history, cumulative disclosure
        accounting, the audit journal (re-verifying its sha256 chain
        across the restart boundary), SnooperWatch ledgers, and cache
        epoch floors.  Returns a
        :class:`~repro.persistence.recovery.RecoveryReport`; raises
        :class:`~repro.errors.PersistenceError` on corruption, a chain
        break, or when persistence is disabled.
        """
        from repro.persistence.recovery import recover

        self.engine._ensure_schema()
        return recover(self.engine)

    def events_tail(self, n=20):
        """The newest structured events (empty with telemetry disabled)."""
        return self.engine.telemetry.events_tail(n)

    def cache_stats(self):
        """Per-tier mediation-cache stats plus the epoch counters.

        Tiers ``plan``/``static``/``rewrite`` come from the engine's
        :class:`~repro.cache.mediation.MediationCache` (empty dict when
        the system was built with ``cache=False``); tier ``answer`` is
        the warehouse's epoch-validated store.  Always safe to call —
        stats are tracked even with telemetry disabled.
        """
        engine = self.engine
        stats = engine.cache.stats() if engine.cache is not None else {}
        stats["answer"] = engine.warehouse.store_stats()
        return stats

    # -- inspection ------------------------------------------------------------

    def mediated_schema(self):
        """The mediated schema (built lazily)."""
        self.engine._ensure_schema()
        return self.engine.schema

    def vocabulary(self):
        """Mediated attribute names available to requesters."""
        return self.engine.mediated_vocabulary()

    def notifications(self):
        """Violation notices the privacy control has sent to sources."""
        return list(self.engine.control.notices_sent)

    def history(self, requester=None):
        """The mediator's query history."""
        return self.engine.history.entries(requester)

    def __repr__(self):
        return f"PrivateIye(sources={sorted(self.engine.sources)})"
