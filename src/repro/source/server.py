"""The RemoteSource facade — Figure 2(a) end to end.

One :class:`RemoteSource` owns a relational catalog, its policy store, and
the per-source privacy state (query clusterer, sequence auditor, overlap
history).  The pipeline runs in two halves.  :meth:`RemoteSource.prepare`
compiles a fragment for one principal into a :class:`SourcePlan`::

    PIQL fragment
      → Query Transformer            (loose paths → local SelectQuery)
      → policy evaluation            (per-column decisions)
      → Privacy Rewriter             (+ RBAC, + consent row policy)
      → feature extraction           (MAXLOSS-free base, no execution)

and :meth:`RemoteSource.answer` runs the plan::

      → Cluster Matching             (techniques for this query class)
      → Loss Computation             (privacy + information loss)
      → Privacy-aware Optimizer      (plan or refuse on budget)
      → sequence defenses            (set size / audit / overlap)
      → execution                    (mini relational engine)
      → technique application        (k-anonymity, pseudonyms, rounding)
      → XML Transformer + Tagger     (privacy-tagged result document)

The static gate (:mod:`repro.analysis.plancheck`) interprets the same
plan, so one pose compiles each source's plan at most once, and with
the mediation cache on, later poses by any requester reuse it; RBAC,
the one requester-dependent check, runs on every call.

Every stage runs inside a telemetry span (``source.*``) that nests under
the mediator's ``mediator.pose`` span when the engine posed the fragment;
per-source answered/refused counters and latency histograms land in the
shared registry.  All of it is no-op by default (:mod:`repro.telemetry`).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass

from repro.errors import PrivacyViolation, QueryError, ReproError
from repro.crypto.keyed_hash import keyed_hash
from repro.policy.matching import combine, evaluate_request
from repro.query.features import extract_features, features_with_budget
from repro.query.language import piql_without_maxloss
from repro.query.model import PiqlQuery
from repro.relational.engine import execute
from repro.relational.table import Table
from repro.source.clustering import QueryClusterer
from repro.source.knowledge import PreservationKnowledgeBase
from repro.source.loss import PrivacyLossEstimator
from repro.source.optimizer import PrivacyAwareOptimizer
from repro.source.results import tag_results
from repro.source.rewriter import PrivacyRewriter
from repro.source.transformer import PathMapping, QueryTransformer
from repro.statdb.audit import SumAuditor
from repro.statdb.overlap import OverlapController, SetSizeControl
from repro.telemetry import resolve_telemetry
from repro.xmlkit.loose import normalize_name

_IDENTIFIER_COLUMNS = ("id", "ssn", "name", "first", "last")


@dataclass(frozen=True, slots=True)
class SourcePlan:
    """One fragment compiled for one role: Figure 2(a) up to execution.

    Nothing here reads MAXLOSS, the requester, the data or the source's
    history, so the static gate, the source, every MAXLOSS variant and
    every requester with the same role and subjects share one plan;
    RBAC, the one check that reads the requester, runs on every
    :meth:`RemoteSource.prepare` instead.  This is the source's
    published view of the fragment in the sense of Benedikt et al.'s
    view design.
    """

    key: tuple        # see RemoteSource.prepare
    transform: object  # TransformResult: local query, path → column, SQL
    decisions: dict   # column → Decision, most restrictive per column
    rewrite: object   # RewriteResult
    query: object     # the rewritten query with the consent predicate
    features: object  # QueryFeatures; the budget is stamped per query
    labels: tuple     # TaintLabels of the static gate, one per path


class SourceResponse:
    """Everything a source returns for one answered query."""

    def __init__(self, document, privacy_loss, information_loss, plan,
                 cluster, rewrite, sql):
        self.document = document  # tagged XML Element
        self.privacy_loss = privacy_loss
        self.information_loss = information_loss
        self.plan = plan
        self.cluster = cluster
        self.rewrite = rewrite
        self.sql = sql

    def __repr__(self):
        return (
            f"SourceResponse(loss={self.privacy_loss:.3f}, "
            f"plan={self.plan.strategy})"
        )


class RemoteSource:
    """A privacy-preserving remote source."""

    def __init__(
        self,
        name,
        catalog,
        table_name,
        policy_store,
        rbac=None,
        consent_predicate=None,
        hierarchies=None,
        qi_columns=(),
        pseudonym_secret=None,
        matcher=None,
        knowledge=None,
        cluster_radius=0.8,
        telemetry=None,
        output_mechanism=None,
    ):
        self.name = name
        # Replaced with the engine's shared instance at registration
        # unless this source was built with its own enabled telemetry
        # (the setter keeps the rewriter's reference in sync).
        self._telemetry = resolve_telemetry(telemetry)
        self.catalog = catalog
        self.table = catalog.table(table_name)
        self.policy_store = policy_store
        self.rbac = rbac
        self.consent_predicate = consent_predicate
        self.hierarchies = dict(hierarchies or {})
        self.qi_columns = list(qi_columns)
        self.pseudonym_secret = pseudonym_secret or f"pseudo-{name}"
        # Optional output perturbation on aggregate answers (e.g. a
        # LaplaceMechanism).  Noise is drawn per (requester, query
        # fingerprint), so replays return the same perturbed value — no
        # averaging attack — while distinct queries get fresh noise.
        self.output_mechanism = output_mechanism

        mapping = PathMapping(self.table, matcher=matcher)
        self._matcher = mapping.matcher
        self.transformer = QueryTransformer(mapping)
        # The cross-pose SourcePlan tier (see ``prepare``); the engine
        # injects its MediationCache tier at registration.
        self.plan_tier = None
        self.rewriter = PrivacyRewriter(
            rbac, resource_prefix=table_name, telemetry=self.telemetry
        )
        self.clusterer = QueryClusterer(
            knowledge or PreservationKnowledgeBase(), radius=cluster_radius
        )
        self.loss_estimator = PrivacyLossEstimator(
            max(1, len(self.table)), private_columns=self._private_columns()
        )
        self.optimizer = PrivacyAwareOptimizer(max(1, len(self.table)))
        from repro.source.statistics import TableStatistics

        self.statistics = TableStatistics(self.table)

        n = max(1, len(self.table))
        self.auditor = SumAuditor(n)
        self.set_size = SetSizeControl(
            min(5, max(1, n // 4)), n, restrict_complement=False
        )
        self.overlap = None  # opt-in via enable_overlap_control
        self.queries_answered = 0
        self.queries_refused = 0

    @classmethod
    def from_xml(cls, name, document, record_path, policy_store,
                 table_name="records", **kwargs):
        """Build a source over a hierarchical (XML) store.

        The document's record nodes are flattened into a relational table
        (see :mod:`repro.xmlkit.flatten`), after which the full §4
        pipeline applies unchanged — exactly the paper's point about the
        XML data model unifying relational and hierarchical sources.
        """
        from repro.relational.catalog import Catalog
        from repro.xmlkit.flatten import table_from_xml

        table = table_from_xml(document, record_path, table_name)
        catalog = Catalog(name)
        catalog.add(table)
        return cls(name, catalog, table_name, policy_store, **kwargs)

    @property
    def telemetry(self):
        """The telemetry sink this source reports into."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, value):
        self._telemetry = value
        self.rewriter.telemetry = value

    def enable_overlap_control(self, max_overlap):
        """Turn on Dobkin–Jones–Lipton overlap control for aggregates."""
        self.overlap = OverlapController(max_overlap)

    # -- the pipeline --------------------------------------------------------

    def prepare(self, piql, requester=None, role=None, subjects=(),
                memo=None):
        """Compile ``piql`` for one principal into a :class:`SourcePlan`.

        Transform → policy decisions → rewrite → consent fold, plus the
        MAXLOSS-free feature base and the taint labels.  The static gate
        interprets the plan and :meth:`answer` executes it.  Raises
        :class:`~repro.errors.AccessDenied` as :meth:`check_access`
        does, then the compile's refusal if it was refused.  A refusal
        replays as the same exception within one memo.
        """
        outcome = self.check_access(piql, requester, role, subjects, memo)
        if isinstance(outcome, ReproError):
            try:
                # a fresh traceback, or each replay would extend it
                raise outcome.with_traceback(None)
            finally:
                outcome = None  # the traceback holds this frame: no cycle
        return outcome

    def check_access(self, piql, requester=None, role=None, subjects=(),
                     memo=None):
        """RBAC for ``requester`` on the compiled ``piql``.

        Returns the :class:`SourcePlan`, or the compile refusal
        :meth:`prepare` raises, and raises
        :class:`~repro.errors.AccessDenied` when RBAC denies the
        requester.  The compile is keyed on everything it reads except
        the requester: this source, the MAXLOSS-stripped fragment text
        (which includes the purpose), the role, the subjects and the
        versions of the policy store, its purpose tree and the path
        matcher's synonyms.  ``memo`` is the per-pose dict the engine
        keeps for this source (a batch keeps one across its queries), so
        whichever of the engine, the gate and the source compiles first
        serves the others; behind it, ``plan_tier`` (the engine's
        cross-pose :class:`~repro.cache.lru.LRUCache`, None without a
        cache) serves later poses, unless the consent predicate was
        replaced since.

        RBAC is never cached: every call checks the requester against
        the transformed query, after the policy evaluation and before
        any rewrite refusal, where the rewriter itself would.
        """
        key = (self.name, _fragment_text(piql, memo), role, tuple(subjects),
               self.policy_store.version, self.policy_store.purposes.version,
               self._matcher.synonyms.version, self._matcher.threshold)
        entry = None if memo is None else memo.get(key)
        if entry is None:
            tier = self.plan_tier
            if tier is None:
                entry = self._compile(piql, key, role, subjects)
            else:
                entry, _ = tier.memoize(
                    key, lambda: self._compile(piql, key, role, subjects),
                    lambda cached: cached[1] is self.consent_predicate,
                )
                if isinstance(entry[2], ReproError):
                    # raising sets a traceback: never raise the tier's
                    entry = entry[:2] + (copy(entry[2]),)
            if memo is not None:
                memo[key] = entry
        checked, _, outcome = entry
        if checked is not None:
            self.rewriter.check_rbac(checked, requester)
        return outcome

    def _compile(self, piql, key, role, subjects):
        """``(transformed query or None, consent, plan or refusal)``.

        The transformed query is what RBAC checks; it is None when the
        transform or the policy evaluation refused, which the uncached
        pipeline also reports ahead of RBAC; ``consent`` is the consent
        predicate the plan folded in.  A refusal is kept without its
        traceback, which would hold this frame and the tier above it.
        """
        telemetry = self.telemetry
        purpose = piql.purpose or "research"
        consent = self.consent_predicate
        checked = None
        try:
            with telemetry.span("source.transform"):
                transform = self.transformer.transform(piql)
            with telemetry.span("source.policy", purpose=purpose):
                decisions = {}
                for path_repr, column in sorted(
                        transform.column_of_path.items()):
                    decision = evaluate_request(
                        self.policy_store, self.name, path_repr, purpose,
                        role=role, subjects=subjects,
                    )
                    # several paths to one column: most restrictive wins
                    decisions[column] = (
                        combine(decisions[column], decision)
                        if column in decisions else decision
                    )
            checked = transform.query  # RBAC precedes rewrite refusals
            rewrite = self.rewriter.rewrite(checked, decisions)
        except ReproError as error:
            return checked, consent, error.with_traceback(None)
        query = rewrite.query
        if consent is not None:
            query = query.replace(where=query.where.and_(consent))
        from repro.analysis.taint import label_source_query

        view = self.policy_store.view_for(self.name)
        labels = label_source_query(
            self.name, transform.query, transform.column_of_path, decisions
        )
        plan = SourcePlan(key, transform, decisions, rewrite, query,
                          extract_features(piql, view), tuple(labels))
        return checked, consent, plan

    def answer(self, piql, requester=None, role=None, subjects=(),
               shared=None):
        """Answer one PIQL fragment, or raise a privacy/access error.

        The whole per-source pipeline runs inside a ``source.answer``
        span (nested under ``mediator.pose`` when the engine posed the
        fragment); each stage of Figure 2(a) gets a child span.

        ``shared`` is the engine's per-pose memo for this source (one
        dict across a ``pose_many`` batch): :meth:`prepare` keeps its
        plans there, and selectivities and record-level documents keep
        nested tiers.  Everything stateful or per query (cluster
        absorption, the budget check, the sequence defenses, output
        perturbation, the answered/refused counters) runs every time.
        """
        if not isinstance(piql, PiqlQuery):
            raise QueryError("answer needs a PiqlQuery")
        telemetry = self.telemetry
        with telemetry.span("source.answer", source=self.name) as span:
            try:
                response = self._answer(piql, requester, role, subjects,
                                        shared)
            except (PrivacyViolation, ReproError):
                self.queries_refused += 1
                telemetry.metrics.counter(
                    f"source.{self.name}.refused"
                ).inc()
                raise
            self.queries_answered += 1
            telemetry.metrics.counter(f"source.{self.name}.answered").inc()
            telemetry.metrics.histogram("source.answer_ms").observe(
                span.duration_ms
            )
            span.set(privacy_loss=response.privacy_loss,
                     strategy=response.plan.strategy)
        return response

    def _answer(self, piql, requester, role, subjects, shared):
        telemetry = self.telemetry
        plan = self.prepare(piql, requester, role, subjects, memo=shared)
        rewrite, query = plan.rewrite, plan.query

        # Only ``requested_loss_budget`` reads MAXLOSS: it is stamped on
        # the plan's base, so the clusterer sees the exact query vector.
        features = features_with_budget(plan.features, piql.max_loss)
        with telemetry.span("source.cluster_match"):
            cluster = self.clusterer.match(features)
            techniques = cluster.techniques

        # Row-derived values keep nested tiers of their own: the flow
        # analyzer models a dict as one cell, and a row-valued entry
        # beside the plans would smear its label onto every plan read
        # back.
        tiers = {} if shared is None else shared
        # The budget check precedes the sequence defenses: overlap
        # control and the audit trail record every set they pass, and a
        # query refused on budget was never answered.
        with telemetry.span("source.loss_and_plan") as span:
            estimate = self.loss_estimator.estimate(
                rewrite, features, techniques
            )
            # Histogram-based selectivity replaces the optimizer's crude
            # predicate-count heuristic.
            selectivities = tiers.setdefault("selectivity", {})
            selectivity = selectivities.get(plan.key)
            if selectivity is None:
                selectivity = selectivities[plan.key] = max(
                    0.001, self.statistics.selectivity(query.where)
                )
            execution = self.optimizer.plan(
                rewrite, estimate, techniques, max_loss=piql.max_loss,
                selectivity=selectivity,
            )
            span.set(privacy_loss=estimate.privacy_loss,
                     selectivity=selectivity, strategy=execution.strategy)

        if query.is_aggregate:
            # One predicate pass serves the §4 defenses and execution; a
            # projection selects inside ``execute``.
            with telemetry.span("source.sequence_defenses"):
                row_ids = self.table.select(query.where)
                self._sequence_defenses(query, techniques, row_ids)
            document = self._document(query, rewrite, techniques, estimate,
                                      requester, row_ids)
        else:
            # A record-level document is a pure function of the plan, the
            # matched cluster (its technique list is immutable) and the
            # loss stamped into its tags, so MAXLOSS variants in one batch
            # share it; the integrator never mutates it.
            documents = tiers.setdefault("documents", {})
            document_key = (plan.key, id(cluster), estimate.privacy_loss)
            document = documents.get(document_key)
            if document is None:
                document = documents[document_key] = self._document(
                    query, rewrite, techniques, estimate, requester, None
                )
        return SourceResponse(
            document, estimate.privacy_loss, estimate.information_loss,
            execution, cluster, rewrite, plan.transform.sql,
        )

    def _document(self, query, rewrite, techniques, estimate, requester,
                  row_ids):
        """Execute → techniques → tagging: the released document."""
        telemetry = self.telemetry
        with telemetry.span("source.execute"):
            result = execute(query, self.catalog, row_ids=row_ids)
        with telemetry.span("source.techniques") as span:
            result, applied = self._apply_techniques(result, query, techniques)
            if self.output_mechanism is not None and query.is_aggregate:
                result = self._perturb_aggregates(result, query, requester)
            span.set(applied=[t.name for t in applied])

        with telemetry.span("source.tag_results"):
            generalizers = {
                column: self._generalizer(column)
                for column in rewrite.generalized_columns
                if not query.is_aggregate
            }
            return tag_results(
                result, self.name, rewrite.column_forms,
                estimate.privacy_loss, applied, generalizers,
            )

    # -- defenses and techniques ----------------------------------------------

    def _sequence_defenses(self, query, techniques, row_ids):
        """Set size, overlap and audit over an aggregate's query set."""
        names = {t.name for t in techniques}
        query_set = row_ids.tolist()
        if not query_set:
            raise PrivacyViolation(f"{self.name}: empty query set")
        if "set-size-control" in names:
            self.set_size.check(query_set)
        if self.overlap is not None:
            self.overlap.check_and_record(query_set)
        sums_private = any(
            a.func in ("sum", "avg") for a in query.aggregates
        )
        if "audit-trail" in names and sums_private:
            self.auditor.check_and_record(query_set)

    def _apply_techniques(self, result, query, techniques):
        applied = []
        for technique in techniques:
            if technique.name == "suppress-identifiers" and not query.is_aggregate:
                result = self._pseudonymize(result)
                applied.append(technique)
            elif technique.name == "k-anonymize" and not query.is_aggregate:
                anonymized = self._k_anonymize(
                    result, technique.parameters.get("k", 5)
                )
                if anonymized is not None:
                    result = anonymized
                    applied.append(technique)
            elif technique.name == "output-rounding" and query.is_aggregate:
                result = self._round_aggregates(
                    result, query, technique.parameters.get("base", 5.0)
                )
                applied.append(technique)
            elif technique.name in ("set-size-control", "audit-trail"):
                applied.append(technique)  # enforced in _sequence_defenses
        return result, applied

    def _pseudonymize(self, result):
        names = result.schema.column_names()
        identifier_columns = [
            n for n in names
            if any(normalize_name(n) == h or normalize_name(n).endswith(h)
                   for h in _IDENTIFIER_COLUMNS)
        ]
        if not identifier_columns:
            return result
        rows = []
        for row in result.rows_as_dicts():
            for column in identifier_columns:
                value = row[column]
                if value is not None:
                    row[column] = keyed_hash(
                        self.pseudonym_secret, str(value)
                    ).hex()[:12]
            rows.append(row)
        return Table.from_dicts(
            result.schema.name, rows, column_order=names,
            types={c: "text" for c in identifier_columns},
        ) if rows else result

    def _k_anonymize(self, result, k):
        qi_present = [
            c for c in self.qi_columns
            if result.schema.has_column(c)
        ]
        if not qi_present or len(result) < k:
            return None
        from repro.anonymity.mondrian import anonymized_records, mondrian_partition

        rows = list(result.rows_as_dicts())
        numeric = all(
            isinstance(row[c], (int, float)) and not isinstance(row[c], bool)
            for row in rows for c in qi_present
        )
        if not numeric:
            return None
        partitions = mondrian_partition(rows, qi_present, k)
        released = anonymized_records(partitions, qi_present)
        names = result.schema.column_names()
        return Table.from_dicts(
            result.schema.name, released, column_order=names,
            types={c: "text" for c in qi_present},
        )

    def _round_aggregates(self, result, query, base):
        func_of_alias = {a.alias: a.func for a in query.aggregates}
        names = result.schema.column_names()
        rows = []
        for row in result.rows_as_dicts():
            for alias, func in func_of_alias.items():
                value = row.get(alias)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    if func in ("count", "sum"):
                        # Counts/sums: hard base rounding — small counts
                        # are exactly the dangerous ones.
                        row[alias] = round(float(value) / base) * base
                    else:
                        row[alias] = _scale_aware_round(float(value), base)
            rows.append(row)
        if not rows:
            return result
        return Table.from_dicts(
            result.schema.name, rows, column_order=names,
            types={a: "float" for a in func_of_alias},
        )

    def _perturb_aggregates(self, result, query, requester):
        func_of_alias = {a.alias: a.func for a in query.aggregates}
        names = result.schema.column_names()
        group_columns = [c for c in names if c not in func_of_alias]
        rows = []
        for row in result.rows_as_dicts():
            group_key = tuple(row.get(c) for c in group_columns)
            for alias in func_of_alias:
                value = row.get(alias)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    fingerprint = (
                        f"{self.name}:{alias}:{query.where!r}:{group_key!r}"
                    )
                    row[alias] = self.output_mechanism.answer(
                        float(value), fingerprint, requester
                    )
            rows.append(row)
        if not rows:
            return result
        return Table.from_dicts(
            result.schema.name, rows, column_order=names,
            types={a: "float" for a in func_of_alias},
        )

    # -- helpers ---------------------------------------------------------------

    def _private_columns(self):
        view = self.policy_store.view_for(self.name)
        if view is None:
            return set()
        private = set()
        for column in self.table.schema.column_names():
            for path, form in view.entries:
                if normalize_name(path.steps[-1].name) == normalize_name(column):
                    private.add(column)
        return private

    def _generalizer(self, column):
        hierarchy = self.hierarchies.get(column)
        if hierarchy is not None:
            def generalize(value):
                if isinstance(value, str) and value.startswith("["):
                    return value  # already a range label (e.g. k-anonymized)
                return hierarchy.generalize(value, 1)

            return generalize

        def fallback(value):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                low = (float(value) // 10.0) * 10.0
                return f"[{low:g}-{low + 10:g})"
            text = str(value)
            return f"{text[:1]}*" if text else "*"

        return fallback

    def __repr__(self):
        return f"RemoteSource({self.name!r}, rows={len(self.table)})"


def _fragment_text(piql, memo):
    """``piql_without_maxloss(piql)``, rendered once per fragment per memo.

    The gate and the source both prepare each fragment of a pose; the
    memo keeps the text under the fragment object (which it holds, so
    the identity cannot be reused while the pose runs) and the second
    :meth:`RemoteSource.prepare` reads the first one's render.
    """
    if memo is None:
        return piql_without_maxloss(piql)
    texts = memo.setdefault("fragment_text", {})
    text = texts.get(piql)
    if text is None:
        text = texts[piql] = piql_without_maxloss(piql)
    return text


def _scale_aware_round(value, base):
    """Round to ``base``, or to two significant digits for small values.

    A fixed base of 5 is right for percentage-scale aggregates but crushes
    fractional ones (a 0.83 compliance *rate*) to zero; small values keep
    two significant digits instead, which coarsens proportionally.
    """
    import math

    if abs(value) >= 2 * base:
        return round(value / base) * base
    if value == 0:
        return 0.0
    magnitude = math.floor(math.log10(abs(value)))
    factor = 10.0 ** (magnitude - 1)
    return round(value / factor) * factor
