"""Run the adversary zoo against the defense matrix and score it.

``run_adversary`` builds a fresh zoo deployment, lets one adversary
attack it through the real ``pose()`` path, and scores the resulting
:class:`~repro.validation.adversaries.AdversaryView` with the validation
metrics; ``run_matrix`` repeats that for every adversary × defense
ablation.  Each run's summary is stamped onto the explain ledger of the
adversary's last pose (its ``validation`` attribute) and emitted as a
``validation.scored`` event, so the observatory's exporters see not just
what was *charged* but what the adversary could actually *measure*.

The composite headline is ``residual_risk``: the mean of the
re-identification risk and the average per-cell disclosure score, where
a cell scores 1.0 when recovered exactly, decays linearly with point
error or feasible-interval width over ``DISCLOSURE_SCALE``, and scores
0.0 when the release said nothing about it.  Every defense in the zoo
strictly lowers it — that is the matrix test's core assertion.
"""

from __future__ import annotations

from repro.inference.bounds import AggregateConstraints
from repro.telemetry import redact
from repro.validation.adversaries import (
    EXACT_TOLERANCE,
    MEASURES,
    ZooDefenses,
    build_zoo_system,
    default_adversaries,
    zoo_population,
    zoo_publication,
    zoo_truth,
)
from repro.validation.api import summarize, validate
from repro.validation.api import report as render_report

#: Full marks for a cell pinned exactly; zero once the point error (or
#: the feasibility interval width) reaches this many units.
DISCLOSURE_SCALE = 10.0

QUASI_IDENTIFIERS = ("age", "zip")


class ZooOutcome:
    """One scored adversary run."""

    def __init__(self, adversary, defenses, results, view, cell_scores,
                 alerts):
        self.adversary = adversary
        self.defenses = defenses
        self.results = list(results)
        self.view = view
        self.cell_scores = dict(cell_scores)
        self.alerts = list(alerts)
        self.summary = summarize(self.results)
        disclosure = (
            sum(cell_scores.values()) / len(cell_scores)
            if cell_scores else 0.0
        )
        reid = next(
            (r.value for r in self.results
             if r.metric == "reidentification_risk"), 0.0,
        )
        self.cell_disclosure = disclosure
        self.residual_risk = (reid + disclosure) / 2.0

    def to_dict(self):
        return {
            "adversary": self.adversary,
            "defenses": self.defenses.to_dict(),
            "label": self.defenses.label,
            "summary": self.summary,
            "cell_disclosure": self.cell_disclosure,
            "residual_risk": self.residual_risk,
            "view": self.view.to_dict(),
            "alerts": len(self.alerts),
        }

    def report(self, path=None):
        """The full validation report for this run (deterministic JSON)."""
        return render_report(self.results, path=path)

    def __repr__(self):
        return (
            f"ZooOutcome({self.adversary!r}, {self.defenses.label!r}, "
            f"residual_risk={self.residual_risk:.3f})"
        )


def adversary_constraints(view, defenses):
    """The inference problem this adversary can state, as constraints.

    Columns the adversary pinned exactly (a priori knowledge or
    lossless composition) become ``known_columns``; perturbed or biased
    estimates do not — asserting them as exact would contradict the
    publication and void the bound problem.  The constraint span is the
    publication's: a guarded release that never mentions HMO4 yields no
    constraint on HMO4 at all.
    """
    publication = zoo_publication(defenses)
    sources = list(publication["sources"])
    known = {}
    for j, source in enumerate(sources):
        if source in view.known_columns:
            known[j] = [float(v) for v in view.known_columns[source]]
        elif source in view.exact_sources:
            known[j] = [
                float(view.recovered[(measure, source)])
                for measure in MEASURES
            ]
    column_means = {
        j: float(publication["source_means"][source])
        for j, source in enumerate(sources)
        if source in publication["source_means"]
    }
    stds = publication["row_stds"]
    constraints = AggregateConstraints(
        n_rows=len(MEASURES),
        n_cols=len(sources),
        known_columns=known,
        row_means=[float(v) for v in publication["row_means"]],
        row_stds=None if stds is None else [float(v) for v in stds],
        column_means=column_means,
        value_range=view.value_range,
        tolerance=publication["tolerance"],
    )
    return constraints, sources


def cell_disclosure_scores(truth, view, tightness_detail, column_sources):
    """Per-cell disclosure in [0, 1] over the whole confidential matrix.

    Each cell takes the best the adversary achieved: exact recovery
    scores 1.0, a point estimate decays linearly with its error, a
    feasibility interval decays with its width, and a cell the release
    never touched scores 0.0.
    """
    intervals = {}
    if tightness_detail and not tightness_detail.get("infeasible"):
        for key, (low, high) in tightness_detail.get("intervals",
                                                     {}).items():
            i, j = (int(part) for part in key.split(","))
            intervals[(MEASURES[i], column_sources[j])] = (low, high)
    scores = {}
    for cell, actual in truth.items():
        best = 0.0
        if cell in view.recovered:
            error = abs(float(view.recovered[cell]) - float(actual))
            if error <= EXACT_TOLERANCE:
                best = 1.0
            else:
                best = max(0.0, 1.0 - error / DISCLOSURE_SCALE)
        if cell in intervals:
            low, high = intervals[cell]
            best = max(best, max(0.0, 1.0 - (high - low) / DISCLOSURE_SCALE))
        scores[cell] = best
    return scores


def score_view(view, truth, defenses, original_rows, starts=2):
    """Score one adversary view with the validation metrics.

    Returns ``(results, cell_scores)`` — the typed metric results and
    the per-cell disclosure map the composite is built from.
    """
    results = [
        validate(view.record_rows, original_rows, metric,
                 quasi_identifiers=QUASI_IDENTIFIERS)
        for metric in ("reidentification_risk", "uniqueness",
                       "ambiguity", "non_uniform_entropy")
    ]
    results.append(
        validate(view.recovered, truth, "reconstruction_error",
                 tolerance=EXACT_TOLERANCE)
    )
    constraints, column_sources = adversary_constraints(view, defenses)
    tightness = validate(constraints, {
        (i, j): truth[(MEASURES[i], column_sources[j])]
        for i in range(len(MEASURES))
        for j in range(len(column_sources))
    }, "interval_tightness", starts=starts)
    results.append(tightness)
    cell_scores = cell_disclosure_scores(
        truth, view, tightness.detail, column_sources,
    )
    return results, cell_scores


def run_adversary(adversary, defenses=None, seed=0, starts=2,
                  system=None):
    """One adversary against one defense configuration, scored.

    Builds a fresh deployment (unless ``system`` is supplied), runs the
    adversary, scores the take, stamps the summary onto the explain
    ledger of the adversary's last pose, and emits a
    ``validation.scored`` event.
    """
    defenses = defenses or ZooDefenses()
    if system is None:
        system = build_zoo_system(defenses, seed=seed)
    truth = zoo_truth()
    view = adversary.run(system, defenses)
    results, cell_scores = score_view(
        view, truth, defenses, zoo_population(), starts=starts,
    )
    outcome = ZooOutcome(
        adversary.name, defenses, results, view, cell_scores,
        system.observatory.alerts if system.observatory else [],
    )
    ledger = system.explain_last()
    if ledger is not None:
        stamped = dict(outcome.summary)
        stamped["composite"] = {
            "residual_risk": outcome.residual_risk,
            "cell_disclosure": outcome.cell_disclosure,
        }
        ledger.validation = stamped
    # The outcome object keeps exact scores for reports and the matrix;
    # the telemetry *event* generalizes them — a residual-risk score is
    # a statement about the confidential ground truth, and the event log
    # is a side channel the disclosure ledger never accounts for.
    system.telemetry.events.emit(
        "validation.scored",
        adversary=adversary.name,
        defenses=defenses.label,
        residual_risk=redact.bucket(outcome.residual_risk, width=0.05),
        cell_disclosure=redact.bucket(outcome.cell_disclosure, width=0.05),
        refusals=len(view.refusals),
        pooled_budget=view.pooled_budget,
    )
    return outcome


def run_matrix(adversaries=None, defense_names=ZooDefenses.NAMES, seed=0,
               starts=2):
    """The E2E ablation: every adversary × {off, each single defense}.

    Returns ``{adversary: {"none": outcome, defense: outcome, ...}}``.
    The zoo's core claim — measured, not assumed — is that every armed
    defense strictly lowers the adversary's residual risk against its
    own all-off baseline.
    """
    outcomes = {}
    for adversary in (adversaries or default_adversaries()):
        row = {"none": run_adversary(adversary, ZooDefenses(), seed=seed,
                                     starts=starts)}
        for name in defense_names:
            row[name] = run_adversary(
                adversary, ZooDefenses.single(name), seed=seed,
                starts=starts,
            )
        outcomes[adversary.name] = row
    return outcomes


def matrix_table(outcomes):
    """``{adversary: {defense_label: residual_risk}}`` — the docs table."""
    return {
        adversary: {
            label: outcome.residual_risk
            for label, outcome in row.items()
        }
        for adversary, row in outcomes.items()
    }
