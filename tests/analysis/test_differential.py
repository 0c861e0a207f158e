"""Differential property test: static verdicts vs. runtime outcomes.

The analyzer's contract (docs/static_analysis.md):

* ``SAFE``   — the runtime pipeline never *policy-refuses* the query;
* ``REFUSE`` — the runtime pipeline always refuses it;
* ``RUNTIME_CHECK`` — no promise either way (data/history decide).

This test drives both paths over a seeded corpus of generated plans —
record-level and aggregate queries, straight and predicated, across
purposes and MAXLOSS budgets — and holds the agreement to **zero
disagreements over at least 200 analyzed plans** (the PR's acceptance
criterion).  Each query gets a fresh requester so the per-requester
sequence guard never interferes, and the analysis immediately precedes
the execution so both see the same source state.
"""

import random

import pytest

from repro import PrivateIye
from repro.analysis.plancheck import REFUSE, REFUSES, SAFE
from repro.errors import PrivacyViolation, ReproError
from repro.relational import Table
from repro.validation.adversaries import (
    ZooDefenses,
    build_zoo_system,
    default_adversaries,
)

POLICIES = """
VIEW clinic_private {
    PRIVATE //patient/ssn;
    PRIVATE //patient/hba1c FORM aggregate;
}
VIEW lab_private {
    PRIVATE //patient/ssn;
    PRIVATE //patient/hba1c FORM aggregate;
}

POLICY clinic DEFAULT deny {
    DENY //patient/ssn FOR *;
    ALLOW //patient/hba1c FOR public-health-research FORM aggregate MAXLOSS 0.6;
    ALLOW //patient/city FOR research;
    ALLOW //patient/age FOR research;
}

POLICY lab DEFAULT deny {
    DENY //patient/ssn FOR *;
    ALLOW //patient/hba1c FOR public-health-research FORM aggregate MAXLOSS 0.6;
    ALLOW //patient/city FOR research;
    ALLOW //patient/age FOR research;
}
"""

RECORD_SELECTS = [
    "//patient/city",
    "//patient/age",
    "//patient/city, //patient/age",
]
AGGREGATES = [
    "AVG(//patient/hba1c)",
    "SUM(//patient/hba1c)",
    "COUNT(*)",
    "AVG(//patient/age)",
]
PURPOSES = ["research", "marketing", "outbreak-surveillance",
            "public-health-research"]
PREDICATES = [
    None,
    "//patient/age > {}",
    "//patient/age < {}",
    "//patient/city = 'pittsburgh'",
]
MAXLOSSES = [None, 0.01, 0.04, 0.1, 0.3, 0.6, 1.0]


def build_system(**kwargs):
    # runtime leg must be ungated
    system = PrivateIye(static_check=False, **kwargs)
    system.load_policies(
        POLICIES,
        view_source={"clinic_private": "clinic", "lab_private": "lab"},
    )
    clinic_rows = [
        {"ssn": f"1-{i:03d}", "hba1c": 60.0 + i % 25, "age": 30 + i % 40,
         "city": ["pittsburgh", "butler"][i % 2]}
        for i in range(30)
    ]
    lab_rows = [
        {"ssn": f"2-{i:03d}", "hba1c": 65.0 + i % 20, "age": 25 + i % 45,
         "city": ["pittsburgh", "erie"][i % 2]}
        for i in range(20)
    ]
    system.add_relational_source(
        "clinic", Table.from_dicts("patients", clinic_rows)
    )
    system.add_relational_source(
        "lab", Table.from_dicts("patients", lab_rows)
    )
    return system


def generate_query(rng):
    """One seeded PIQL text drawn from the plan space."""
    parts = ["SELECT"]
    if rng.random() < 0.5:
        parts.append(rng.choice(RECORD_SELECTS))
    else:
        parts.append(rng.choice(AGGREGATES))
    predicate = rng.choice(PREDICATES)
    if predicate is not None:
        parts.append("WHERE " + predicate.format(rng.randrange(20, 70)))
    parts.append("PURPOSE " + rng.choice(PURPOSES))
    max_loss = rng.choice(MAXLOSSES)
    if max_loss is not None:
        parts.append(f"MAXLOSS {max_loss}")
    return " ".join(parts)


def runtime_outcome(system, text, requester):
    """'answered' or 'refused' — the privacy verdict of the full pipeline."""
    try:
        system.query(text, requester=requester)
    except PrivacyViolation:
        return "refused"
    return "answered"


def refusal_mismatches(system, text, requester, role=None):
    """Sources the gate marks REFUSES, and those refusing otherwise at runtime.

    Returns ``(n_refusing, mismatches)``: the runtime leg (gate off,
    telemetry on) must refuse each such source with the same exception
    kind and the same reason text, read from its explain ledger.
    """
    try:
        verdict = system.analyze(text, requester=requester, role=role)
    except ReproError:
        return 0, []  # unanswerable plan (no source exports the path)
    expected = {
        name: (outcome.refusal_kind, outcome.refusal_reason)
        for name, outcome in verdict.per_source.items()
        if outcome.status == REFUSES
    }
    if not expected:
        return 0, []
    try:
        system.query(text, requester=requester, role=role)
    except ReproError:
        pass
    ledger = system.explain_last(requester).sources
    mismatches = []
    for name, static in sorted(expected.items()):
        outcome = ledger.get(name, {})
        runtime = (outcome.get("kind"), outcome.get("reason"))
        if outcome.get("outcome") != "refused" or runtime != static:
            mismatches.append((text, name, static, outcome))
    return len(expected), mismatches


def zoo_queries():
    """Every (text, requester, role) the default adversary zoo poses."""
    system = build_zoo_system()
    posed = []
    query = system.query

    def recording(text, requester="anonymous", role=None, **kwargs):
        posed.append((text, requester, role))
        return query(text, requester=requester, role=role, **kwargs)

    system.query = recording
    for adversary in default_adversaries():
        adversary.run(system, ZooDefenses())
    return posed


class TestStaticRuntimeAgreement:
    def test_zero_disagreements_over_seeded_corpus(self):
        system = build_system()
        rng = random.Random(20060406)  # the paper's conference date
        analyzed = 0
        disagreements = []
        for index in range(240):
            text = generate_query(rng)
            requester = f"differ-{index}"
            try:
                verdict = system.analyze(text, requester=requester)
            except ReproError:
                continue  # unanswerable plan (no source exports the path)
            analyzed += 1
            if verdict.verdict not in (SAFE, REFUSE):
                continue  # RUNTIME_CHECK promises nothing; skip execution
            outcome = runtime_outcome(system, text, requester)
            expected = "answered" if verdict.verdict == SAFE else "refused"
            if outcome != expected:
                disagreements.append(
                    (text, verdict.verdict, outcome, verdict.reason)
                )
        assert analyzed >= 200, f"only {analyzed} plans analyzed"
        assert not disagreements, disagreements

    def test_refuse_messages_match_runtime_refusals(self):
        # when both paths refuse, the static reason carries the same
        # per-source detail the runtime exception would
        system = build_system()
        text = "SELECT AVG(//patient/hba1c) PURPOSE marketing"
        verdict = system.analyze(text, requester="m-static")
        assert verdict.verdict == REFUSE
        with pytest.raises(PrivacyViolation) as error:
            system.query(text, requester="m-runtime")
        for name in ("clinic", "lab"):
            assert f"{name}:" in verdict.reason
            assert f"{name}:" in str(error.value)

    def test_static_refusals_are_the_runtime_refusals(self):
        system = build_system(telemetry=True)
        rng = random.Random(20060406)
        refusing, mismatches = 0, []
        for index in range(240):
            n, bad = refusal_mismatches(system, generate_query(rng),
                                        f"same-{index}")
            refusing += n
            mismatches.extend(bad)
        assert refusing >= 100, f"only {refusing} static refusals"
        assert not mismatches, mismatches

    def test_zoo_static_refusals_are_the_runtime_refusals(self):
        # The zoo's own queries, then each with a foreign purpose and a
        # tight MAXLOSS: policy, rewrite and budget refusals alike.
        posed = zoo_queries()
        assert len(posed) >= 40
        system = build_zoo_system()
        system.engine.static_analyzer = None  # runtime leg ungated
        refusing, mismatches = 0, []
        for index, (text, requester, role) in enumerate(posed):
            variants = (
                text,
                text.replace("PURPOSE research", "PURPOSE marketing"),
                text.split(" MAXLOSS")[0] + " MAXLOSS 0.01",
            )
            for k, variant in enumerate(variants):
                n, bad = refusal_mismatches(
                    system, variant, f"{requester}-{index}-{k}", role
                )
                refusing += n
                mismatches.extend(bad)
        assert refusing >= 100, f"only {refusing} static refusals"
        assert not mismatches, mismatches

    def test_safe_never_undersells_loss(self):
        # for a SAFE plan the runtime aggregated loss never exceeds the
        # static worst-case bound
        system = build_system()
        text = "SELECT //patient/city PURPOSE research"
        verdict = system.analyze(text, requester="bound-check")
        assert verdict.verdict == SAFE
        result = system.query(text, requester="bound-check")
        assert result.aggregated_loss <= verdict.aggregated_bound + 1e-9
