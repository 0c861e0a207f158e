"""Unit tests for loose path matching (the //patient//dob problem)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import PathError
from repro.xmlkit import LoosePathMatcher, SynonymTable
from repro.xmlkit.loose import name_tokens, normalize_name, trigram_dice


class TestNormalization:
    def test_normalize_strips_separators(self):
        assert normalize_name("date_of-birth") == "dateofbirth"
        assert normalize_name("dateOfBirth") == "dateofbirth"

    def test_tokens_split_camel_and_snake(self):
        assert name_tokens("dateOfBirth") == ["date", "of", "birth"]
        assert name_tokens("date_of_birth") == ["date", "of", "birth"]
        assert name_tokens("HbA1c") == ["hb", "a1c"]

    def test_trigram_dice_identical(self):
        assert trigram_dice("patient", "patient") == 1.0

    def test_trigram_dice_disjoint(self):
        assert trigram_dice("abc", "xyz") == 0.0


class TestSynonymTable:
    def test_defaults_cover_dob(self):
        table = SynonymTable()
        assert table.are_synonyms("dob", "dateOfBirth")
        assert table.are_synonyms("dateOfBirth", "dob")

    def test_custom_entries_merge_groups(self):
        table = SynonymTable({"cholesterol": {"ldl", "lipid"}})
        assert table.are_synonyms("LDL", "lipid")

    def test_transitive_merge(self):
        table = SynonymTable(include_defaults=False)
        table.add("a", "b")
        table.add("b", "c")
        assert table.are_synonyms("a", "c")

    def test_group_of_contains_self(self):
        table = SynonymTable(include_defaults=False)
        assert table.group_of("solo") == {"solo"}

    def test_non_synonyms(self):
        assert not SynonymTable().are_synonyms("dob", "address")


class TestLooseMatching:
    def test_synonym_resolution(self):
        matcher = LoosePathMatcher()
        resolved = matcher.resolve("//patient//dateOfBirth", {"patient", "dob"})
        assert repr(resolved) == "//patient//dob"

    def test_exact_vocabulary_kept(self):
        matcher = LoosePathMatcher()
        resolved = matcher.resolve("//patient/dob", {"patient", "dob"})
        assert repr(resolved) == "//patient/dob"

    def test_similar_spelling_resolution(self):
        matcher = LoosePathMatcher()
        resolved = matcher.resolve(
            "//patients/diagnosis", {"patient", "diagnoses", "treatment"}
        )
        assert resolved.tag_names() == ["patient", "diagnoses"]

    def test_predicates_preserved(self):
        matcher = LoosePathMatcher()
        resolved = matcher.resolve(
            "//patient[@id='p1']/dateOfBirth", {"patient", "dob"}
        )
        assert repr(resolved) == "//patient[@id='p1']/dob"

    def test_wildcard_steps_kept(self):
        matcher = LoosePathMatcher()
        resolved = matcher.resolve("//patient/*", {"patient"})
        assert repr(resolved) == "//patient/*"

    def test_unresolvable_raises_with_score(self):
        matcher = LoosePathMatcher()
        with pytest.raises(PathError, match="zzqq"):
            matcher.resolve("//zzqq", {"patient", "dob"})

    def test_threshold_controls_acceptance(self):
        lax = LoosePathMatcher(threshold=0.05)
        resolved = lax.resolve("//dxy", {"dxz"})
        assert resolved.tag_names() == ["dxz"]
        strict = LoosePathMatcher(threshold=0.99)
        with pytest.raises(PathError):
            strict.resolve("//dxy", {"dxz"})

    def test_best_match_tie_break_deterministic(self):
        matcher = LoosePathMatcher(threshold=0.0)
        name, _score = matcher.best_match("ab", {"abx", "aby"})
        assert name == "abx"  # lexicographically first among equals

    def test_score_name_symmetric_enough(self):
        matcher = LoosePathMatcher()
        a = matcher.score_name("dateOfBirth", "birth_date")
        b = matcher.score_name("birth_date", "dateOfBirth")
        assert a == pytest.approx(b)
        assert a > 0.3


_name = st.from_regex(r"[a-z][a-zA-Z_]{0,11}", fullmatch=True)


@given(_name, _name)
def test_score_bounds_property(a, b):
    """Scores always lie in [0, 1] and self-similarity is 1."""
    matcher = LoosePathMatcher()
    score = matcher.score_name(a, b)
    assert 0.0 <= score <= 1.0
    assert matcher.score_name(a, a) == 1.0


# -- differential: cached name features vs. the uncached formula -----------

def oracle_score(synonyms, requested, candidate):
    """``score_name`` as computed before name features were cached."""
    if normalize_name(requested) == normalize_name(candidate):
        return 1.0
    if synonyms.are_synonyms(requested, candidate):
        return 1.0
    dice = trigram_dice(normalize_name(requested), normalize_name(candidate))
    tokens_a, tokens_b = set(name_tokens(requested)), set(name_tokens(candidate))
    if tokens_a and tokens_b:
        jaccard = len(tokens_a & tokens_b) / len(tokens_a | tokens_b)
    else:
        jaccard = 0.0
    return max(dice, 0.5 * dice + 0.5 * jaccard)


def oracle_best_match(matcher, requested, vocabulary):
    best_name, best_score = None, 0.0
    for candidate in sorted(vocabulary):
        score = oracle_score(matcher.synonyms, requested, candidate)
        if score > best_score:
            best_name, best_score = candidate, score
    if best_score < matcher.threshold:
        return None, best_score
    return best_name, best_score


def _near_misses(name, rng):
    """Typos, case and separator changes of ``name``."""
    out = {name.upper(), name.replace("_", "-"), name + "s", name[:-1] or name}
    for _ in range(4):
        i = rng.randrange(len(name))
        out.add(name[:i] + rng.choice("aeiouxz_") + name[i + 1:])
        out.add(name[:i] + name[i + 1:] or name)
    return sorted(out)


_STYLED_NAMES = [
    "dateOfBirth", "date_of_birth", "date-of-birth", "birthDate", "DOB",
    "zipCode", "zip_code", "postal-code", "firstName", "first_name", "last",
    "patientId", "patient_id", "HbA1c", "hmo", "healthPlan", "ssn", "addr",
    "phoneNumber", "tel", "rx", "medication", "dx", "diagnosis", "x", "",
]


def _vocabulary_words():
    words = set(_STYLED_NAMES)
    for key, values in SynonymTable()._groups.items():
        words.add(key)
        words.update(values)
    return sorted(words)


def test_score_name_matches_oracle_on_styled_and_synonym_names():
    matcher = LoosePathMatcher()
    rng = random.Random(14)
    words = _vocabulary_words()
    requested = set(words)
    for name in _STYLED_NAMES:
        if name:
            requested.update(_near_misses(name, rng))
    for a in sorted(requested):
        for b in words:
            assert matcher.score_name(a, b) == oracle_score(
                matcher.synonyms, a, b), (a, b)
        assert matcher.best_match(a, words) == oracle_best_match(
            matcher, a, words)


@given(_name, _name)
def test_score_name_matches_oracle_property(a, b):
    matcher = LoosePathMatcher()
    assert matcher.score_name(a, b) == oracle_score(matcher.synonyms, a, b)


def test_synonym_added_after_first_score_is_honoured():
    matcher = LoosePathMatcher()
    before = matcher.score_name("cholesterolLevel", "ldl")
    assert before < 1.0  # the pair's features are now cached
    matcher.synonyms.add("cholesterol_level", "LDL")
    assert matcher.score_name("cholesterolLevel", "ldl") == 1.0
    assert matcher.best_match("cholesterolLevel", {"ldl", "hdl"}) == ("ldl", 1.0)
