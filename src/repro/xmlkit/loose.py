"""Loosely-structured path matching.

Section 5 of the paper observes that in PRIVATE-IYE the mediated schema may
not reveal the nominal identifier of an attribute — a requester writes
``//patient//dateOfBirth`` while the source calls the element ``dob``.  A
privacy-conscious query language therefore needs *loose* path resolution:
each name test in a requested path is matched against the target source's
element vocabulary using a synonym table plus string similarity over
normalized name tokens, and the path is rewritten with the best candidates.

The same name-scoring machinery is reused by the mediator's
privacy-preserving schema matcher.
"""

from __future__ import annotations

import functools

from repro.errors import PathError
from repro.xmlkit.path import PathExpr, Step, parse_path

_DEFAULT_SYNONYMS = {
    "dob": {"dateofbirth", "birthdate", "birthday", "borndate"},
    "ssn": {"socialsecuritynumber", "socialsecurity"},
    "hmo": {"healthmaintenanceorganization", "healthplan", "insurer"},
    "md": {"physician", "doctor"},
    "rx": {"prescription", "medication", "drug"},
    "dx": {"diagnosis", "disease", "condition"},
    "addr": {"address", "residence"},
    "tel": {"telephone", "phone", "phonenumber"},
    "zip": {"zipcode", "postalcode", "postcode"},
    "id": {"identifier", "code"},
}


def normalize_name(name):
    """Lower-case ``name`` and strip separators (camelCase/snake aware).

    ``dateOfBirth``, ``date_of_birth``, and ``date-of-birth`` all normalize
    to ``dateofbirth``.
    """
    return "".join(ch for ch in name.lower() if ch.isalnum())


def name_tokens(name):
    """Split ``name`` into lower-case word tokens.

    Splits on non-alphanumerics and on camelCase boundaries, so
    ``dateOfBirth`` → ``['date', 'of', 'birth']``.
    """
    words = []
    current = []
    previous = ""
    for ch in name:
        boundary = (not ch.isalnum()) or (ch.isupper() and previous.islower())
        if boundary and current:
            words.append("".join(current).lower())
            current = []
        if ch.isalnum():
            current.append(ch)
        previous = ch
    if current:
        words.append("".join(current).lower())
    return words


def trigram_dice(a, b):
    """Dice coefficient over character trigrams of two normalized names."""
    return _dice(a, b, _trigrams(a), _trigrams(b))


def _dice(a, b, ta, tb):
    if not ta and not tb:
        return 1.0 if a == b else 0.0
    if not ta or not tb:
        return 0.0
    overlap = len(ta & tb)
    return 2.0 * overlap / (len(ta) + len(tb))


def _trigrams(text):
    padded = f"##{text}#"
    return {padded[i:i + 3] for i in range(len(padded) - 2)}


# functools rather than repro.cache: a name's features depend on nothing
# but the name — no epoch can invalidate them.  Every pose scores the same
# deployment vocabularies again, and those hold far fewer than 4096 names.
@functools.lru_cache(maxsize=4096)
def _name_features(name):
    """``(normalized, tokens, trigrams of normalized)`` for ``name``."""
    normalized = normalize_name(name)
    return (normalized, frozenset(name_tokens(name)),
            frozenset(_trigrams(normalized)))


class SynonymTable:
    """A symmetric synonym dictionary over *normalized* names."""

    def __init__(self, entries=None, include_defaults=True):
        self._groups = {}
        # Bumped by every ``add``: compiled source plans key on it.
        self.version = 0
        if include_defaults:
            for key, values in _DEFAULT_SYNONYMS.items():
                self.add(key, *values)
        for key, values in (entries or {}).items():
            self.add(key, *values)

    def add(self, name, *synonyms):
        """Declare every name in ``{name} | synonyms`` mutually synonymous."""
        group = {normalize_name(name)}
        group.update(normalize_name(s) for s in synonyms)
        merged = set(group)
        for member in group:
            merged |= self._groups.get(member, set())
        for member in merged:
            self._groups[member] = merged
        self.version += 1

    def are_synonyms(self, a, b):
        """True when the two (raw) names belong to one synonym group."""
        na, nb = _name_features(a)[0], _name_features(b)[0]
        if na == nb:
            return True
        return nb in self._groups.get(na, ())

    def group_of(self, name):
        """The full normalized synonym group of ``name`` (incl. itself)."""
        normalized = normalize_name(name)
        return set(self._groups.get(normalized, set())) | {normalized}


class LoosePathMatcher:
    """Resolves loosely-specified paths against a source vocabulary."""

    def __init__(self, synonyms=None, threshold=0.55):
        self.synonyms = synonyms or SynonymTable()
        self.threshold = threshold

    def score_name(self, requested, candidate):
        """Similarity in [0, 1] between a requested and a candidate name.

        Exact normalized match and synonym match score 1.0; otherwise the
        score blends trigram Dice on normalized names with token-set
        overlap, which rewards ``dateOfBirth`` vs ``birth_date`` style
        rearrangements.
        """
        na, tokens_a, grams_a = _name_features(requested)
        nb, tokens_b, grams_b = _name_features(candidate)
        if na == nb:
            return 1.0
        # Asked live, never cached: the synonym table is mutable.
        if self.synonyms.are_synonyms(requested, candidate):
            return 1.0
        dice = _dice(na, nb, grams_a, grams_b)
        if tokens_a and tokens_b:
            jaccard = len(tokens_a & tokens_b) / len(tokens_a | tokens_b)
        else:
            jaccard = 0.0
        return max(dice, 0.5 * dice + 0.5 * jaccard)

    def best_match(self, requested, vocabulary):
        """Return ``(best_name, score)`` from ``vocabulary``, or ``(None, 0)``.

        Ties break deterministically by name to keep query plans stable.
        """
        best_name, best_score = None, 0.0
        for candidate in sorted(vocabulary):
            score = self.score_name(requested, candidate)
            if score > best_score:
                best_name, best_score = candidate, score
        if best_score < self.threshold:
            return None, best_score
        return best_name, best_score

    def resolve(self, path, vocabulary):
        """Rewrite ``path`` so every name test uses the source's vocabulary.

        ``path`` may be a :class:`PathExpr` or a string.  Name tests already
        present in the vocabulary (or ``*``) are kept.  Unresolvable steps
        raise :class:`~repro.errors.PathError` listing the offending name,
        since silently dropping a step would change query semantics.
        """
        if isinstance(path, str):
            path = parse_path(path)
        vocabulary = set(vocabulary)
        new_steps = []
        for step in path.steps:
            if step.name == "*" or step.name in vocabulary:
                new_steps.append(step)
                continue
            match, score = self.best_match(step.name, vocabulary)
            if match is None:
                raise PathError(
                    f"cannot resolve step {step.name!r} against source "
                    f"vocabulary (best score {score:.2f} < {self.threshold})"
                )
            new_steps.append(
                Step(step.axis, match, step.predicates, step.is_attribute)
            )
        return PathExpr(new_steps, source_text=path.source_text)
