"""Core policy vocabulary: purposes, disclosure forms, rules, decisions."""

from __future__ import annotations

import enum
from functools import total_ordering

from repro.errors import PolicyError
from repro.xmlkit.path import PathExpr, parse_path

ANY_PURPOSE = "*"

_DEFAULT_PURPOSES = {
    # child: parent — the default purpose taxonomy used across examples.
    "treatment": "healthcare",
    "payment": "healthcare",
    "research": None,
    "public-health-research": "research",
    "outbreak-surveillance": "public-health-research",
    "drug-discovery": "research",
    "healthcare": None,
    "marketing": None,
    "national-security": None,
    "fraud-detection": "national-security",
}


@total_ordering
class DisclosureForm(enum.Enum):
    """How much a released value reveals, most to least.

    A grant of some form also permits every *less* revealing form: a rule
    allowing RANGE permits range or aggregate or suppressed release, never
    exact values.
    """

    EXACT = 3
    RANGE = 2
    AGGREGATE = 1
    SUPPRESSED = 0

    def permits(self, requested):
        """Whether data granted at this form may be released as ``requested``."""
        return requested.value <= self.value

    def __lt__(self, other):
        if not isinstance(other, DisclosureForm):
            return NotImplemented
        return self.value < other.value

    @classmethod
    def parse(cls, text):
        """Parse a form name (case-insensitive)."""
        try:
            return cls[text.strip().upper()]
        except KeyError as exc:
            raise PolicyError(f"unknown disclosure form {text!r}") from exc


class PurposeTree:
    """A purpose taxonomy with implication (specific ⇒ general).

    ``implies(specific, general)`` is true when ``specific`` equals
    ``general`` or descends from it — a rule allowing *research* is
    satisfied by a request stating *outbreak-surveillance*.
    """

    def __init__(self, parents=None):
        self._parents = dict(_DEFAULT_PURPOSES if parents is None else parents)
        # Bumped by every ``add``: compiled source plans key on it.
        self.version = 0
        for child, parent in self._parents.items():
            if parent is not None and parent not in self._parents:
                raise PolicyError(
                    f"purpose {child!r} has unknown parent {parent!r}"
                )

    def add(self, purpose, parent=None):
        """Register a purpose (optionally under ``parent``)."""
        if purpose in self._parents:
            raise PolicyError(f"purpose {purpose!r} already defined")
        if parent is not None and parent not in self._parents:
            raise PolicyError(f"unknown parent purpose {parent!r}")
        self._parents[purpose] = parent
        self.version += 1

    def known(self, purpose):
        """Whether ``purpose`` is in the taxonomy."""
        return purpose in self._parents

    def implies(self, specific, general):
        """True when a request for ``specific`` satisfies a rule for ``general``."""
        if general == ANY_PURPOSE:
            return True
        if not self.known(specific):
            raise PolicyError(f"unknown purpose {specific!r}")
        if not self.known(general):
            raise PolicyError(f"unknown purpose {general!r}")
        current = specific
        while current is not None:
            if current == general:
                return True
            current = self._parents[current]
        return False

    def ancestors(self, purpose):
        """The chain from ``purpose`` up to its root (inclusive)."""
        if not self.known(purpose):
            raise PolicyError(f"unknown purpose {purpose!r}")
        chain = []
        current = purpose
        while current is not None:
            chain.append(current)
            current = self._parents[current]
        return chain


class PolicyRule:
    """One disclosure rule.

    ``effect`` is ``'allow'`` or ``'deny'``; ``path`` the data it covers;
    ``purpose`` the most general purpose it applies to (``'*'`` = any);
    ``form`` the most revealing permitted form; ``max_loss`` the privacy
    loss budget granted; ``roles`` restricts to requester roles when given.
    """

    def __init__(self, effect, path, purpose=ANY_PURPOSE,
                 form=DisclosureForm.EXACT, max_loss=1.0, roles=None):
        if effect not in ("allow", "deny"):
            raise PolicyError(f"rule effect must be allow/deny, got {effect!r}")
        if isinstance(path, str):
            path = parse_path(path)
        if not isinstance(path, PathExpr):
            raise PolicyError("rule path must be a PathExpr or path string")
        if not isinstance(form, DisclosureForm):
            raise PolicyError("rule form must be a DisclosureForm")
        if not 0.0 <= max_loss <= 1.0:
            raise PolicyError("max_loss must be in [0, 1]")
        self.effect = effect
        self.path = path
        self.purpose = purpose
        self.form = form
        self.max_loss = max_loss
        self.roles = frozenset(roles) if roles else None

    def applies_to(self, path, purpose, purposes, role=None):
        """Whether this rule governs the given request."""
        if not paths_overlap(self.path, path):
            return False
        if self.purpose != ANY_PURPOSE and not purposes.implies(
            purpose, self.purpose
        ):
            return False
        if self.roles is not None and role not in self.roles:
            return False
        return True

    def __repr__(self):
        role_part = f" ROLES {sorted(self.roles)}" if self.roles else ""
        return (
            f"{self.effect.upper()} {self.path!r} FOR {self.purpose} "
            f"FORM {self.form.name.lower()} MAXLOSS {self.max_loss}{role_part}"
        )


class Decision:
    """The outcome of evaluating a request against policies."""

    __slots__ = ("allowed", "form", "max_loss", "reasons")

    def __init__(self, allowed, form=DisclosureForm.SUPPRESSED, max_loss=0.0,
                 reasons=()):
        self.allowed = allowed
        self.form = form
        self.max_loss = max_loss
        self.reasons = list(reasons)

    @classmethod
    def deny(cls, reason):
        """A denial with an explanation."""
        return cls(False, DisclosureForm.SUPPRESSED, 0.0, [reason])

    def __repr__(self):
        if not self.allowed:
            return f"Decision(DENY: {'; '.join(self.reasons)})"
        return (
            f"Decision(ALLOW form={self.form.name.lower()} "
            f"max_loss={self.max_loss})"
        )


def paths_overlap(policy_path, request_path):
    """Whether a policy path governs a requested path.

    Two paths overlap when their final name tests agree (or either is
    ``*``) and the non-wildcard tag names of one appear, in order, within
    the other's — so the policy ``//patient/dob`` covers the request
    ``/clinic/patient/dob`` and the request ``//dob``, but not
    ``//physician/license``.
    """
    tags_a = [s.name for s in policy_path.steps]
    tags_b = [s.name for s in request_path.steps]
    last_a, last_b = tags_a[-1], tags_b[-1]
    if last_a != "*" and last_b != "*" and last_a != last_b:
        return False
    shorter, longer = sorted((tags_a, tags_b), key=len)
    shorter = [t for t in shorter if t != "*"]
    longer = [t for t in longer if t != "*"]
    position = 0
    for tag in shorter:
        try:
            position = longer.index(tag, position) + 1
        except ValueError:
            return False
    return True
