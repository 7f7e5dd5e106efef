"""Pair keys and relationship labels.

``PairKey`` names an unordered user pair. A labelled pair's relationship
comes from the two subscribers' ages and genders: the age gap makes it a
peer, parent-child or grandparent-child pair, and its display code (such as
``-Y peers`` or ``M child``) carries the younger user's age bracket and, for
peers, the gender composition. ``demographic_law`` reads a peer or child
code back into the ages and genders that carry it, and ``task_label`` reads
a labelled pair's class on one of the binary ``TASKS``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import ConfigError, DatasetError

if TYPE_CHECKING:
    from .ingest import SubscriberRecord


class PairKey(NamedTuple):
    """Unordered user pair in canonical order (first < second)."""

    first: str
    second: str

    @classmethod
    def of(cls, a: str, b: str) -> "PairKey":
        if a == b:
            raise DatasetError(f"degenerate pair ({a!r}, {a!r})")
        return cls(a, b) if a < b else cls(b, a)


PEER_GAP_YEARS = 20
GRANDPARENT_GAP_YEARS = 40

BRACKETS: tuple[tuple[str, int, int], ...] = (
    ("<18", 0, 17),
    ("Y", 18, 28),
    ("M", 29, 45),
    ("L", 46, 55),
    ("O", 56, 79),
    ("80+", 80, 120),
)


def age_bracket(age: int) -> str:
    for code, lo, hi in BRACKETS:
        if lo <= age <= hi:
            return code
    raise DatasetError(f"age {age} outside 0-120")


class RelationshipLabel(NamedTuple):
    """A pair's display code and the younger user's age."""

    code: str
    younger_age: int


def label_relationship(
    rec_a: SubscriberRecord | None, rec_b: SubscriberRecord | None
) -> RelationshipLabel:
    """Infer the relationship category of a pair from age and gender.

    Age gaps below 20 years make peers, 20-39 a parent-child-like pair,
    40+ a grandparent-child-like pair; the display code carries the gender
    sign for peers and the younger user's age bracket throughout.
    """
    if rec_a is None or rec_b is None:
        raise DatasetError("unlabeled pair: subscriber metadata missing")
    gap = abs(rec_a.age - rec_b.age)
    younger = min(rec_a.age, rec_b.age)
    bracket = age_bracket(younger)
    if gap < PEER_GAP_YEARS:
        sign = "+" if rec_a.gender is rec_b.gender else "-"
        code = f"{sign}{bracket} peers"
    elif gap < GRANDPARENT_GAP_YEARS:
        code = f"{bracket} child"
    else:
        code = f"{bracket} grandchild"
    return RelationshipLabel(code, younger)


def is_opposite_gender_peer_code(code: str) -> bool:
    return code.startswith("-") and code.endswith(" peers")


# The binary tasks: "ogp" tells opposite-gender peers from every other
# relationship, "age35" a younger user under AGE_TASK_CUTOFF from the rest.
TASKS = ("ogp", "age35")
AGE_TASK_CUTOFF = 35


def task_label(code: str, younger_age: int | None, task: str) -> int | None:
    """The 0/1 class on ``task`` of a pair with relationship ``code`` and
    younger user's age ``younger_age``; None for an unlabelled pair (empty
    code) and, on "age35", for a pair without an age."""
    if not code:
        return None
    if task == "ogp":
        return 1 if is_opposite_gender_peer_code(code) else 0
    if task == "age35":
        if younger_age is None:
            return None
        return 1 if younger_age < AGE_TASK_CUTOFF else 0
    raise ConfigError(f"unknown task {task!r}")


def peer_bracket_of_code(code: str) -> str | None:
    """Age bracket of a peer code like ``-Y peers``; None for non-peer codes."""
    if not code.endswith(" peers"):
        return None
    return code[1 : -len(" peers")]


class DemographicLaw(NamedTuple):
    """Inclusive ranges of the younger user's age and the pair's age gap, and
    the gender rule: "opposite", "same" or "random"."""

    younger_ages: tuple[int, int]
    age_gap: tuple[int, int]
    genders: str


def demographic_law(code: str) -> DemographicLaw | None:
    """Ages and genders of the pairs labelled with the peer or child ``code``;
    None for any other code (a grandchild gap has no upper bound)."""
    bracket = peer_bracket_of_code(code)
    if bracket is not None:
        gap = (0, PEER_GAP_YEARS - 1)
        genders = {"-": "opposite", "+": "same"}.get(code[:1])
    elif code.endswith(" child"):
        bracket = code[: -len(" child")]
        gap = (PEER_GAP_YEARS, GRANDPARENT_GAP_YEARS - 1)
        genders = "random"
    else:
        return None
    ages = {b: (lo, hi) for b, lo, hi in BRACKETS}.get(bracket)
    if ages is None or genders is None:
        return None
    return DemographicLaw(ages, gap, genders)


def label_pairs(
    pairs: Iterable[PairKey], subscribers: dict[str, SubscriberRecord]
) -> dict[PairKey, RelationshipLabel]:
    """Labels for every pair with metadata on both sides; others are skipped."""
    labels: dict[PairKey, RelationshipLabel] = {}
    for pair in pairs:
        rec_a = subscribers.get(pair.first)
        rec_b = subscribers.get(pair.second)
        if rec_a is not None and rec_b is not None:
            labels[pair] = label_relationship(rec_a, rec_b)
    return labels
