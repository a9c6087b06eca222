"""Phone inventories and broad-phonetic-class (BPC) schemes.

Three ways to group phones into coarse classes:

* ``manner_scheme``  -- how airflow is obstructed (9 classes over the core
  IPA chart; 5 classes for English: vowel, stop, fricative, nasal,
  silence),
* ``place_scheme``   -- where airflow is obstructed (9 classes, English
  inventories only),
* ``cluster_confusion`` -- data-driven grouping by agglomerative
  average-linkage merging of a phone confusion matrix, in exact integer
  arithmetic with cached cluster-pair totals (O(n^2 log n) big-integer
  operations for n phones; 87 phones take tens of milliseconds).

An inventory's language is ``"ipa"`` (the core chart) or ``"en"``
(English); any other raises. The phone table ships as
``data/ipa_table.tsv`` so inventories stay auditable and extensible.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

MANNER_CLASSES = (
    "vowel",
    "plosive",
    "nasal",
    "trill",
    "tap_flap",
    "fricative",
    "lateral_fricative",
    "approximant",
    "lateral_approximant",
)
ENGLISH_MANNER_CLASSES = ("vowel", "stop", "fricative", "nasal", "silence")
ENGLISH_PLACE_CLASSES = (
    "vowel",
    "bilabial",
    "labiodental",
    "dental",
    "alveolar",
    "postalveolar",
    "velar",
    "glottal",
    "silence",
)

SCHEME_SCHEMA = "bpcse-scheme-1"


@dataclass(frozen=True)
class PhoneInventory:
    phones: tuple
    language: str = "ipa"

    def __post_init__(self):
        if not self.phones:
            raise ValueError("inventory must be nonempty")
        if len(set(self.phones)) != len(self.phones):
            raise ValueError("inventory contains duplicate phones")
        if self.language not in ("ipa", "en"):
            raise ValueError(f"inventory language must be 'ipa' or 'en', got {self.language!r}")


@dataclass
class BpcScheme:
    """A total mapping from an inventory's phones to class labels."""

    name: str
    classes: tuple
    mapping: dict

    def __post_init__(self):
        used = set(self.mapping.values())
        if used != set(self.classes):
            raise ValueError(
                f"classes {sorted(self.classes)} do not match mapped labels {sorted(used)}"
            )

    def label_of(self, phone: str) -> str:
        try:
            return self.mapping[phone]
        except KeyError:
            raise ValueError(f"phone {phone!r} not in scheme {self.name!r}") from None

    def to_json(self) -> str:
        doc = {
            "schema": SCHEME_SCHEMA,
            "name": self.name,
            "classes": list(self.classes),
            "mapping": self.mapping,
        }
        return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=1)


@dataclass
class ConfusionMatrix:
    """counts[i, j] = times phone i was recognized as phone j.

    Counts are non-negative integers and each phone appears once.
    """

    phones: tuple
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        n = len(self.phones)
        if len(set(self.phones)) != n:
            dup = next(p for i, p in enumerate(self.phones) if p in self.phones[:i])
            raise ValueError(f"confusion matrix lists phone {dup!r} more than once")
        if not np.issubdtype(self.counts.dtype, np.integer):
            raise ValueError(f"confusion counts must have an integer dtype, got {self.counts.dtype}")
        if self.counts.shape != (n, n):
            raise ValueError(
                f"confusion matrix must be {n}x{n}, got {self.counts.shape}"
            )
        if np.any(self.counts < 0):
            raise ValueError("confusion counts must be non-negative")


@functools.cache
def _load_table():
    """The shipped IPA table as ``{phone: row}``, parsed on the first call; callers only read it."""
    text = resources.files("bpcse").joinpath("data/ipa_table.tsv").read_text("utf-8")
    rows = []
    header = None
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        cells = line.split("\t")
        if header is None:
            header = cells
            continue
        rows.append(dict(zip(header, cells)))
    return {r["phone"]: r for r in rows}


def full_ipa_inventory() -> PhoneInventory:
    """The 87 core-chart phones (pulmonic consonants + vowels)."""
    table = _load_table()
    phones = tuple(p for p, r in table.items() if r["ipa_core"] == "1")
    return PhoneInventory(phones, language="ipa")


def _knowledge_scheme(inv: PhoneInventory, column: str, order, name: str) -> BpcScheme:
    table = _load_table()
    mapping = {}
    for p in inv.phones:
        row = table.get(p)
        if row is None:
            raise ValueError(f"phone {p!r} not in the shipped IPA table")
        label = row[column]
        if label == "-":
            raise ValueError(f"phone {p!r} has no {name} class for language {inv.language!r}")
        mapping[p] = label
    classes = tuple(c for c in order if c in set(mapping.values()))
    return BpcScheme(name, classes, mapping)


def manner_scheme(inv: PhoneInventory) -> BpcScheme:
    """Manner-of-articulation grouping (9-way core chart, 5-way English)."""
    if inv.language == "en":
        return _knowledge_scheme(inv, "english_manner", ENGLISH_MANNER_CLASSES, "manner")
    return _knowledge_scheme(inv, "manner", MANNER_CLASSES, "manner")


def place_scheme(inv: PhoneInventory) -> BpcScheme:
    """Place-of-articulation grouping of an English inventory (9-way)."""
    if inv.language != "en":
        raise ValueError(f"place classes exist for English inventories only, not language {inv.language!r}")
    return _knowledge_scheme(inv, "english_place", ENGLISH_PLACE_CLASSES, "place")


def cluster_confusion(m: ConfusionMatrix, k: int) -> BpcScheme:
    """Agglomerative data-driven grouping of a phone confusion matrix.

    Similarity s(i, j) = counts[i, j] / row_i + counts[j, i] / row_j
    (each row normalized to a distribution, zero rows stay zero). Clusters
    start as singletons; the pair with maximal average inter-cluster
    similarity merges, ties broken by the lexicographically smallest
    (min-phone, min-phone) pair, until exactly ``k`` clusters remain.
    Arithmetic is exact integers, so the result is deterministic and
    invariant to permuting the phone order: similarities are scaled by D, the
    lcm of the nonzero row sums; a merged cluster's pair totals are the sums
    of its parents' cached totals (Lance & Williams 1967); averages compare
    as total * (P // (|a| * |b|)) with P = lcm(1..n)**2, which every size
    product divides; and a heap with lazy deletion picks each merge. For n
    phones that is O(n^2 log n) big-integer operations.
    """
    n = len(m.phones)
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    counts = m.counts.tolist()
    row_sums = [sum(row) for row in counts]
    d = math.lcm(*filter(None, row_sums))
    scale = [d // r if r else 0 for r in row_sums]
    p = math.lcm(*range(1, n + 1)) ** 2
    members = {i: [i] for i in range(n)}
    min_phone = dict(enumerate(m.phones))
    totals = {i: {} for i in range(n)}
    heap = []

    def push(a, b):
        avg = totals[a][b] * (p // (len(members[a]) * len(members[b])))
        heapq.heappush(heap, (-avg, *sorted((min_phone[a], min_phone[b])), a, b))

    for i in range(n):
        for j in range(i + 1, n):
            totals[i][j] = totals[j][i] = counts[i][j] * scale[i] + counts[j][i] * scale[j]
            push(i, j)

    new = n
    while len(members) > k:
        *_, a, b = heapq.heappop(heap)
        if a not in members or b not in members:
            continue  # stale: a or b has merged since this pair was pushed
        members[new] = members.pop(a) + members.pop(b)
        min_phone[new] = min(min_phone[a], min_phone[b])
        totals[new] = {c: totals[c].pop(a) + totals[c].pop(b) for c in members if c != new}
        for c, total in totals[new].items():
            totals[c][new] = total
            push(new, c)
        new += 1

    order = sorted(members, key=min_phone.__getitem__)
    mapping = {m.phones[i]: "grp_" + min_phone[c] for c in order for i in sorted(members[c])}
    return BpcScheme("data", tuple("grp_" + min_phone[c] for c in order), mapping)


def transcript_to_bpc(phones, scheme: BpcScheme):
    """Map a phone transcript to BPC labels, collapsing consecutive repeats."""
    out = []
    for p in phones:
        label = scheme.label_of(p)
        if not out or out[-1] != label:
            out.append(label)
    return out
