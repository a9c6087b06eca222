import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcse import bpc, corpus

# An explicit English inventory: TIMIT-style phones, the semivowel w and silence.
ENGLISH = bpc.PhoneInventory(
    tuple("p b t d k ɡ m n ŋ f v θ ð s z ʃ ʒ h ɹ j l i u ɪ ʊ e o ə ɛ ɜ ʌ ɔ æ ɑ w sil".split()), "en"
)


def cluster_by_pairs(m: bpc.ConfusionMatrix, k: int) -> bpc.BpcScheme:
    """Reference for ``bpc.cluster_confusion``: each merge recomputes every
    cluster pair's average similarity from exact ``Fraction`` similarities."""
    n = len(m.phones)
    row_sums = [int(m.counts[i].sum()) for i in range(n)]
    sim = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            s = Fraction(0)
            if row_sums[i]:
                s += Fraction(int(m.counts[i, j]), row_sums[i])
            if row_sums[j]:
                s += Fraction(int(m.counts[j, i]), row_sums[j])
            sim[i][j] = s

    clusters = [frozenset([i]) for i in range(n)]
    while len(clusters) > k:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                total = sum(sim[i][j] for i in clusters[a] for j in clusters[b])
                avg = Fraction(total, len(clusters[a]) * len(clusters[b]))
                key_pair = tuple(
                    sorted(
                        (
                            min(m.phones[i] for i in clusters[a]),
                            min(m.phones[i] for i in clusters[b]),
                        )
                    )
                )
                if best is None or avg > best[0] or (avg == best[0] and key_pair < best[1]):
                    best = (avg, key_pair, a, b)
        _, _, a, b = best
        merged = clusters[a] | clusters[b]
        clusters = [c for idx, c in enumerate(clusters) if idx not in (a, b)] + [merged]

    clusters.sort(key=lambda c: min(m.phones[i] for i in c))
    mapping = {}
    classes = []
    for c in clusters:
        label = "grp_" + min(m.phones[i] for i in c)
        classes.append(label)
        for i in c:
            mapping[m.phones[i]] = label
    return bpc.BpcScheme("data", tuple(classes), mapping)


class TestInventories:
    def test_core_chart_has_87_phones(self):
        assert len(bpc.full_ipa_inventory().phones) == 87

    def test_no_duplicates(self):
        inv = bpc.full_ipa_inventory()
        assert len(set(inv.phones)) == len(inv.phones)

    @pytest.mark.parametrize("language", ["EN", "english", "", "fr"])
    def test_unknown_language_rejected(self, language):
        with pytest.raises(ValueError, match=f"language must be 'ipa' or 'en', got {language!r}"):
            bpc.PhoneInventory(("p", "s"), language)


class TestMannerScheme:
    def test_definitional_labels(self):
        s = bpc.manner_scheme(bpc.full_ipa_inventory())
        assert s.label_of("m") == "nasal"
        assert s.label_of("s") == "fricative"
        assert s.label_of("r") == "trill"

    def test_full_partition_nine_classes(self):
        inv = bpc.full_ipa_inventory()
        s = bpc.manner_scheme(inv)
        assert set(s.mapping) == set(inv.phones)
        assert s.classes == bpc.MANNER_CLASSES
        for c in s.classes:
            assert any(v == c for v in s.mapping.values())

    def test_english_variant_has_exactly_five_classes(self):
        s = bpc.manner_scheme(ENGLISH)
        assert s.classes == ("vowel", "stop", "fricative", "nasal", "silence")
        assert s.label_of("p") == "stop"
        assert s.label_of("sil") == "silence"

    def test_unknown_phone_rejected(self):
        with pytest.raises(ValueError, match="zz"):
            bpc.manner_scheme(bpc.PhoneInventory(("zz",), "ipa"))


class TestPlaceScheme:
    def test_definitional_labels(self):
        s = bpc.place_scheme(corpus.toy_inventory())
        assert s.label_of("p") == "bilabial"
        assert s.label_of("f") == "labiodental"

    def test_vowels_form_one_class(self):
        inv = corpus.toy_inventory()
        s = bpc.place_scheme(inv)
        m = bpc.manner_scheme(inv)
        vowels = [p for p in inv.phones if m.label_of(p) == "vowel"]
        assert {s.label_of(p) for p in vowels} == {"vowel"}
        non_vowels = [p for p in inv.phones if m.label_of(p) != "vowel"]
        assert "vowel" not in {s.label_of(p) for p in non_vowels}

    def test_english_partition_nine_classes(self):
        s = bpc.place_scheme(ENGLISH)
        assert s.classes == bpc.ENGLISH_PLACE_CLASSES
        assert set(s.mapping) == set(ENGLISH.phones)

    def test_core_chart_inventory_rejected(self):
        with pytest.raises(ValueError, match="English inventories only, not language 'ipa'"):
            bpc.place_scheme(bpc.full_ipa_inventory())


class TestClusterConfusion:
    def test_identity_matrix_keeps_singletons(self):
        phones = ("a", "b", "c", "d")
        m = bpc.ConfusionMatrix(phones, np.eye(4, dtype=int) * 5)
        s = bpc.cluster_confusion(m, k=4)
        assert len(s.classes) == 4
        assert len({s.label_of(p) for p in phones}) == 4

    def test_two_block_hand_trace(self):
        # a<->b and c<->d confuse heavily; cross terms are small.
        # similarities: s(a,b) = 40/100 + 40/100 = 0.8, s(c,d) = 0.8,
        # all cross-block pairs get 10/100 + 10/100 = 0.2.
        # merge 1: tie between {a,b} and {c,d} at 0.8 -> ('a','b') wins lexicographically
        # merge 2: {c},{d} at 0.8 beats avg({a,b},{c}) = 0.2
        phones = ("a", "b", "c", "d")
        counts = np.array(
            [
                [40, 40, 10, 10],
                [40, 40, 10, 10],
                [10, 10, 40, 40],
                [10, 10, 40, 40],
            ]
        )
        s = bpc.cluster_confusion(bpc.ConfusionMatrix(phones, counts), k=2)
        assert s.label_of("a") == s.label_of("b")
        assert s.label_of("c") == s.label_of("d")
        assert s.label_of("a") != s.label_of("c")
        assert s.classes == ("grp_a", "grp_c")

    @given(
        n=st.integers(3, 7),
        k=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_always_k_clusters_and_partition(self, n, k, seed):
        rng = np.random.default_rng(seed)
        phones = tuple(f"p{i}" for i in range(n))
        counts = rng.integers(0, 30, size=(n, n))
        s = bpc.cluster_confusion(bpc.ConfusionMatrix(phones, counts), k=min(k, n))
        assert len(s.classes) == min(k, n)
        assert set(s.mapping) == set(phones)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        phones = tuple(f"p{i}" for i in range(n))
        counts = rng.integers(0, 25, size=(n, n))
        s0 = bpc.cluster_confusion(bpc.ConfusionMatrix(phones, counts), k=3)

        perm = rng.permutation(n)
        phones_p = tuple(phones[i] for i in perm)
        counts_p = counts[np.ix_(perm, perm)]
        s1 = bpc.cluster_confusion(bpc.ConfusionMatrix(phones_p, counts_p), k=3)

        groups0 = {p: s0.label_of(p) for p in phones}
        groups1 = {p: s1.label_of(p) for p in phones}
        assert groups0 == groups1

    def test_k_larger_than_inventory_rejected(self):
        m = bpc.ConfusionMatrix(("a", "b"), np.eye(2, dtype=int))
        with pytest.raises(ValueError):
            bpc.cluster_confusion(m, k=3)

    @pytest.mark.parametrize("k", [1.5, 2.0, True])
    def test_non_integer_k_rejected(self, k):
        m = bpc.ConfusionMatrix(("a", "b", "c"), np.eye(3, dtype=int))
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            bpc.cluster_confusion(m, k=k)

    @given(
        n=st.integers(1, 12),
        high=st.sampled_from([1, 40]),
        zero_row_p=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_pairwise_oracle(self, n, high, zero_row_p, seed):
        rng = np.random.default_rng(seed)
        phones = tuple(f"p{i}" for i in rng.permutation(n))
        counts = rng.integers(0, high + 1, (n, n))
        counts[rng.random(n) < zero_row_p] = 0
        m = bpc.ConfusionMatrix(phones, counts)
        for k in range(1, n + 1):
            assert bpc.cluster_confusion(m, k).to_json() == cluster_by_pairs(m, k).to_json()

    def test_equals_pairwise_oracle_on_87_phones(self):
        # Diagonal-dominant, frequent confusions within a manner class and
        # rare ones across classes: a recognizer-like matrix.
        rng = np.random.default_rng(5)
        inv = bpc.full_ipa_inventory()
        manner = bpc.manner_scheme(inv).mapping
        cls = np.array([manner[p] for p in inv.phones])
        n = len(inv.phones)
        within = rng.integers(0, 40, (n, n))
        across = rng.integers(0, 4, (n, n)) * (rng.random((n, n)) < 0.1)
        counts = np.where(cls[:, None] == cls[None, :], within, across)
        np.fill_diagonal(counts, rng.integers(300, 600, n))
        m = bpc.ConfusionMatrix(inv.phones, counts)
        assert bpc.cluster_confusion(m, 9).to_json() == cluster_by_pairs(m, 9).to_json()


class TestConfusionMatrix:
    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_non_integer_counts_rejected(self, dtype):
        counts = np.array([[0.5, 0.4, 0], [0, 1, 0], [0, 0, 1]]).astype(dtype)
        with pytest.raises(ValueError, match=f"integer dtype, got {np.dtype(dtype)}"):
            bpc.ConfusionMatrix(("a", "b", "c"), counts)

    def test_duplicate_phone_rejected(self):
        with pytest.raises(ValueError, match="phone 'a' more than once"):
            bpc.ConfusionMatrix(("a", "a", "b"), np.eye(3, dtype=int))


class TestTranscriptToBpc:
    def test_merges_duplicates(self):
        s = bpc.manner_scheme(bpc.full_ipa_inventory())
        assert bpc.transcript_to_bpc(["p", "t", "k"], s) == ["plosive"]

    def test_empty(self):
        s = bpc.manner_scheme(bpc.full_ipa_inventory())
        assert bpc.transcript_to_bpc([], s) == []

    def test_three_way(self):
        s = bpc.manner_scheme(bpc.full_ipa_inventory())
        assert bpc.transcript_to_bpc(["m", "a", "s"], s) == ["nasal", "vowel", "fricative"]

    def test_unknown_phone(self):
        s = bpc.manner_scheme(bpc.full_ipa_inventory())
        with pytest.raises(ValueError, match="qq"):
            bpc.transcript_to_bpc(["qq"], s)

    @given(seed=st.integers(0, 5000), length=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_no_adjacent_duplicates(self, seed, length):
        rng = np.random.default_rng(seed)
        s = bpc.manner_scheme(ENGLISH)
        phones = list(rng.choice(ENGLISH.phones, size=length))
        out = bpc.transcript_to_bpc(phones, s)
        assert all(x != y for x, y in zip(out, out[1:]))


class TestSerialization:
    def test_scheme_to_json_fields(self):
        s = bpc.BpcScheme("toy", ("stop", "vowel"), {"p": "stop", "a": "vowel", "t": "stop"})
        assert json.loads(s.to_json()) == {
            "schema": "bpcse-scheme-1",
            "name": "toy",
            "classes": ["stop", "vowel"],
            "mapping": {"p": "stop", "a": "vowel", "t": "stop"},
        }
