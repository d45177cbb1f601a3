"""Entropy primitives, exact type combinatorics, typicality windows."""

import math

import pytest

from guesswork import (
    DistributionError,
    GrainError,
    LetterDistribution,
    TypeSpaceTooLargeError,
    TypeVector,
    cross_entropy,
    enumerate_types,
    is_typical_type,
    num_types,
    shannon_entropy,
    type_count,
    typical_window,
)

from laws import kl_divergence, renyi_rate

P = (0.8, 0.2)
H = 0.5004024235381879  # -(0.8 log 0.8 + 0.2 log 0.2)


def test_shannon_entropy_known_values():
    assert shannon_entropy(P) == pytest.approx(H, abs=1e-15)
    assert shannon_entropy((0.5, 0.5)) == pytest.approx(math.log(2.0), abs=1e-15)
    assert shannon_entropy((1.0, 0.0)) == 0.0


def test_cross_entropy_decomposition():
    # cross = shannon + kl is the identity the typicality window leans on
    l = (0.5, 0.5)
    assert kl_divergence(l, P) == pytest.approx(0.2231435513142098, abs=1e-15)
    assert cross_entropy(l, P) == pytest.approx(
        shannon_entropy(l) + kl_divergence(l, P), abs=1e-14
    )
    assert kl_divergence(P, P) == 0.0


def test_support_escape():
    assert math.isinf(cross_entropy((0.5, 0.5), (1.0, 0.0)))
    assert math.isinf(kl_divergence((0.5, 0.5), (1.0, 0.0)))


def test_renyi_rate():
    assert renyi_rate(P, 1.0) == pytest.approx(H, abs=1e-12)
    expected = 2.0 * math.log(math.sqrt(0.8) + math.sqrt(0.2))
    assert renyi_rate(P, 0.5) == pytest.approx(expected, abs=1e-14)
    # nonincreasing in the order
    assert renyi_rate(P, 0.5) >= renyi_rate(P, 1.0) >= renyi_rate(P, 2.0)
    with pytest.raises(ValueError):
        renyi_rate(P, 0.0)


def test_letter_distribution_validation():
    d = LetterDistribution((0.8, 0.2))
    assert d.m == 2
    with pytest.raises(DistributionError):
        LetterDistribution((0.8, 0.3))
    with pytest.raises(DistributionError):
        LetterDistribution((1.1, -0.1))
    with pytest.raises(DistributionError):
        LetterDistribution((1.0,))


def test_type_vector_grain():
    t = TypeVector.from_counts((3, 1))
    assert t.grain == 4
    assert t.freqs == (0.75, 0.25)
    assert t.counts == (3, 1)
    with pytest.raises(GrainError):
        TypeVector((0.3, 0.7), grain=4)  # 0.3 not on the 1/4 lattice
    with pytest.raises(GrainError):
        TypeVector.from_counts((3, 1), k=5)
    with pytest.raises(GrainError):
        TypeVector((0.5, 0.5)).counts


def test_type_count_exact():
    assert type_count(TypeVector.from_counts((2, 2))) == 6
    assert type_count(TypeVector.from_counts((3, 1))) == 4
    assert type_count(TypeVector.from_counts((5, 3, 2))) == 2520
    # huge class sizes stay exact integers
    big = TypeVector.from_counts((600, 400))
    assert type_count(big) == math.comb(1000, 400)


def test_enumerate_types():
    types = list(enumerate_types(4, 2))
    assert len(types) == num_types(4, 2) == 5
    assert [t.counts for t in types] == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
    # completeness: type classes partition the m^k words
    assert sum(type_count(t) for t in enumerate_types(6, 3)) == 3**6
    with pytest.raises(TypeSpaceTooLargeError):
        list(enumerate_types(100, 5, 1000))


def test_typical_window():
    lo, hi = typical_window(P, 0.1)
    assert lo == pytest.approx(H - 0.1, abs=1e-15)
    assert hi == pytest.approx(H + 0.1, abs=1e-15)
    with pytest.raises(DistributionError):
        typical_window(P, 0.0)


def test_is_typical_type():
    # k=10: only the 8-2 split lands in the window
    assert is_typical_type(P, 0.1, TypeVector.from_counts((8, 2)))
    assert not is_typical_type(P, 0.1, TypeVector.from_counts((7, 3)))
    assert not is_typical_type(P, 0.1, TypeVector.from_counts((9, 1)))
    # types outside the support have infinite cost, never typical
    assert not is_typical_type((1.0, 0.0), 0.1, TypeVector.from_counts((5, 5)))


def test_window_edges_count_as_inside():
    # for uniform p every type costs exactly log 2, the window midpoint
    assert is_typical_type((0.5, 0.5), 1e-9, TypeVector.from_counts((7, 3)))


@pytest.mark.parametrize("call, error", [
    (lambda: shannon_entropy(()), DistributionError),  # no letters
    (lambda: TypeVector((1.0,), grain=0), GrainError),  # grain below 1
    (lambda: TypeVector.from_counts((-1, 2)), GrainError),  # a negative count
    (lambda: cross_entropy((0.5, 0.5), (0.2, 0.3, 0.5)), DistributionError),  # two alphabets
], ids=["empty_law", "zero_grain", "negative_count", "alphabet_mismatch"])
def test_entropy_refusals(call, error):
    with pytest.raises(error):
        call()
