"""Entropy primitives, exact type combinatorics, typicality windows."""

import math

import numpy as np
import pytest

from guesswork import (
    BinaryReport,
    BoundaryTypes,
    CensusResult,
    ClampedOptimum,
    ConvergencePoint,
    DistributionError,
    ExactGuessTable,
    FiniteKExponents,
    GrainError,
    GrowthExponents,
    GuessBlock,
    LetterDistribution,
    SandwichBounds,
    ScgfModel,
    Source,
    SourceKind,
    TypeSpaceTooLargeError,
    TypeVector,
    binary_closed_forms,
    boundary_types,
    build_guess_table,
    clamped_optimum,
    conditioned,
    cross_entropy,
    enumerate_types,
    finite_k_exponents,
    is_typical_type,
    moment_sandwich,
    num_types,
    scgf_model,
    shannon_entropy,
    type_count,
    typical_set_census,
    typical_window,
    unconditioned,
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


# One instance per record class, for a law index i in (0, 1): the two
# differ in at least one field, and every defaulted field holds its default.
_LAWS = (LetterDistribution((0.7, 0.3)), LetterDistribution((0.8, 0.2)))
RECORDS = {
    LetterDistribution: lambda i: _LAWS[i],
    TypeVector: lambda i: TypeVector(_LAWS[i].probs),
    BinaryReport: lambda i: binary_closed_forms(_LAWS[i].probs[0], 0.05),
    Source: lambda i: unconditioned(_LAWS[i]),
    ScgfModel: lambda i: scgf_model(conditioned(_LAWS[i], 0.05)),
    GrowthExponents: lambda i: scgf_model(conditioned(_LAWS[i], 0.05)).exponents(),
    GuessBlock: lambda i: build_guess_table(unconditioned(_LAWS[i]), 4).blocks[1],
    ExactGuessTable: lambda i: build_guess_table(unconditioned(_LAWS[i]), 4),
    CensusResult: lambda i: typical_set_census(_LAWS[i], 0.05, 12),
    FiniteKExponents: lambda i: finite_k_exponents(conditioned(_LAWS[i], 0.05), 12),
    SandwichBounds: lambda i: moment_sandwich(conditioned(_LAWS[i], 0.05), 12, 1.0),
    ConvergencePoint: lambda i: ConvergencePoint(12, 0.5 + i, 0.25),
    BoundaryTypes: lambda i: boundary_types(_LAWS[i], 0.05),
    ClampedOptimum: lambda i: clamped_optimum(_LAWS[i], 0.05, 1.0),
}
IDENTITY_EQ = (ExactGuessTable, CensusResult)  # ndarray fields: equal to themselves alone
# fields that __post_init__ refuses, by position
INVALID = {
    LetterDistribution: [((0.5, 0.6),), ((1.0,),)],
    TypeVector: [((0.5, 0.6),), ((0.5, 0.5), 3), ((0.5, 0.5), 0)],
    Source: [(SourceKind.UNCONDITIONED, (0.7, 0.3), 0.05), (SourceKind.CONDITIONED, (0.7, 0.3)),
             (SourceKind.CONDITIONED, (0.7, 0.3), 0.0)],
}


def _same(xs, ys) -> bool:
    """Field tuples alike: each pair the same object or, for non-arrays, equal."""
    return all(x is y or (not isinstance(x, np.ndarray) and x == y) for x, y in zip(xs, ys))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_frozen_value_classes(cls, monkeypatch):
    a, b = RECORDS[cls](0), RECORDS[cls](1)
    names = tuple(cls.__annotations__)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    values = tuple(getattr(a, name) for name in names)
    assert type(a) is cls and not _same(values, (getattr(b, name) for name in names))
    assert repr(a) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"

    # by position, by name, with the defaults
    required = len(names) - len(defaults)
    assert all(getattr(a, name) == value for name, value in defaults.items())
    for c in (cls(*values), cls(**dict(zip(names, values))), cls(*values[:required]),
              cls(*values[:1], **dict(zip(names[1:required], values[1:required])))):
        assert _same((getattr(c, name) for name in names), values)
        assert list(vars(c)) == list(names)
    with pytest.raises(TypeError, match="missing field"):
        cls(*values[: required - 1])
    with pytest.raises(TypeError, match="no field"):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError, match="by position and by name"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match="takes"):
        cls(*values, None)

    # frozen
    for name in (*names, "no_such_field"):
        with pytest.raises(AttributeError, match="frozen record"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match="frozen record"):
            delattr(a, name)
    assert all(getattr(a, name) is value for name, value in zip(names, values))

    # equal, and hashing alike, exactly when the fields are equal; identity for ndarray fields
    again = cls(*values)
    assert a == a and a != b and not a == b and a != values
    if cls in IDENTITY_EQ:
        assert a != again and len({a, again, b}) == 3
    else:
        assert a == again and hash(a) == hash(again) == hash(values)
        assert len({a, again, b}) == 2

    for bad in INVALID.get(cls, ()):
        with pytest.raises((DistributionError, GrainError)):
            cls(*bad)
    if cls in INVALID:  # __post_init__ is looked up per call, so a wrapper set later runs
        post_init, calls = cls.__post_init__, []
        monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(post_init(self)))
        cls(*values)
        assert calls == [None]
    if cls is ExactGuessTable:
        assert a.blocks is a.blocks and "blocks" in vars(a)
