import pytest
from hypothesis import given
from hypothesis import strategies as st

from fqlab import EvenModulus, NotPrime, is_prime, make_field
from oracles import replace

SMALL_PRIMES = [3, 7, 11, 19, 23, 31]


def test_square_counts_p3():
    F = make_field(3)
    assert F.square_counts == (1, 2, 0)


def test_square_counts_p7():
    F = make_field(7)
    assert F.square_counts == (1, 2, 2, 0, 2, 0, 0)


def test_even_modulus_rejected():
    with pytest.raises(EvenModulus):
        make_field(4)


def test_composite_rejected():
    with pytest.raises(NotPrime):
        make_field(9)
    with pytest.raises(NotPrime):
        make_field(1)


def test_minus_one_square_warns():
    with pytest.warns(UserWarning):
        F = make_field(13)
    assert F.minus_one_is_square


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_count_table_shape(p):
    F = make_field(p)
    c = F.square_counts
    assert c[0] == 1
    assert all(v in (0, 2) for v in c[1:])
    assert sum(c) == p


@pytest.mark.parametrize("p", SMALL_PRIMES + [13, 17, 29])
def test_minus_one_square_iff_1mod4(p):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F = make_field(p)
    assert F.minus_one_is_square == (p % 4 == 1)
    assert (F.square_counts[p - 1] > 0) == (p % 4 == 1)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_square_census(p):
    F = make_field(p)
    squares = {t for t in range(p) if F.square_counts[t]}
    assert squares == {(x * x) % p for x in range(p)}
    assert len(squares) == (p + 1) // 2


def test_is_square_examples(f7, f3):
    assert f7.square_counts[6] == 0
    assert f3.square_counts[0] == 1
    assert f7.square_counts[2] == 2  # 3**2 = 4**2 = 2 mod 7


@given(st.integers(min_value=2, max_value=500))
def test_is_prime_matches_factoring(n):
    assert is_prime(n) == all(n % d for d in range(2, n))


def test_field_equality_and_hash_skip_the_square_table():
    # the table is a function of p, so caches keyed by a field never hash
    # its p entries: a field that has built it equals one that has not
    F = make_field(7)
    assert F.square_counts[2] == 2
    G = replace(F)
    assert "square_counts" in vars(F) and "square_counts" not in vars(G)
    assert F == G and hash(F) == hash(G)
    assert F != make_field(11)
