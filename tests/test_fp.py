import re

import numpy as np
import pytest

from medialq.fp import (
    MAX_PRIME,
    Prime,
    count_irreducible_quadratics,
    fp_inv,
    is_irreducible_quadratic,
    prime_power,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def test_prime_accepts_primes():
    for p in SMALL_PRIMES + [31, 101, 32749]:
        assert Prime(p) == p


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 100, -7])
def test_prime_rejects_composites(bad):
    with pytest.raises(ValueError):
        Prime(bad)


def test_prime_cap():
    # 32771 is prime but beyond the supported cap
    assert 32771 > MAX_PRIME
    with pytest.raises(ValueError):
        Prime(32771)


def test_prime_takes_integers_only():
    for bad in (2.5, 7.0, "7", None):
        with pytest.raises(ValueError, match="is not an integer"):
            Prime(bad)

    class Sub(int):
        pass

    for p in (np.int64(7), np.uint8(7), Sub(7)):
        assert Prime(p) == 7 and type(Prime(p)) is Prime
    with pytest.raises(ValueError, match="1 is not a prime"):
        Prime(True)


def test_prime_returns_a_prime_unchanged():
    p = Prime(7)
    assert Prime(p) is p


def test_prime_power_splits_a_prime_power():
    for n, expected in [(2, (2, 1)), (9, (3, 2)), (1024, (2, 10)), (1021, (1021, 1)), (np.int64(125), (5, 3))]:
        p, k = prime_power(n)
        assert (p, k) == expected and type(p) is Prime and type(k) is int


@pytest.mark.parametrize(
    "n, message",
    [
        (0, "0 is not a prime power"),
        (1, "1 is not a prime power"),
        (-9, "-9 is not a prime power"),
        (12, "12 is not a prime power"),
        (10 ** 30 + 1, f"{10 ** 30 + 1} is not a prime power"),  # 101 divides it
        (32771, f"32771 is not a power of a prime within the supported cap {MAX_PRIME}"),
        (32771 ** 4, f"{32771 ** 4} is not a power of a prime within the supported cap {MAX_PRIME}"),
        (2.0, "2.0 is not an integer"),
    ],
)
def test_prime_power_rejects_the_rest(n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        prime_power(n)


def test_fp_inv_identity():
    assert fp_inv(1, 5) == 1


def test_fp_inv_matches_exhaustive_search():
    # independent oracle: scan all candidates for the product-one witness
    assert next(y for y in range(5) if (2 * y) % 5 == 1) == 3
    assert fp_inv(2, 5) == 3
    for p in SMALL_PRIMES:
        for x in range(1, p):
            expected = next(y for y in range(p) if (x * y) % p == 1)
            assert fp_inv(x, p) == expected


def test_fp_inv_zero_rejected():
    with pytest.raises(ValueError, match="not invertible"):
        fp_inv(0, 3)
    with pytest.raises(ValueError):
        fp_inv(10, 5)


def test_fp_inv_involution():
    for p in SMALL_PRIMES:
        for x in range(1, p):
            y = fp_inv(x, p)
            assert (x * y) % p == 1
            assert fp_inv(y, p) == x


def test_irreducible_mod_2_by_substitution():
    # x^2 + x + 1 has no root mod 2: 0^2+0+1 = 1, 1^2+1+1 = 1
    assert (0 * 0 - 1 * 0 - 1) % 2 != 0
    assert (1 * 1 - 1 * 1 - 1) % 2 != 0
    assert is_irreducible_quadratic(1, 1, 2) is True


def test_zero_constant_term_always_reducible():
    for p in SMALL_PRIMES:
        for b in range(p):
            assert is_irreducible_quadratic(0, b, p) is False


def test_irreducible_count_closed_form():
    assert count_irreducible_quadratics(3) == 3
    assert count_irreducible_quadratics(2) == 1
    assert count_irreducible_quadratics(7) == 21
    for p in SMALL_PRIMES:
        assert count_irreducible_quadratics(p) == (p * p - p) // 2


def test_discriminant_cross_check_odd_primes():
    # for odd p, x^2 - bx - a is reducible iff b^2 + 4a is a square mod p
    for p in SMALL_PRIMES[1:]:
        squares = {(x * x) % p for x in range(p)}
        for a in range(p):
            for b in range(p):
                reducible = (b * b + 4 * a) % p in squares
                assert is_irreducible_quadratic(a, b, p) == (not reducible)
