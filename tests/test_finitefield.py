import random

import pytest

from thetaparam.errors import DomainError
from thetaparam.finitefield import (
    DegreeTooLarge,
    NotPrime,
    ZeroInput,
    _mulmod,
    _poly_divmod,
    _powmod,
    fq_canonical_nonsquare,
    fq_embedding,
    fq_is_square,
    fq_make,
    fq_multiplicative_generator,
    fq_norm1_generator,
    fq_sqrt,
    is_prime,
)


def multiplicative_order(x) -> int:
    """The least k >= 1 with x^k = 1, by repeated multiplication."""
    k, y = 1, x
    while y != x.field.one():
        k, y = k + 1, y * x
    return k


def test_fq_make_prime_field_degenerate_modulus():
    f3 = fq_make(3, 1)
    assert f3.modulus == (0, 1)  # the class of x, i.e. the prime field itself
    assert f3.order == 3


def test_fq_make_f9_group_order():
    f9 = fq_make(3, 2)
    nonzero = [x for x in f9.elements() if not x.is_zero()]
    assert len(nonzero) == 8
    g = fq_multiplicative_generator(f9)
    assert multiplicative_order(g) == 8


def test_fq_make_f25_generator_order_by_enumeration():
    f25 = fq_make(5, 2)
    g = fq_multiplicative_generator(f25)
    seen = set()
    cur = f25.one()
    for _ in range(24):
        cur = cur * g
        seen.add(cur.coeffs)
    assert len(seen) == 24


def test_fq_make_rejections():
    with pytest.raises(NotPrime):
        fq_make(9, 1)
    with pytest.raises(NotPrime):
        fq_make(2, 3)
    with pytest.raises(DegreeTooLarge):
        fq_make(7, 8)  # 7^8 exceeds the default bound


def test_fq_make_deterministic():
    assert fq_make(5, 3).modulus == fq_make(5, 3).modulus
    assert fq_make(3, 4) is fq_make(3, 4)


def test_is_square_examples():
    f5 = fq_make(5, 1)
    assert fq_is_square(f5.one())
    assert not fq_is_square(f5.element([2]))
    assert fq_is_square(f5.element([-1]))  # 2^2 = 4 = -1 mod 5
    with pytest.raises(ZeroInput):
        fq_is_square(f5.zero())


def test_is_square_multiplicative():
    rng = random.Random(0)
    for (p, f) in [(3, 2), (5, 2), (7, 1)]:
        k = fq_make(p, f)
        elems = [x for x in k.elements() if not x.is_zero()]
        for _ in range(200):
            x, y = rng.choice(elems), rng.choice(elems)
            sx = 1 if fq_is_square(x) else -1
            sy = 1 if fq_is_square(y) else -1
            sxy = 1 if fq_is_square(x * y) else -1
            assert sxy == sx * sy


def test_norm1_generator_orders():
    assert multiplicative_order(fq_norm1_generator(fq_make(3, 1), 1)) == 4
    assert multiplicative_order(fq_norm1_generator(fq_make(5, 1), 1)) == 6
    g = fq_norm1_generator(fq_make(3, 1), 2)
    assert multiplicative_order(g) == 10
    # norm to F_9 via the explicit product of conjugates g * g^{q^m}
    assert g * g**9 == g.field.one()


def test_norm1_generator_norm_is_one_by_enumeration():
    base = fq_make(3, 1)
    g = fq_norm1_generator(base, 2)
    field = g.field
    kernel = {x.coeffs for x in field.elements() if not x.is_zero() and x * x**9 == field.one()}
    powers = set()
    cur = field.one()
    for _ in range(10):
        powers.add(cur.coeffs)
        cur = cur * g
    assert powers == kernel


def test_embedding_is_ring_hom_and_frobenius_compatible():
    rng = random.Random(1)
    for (a, b) in [(1, 2), (2, 4), (1, 3), (2, 6), (3, 6)]:
        src, tgt = fq_make(3, a), fq_make(3, b)
        emb = fq_embedding(src, tgt)
        elems = list(src.elements())
        for _ in range(50):
            x, y = rng.choice(elems), rng.choice(elems)
            assert emb.apply(x + y) == emb.apply(x) + emb.apply(y)
            assert emb.apply(x * y) == emb.apply(x) * emb.apply(y)
            assert emb.apply(x**3) == emb.apply(x) ** 3
        assert emb.apply(src.one()) == tgt.one()


def test_embedding_pullback_roundtrip():
    src, tgt = fq_make(5, 2), fq_make(5, 4)
    emb = fq_embedding(src, tgt)
    for x in src.elements():
        assert emb.pullback(emb.apply(x)) == x


def test_sqrt():
    for (p, f) in [(3, 2), (5, 1), (5, 2), (7, 2)]:
        k = fq_make(p, f)
        for x in k.elements():
            if x.is_zero() or not fq_is_square(x):
                continue
            s = fq_sqrt(x)
            assert s * s == x


def test_canonical_nonsquare():
    for (p, f) in [(3, 1), (5, 1), (7, 1), (5, 2)]:
        k = fq_make(p, f)
        u = fq_canonical_nonsquare(k)
        assert not fq_is_square(u)


def test_norm1_generator_size_bound():
    from thetaparam.finitefield import FieldTooLarge

    with pytest.raises(FieldTooLarge):
        fq_norm1_generator(fq_make(7, 1), 4)  # F_{7^8} exceeds the bound


def test_mulmod_matches_schoolbook_product_and_reduction():
    # reference: the full product reduced coefficient-wise, then by the monic modulus
    rng = random.Random(5)
    for p in (3, 5, 7):
        for d in (1, 2, 3, 4):
            modulus = fq_make(p, d).modulus
            for n in (p, p**5):
                for _ in range(20):
                    a = tuple(rng.randrange(n) for _ in range(d))
                    b = tuple(rng.randrange(n) for _ in range(d))
                    prod = [0] * (2 * d - 1)
                    for i in range(d):
                        for j in range(d):
                            prod[i + j] = (prod[i + j] + a[i] * b[j]) % n
                    red = _poly_divmod(prod, modulus, n)[1]
                    assert _mulmod(a, b, modulus, n) == red + (0,) * (d - len(red))
                    e = rng.randrange(12)
                    power = (1,) + (0,) * (d - 1)
                    for _ in range(e):
                        power = _mulmod(power, a, modulus, n)
                    assert _powmod(a, e, modulus, n) == power


def test_is_prime_equals_a_sieve_below_10000():
    sieve = [False, False] + [True] * 9998
    for n in range(2, 100):
        if sieve[n]:
            sieve[n * n :: n] = [False] * len(sieve[n * n :: n])
    assert [is_prime(n) for n in range(-3, 10_000)] == [False] * 3 + sieve


def _fields_up_to_729():
    """Every F_{p^f}, p odd, with p^f <= 729."""
    for p in range(3, 730):
        if is_prime(p):
            f = 1
            while p**f <= 729:
                yield fq_make(p, f)
                f += 1


def _checked_elements():
    """Every nonzero element of the fields above, then 2,000 seeded nonzero
    elements of F_5^8."""
    for k in _fields_up_to_729():
        yield from (x for x in k.elements() if not x.is_zero())
    rng = random.Random(808)
    k = fq_make(5, 8)
    for _ in range(2000):
        x = k.element([rng.randrange(5) for _ in range(8)])
        if x.is_zero():
            x = k.one()
        yield x


def _power(x, e):
    """x^e, by the integer pow on a prime field (the same value, faster)."""
    k = x.field
    return k.element([pow(x.coeffs[0], e, k.p)]) if k.f == 1 else x**e


def test_inverse_equals_fermat_power():
    seen = 0
    for x in _checked_elements():
        assert x.inverse() == _power(x, x.field.order - 2)
        seen += 1
    assert seen > 44000
    for k in (fq_make(3, 1), fq_make(5, 8)):
        with pytest.raises(ZeroInput):
            k.zero().inverse()


def test_is_square_equals_euler_criterion():
    squares = 0
    for x in _checked_elements():
        euler = _power(x, (x.field.order - 1) // 2) == x.field.one()
        assert fq_is_square(x) == euler
        squares += euler
    assert 20000 < squares < 25000
    with pytest.raises(ZeroInput):
        fq_is_square(fq_make(5, 8).zero())


def test_pullback_inverts_apply_and_rejects_the_rest():
    for (p, a, b) in [(5, 2, 4), (3, 2, 6), (3, 3, 6), (7, 1, 2), (5, 2, 2)]:
        emb = fq_embedding(fq_make(p, a), fq_make(p, b))
        image = {emb.apply(x): x for x in emb.source.elements()}
        assert len(image) == p**a
        for y in emb.target.elements():
            if y in image:
                assert emb.pullback(y) == image[y]
            else:
                with pytest.raises(DomainError):
                    emb.pullback(y)
