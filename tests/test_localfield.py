import random

import pytest

from thetaparam import finitefield
from thetaparam.errors import DomainError
from thetaparam.finitefield import fq_embedding, fq_make
from thetaparam.localfield import (
    STEP_RAMIFIED,
    STEP_UNRAMIFIED,
    SYM_ANTI,
    SYM_FIXED,
    SYM_NONE,
    FieldMismatch,
    LeadingTerm,
    NoQuadraticStep,
    PrecisionExhausted,
    SquareClass,
    base_field,
    canonical_tau,
    factor_field,
    flag_consistent,
    lt_mul,
    lt_neg,
    minus_one_class,
    ring_for,
    tr_add,
    tr_conj,
    tr_lift,
    tr_mul,
    TruncatedElement,
    _make_ring,
    base_coordinates,
)
from thetaparam.oracle import (
    is_norm,
    lt_inv,
    relative_conjugate,
    square_class,
    tr_inv,
    tr_precision,
    tr_sub,
    tr_trace_to_base,
)

import gen
from gen import leading_term, truncated_int, with_sym

BASE5 = base_field(5)
L5U = factor_field(BASE5, 1, STEP_UNRAMIFIED)
L5R = factor_field(BASE5, 1, STEP_RAMIFIED)


def all_leading_units(field, vals=(0, 1)):
    k = field.residue_field()
    for v in vals:
        for r in k.elements():
            if not r.is_zero():
                yield LeadingTerm(field, v, r)


# -- flag algebra and multiplication


def test_lt_mul_flag_algebra():
    tau = canonical_tau(L5U)
    assert lt_mul(tau, tau).sym == SYM_FIXED  # anti * anti
    pw = LeadingTerm(L5U, 1, L5U.residue_field().one(), SYM_FIXED, SYM_FIXED)  # p
    c_theta = lt_mul(lt_mul(tau, tau), pw)
    assert c_theta.sym == SYM_FIXED and c_theta.val == 1
    assert lt_mul(tau, pw).sym == SYM_ANTI  # anti * fixed
    none = with_sym(tau, SYM_NONE)
    assert lt_mul(none, pw).sym == SYM_NONE


def test_lt_mul_c_times_gamma_positive_depth_shape():
    # c (val 0, anti) * gamma (val -3, anti), then negate -> (val -3, fixed)
    gamma = LeadingTerm(L5U, -3, canonical_tau(L5U).residue, SYM_ANTI)
    c = canonical_tau(L5U)
    out = lt_neg(lt_mul(c, gamma))
    assert out.val == -3 and out.sym == SYM_FIXED


def test_lt_mul_field_mismatch():
    with pytest.raises(FieldMismatch):
        lt_mul(canonical_tau(L5U), leading_term(BASE5, 0, [1]))


def test_field_checks_compare_by_identity_then_by_value():
    """FqElement._check, LeadingTerm and lt_mul accept the same field object
    at once and an equal one after comparing fields; a directly built F_25
    with another modulus, or a residue of another field, is still rejected."""
    k = fq_make(5, 2)
    moduli = [(a, b, 1) for a in range(5) for b in range(5) if finitefield._is_irreducible((a, b, 1), 5)]
    other = finitefield.FqDescriptor(5, 2, next(m for m in moduli if m != k.modulus))
    x, y = k.element([1, 2]), other.element([1, 2])
    for op in (lambda: x + y, lambda: x * y, lambda: y + x, lambda: y * x):
        with pytest.raises(DomainError, match="elements of different fields"):
            op()
    twin = finitefield.FqDescriptor(5, 2, k.modulus)
    assert twin is not k and twin.element([3, 4]) + x == k.element([4, 1])
    assert twin.element([3, 4]) * x == k.element([3, 4]) * x
    for residue in (y, fq_make(5, 1).one(), fq_make(7, 2).one()):
        with pytest.raises(FieldMismatch, match="residue lives in the wrong field"):
            LeadingTerm(L5U, 0, residue)
    c = LeadingTerm(L5U, 1, twin.element([3, 4]), SYM_NONE)
    assert lt_mul(c, LeadingTerm(L5U, 0, x)).residue == k.element([3, 4]) * x
    with pytest.raises(FieldMismatch):
        lt_mul(c, LeadingTerm(factor_field(BASE5, 2, STEP_UNRAMIFIED), 0, fq_make(5, 4).one()))


def test_neg_inv():
    a = leading_term(L5U, 2, [3, 1], sym=SYM_NONE)
    assert lt_neg(lt_neg(a)) == a
    inv = lt_inv(a)
    assert inv.val == -2
    prod = lt_mul(a, inv)
    assert prod.val == 0 and prod.residue == L5U.residue_field().one()


# -- relative conjugation


def test_relative_conjugate_fixed_input():
    one = LeadingTerm(L5U, 0, L5U.residue_field().one(), SYM_FIXED, SYM_FIXED)
    assert relative_conjugate(one) == one


def test_relative_conjugate_unramified_frobenius():
    f9 = factor_field(base_field(3), 1, STEP_UNRAMIFIED)
    g = LeadingTerm(f9, 0, f9.residue_field().gen())
    assert relative_conjugate(g).residue == g.residue**3


def test_relative_conjugate_ramified_sign():
    pi_l = LeadingTerm(L5R, 1, L5R.residue_field().one(), SYM_ANTI)
    assert relative_conjugate(pi_l).residue == -pi_l.residue
    unit = leading_term(L5R, 0, [3])
    assert relative_conjugate(unit) == unit


def test_relative_conjugate_involution_and_fixed_points():
    rng = random.Random(3)
    for field in (L5U, L5R, factor_field(base_field(3), 2, STEP_UNRAMIFIED)):
        for lt in all_leading_units(field):
            assert relative_conjugate(relative_conjugate(lt)) == lt
        tau_like = (
            canonical_tau(field)
            if field.step == STEP_UNRAMIFIED
            else LeadingTerm(field, 1, field.residue_field().one(), SYM_ANTI)
        )
        assert flag_consistent(tau_like)
        moved = relative_conjugate(tau_like)
        assert moved == lt_neg(tau_like)


def test_flag_consistent_applies_the_frobenius_without_a_product(monkeypatch):
    """Once the rows of F_{5^8} are cached, the residue test of the fixed
    and anti flags on an unramified step (x -> x^(5^4)) makes no _mulmod
    call: the Frobenius is a matrix over F_5, not a square-and-multiply."""
    field = factor_field(BASE5, 4, STEP_UNRAMIFIED)
    y = field.residue_field().gen()
    fixed = LeadingTerm(field, 0, y * y ** field.relative_residue_size, SYM_FIXED)  # the norm of y
    assert flag_consistent(fixed)
    calls = []
    mulmod = finitefield._mulmod

    def counted(*args):
        calls.append(args)
        return mulmod(*args)

    monkeypatch.setattr(finitefield, "_mulmod", counted)
    assert flag_consistent(fixed)
    assert not flag_consistent(fixed.with_residue(y))
    assert not flag_consistent(LeadingTerm(field, 0, fixed.residue, SYM_ANTI))
    assert calls == []


def test_no_quadratic_step():
    with pytest.raises(NoQuadraticStep):
        relative_conjugate(leading_term(BASE5, 0, [1]))


# -- norms


def enumerate_norm_classes(field, digits=2):
    """Leading-term classes (val_L0 mod 2, residue) of Nm(L^x), by exhaustive
    enumeration of truncated representatives (norm classes are stable under
    scaling by the square of the uniformizer, so val mod 2 suffices)."""
    prec = digits + 3
    ring = ring_for(field, prec)
    p = field.base_p
    d = ring.d
    classes = set()
    span = p ** (d * digits)
    for k in range(span * p ** (digits * (ring.e - 1))):
        m = k
        a = [0] * d
        for j in range(digits):
            for i in range(d):
                a[i] += (m % p) * p**j
                m //= p
        parts = [tuple(a)]
        if ring.e == 2:
            b = [0] * d
            for j in range(digits):
                b[0] += (m % p) * p**j
                m //= p
            parts.append(tuple(b))
        x = TruncatedElement(field, ring, tuple(parts), 0)
        if x.val_or_none() is None:
            continue
        lt = tr_mul(x, tr_conj(x)).leading_term()
        v0 = lt.val // 2 if field.e == 2 else lt.val
        classes.add((v0 % 2, lt.residue.coeffs))
    return classes


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("step", [STEP_UNRAMIFIED, STEP_RAMIFIED])
def test_is_norm_matches_enumeration(p, step):
    field = factor_field(base_field(p), 1, step)
    norm_classes = enumerate_norm_classes(field)
    k = field.residue_field()
    k0 = field.subfield_residue()
    for v0 in (0, 1):
        for r in k0.elements():
            if r.is_zero():
                continue
            if step == STEP_UNRAMIFIED:
                from thetaparam.finitefield import fq_embedding

                res = fq_embedding(k0, k).apply(r)
                lt = LeadingTerm(field, v0, res)
            else:
                lt = LeadingTerm(field, 2 * v0, r)
            expected = (v0 % 2, (lt.residue if step == STEP_UNRAMIFIED else r).coeffs) in norm_classes
            assert is_norm(lt) == expected, (p, step, v0, r)


def test_is_norm_examples():
    # norms are norms: Nm(y) for random truncated y
    rng = random.Random(5)
    for field in (L5U, L5R):
        for _ in range(20):
            prec = 6
            ring = ring_for(field, prec)
            coeffs = tuple(rng.randrange(1, ring.pN) for _ in range(ring.d))
            y = TruncatedElement(field, ring, ring.parts(coeffs), 0)
            v = y.val_or_none()
            if v is None or v > 2:
                continue  # the norm would fall outside working precision
            nm = tr_mul(y, tr_conj(y)).leading_term()
            assert is_norm(LeadingTerm(field, nm.val, nm.residue))
    # unramified: pi has odd valuation, not a norm
    assert not is_norm(LeadingTerm(L5U, 1, L5U.residue_field().one()))
    # ramified: a unit with non-square residue is not a norm
    assert not is_norm(leading_term(L5R, 0, [2]))


def test_no_val0_trace_zero_element_in_ramified_step():
    """Exhaustive check in the truncated model: no unit of L has step trace
    zero when the step is ramified (depth-zero factors must be unramified)."""
    field = factor_field(base_field(3), 1, STEP_RAMIFIED)
    ring = ring_for(field, 4)
    p = 3
    found = False
    for a in range(1, p**2):
        for b in range(p**2):
            x = TruncatedElement(field, ring, ((a,), (b,)), 0)
            if x.val_or_none() != 0:
                continue
            tr = tr_add(x, tr_conj(x))
            if tr.val_or_none() is None:
                found = True  # trace vanishes to working precision
    assert not found


# -- square classes


def test_square_class_examples():
    assert square_class(leading_term(BASE5, 0, [1])).label == "1"
    assert square_class(leading_term(BASE5, 0, [2])).label == "u"
    assert square_class(leading_term(BASE5, 1, [1])).label == "pi"


def test_square_class_homomorphism():
    rng = random.Random(7)
    for p in (3, 5, 7):
        base = base_field(p)
        units = list(all_leading_units(base, vals=(0, 1, 2, 3)))
        for _ in range(100):
            x, y = rng.choice(units), rng.choice(units)
            assert square_class(lt_mul(x, y)) == square_class(x) * square_class(y)


def test_minus_one_class():
    assert minus_one_class(5) == SquareClass(0, 0)
    assert minus_one_class(3) == SquareClass(0, 1)
    assert minus_one_class(7) == SquareClass(0, 1)
    assert minus_one_class(9) == SquareClass(0, 0)


# -- truncated model


def test_leading_term_is_multiplicative_on_random_truncated():
    rng = random.Random(11)
    for field in (L5U, L5R, factor_field(base_field(3), 2, STEP_UNRAMIFIED)):
        ring = ring_for(field, 7)
        for _ in range(60):
            a = TruncatedElement(field, ring, gen.random_parts(ring, rng), 0)
            b = TruncatedElement(field, ring, gen.random_parts(ring, rng), 0)
            if a.val_or_none() is None or b.val_or_none() is None:
                continue
            prod = tr_mul(a, b)
            if prod.val_or_none() is None:
                continue
            la, lb = a.leading_term(), b.leading_term()
            assert prod.leading_term() == with_sym(lt_mul(la, lb), SYM_NONE)


def test_trace_of_anti_element_vanishes():
    tau = tr_lift(canonical_tau(L5U), 6)
    assert tr_add(tau, tr_conj(tau)).val_or_none() is None


def test_norm_of_subfield_element_is_square():
    x = truncated_int(L5U, 7, 6)
    # x lies in L0, so the step norm is x^2
    assert tr_mul(x, tr_conj(x)).leading_term() == tr_mul(x, x).leading_term()


def test_trace_of_one_unramified_quadratic():
    two = tr_trace_to_base(truncated_int(L5U, 1, 6))
    lt = two.leading_term()
    assert lt.val == 0 and lt.residue == L5U.residue_field().element([2])


def test_inverse_and_precision():
    x = truncated_int(L5U, 35, 8)  # val 1
    xi = tr_inv(x)
    prod = tr_mul(x, xi)
    lt = prod.leading_term()
    assert lt.val == 0 and lt.residue == L5U.residue_field().one()
    # certified zero raises on val()
    z = tr_sub(x, x)
    assert z.val_or_none() is None
    with pytest.raises(PrecisionExhausted):
        z.val()


def _lifted_element(field, v, prec, rng):
    """A seeded element of valuation v: the sum of the lifts of a random
    leading term at v and of random digits at v + 1, v + 2, v + 3."""
    k = field.residue_field()
    digits = [k.element([rng.randrange(k.p) for _ in range(k.f)]) for _ in range(4)]
    lt = LeadingTerm(field, v, k.one() if digits[0].is_zero() else digits[0])
    x = tr_lift(lt, prec)
    for j, r in enumerate(digits[1:], 1):
        if not r.is_zero():
            x = tr_add(x, tr_lift(LeadingTerm(field, v + j, r), prec))
    return lt, x


@pytest.mark.parametrize("prec", [6, 9])
def test_inverse_and_lift_on_both_layouts(prec):
    rng = random.Random(41 + prec)
    seen = set()
    for p in (3, 5, 7):
        base = base_field(p)
        fields = [base, factor_field(base, 1, STEP_UNRAMIFIED), factor_field(base, 2, STEP_UNRAMIFIED),
                  factor_field(base, 1, STEP_RAMIFIED), factor_field(base, 2, STEP_RAMIFIED),
                  factor_field(base_field(p, 2), 2, STEP_RAMIFIED)]
        for field in fields:
            e = field.e
            one = truncated_int(field, 1, prec)
            for v in range(-3, 4):
                for _ in range(3):
                    lt, x = _lifted_element(field, v, prec, rng)
                    assert tr_lift(lt, prec).leading_term() == lt
                    assert x.leading_term() == lt
                    xi = tr_inv(x)
                    assert xi.val() == -v
                    prod = tr_mul(x, xi)
                    assert prod.leading_term() == LeadingTerm(field, 0, field.residue_field().one())
                    err = tr_sub(prod, one).val_or_none()
                    assert err is None or err >= tr_precision(one) - 2 * e * abs(v)
                    assert tr_inv(xi).leading_term() == lt
                    seen.add((e, v % 2, v < 0))
    assert len(seen) == 8


def test_sum_precision_is_pessimistic():
    ring = ring_for(L5U, 6)
    a = truncated_int(L5U, 1, 6)
    shifted = tr_mul(a, tr_inv(truncated_int(L5U, 25, 6)))  # shift 2
    s = tr_add(a, shifted)
    assert tr_precision(s) <= tr_precision(shifted)


def _valuation_from_parts(x):
    """val_L from the p-adic valuations of the coefficient parts: part k
    contributes e (v_p - shift) + k unless it vanishes mod p^N."""
    p, cap, e = x.ring.p, x.ring.prec, x.field.e
    cands = []
    for k, part in enumerate(x.parts):
        vp = next((j for j in range(cap) if any(c % p ** (j + 1) for c in part)), None)
        if vp is not None:
            cands.append(e * (vp - x.shift) + k)
    return min(cands, default=None)


def _divisible_coeffs(ring, rng):
    """Coefficients times random powers of p, so that high valuations and
    zeros to working precision turn up."""
    return tuple(rng.randrange(ring.pN) * ring.p ** rng.randrange(6) % ring.pN
                 for _ in range(ring.d))


def test_kept_valuation_matches_parts_and_leaves_eq_and_hash_alone():
    rng = random.Random(17)
    seen_none = 0
    for field in (L5U, L5R, factor_field(base_field(3), 2, STEP_RAMIFIED)):
        ring = ring_for(field, 5)
        for _ in range(300):
            parts = tuple(_divisible_coeffs(ring, rng) for _ in range(ring.e))
            shift = rng.randrange(3)
            x = TruncatedElement(field, ring, parts, shift)
            fresh = TruncatedElement(field, ring, parts, shift)
            expected = _valuation_from_parts(x)
            assert x.val_or_none() == expected
            assert x.val_or_none() == expected  # the second call reads the kept value
            assert "_val" in vars(x) and "_val" not in vars(fresh)
            assert x == fresh and hash(x) == hash(fresh)
            assert fresh.val_or_none() == expected
            seen_none += expected is None
    assert seen_none > 0


def test_frobenius_images_are_the_hensel_roots_and_sum_to_the_trace():
    """images(j)[1] is the unique root of the modulus mod p^N that reduces to
    x^{p^j}; the cached trace map is the sum of the automorphisms."""
    rng = random.Random(23)
    for p, d in [(3, 2), (3, 5), (5, 3), (5, 4), (7, 2), (3, 6)]:
        k = fq_make(p, d)
        for prec in (1, 4, 13):
            ring = _make_ring(p, d, 1, prec)
            for j in range(d):
                r = ring.automorphism_images(j)[1]
                acc = ring.uzero()
                for c in reversed(ring.modulus):
                    acc = ring.uadd(ring.umul(acc, r), ring.uscale(ring.uone(), c))
                assert not any(acc)
                assert k.element(r) == k.gen() ** (p**j)
            a = tuple(rng.randrange(ring.pN) for _ in range(d))
            by_sum = ring.uzero()
            for j in range(d):
                by_sum = ring.uadd(by_sum, ring.automorphism_sum(a, (j,)))
            assert ring.automorphism_sum(a, tuple(range(d))) == by_sum


@pytest.mark.parametrize("f0", [1, 2, 3])
def test_base_coordinates_lift_the_residue_embedding_and_invert_on_f(f0):
    """theta is a root of F's modulus mod p^N lifting the residue embedding
    k_F -> k_L; pullback inverts w -> sum_l w_l theta^l and rejects x, which
    lies outside F once f > 1."""
    rng = random.Random(f0)
    base = base_field(3, f0)
    k_f = fq_make(3, f0)
    for m, step in [(1, STEP_UNRAMIFIED), (1, STEP_RAMIFIED), (2, STEP_RAMIFIED)]:
        field = factor_field(base, m, step)
        k_l = field.residue_field()
        for prec in (1, 2, 5, 16):
            ring = ring_for(field, prec)
            theta, pullback = base_coordinates(field, prec)
            acc = ring.uzero()
            for c in reversed(k_f.modulus):
                acc = ring.uadd(ring.umul(acc, theta), ring.uscale(ring.uone(), c))
            assert not any(acc)
            assert k_l.element(theta) == fq_embedding(k_f, k_l).image_of_generator
            for _ in range(10):
                w = tuple(rng.randrange(ring.pN) for _ in range(f0))
                u, power = ring.uzero(), ring.uone()
                for w_l in w:
                    u = ring.uadd(u, ring.uscale(power, w_l))
                    power = ring.umul(power, theta)
                assert pullback(u) == w
            if field.f > 1:
                with pytest.raises(DomainError, match="does not lie in the base field"):
                    pullback(tuple([0, 1] + [0] * (ring.d - 2)))
