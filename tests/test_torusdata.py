import itertools
import random
from fractions import Fraction

import pytest

from thetaparam.localfield import (
    STEP_RAMIFIED,
    STEP_UNRAMIFIED,
    SYM_ANTI,
    SYM_FIXED,
    LeadingTerm,
    base_field,
    canonical_tau,
    factor_field,
    lt_mul,
)
from thetaparam.oracle import relative_conjugate, weyl_group_order
from thetaparam import torusdata
from thetaparam.torusdata import (
    Factor,
    FiniteTorusDatum,
    POLARITY_SYMPLECTIC,
    PolarityMismatch,
    NotDepthZero,
    TorusDatum,
    _has_perfect_matching,
    block_decompose,
    datum_equivalent,
    is_general_position,
    residue_reduction,
    validate,
    weyl_orbit,
)

import gen

BASE5 = base_field(5)
L5U = factor_field(BASE5, 1, STEP_UNRAMIFIED)


def simple_datum(chi0=1, val=0):
    tau = canonical_tau(L5U)
    c = LeadingTerm(L5U, val, tau.residue, SYM_ANTI)
    return TorusDatum(BASE5, (Factor(1, STEP_UNRAMIFIED, c, chi0),), POLARITY_SYMPLECTIC)


# -- validation


def test_validate_well_formed():
    assert validate(simple_datum()).ok


def test_validate_polarity_flag():
    tau = canonical_tau(L5U)
    bad = TorusDatum(
        BASE5, (Factor(1, STEP_UNRAMIFIED, gen.with_sym(tau, SYM_FIXED), 1),), POLARITY_SYMPLECTIC
    )
    out = validate(bad)
    assert not out.ok and any("polarity" in v for v in out.violations)


def test_validate_depth_zero_needs_unramified():
    lr = factor_field(BASE5, 1, STEP_RAMIFIED)
    c = LeadingTerm(lr, 1, lr.residue_field().one(), SYM_ANTI)
    bad = TorusDatum(BASE5, (Factor(1, STEP_RAMIFIED, c, 0),), POLARITY_SYMPLECTIC)
    out = validate(bad)
    assert not out.ok and any("ramified tower" in v for v in out.violations)


def test_validate_gamma_structure():
    tau = canonical_tau(L5U)
    good_g = (Fraction(2), LeadingTerm(L5U, -2, tau.residue, SYM_ANTI))
    bad_order = (Fraction(1), LeadingTerm(L5U, -1, tau.residue, SYM_ANTI))
    bad = TorusDatum(
        BASE5,
        (Factor(1, STEP_UNRAMIFIED, tau, 1, (good_g, bad_order)),),
        POLARITY_SYMPLECTIC,
    )
    out = validate(bad)
    assert any("strictly increasing" in v for v in out.violations)
    bad_val = (Fraction(2), LeadingTerm(L5U, -1, tau.residue, SYM_ANTI))
    bad2 = TorusDatum(BASE5, (Factor(1, STEP_UNRAMIFIED, tau, 1, (bad_val,)),), POLARITY_SYMPLECTIC)
    assert any("expected" in v for v in validate(bad2).violations)


def test_validate_general_position_enforced():
    # trivial chi0 is fixed by inversion
    bad = simple_datum(chi0=0)
    out = validate(bad)
    assert any("general position" in v for v in out.violations)


# -- equivalence


def norm_rescaled(f, rng):
    """f with c scaled by the norm of a random leading term: an equivalent factor."""
    y = LeadingTerm(f.c.field, rng.randint(0, 1), gen.random_nonzero(f.c.field.residue_field(), rng))
    nm = gen.with_sym(lt_mul(y, relative_conjugate(y)), SYM_FIXED)
    return Factor(f.m, f.step, lt_mul(f.c, nm), f.chi0, f.gamma_levels)


def test_equivalence_reflexive_and_norm_scaling():
    rng = random.Random(0)
    d = simple_datum()
    assert datum_equivalent(d, d)
    assert datum_equivalent(d, d, mode="strict")
    # replace c by c * Nm(y)
    f = d.factors[0]
    y = LeadingTerm(L5U, 1, gen.random_nonzero(L5U.residue_field(), rng))
    nm = gen.with_sym(lt_mul(y, relative_conjugate(y)), SYM_FIXED)
    d2 = d.replace_factors([Factor(1, STEP_UNRAMIFIED, lt_mul(f.c, nm), f.chi0)])
    assert datum_equivalent(d, d2)


def test_equivalence_rejects_uniformizer_twist():
    # unramified step: norms have even valuation, so c vs c*pi differ
    assert not datum_equivalent(simple_datum(val=0), simple_datum(val=1))


def test_equivalence_polarity_mismatch():
    d = simple_datum()
    ortho = TorusDatum(BASE5, d.factors, "orthogonal")
    with pytest.raises(PolarityMismatch):
        datum_equivalent(d, ortho)


def test_perfect_matching_follows_an_augmenting_path_through_every_row():
    # rows i < n - 1 take columns i and i + 1, the last row only column 0:
    # matching the last row shifts every other row by one column
    n = 1500
    feasible = [[j in (i, i + 1) for j in range(n)] for i in range(n - 1)]
    feasible.append([j == 0 for j in range(n)])
    assert _has_perfect_matching(feasible, n)
    feasible[-1][0] = False
    assert not _has_perfect_matching(feasible, n)


def test_perfect_matching_matches_permutation_oracle():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(0, 6)
        density = rng.random()
        feasible = [[rng.random() < density for _ in range(n)] for _ in range(n)]
        expected = any(all(feasible[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))
        assert _has_perfect_matching(feasible, n) == expected


def test_equivalence_compares_each_pair_of_distinct_factors_once(monkeypatch):
    calls = []
    pair_equivalent = torusdata._factor_pair_equivalent

    def counted(fa, fb, q, mode):
        calls.append((fa, fb))
        return pair_equivalent(fa, fb, q, mode)

    monkeypatch.setattr(torusdata, "_factor_pair_equivalent", counted)
    d = simple_datum()
    many = d.replace_factors(d.factors * 300)
    assert datum_equivalent(many, many)
    assert calls == [(d.factors[0], d.factors[0])]
    calls.clear()
    other = simple_datum(chi0=2).factors[0]
    mixed = d.replace_factors((other,) + d.factors * 299)
    assert not datum_equivalent(many, mixed, mode="strict")
    assert len(calls) == 2


@pytest.mark.parametrize("mode", ["weyl", "strict"])
def test_equivalence_matches_full_matrix_definition_with_repeated_factors(mode):
    """Draw both sides from a small pool (so factors repeat, and some pairs
    are equal only up to a norm) and compare with a bijection search over
    every pair of factors."""
    rng = random.Random(41)
    pool = []
    while len(pool) < 8:
        f = rng.choice(gen.random_mixed_datum(5, rng, 2).factors)
        if f.m == 1:
            pool += [f, norm_rescaled(f, rng)]
    verdicts = set()
    for _ in range(150):
        n = rng.randint(1, 5)
        fa = [rng.choice(pool) for _ in range(n)]
        fb = [rng.choice(pool) if rng.random() < 0.3 else f for f in rng.sample(fa, n)]
        a, b = (TorusDatum(BASE5, tuple(fs), POLARITY_SYMPLECTIC) for fs in (fa, fb))
        expected = any(
            all(torusdata._factor_pair_equivalent(fa[i], fb[p[i]], 5, mode) for i in range(n))
            for p in itertools.permutations(range(n))
        )
        assert datum_equivalent(a, b, mode) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_equivalence_is_equivalence_relation_on_random_data():
    rng = random.Random(1)
    data = [gen.random_mixed_datum(rng.choice([5, 7]), rng, 3) for _ in range(200)]
    for d in data:
        assert datum_equivalent(d, d)
    # symmetry on random pairs (mostly inequivalent; the relation must agree)
    for _ in range(100):
        a, b = rng.choice(data), rng.choice(data)
        assert datum_equivalent(a, b) == datum_equivalent(b, a)
    # transitivity spot-check along norm-rescaling chains
    for _ in range(20):
        d = gen.random_depth_zero_datum(5, rng, 3)
        chain = [d]
        for _ in range(2):
            prev = chain[-1]
            i = rng.randrange(len(prev.factors))
            factors = list(prev.factors)
            factors[i] = norm_rescaled(prev.factors[i], rng)
            chain.append(prev.replace_factors(factors))
        assert datum_equivalent(chain[0], chain[1])
        assert datum_equivalent(chain[1], chain[2])
        assert datum_equivalent(chain[0], chain[2])


def test_equivalence_strict_vs_weyl_character_twist():
    # twist chi0 by the Frobenius: equivalent up to Weyl, and in fact the
    # twist is realized by a tower isomorphism, so strict mode matches too
    d = simple_datum(chi0=1)
    d2 = simple_datum(chi0=5 % 6)
    assert datum_equivalent(d, d2)
    assert datum_equivalent(d, d2, mode="strict")


def test_equivalence_modes_genuinely_differ():
    """Over Q_3 (where -1 is a non-square) a ramified factor can need the
    sign-flip isomorphism for the character data but the identity for the
    norm class of c: equivalent up to Weyl, not strictly."""
    base3 = base_field(3)
    lr = factor_field(base3, 1, STEP_RAMIFIED)
    k = lr.residue_field()
    c = LeadingTerm(lr, 1, k.one(), SYM_ANTI)
    g_plus = (Fraction(1, 2), LeadingTerm(lr, -1, k.one(), SYM_ANTI))
    g_minus = (Fraction(1, 2), LeadingTerm(lr, -1, -k.one(), SYM_ANTI))
    a = TorusDatum(base3, (Factor(1, STEP_RAMIFIED, c, 1, (g_plus,)),), POLARITY_SYMPLECTIC)
    b = TorusDatum(base3, (Factor(1, STEP_RAMIFIED, c, 1, (g_minus,)),), POLARITY_SYMPLECTIC)
    assert datum_equivalent(a, b, mode="weyl")
    assert not datum_equivalent(a, b, mode="strict")


def test_strict_implies_weyl_on_random_pairs():
    rng = random.Random(29)
    data = [gen.random_mixed_datum(5, rng, 2) for _ in range(40)]
    for _ in range(60):
        a, b = rng.choice(data), rng.choice(data)
        if datum_equivalent(a, b, mode="strict"):
            assert datum_equivalent(a, b, mode="weyl")


# -- residue reduction


def test_residue_reduction_parity_split():
    tau = canonical_tau(L5U)
    f0 = Factor(1, STEP_UNRAMIFIED, tau, 1)
    f1 = Factor(1, STEP_UNRAMIFIED, LeadingTerm(L5U, 1, tau.residue, SYM_ANTI), 2)
    datum = TorusDatum(BASE5, (f0, f1), POLARITY_SYMPLECTIC)
    r1, r2 = residue_reduction(datum)
    assert r1.entries == (1,) and r2.entries == (1,)
    assert r1.exponents == (1,) and r2.exponents == (2,)
    assert r1.dim + r2.dim == 2 * datum.n


def test_residue_reduction_normalizes_high_valuations():
    tau = canonical_tau(L5U)
    f = Factor(1, STEP_UNRAMIFIED, LeadingTerm(L5U, 2, tau.residue, SYM_ANTI), 1)
    datum = TorusDatum(BASE5, (f,), POLARITY_SYMPLECTIC)
    r1, r2 = residue_reduction(datum)
    assert r1.entries == (1,) and r2.entries == ()


def test_residue_reduction_requires_depth_zero():
    lr = factor_field(BASE5, 1, STEP_RAMIFIED)
    c = LeadingTerm(lr, 1, lr.residue_field().one(), SYM_ANTI)
    g = (Fraction(1, 2), LeadingTerm(lr, -1, lr.residue_field().one(), SYM_ANTI))
    datum = TorusDatum(BASE5, (Factor(1, STEP_RAMIFIED, c, 0, (g,)),), POLARITY_SYMPLECTIC)
    with pytest.raises(NotDepthZero):
        residue_reduction(datum)


def test_dims_add_on_random_data():
    rng = random.Random(9)
    for _ in range(40):
        d = gen.random_depth_zero_datum(rng.choice([5, 7]), rng, 4)
        r1, r2 = residue_reduction(d)
        assert r1.dim + r2.dim == 2 * d.n


# -- Weyl orbits and general position


def test_weyl_orbit_q3_m1():
    fd = FiniteTorusDatum(3, (1,), (1,))
    assert weyl_orbit(fd, (1,)) == frozenset({(1,), (3,)})
    assert weyl_orbit(fd, (0,)) == frozenset({(0,)})


def test_weyl_orbit_factor_swap():
    fd = FiniteTorusDatum(5, (1, 1), (0, 0))
    orbit = weyl_orbit(fd, (1, 2))
    assert (2, 1) in orbit


def test_general_position_examples():
    fd = FiniteTorusDatum(3, (1,), (0,))
    assert is_general_position(fd, (1,))
    assert not is_general_position(fd, (2,))  # fixed by inversion
    assert not is_general_position(fd, (0,))


def test_general_position_closed_form_matches_orbit_enumeration():
    """Exhaustive over small (q, m): the closed-form test agrees with the
    brute-force orbit size on every exponent vector."""
    import itertools

    cases = [
        (3, (1,)), (3, (2,)), (3, (3,)), (3, (1, 1)), (3, (1, 2)), (3, (2, 2)),
        (3, (1, 1, 1)), (3, (1, 1, 2)), (5, (1,)), (5, (2,)), (5, (1, 1)),
        (5, (1, 2)), (5, (1, 1, 1)), (7, (1, 1)),
    ]
    for q, entries in cases:
        fd = FiniteTorusDatum(q, entries, tuple(0 for _ in entries))
        order = weyl_group_order(fd)
        for chi in itertools.product(*(range(q**m + 1) for m in entries)):
            expected = len(weyl_orbit(fd, chi)) == order
            assert is_general_position(fd, chi) == expected, (q, entries, chi)


def test_orbit_size_divides_group_order_and_gp_is_orbit_invariant():
    rng = random.Random(13)
    for _ in range(40):
        q = rng.choice([3, 5, 7])
        entries = tuple(rng.choice([1, 1, 2]) for _ in range(rng.randint(1, 3)))
        fd = FiniteTorusDatum(q, entries, tuple(0 for _ in entries))
        chi = tuple(rng.randrange(q**m + 1) for m in entries)
        orbit = weyl_orbit(fd, chi)
        order = weyl_group_order(fd)
        assert order % len(orbit) == 0
        gp = is_general_position(fd, chi)
        for other in list(orbit)[:8]:
            assert is_general_position(fd, other) == gp


# -- block decomposition


def test_block_decompose_examples():
    rng = random.Random(17)
    d = gen.random_depth_zero_datum(5, rng, 3)
    bd = block_decompose(d)
    assert bd.levels == ((Fraction(0), tuple(range(len(d.factors)))),)

    lr = factor_field(BASE5, 1, STEP_RAMIFIED)
    c = LeadingTerm(lr, 1, lr.residue_field().one(), SYM_ANTI)
    g = (Fraction(1, 2), LeadingTerm(lr, -1, lr.residue_field().one(), SYM_ANTI))
    ram1 = Factor(1, STEP_RAMIFIED, c, 0, (g,))
    ram2 = Factor(1, STEP_RAMIFIED, c, 1, (g,))
    tau = canonical_tau(L5U)
    zero = Factor(1, STEP_UNRAMIFIED, tau, 1)
    d2 = TorusDatum(BASE5, (ram1, ram2, zero), POLARITY_SYMPLECTIC)
    bd2 = block_decompose(d2)
    assert bd2.levels == ((Fraction(1, 2), (0, 1)), (Fraction(0), (2,)))

    g2 = (Fraction(2), LeadingTerm(L5U, -2, tau.residue, SYM_ANTI))
    deep = Factor(1, STEP_UNRAMIFIED, tau, 1, (g2,))
    d3 = TorusDatum(BASE5, (deep, ram1), POLARITY_SYMPLECTIC)
    bd3 = block_decompose(d3)
    assert [r for r, _ in bd3.levels] == [Fraction(2), Fraction(1, 2)]


def test_block_round_trip():
    rng = random.Random(19)
    for _ in range(30):
        d = gen.random_mixed_datum(rng.choice([5, 7]), rng, 4)
        bd = block_decompose(d)
        indices = sorted(i for _, ix in bd.levels for i in ix)
        assert indices == list(range(len(d.factors)))
        assert d.replace_factors(d.factors[i] for i in indices) == d
