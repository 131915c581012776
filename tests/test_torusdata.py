import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from thetaparam.finitefield import FqElement
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
from thetaparam.oracle import (
    factor_pair_equivalent,
    relative_conjugate,
    tower_isos,
    weyl_group_order,
)
from thetaparam import torusdata
from thetaparam.torusdata import (
    Factor,
    FiniteTorusDatum,
    POLARITY_SYMPLECTIC,
    PolarityMismatch,
    NotDepthZero,
    TorusDatum,
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


def twist_pool(p, rng, n_seeds):
    """Factors over Q_p, each with a norm rescaling and two twists by one
    tower isomorphism, of the character data with c and without it."""
    pool = []
    for _ in range(n_seeds):
        f = rng.choice(gen.random_mixed_datum(p, rng, 2).factors)
        iso = rng.choice(tower_isos(f))
        pool += [f, gen.norm_rescaled(f, rng), gen.twisted(f, iso, p),
                 gen.twisted(f, iso, p, move_c=False)]
    return pool


def ramified_equivalent_factors(n):
    """n (even) distinct, pairwise equivalent ramified factors over Q_5: c of
    valuation 2i + 1 and residue 1 or 4, both squares, one gamma at r = 1/2."""
    lr = factor_field(BASE5, 1, STEP_RAMIFIED)
    k = lr.residue_field()
    gamma = ((Fraction(1, 2), LeadingTerm(lr, -1, k.one(), SYM_ANTI)),)
    return [
        Factor(1, STEP_RAMIFIED, LeadingTerm(lr, 2 * i + 1, k.element([res]), SYM_ANTI), 1, gamma)
        for i in range(n // 2)
        for res in (1, 4)
    ]


def distinct_gamma_residue_factors(n, p=10007):
    """n ramified factors over Q_p that differ only in the residue 1..n of
    their gamma at r = 1/2: for n < p / 2 each is a class of its own."""
    lr = factor_field(base_field(p), 1, STEP_RAMIFIED)
    k = lr.residue_field()
    c = LeadingTerm(lr, 1, k.one(), SYM_ANTI)
    gammas = [LeadingTerm(lr, -1, k.element([i]), SYM_ANTI) for i in range(1, n + 1)]
    return [Factor(1, STEP_RAMIFIED, c, 1, ((Fraction(1, 2), g),)) for g in gammas]


@pytest.fixture
def key_calls(monkeypatch):
    """The factor of every _class_key call."""
    calls = []
    class_key = torusdata._class_key

    def counted(f, q, mode):
        calls.append(f)
        return class_key(f, q, mode)

    monkeypatch.setattr(torusdata, "_class_key", counted)
    return calls


def test_equivalence_keys_repeated_factors_once(key_calls):
    d = simple_datum()
    many = d.replace_factors(d.factors * 300)
    assert datum_equivalent(many, many)
    assert key_calls == [d.factors[0]] * 2  # one key per side
    key_calls.clear()
    other = simple_datum(chi0=2).factors[0]
    mixed = d.replace_factors((other,) + d.factors * 299)
    assert not datum_equivalent(many, mixed, mode="strict")
    assert Counter(key_calls) == Counter({d.factors[0]: 2, other: 1})


def test_equivalence_keys_each_distinct_equivalent_factor_once(key_calls):
    """200 distinct, pairwise equivalent factors a side form one class: each
    factor of each side gets one key, and all 200 share it."""
    factors = ramified_equivalent_factors(200)
    a = TorusDatum(BASE5, tuple(factors), POLARITY_SYMPLECTIC)
    assert len(set(factors)) == 200
    assert datum_equivalent(a, a.replace_factors(reversed(factors)))
    assert len(key_calls) == 400
    assert len({torusdata._class_key(f, 5, "weyl") for f in factors}) == 1


def test_equivalence_keys_each_factor_of_distinct_depths_once(key_calls):
    """1,000 ramified factors of distinct gamma depths r = 1/2, 3/2, ...
    are 1,000 classes: against their reverse, one key per factor a side."""
    lr = factor_field(BASE5, 1, STEP_RAMIFIED)
    one = lr.residue_field().one()
    factors = [
        Factor(1, STEP_RAMIFIED, LeadingTerm(lr, 1, one, SYM_ANTI), 1,
               ((Fraction(2 * i + 1, 2), LeadingTerm(lr, -(2 * i + 1), one, SYM_ANTI)),))
        for i in range(1000)
    ]
    a = TorusDatum(BASE5, tuple(factors), POLARITY_SYMPLECTIC)
    assert datum_equivalent(a, a.replace_factors(reversed(factors)))
    assert len(key_calls) == 2000


def _python_calls(fn, *args):
    """fn(*args) and the number of Python function calls it made, after a
    warm-up call, so that cache misses do not enter the count."""
    fn(*args)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    sys.setprofile(profile)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(None)
    return out, count


def test_equivalence_work_is_linear_in_distinct_gamma_residues():
    """Factors that differ only in a gamma residue share the tower, the
    gamma depths, chi0 and the norm class of c, so nothing but the residue
    tells their classes apart: at twice the factors against their reverse,
    equivalence makes at most 2.2 times the Python calls."""
    counts = []
    for n in (250, 500):
        factors = distinct_gamma_residue_factors(n)
        a = TorusDatum(base_field(10007), tuple(factors), POLARITY_SYMPLECTIC)
        verdict, count = _python_calls(datum_equivalent, a, a.replace_factors(reversed(factors)))
        assert verdict
        counts.append(count)
    assert counts[1] <= 2.2 * counts[0], counts


def test_class_keys_are_equal_exactly_on_related_factors():
    """Key equality is the oracle's pair relation on every ordered pair of
    the twist pools, in both modes, and the relation is not the identity."""
    for seed in range(6):
        rng = random.Random(seed)
        for p in (3, 5, 7):
            pool = twist_pool(p, rng, 4)
            for mode in ("weyl", "strict"):
                keys = [torusdata._class_key(f, p, mode) for f in pool]
                related = [
                    [factor_pair_equivalent(x, y, p, mode) for y in pool] for x in pool
                ]
                assert sum(map(sum, related)) > len(pool), (seed, p, mode)
                assert related == [[kx == ky for ky in keys] for kx in keys], (seed, p, mode)


def test_class_keys_raise_gamma_residues_to_frobenius_powers_only(monkeypatch):
    """Twist j raises gamma residues to q^j; twist 0 is the identity, so on
    gamma-carrying factors _class_key asks __pow__ for no exponent 1, which
    square-and-multiply would take in place of the cached Frobenius map."""
    pool = [f for seed in range(6) for p in (3, 5, 7)
            for f in twist_pool(p, random.Random(seed), 4) if f.gamma_levels]
    exponents = Counter()
    power = FqElement.__pow__

    def counted(x, e):
        exponents[e] += 1
        return power(x, e)

    monkeypatch.setattr(FqElement, "__pow__", counted)
    for f in pool:
        for mode in ("weyl", "strict"):
            torusdata._class_key(f, f.c.field.q_base, mode)
    assert sum(exponents.values()) > 0 and exponents[1] == 0, exponents


@pytest.mark.parametrize("mode", ["weyl", "strict"])
def test_equivalence_matches_full_matrix_definition_with_repeated_factors(mode):
    """Draw both sides from a small pool of twists and norm rescalings (so
    factors repeat, and some pairs are equal only up to an isomorphism or a
    norm) and compare with a bijection search over every pair of factors."""
    rng = random.Random(41)
    for p in (3, 5, 7):
        base = base_field(p)
        pool = twist_pool(p, rng, 3)
        verdicts = set()
        for _ in range(100):
            n = rng.randint(1, 5)
            fa = [rng.choice(pool) for _ in range(n)]
            fb = [rng.choice(pool) if rng.random() < 0.3 else f for f in rng.sample(fa, n)]
            a, b = (TorusDatum(base, tuple(fs), POLARITY_SYMPLECTIC) for fs in (fa, fb))
            pair = [[factor_pair_equivalent(x, y, p, mode) for y in fb] for x in fa]
            expected = any(all(pair[i][s[i]] for i in range(n)) for s in itertools.permutations(range(n)))
            assert datum_equivalent(a, b, mode) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}, p


def test_equivalence_is_equivalence_relation_on_random_data():
    """The oracle's pair relation is reflexive, symmetric and transitive on
    pools of twists in both modes (the premise of counting factors per
    class), and the modes differ at p = 3 and 7, where -1 is not a square."""
    rng = random.Random(1)
    for p in (3, 5, 7):
        pool = twist_pool(p, rng, 4)
        relations = {}
        for mode in ("weyl", "strict"):
            rel = [[factor_pair_equivalent(x, y, p, mode) for y in pool] for x in pool]
            relations[mode] = rel
            ix = range(len(pool))
            assert all(rel[i][i] for i in ix)
            assert all(rel[i][j] == rel[j][i] for i in ix for j in ix)
            assert all(rel[i][k] for i in ix for j in ix if rel[i][j] for k in ix if rel[j][k])
        assert p == 5 or relations["weyl"] != relations["strict"], p
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
            factors[i] = gen.norm_rescaled(prev.factors[i], rng)
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
    assert sum(r1.entries) + sum(r2.entries) == datum.n


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
        assert sum(r1.entries) + sum(r2.entries) == d.n


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
