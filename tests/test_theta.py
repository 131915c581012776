import random
from fractions import Fraction

import pytest

from thetaparam.errors import DomainError
from thetaparam.finitefield import fq_embedding, fq_make
from thetaparam.localfield import (
    SQ_ONE,
    SQ_U,
    STEP_RAMIFIED,
    STEP_UNRAMIFIED,
    SYM_ANTI,
    SYM_FIXED,
    LeadingTerm,
    base_field,
    canonical_tau,
    factor_field,
    sym_compose,
)
from thetaparam.quadform import (
    QuadInvariants,
    invariants_of_orthogonal_datum,
    invariants_via_gram,
    orthogonal_sum,
)
from thetaparam.theta import (
    DistinctionWitness,
    InvalidWitness,
    NotGeneralPosition,
    NotSingleBlock,
    canonical_iota,
    canonical_sigma_uniformizer,
    descend_to_f,
    distinction_transport,
    distinguished_check,
    e_descriptor,
    extend_to_e,
    lift,
    lift_depth_zero,
    lift_positive_block,
    parity_predict,
    witness_violations,
)
from thetaparam.torusdata import (
    Factor,
    POLARITY_SYMPLECTIC,
    NotDepthZero,
    TorusDatum,
    block_decompose,
    datum_equivalent,
    validate,
)
from thetaparam.cli import seeded_choices

import gen

BASE5 = base_field(5)
L5U = factor_field(BASE5, 1, STEP_UNRAMIFIED)


def tau_datum(chi0=1):
    tau = canonical_tau(L5U)
    return TorusDatum(BASE5, (Factor(1, STEP_UNRAMIFIED, tau, chi0),), POLARITY_SYMPLECTIC)


# -- depth zero


def test_lift_depth_zero_pinned_example():
    """c = tau, chi0 = 1 over Q_5: c_theta = tau^2 pi = u pi, chi0 = -1,
    invariants (2, u, -1)."""
    res = lift_depth_zero(tau_datum())
    f = res.lifted.factors[0]
    assert f.c.val == 1 and f.c.sym == SYM_FIXED
    k = L5U.residue_field()
    u_embedded = fq_embedding(fq_make(5, 1), k).apply(fq_make(5, 1).element([2]))
    assert f.c.residue == u_embedded  # tau^2 = u = 2
    assert f.chi0 == (-1) % 6
    assert res.target_invariants == QuadInvariants(2, SQ_U, -1)
    assert res.predicted_invariants == res.target_invariants
    assert res.so.label == "quasi_split_unramified"


def test_embedded_uniformizer_valuation_in_ramified_field():
    # the base uniformizer sits at valuation e inside a factor field
    from thetaparam.theta import _embed_base_term, default_uniformizer

    lr = factor_field(BASE5, 1, STEP_RAMIFIED)
    pw = _embed_base_term(default_uniformizer(BASE5), lr)
    assert pw.val == 2 and pw.sym == SYM_FIXED
    pw_u = _embed_base_term(default_uniformizer(BASE5), L5U)
    assert pw_u.val == 1


def test_lift_depth_zero_valuation_bookkeeping():
    rng = random.Random(1)
    for _ in range(20):
        d = gen.random_depth_zero_datum(5, rng, 3)
        res = lift_depth_zero(d)
        for before, after in zip(d.factors, res.lifted.factors):
            assert after.c.val == before.c.val + 1


def test_lift_requires_depth_zero_and_general_position():
    lr = factor_field(BASE5, 1, STEP_RAMIFIED)
    c = LeadingTerm(lr, 1, lr.residue_field().one(), SYM_ANTI)
    g = (Fraction(1, 2), LeadingTerm(lr, -1, lr.residue_field().one(), SYM_ANTI))
    ram = TorusDatum(BASE5, (Factor(1, STEP_RAMIFIED, c, 0, (g,)),), POLARITY_SYMPLECTIC)
    with pytest.raises(NotDepthZero):
        lift_depth_zero(ram)
    with pytest.raises(NotGeneralPosition):
        lift_depth_zero(tau_datum(chi0=0))


def test_parity_predict_table():
    """The parity table: disc trivial iff r = s mod 2, hasse = (-1)^r."""
    rng = random.Random(2)
    tau = canonical_tau(L5U)

    def datum_with_vals(vals, chis):
        factors = tuple(
            Factor(1, STEP_UNRAMIFIED, LeadingTerm(L5U, v, gen.anti_residue(L5U, rng), SYM_ANTI), k)
            for v, k in zip(vals, chis)
        )
        return TorusDatum(BASE5, factors, POLARITY_SYMPLECTIC)

    rows = [
        ((0,), SQ_U, -1, "quasi_split_unramified"),  # r odd, s even
        ((1,), SQ_U, 1, "quasi_split_unramified"),  # r even, s odd
        ((0, 1), SQ_ONE, -1, "nonsplit_inner"),  # r odd, s odd
        ((0, 0), SQ_ONE, 1, "split"),  # r even, s even (r = 2)
        ((1, 1), SQ_ONE, 1, "split"),  # r even, s even (s = 2)
    ]
    chis = {1: (1,), 2: (1, 2)}
    for vals, disc, hasse, label in rows:
        d = datum_with_vals(vals, chis[len(vals)])
        inv, so = parity_predict(d)
        assert inv.disc == disc and inv.hasse == hasse, (vals, inv)
        assert so.label == label
        res = lift_depth_zero(d)
        assert res.target_invariants == inv


def test_lifted_exponents_are_negated_and_involutive():
    rng = random.Random(3)
    for _ in range(20):
        d = gen.random_depth_zero_datum(7, rng, 3)
        res = lift_depth_zero(d)
        for before, after in zip(d.factors, res.lifted.factors):
            mod = before.chi0_modulus(7)
            assert (before.chi0 + after.chi0) % mod == 0
        again = [
            (-(f.chi0)) % f.chi0_modulus(7) for f in res.lifted.factors
        ]
        assert again == [f.chi0 % f.chi0_modulus(7) for f in d.factors]


# -- positive depth


def test_lift_positive_block_flag_algebra():
    assert sym_compose(SYM_ANTI, SYM_ANTI) == SYM_FIXED
    lr = factor_field(BASE5, 1, STEP_RAMIFIED)
    c = LeadingTerm(lr, 1, lr.residue_field().element([1]), SYM_ANTI)
    g = (Fraction(1, 2), LeadingTerm(lr, -1, lr.residue_field().element([2]), SYM_ANTI))
    d = TorusDatum(BASE5, (Factor(1, STEP_RAMIFIED, c, 1, (g,)),), POLARITY_SYMPLECTIC)
    res = lift_positive_block(d)
    f = res.lifted.factors[0]
    assert f.c.sym == SYM_FIXED and f.c.val == 0
    assert f.chi0 == 1  # inverted mod 2
    assert f.gamma_levels[0][1].residue == -g[1].residue
    assert invariants_via_gram(res.lifted) == res.target_invariants


def test_lift_positive_block_unramified_valuation():
    # c (val 0, anti), gamma (val -1, anti) -> c_theta val -1, fixed
    tau = canonical_tau(L5U)
    g = (Fraction(1), LeadingTerm(L5U, -1, tau.residue, SYM_ANTI))
    d = TorusDatum(BASE5, (Factor(1, STEP_UNRAMIFIED, tau, 1, (g,)),), POLARITY_SYMPLECTIC)
    res = lift_positive_block(d)
    assert res.lifted.factors[0].c.val == -1
    assert res.lifted.factors[0].c.sym == SYM_FIXED


def test_lift_positive_block_rejects_mixed_depths():
    tau = canonical_tau(L5U)
    g1 = (Fraction(1), LeadingTerm(L5U, -1, tau.residue, SYM_ANTI))
    g2 = (Fraction(2), LeadingTerm(L5U, -2, tau.residue, SYM_ANTI))
    d = TorusDatum(
        BASE5,
        (
            Factor(1, STEP_UNRAMIFIED, tau, 1, (g1,)),
            Factor(1, STEP_UNRAMIFIED, tau, 1, (g2,)),
        ),
        POLARITY_SYMPLECTIC,
    )
    with pytest.raises(NotSingleBlock):
        lift_positive_block(d)


# -- general lift


def test_lift_blockwise_consistency():
    rng = random.Random(4)
    for _ in range(30):
        d = gen.random_mixed_datum(rng.choice([5, 7]), rng, 4)
        res = lift(d)
        assert res.target_invariants.dim == 2 * d.n
        assert res.target_invariants == res.predicted_invariants
        assert validate(res.lifted).ok
        # every lifted c is fixed-flagged
        assert all(f.c.sym == SYM_FIXED for f in res.lifted.factors)


def test_lift_blockwise_sum_equals_total_on_criterion_2_data():
    """lift composes the block invariants by the orthogonal sum law; on the
    criterion-2 data that sum, the invariants recomputed on the whole lifted
    datum, and the reported target invariants all agree."""
    rng = random.Random(202)
    for i in range(500):
        p = 5 if i % 2 == 0 else 7
        d = gen.random_mixed_datum(p, rng, 4)
        res = lift(d)
        blockwise = QuadInvariants(0, SQ_ONE, 1)
        for r, indices in block_decompose(d).levels:
            sub = d.replace_factors(d.factors[j] for j in indices)
            block = lift_depth_zero(sub) if r == 0 else lift_positive_block(sub)
            blockwise = orthogonal_sum(blockwise, block.target_invariants, p)
        total = invariants_of_orthogonal_datum(res.lifted)
        assert blockwise == total == res.target_invariants, (d, blockwise, total)


def test_lift_five_factor_depth_zero_datum():
    """Five m = 3 factors over Q_5 with exponents in distinct free orbits
    mod 5^3 + 1: the Weyl group has 6^5 * 5! elements, and validation no
    longer enumerates an orbit of that size."""
    field = factor_field(BASE5, 3, STEP_UNRAMIFIED)
    tau = canonical_tau(field)
    factors = tuple(Factor(3, STEP_UNRAMIFIED, tau, k) for k in (1, 2, 3, 4, 6))
    d = TorusDatum(BASE5, factors, POLARITY_SYMPLECTIC)
    res = lift(d)
    assert res.target_invariants.dim == 30
    assert res.target_invariants == parity_predict(d)[0]
    # 5 = 5 * 1 lies in the orbit of 1, so the factors 1 and 5 collide
    same_orbit = d.replace_factors(factors[:4] + (Factor(3, STEP_UNRAMIFIED, tau, 5),))
    assert validate(same_orbit).violations == [
        "depth-zero character exponents are not in general position"
    ]


def test_lift_pure_blocks_match_special_cases():
    rng = random.Random(5)
    d0 = gen.random_depth_zero_datum(5, rng, 3)
    assert lift(d0).lifted == lift_depth_zero(d0).lifted
    lr = factor_field(BASE5, 1, STEP_RAMIFIED)
    c = LeadingTerm(lr, 1, lr.residue_field().element([1]), SYM_ANTI)
    g = (Fraction(1, 2), LeadingTerm(lr, -1, lr.residue_field().element([2]), SYM_ANTI))
    dp = TorusDatum(BASE5, (Factor(1, STEP_RAMIFIED, c, 1, (g,)),), POLARITY_SYMPLECTIC)
    assert lift(dp).lifted == lift_positive_block(dp).lifted


def test_choice_independence_sample():
    rng = random.Random(6)
    for _ in range(10):
        d = gen.random_depth_zero_datum(5, rng, 3)
        results = [lift(d)]
        for seed in range(3):
            uni, taus = seeded_choices(d, seed)
            results.append(lift(d, uni, taus))
        for other in results[1:]:
            assert results[0].target_invariants == other.target_invariants
            assert datum_equivalent(results[0].lifted, other.lifted)


# -- distinction


def make_witness(p=5, chi0=2, with_extra_factor=False):
    rng = random.Random(42)
    base_f = base_field(p)
    e_base = e_descriptor(base_f)
    field = factor_field(e_base, 1, STEP_RAMIFIED)
    c = LeadingTerm(field, 1, gen.sigma_fixed_residue(field, base_f, rng), SYM_ANTI, SYM_FIXED)
    g = (
        Fraction(1, 2),
        LeadingTerm(field, -1, gen.sigma_anti_residue(field, base_f, rng), SYM_ANTI, SYM_ANTI),
    )
    factors = [Factor(1, STEP_RAMIFIED, c, chi0, (g,))]
    if with_extra_factor:
        g2 = (
            Fraction(3, 2),
            LeadingTerm(field, -3, gen.sigma_anti_residue(field, base_f, rng), SYM_ANTI, SYM_ANTI),
        )
        factors.append(Factor(1, STEP_RAMIFIED, c, 0, (g2,)))
    return DistinctionWitness(base_f, TorusDatum(e_base, tuple(factors), POLARITY_SYMPLECTIC))


def test_distinguished_check_trivial_restriction():
    w = make_witness(chi0=2)
    v = distinguished_check(w)
    assert v.distinguished and v.restriction_exponents == (0,)


def test_distinguished_check_order_two_restriction():
    w = make_witness(chi0=3)
    v = distinguished_check(w)
    assert not v.distinguished and v.restriction_exponents == (1,)


def test_invalid_witness_unramified_or_even_m():
    rng = random.Random(7)
    base_f = base_field(5)
    e_base = e_descriptor(base_f)
    # unramified step: E sits inside K
    field = factor_field(e_base, 1, STEP_UNRAMIFIED)
    tau = canonical_tau(field)
    c = gen.with_sym(tau, SYM_ANTI, SYM_FIXED)
    bad = DistinctionWitness(
        base_f, TorusDatum(e_base, (Factor(1, STEP_UNRAMIFIED, c, 1),), POLARITY_SYMPLECTIC)
    )
    assert any("not a field" in v for v in witness_violations(bad))
    with pytest.raises(InvalidWitness):
        distinguished_check(bad)
    # even m fails for the same reason
    field2 = factor_field(e_base, 2, STEP_RAMIFIED)
    c2 = LeadingTerm(field2, 1, gen.sigma_fixed_residue(field2, base_f, rng), SYM_ANTI, SYM_FIXED)
    g2 = (
        Fraction(1, 2),
        LeadingTerm(field2, -1, gen.sigma_anti_residue(field2, base_f, rng), SYM_ANTI, SYM_ANTI),
    )
    bad2 = DistinctionWitness(
        base_f,
        TorusDatum(e_base, (Factor(2, STEP_RAMIFIED, c2, 0, (g2,)),), POLARITY_SYMPLECTIC),
    )
    assert any("even degree" in v for v in witness_violations(bad2))


def test_sigma_flag_algebra_of_depth_zero_transport_formula():
    """sigma(c tau pi) = -c tau pi at flag level: c sigma-fixed, tau in K^-
    (sigma-fixed), pi in E^- (sigma-anti)."""
    assert sym_compose(sym_compose(SYM_FIXED, SYM_FIXED), SYM_ANTI) == SYM_ANTI
    # and the iota twist makes it sigma-fixed again
    assert sym_compose(SYM_ANTI, SYM_ANTI) == SYM_FIXED
    # concrete leading-term version over E
    base_f = base_field(5)
    e_base = e_descriptor(base_f)
    pi_e = canonical_sigma_uniformizer(base_f)
    iota = canonical_iota(base_f)
    assert pi_e.sigma_sym == SYM_ANTI and pi_e.val == 1
    assert iota.sigma_sym == SYM_ANTI and iota.val == 0
    # sigma residue consistency: s^q = -s
    assert iota.residue**5 == -iota.residue


def test_transport_end_to_end():
    w = make_witness(chi0=2, with_extra_factor=True)
    out = distinction_transport(w)
    assert out.checks["sigma_anti_c_theta"]
    assert out.checks["re_extension_equivalent"]
    # the F-structure is a valid orthogonal datum over F with fixed flags
    assert validate(out.f_datum).ok
    assert all(f.c.sym == SYM_FIXED for f in out.f_datum.factors)
    assert out.invariants_f.dim == 2 * w.datum_over_e.n
    # scalar re-extension reproduces the twisted datum on the nose
    re_ext = extend_to_e(out.f_datum, w.base_f_field)
    assert datum_equivalent(re_ext, out.twisted_datum_e)


def test_transport_requires_distinguished():
    w = make_witness(chi0=1)
    with pytest.raises(DomainError):
        distinction_transport(w)


def test_descend_extend_round_trip():
    w = make_witness(chi0=2)
    out = distinction_transport(w)
    back = descend_to_f(extend_to_e(out.f_datum, w.base_f_field), w.base_f_field)
    assert back == out.f_datum
