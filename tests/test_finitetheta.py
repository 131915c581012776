import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from thetaparam import finitetheta
from thetaparam.finitefield import fq_make, fq_multiplicative_generator
from thetaparam.finitetheta import (
    ClassFunction,
    NonIntegralMultiplicity,
    VerificationFailure,
    _actions,
    _codes,
    _column_codes,
    _conj,
    _dot,
    _from_columns,
    _mulclose,
    _order,
    _places,
    _reduction,
    _sp4_transvections,
    _torus_matrices_in_sp4,
    _vectors,
    build_weil_rep,
    dl_regular_character,
    dual_pair,
    normalizer_exponent_actions,
    o2_induced_character,
    o2_irreducibles,
    theta_multiplicity,
    torus_normalizer_order,
    validate_weyl_form_rank2,
)
from thetaparam.oracle import (
    conjugacy_classes,
    decomposition_dimension_check,
    sl2_character_table,
)
from thetaparam.weilchar import (
    NotGeneralPositionFinite,
    _o2_parts,
    sl2_regular_exponents,
    validate_weyl_form_rank1,
    verify_finite_theta,
)


def inner(a: ClassFunction, b: ClassFunction) -> np.ndarray:
    """|G| <a, b> = the sum over the group of a(g) conj(b(g)), canonical."""
    return _dot(a.values, _conj(b.values))


def integer(m: int, n: int) -> np.ndarray:
    """The integer m as a canonical array of Z[zeta_n]."""
    return m * _reduction(n)[0]


# -- group structure


@pytest.mark.parametrize("q", [3, 5])
def test_group_orders(q):
    plus = dual_pair(q, "+")
    minus = dual_pair(q, "-")
    assert len(plus.sl2.elements) == q * (q * q - 1)
    assert len(plus.o2.elements) == 2 * (q - 1)
    assert len(minus.o2.elements) == 2 * (q + 1)
    assert plus.rotation_order == q - 1 and minus.rotation_order == q + 1


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("variant", ["+", "-"])
def test_orthogonal_elements_match_the_quadratic_form_definition(q, variant):
    # oracle: every invertible m with Q(mv) = Q(v) for all v, in lexicographic order
    space = dual_pair(q, variant).space
    expected = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if (a * d - b * c) % q and all(
                        space.quad(((a * x + b * y) % q, (c * x + d * y) % q)) == space.quad((x, y))
                        for x, y in space.vectors()
                    ):
                        expected.append([[a, b], [c, d]])
    assert dual_pair(q, variant).o2.elements.tolist() == expected


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("variant", ["+", "-"])
def test_group_tables_match_matrix_products(q, variant):
    pair = dual_pair(q, variant)
    for group in (pair.sl2, pair.o2):
        e = group.elements.astype(np.int64)
        flat = e.reshape(len(e), -1).tolist()
        assert flat == sorted(flat)  # code order is the lexicographic order of the entries
        assert np.array_equal(e[group.mul], e[:, None] @ e[None] % q)
        assert np.array_equal(e[group.inverse] @ e % q, np.broadcast_to(np.eye(2), e.shape))
        assert np.array_equal(e[group.identity], np.eye(2))
        assert np.array_equal(group.index(e), np.arange(len(e)))
    with pytest.raises(VerificationFailure):
        pair.sl2.index([[2, 0], [0, 1]])
    with pytest.raises(VerificationFailure):
        pair.o2.index([[1, 1], [0, 1]])


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("variant", ["+", "-"])
def test_o2_decompose_writes_reflections_as_rotation_times_seed(q, variant):
    pair = dual_pair(q, variant)
    elements = pair.o2.elements.astype(np.int64)
    rotations = elements[pair.rotations]
    seed = next(h for i, h in enumerate(elements) if i not in pair.rotations.tolist())
    j, refl = np.array(_o2_parts(q, variant)).T
    assert len(j) == len(refl) == len(elements)
    for h, jj, r in zip(elements, j, refl):
        assert np.array_equal(h, rotations[jj] @ seed % q if r else rotations[jj])
    assert refl.sum() == len(pair.rotations)


@pytest.mark.parametrize("q", [3, 5])
def test_sl2_classes_match_conjugation_by_adjugate(q):
    # oracle: the orbit of g is every x g adj(x) / det(x), by dense products
    sl2 = dual_pair(q, "-").sl2
    e = sl2.elements.astype(np.int64)
    adj = np.swapaxes(e[:, ::-1, ::-1], 1, 2) * [[1, -1], [-1, 1]]  # [[d, -b], [-c, a]]
    conj = (e[:, None] @ e[None] @ adj[:, None] % q).reshape(len(e), len(e), 4)  # [x, g]
    orbits = {tuple(sorted(set(map(tuple, conj[:, g].tolist())))) for g in range(len(e))}
    assert len(orbits) == q + 4
    classes = {tuple(map(tuple, e[cl].reshape(-1, 4).tolist())) for cl in conjugacy_classes(sl2)}
    assert classes == orbits


def test_space_discriminants():
    # the polar Gram over F_q: disc trivial for '+', nontrivial for '-'
    for q in (3, 5):
        for variant, trivial in (("+", True), ("-", False)):
            g = dual_pair(q, variant).space.gram
            det = (g[0][0] * g[1][1] - g[0][1] * g[0][1]) % q
            disc = (-det) % q
            is_sq = disc != 0 and pow(disc, (q - 1) // 2, q) == 1
            assert is_sq == trivial


# -- oscillator representation


def _omegas(rep, gi, hi):
    """Dense q omega(g, h) = q S_g P_h for index arrays gi, hi, with the
    permutation matrix P_h = eye[perm_h] applied to S_g as a column
    permutation: S P = S[:, perm^-1]."""
    inverse = np.argsort(rep.perm, axis=1)
    return np.take_along_axis(rep.sp[gi], inverse[hi][:, None, :, None], axis=2)


def _multipliers(mats):
    """x -> m x for matrices m over Z[zeta_q], as float64 matrices on the
    coefficient columns of _columns: row (i, u), column (k, t) hold the
    coefficient of zeta^u in the canonical m[i, k] zeta^t.  With entries of
    size at most q^2 and columns of size at most q, a product sums d q terms
    below q^3 each, so float64 keeps it exact."""
    n, d, _, q = mats.shape
    shifted = _reduction(q)[(np.arange(q)[:, None] + np.arange(q)) % q]  # zeta^(s + t)
    prods = np.einsum("niks,stu->niukt", mats.astype(np.int64), shifted)
    return prods.reshape(n, d * q, d * q).astype(float)


def _columns(mats):
    """Matrices over Z[zeta_q] with their coefficients moved into the rows:
    row (k, t) holds the coefficients of zeta^t."""
    n, d, _, q = mats.shape
    return mats.transpose(0, 1, 3, 2).reshape(n, d * q, d).astype(float)


def test_weil_rep_dimension_and_identity():
    rep = build_weil_rep(3, "-")
    pair = rep.pair
    assert rep.sp.shape == (24, 9, 9, 3) and rep.perm.shape == (8, 9)
    assert rep.traces.shape == (24, 8, 3)
    gi, hi = pair.sl2.identity, pair.o2.identity
    assert np.array_equal(pair.sl2.elements[gi], np.eye(2))
    assert np.array_equal(pair.o2.elements[hi], np.eye(2))
    omega = _omegas(rep, np.array([gi]), np.array([hi]))[0]
    assert np.array_equal(omega, 3 * np.eye(9, dtype=int)[..., None] * integer(1, 3))
    assert np.array_equal(rep.perm[hi], np.arange(9))


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("variant", ["+", "-"])
def test_weil_rep_is_exact_and_pins_the_weyl_sign(q, variant):
    """q S_g is stored over Z[zeta_q] in canonical form, coefficients in
    [-q, q]; q S_w = c F has c = -1 on the anisotropic space and +1 on the
    split one, read off the entry F[0, 0] = 1."""
    rep = build_weil_rep(q, variant)
    assert rep.sp.dtype == np.int8 and not rep.sp[..., q - 1].any()
    assert np.abs(rep.sp).max() == q and not rep.traces[..., q - 1].any()
    w = rep.pair.sl2.index([[0, 1], [-1, 0]])
    assert np.array_equal(rep.sp[w, 0, 0], integer(-1 if variant == "-" else 1, q))


@pytest.mark.parametrize("variant", ["+", "-"])
def test_weil_rep_multiplicativity_exhaustive_q3(variant):
    q = 3
    rep = build_weil_rep(q, variant)
    sl2, o2 = rep.pair.sl2, rep.pair.o2
    n_o = len(o2.elements)
    gi, hi = np.divmod(np.arange(len(sl2.elements) * n_o), n_o)
    omega = _omegas(rep, gi, hi)  # omega[g * n_o + h] = q omega(g, h)
    left, cols = _multipliers(omega), _columns(omega)
    for g1, h1, m1 in zip(gi, hi, left):
        # q omega(g1, h1) q omega(g2, h2) = q (q omega(g1 g2, h1 h2)), exactly
        assert np.array_equal(m1 @ cols, q * cols[sl2.mul[g1, gi] * n_o + o2.mul[h1, hi]])


@pytest.mark.parametrize("variant", ["+", "-"])
def test_weil_rep_factors_compose_exhaustive_q5(variant):
    """S_g composes by the SL2 product table and P_h by the O(V) one, on
    every pair.  With the commutation test below this gives the joint law
    omega(g1, h1) omega(g2, h2) = S_g1 S_g2 P_h1 P_h2 = omega(g1 g2, h1 h2)."""
    rep = build_weil_rep(5, variant)
    sl2, o2 = rep.pair.sl2, rep.pair.o2
    assert len(sl2.elements) ** 2 == 14400
    left, cols = _multipliers(rep.sp), _columns(rep.sp)
    for g1 in range(len(sl2.elements)):
        # (q S_g1)(q S_g2) = q (q S_g1g2) for every g2, exactly
        assert np.array_equal(left[g1] @ cols, 5 * cols[sl2.mul[g1]])
    # P_h = eye[perm_h], so P_h1 P_h2 = eye[perm_h2[perm_h1]]
    n_o = len(o2.elements)
    composed = rep.perm[np.arange(n_o)[None, :, None], rep.perm[:, None, :]]  # [h1, h2]
    assert np.array_equal(composed, rep.perm[o2.mul])


def test_weil_rep_commutation_exhaustive():
    for q in (3, 5):
        for variant in ("+", "-"):
            rep = build_weil_rep(q, variant)
            sp = rep.sp.transpose(0, 3, 1, 2).astype(float)  # one matrix per coefficient
            for perm in rep.perm:
                p_h = np.eye(q * q)[perm]
                assert np.array_equal(sp @ p_h, p_h @ sp)


def _rank_mod(matrix, q):
    m = [row[:] for row in matrix]
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][c] % q), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, q)
        m[rank] = [(v * inv) % q for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][c] % q:
                f = m[r][c]
                m[r] = [(m[r][k] - f * m[rank][k]) % q for k in range(cols)]
        rank += 1
    return rank


def test_trace_squares_to_fixed_space_count():
    """|trace omega(g,h)|^2 = q^{dim ker(g x h - 1)} on sampled pairs."""
    rng = random.Random(1)
    for q in (3, 5):
        for variant in ("+", "-"):
            rep = build_weil_rep(q, variant)
            sl2, o2 = rep.pair.sl2, rep.pair.o2
            for _ in range(60):
                gi = rng.randrange(len(sl2.elements))
                hi = rng.randrange(len(o2.elements))
                g, h = sl2.elements[gi].tolist(), o2.elements[hi].tolist()
                kron = [
                    [
                        (g[i1][j1] * h[i2][j2] - (1 if (i1, i2) == (j1, j2) else 0)) % q
                        for j1 in range(2)
                        for j2 in range(2)
                    ]
                    for i1 in range(2)
                    for i2 in range(2)
                ]
                dim_fix = 4 - _rank_mod(kron, q)
                tr = rep.traces[gi, hi][None]  # q trace
                assert np.array_equal(_dot(tr, _conj(tr)), integer(q ** (2 + dim_fix), q))


# -- characters


@pytest.mark.parametrize("q", [3, 5])
def test_dl_characters_norm_one(q):
    order = q * (q * q - 1)
    for k in sl2_regular_exponents(q):
        chi = dl_regular_character(q, "nonsplit", k)
        assert np.array_equal(inner(chi, chi), integer(order, _order(q)))
        assert chi.degree() == q - 1
    n = q - 1
    for a in range(1, n):
        if (2 * a) % n:
            chi = dl_regular_character(q, "split", a)
            assert np.array_equal(inner(chi, chi), integer(order, _order(q)))
            assert chi.degree() == q + 1


def test_dl_character_rejects_non_regular():
    with pytest.raises(NotGeneralPositionFinite):
        dl_regular_character(3, "nonsplit", 2)
    with pytest.raises(NotGeneralPositionFinite):
        dl_regular_character(5, "nonsplit", 3)


def _orthogonality(chars, group, n):
    """Both orthogonality relations, exactly: <chi_a, chi_b> = [a = b], and
    sum_chi chi(x) conj(chi(y)) = |C_G(x)| [x ~ y] on class representatives."""
    order = len(group.elements)
    for a, chi in enumerate(chars):
        for b, psi in enumerate(chars):
            assert np.array_equal(inner(chi, psi), integer(order * (a == b), n)), (chi.label, psi.label)
    classes = conjugacy_classes(group)
    assert len(chars) == len(classes)
    values = np.stack([chi.values for chi in chars], axis=1)  # (|G|, characters, n)
    for a, x in enumerate(classes):
        for b, y in enumerate(classes):
            column = _dot(values[x[0]], _conj(values[y[0]]))
            assert np.array_equal(column, integer(order // len(x) * (a == b), n))


@pytest.mark.parametrize("q", [3, 5])
def test_sl2_closed_form_table_orthogonality(q):
    """The q + 4 closed-form characters, the regular ones of both tori among
    them, pass both orthogonality relations, so they are all the irreducibles."""
    table = sl2_character_table(q)
    assert len(table) == q + 4
    assert sorted(chi.degree() for chi in table) == sorted(
        [1, q, (q + 1) // 2, (q + 1) // 2, (q - 1) // 2, (q - 1) // 2]
        + [q + 1] * ((q - 3) // 2) + [q - 1] * ((q - 1) // 2)
    )
    _orthogonality(table, dual_pair(q, "-").sl2, _order(q))


def test_split_torus_characters_match_induced_characters():
    """The principal series of SL2(5) is Ind_B^G of the split torus character
    a -> zeta_4^(k log a) on B = {[[a, *], [0, 1/a]]}: (1 / |B|) times the
    sum over x of its value on x g x^-1, by the group tables."""
    q, n = 5, _order(5)
    sl2 = dual_pair(q, "-").sl2
    g0 = fq_multiplicative_generator(fq_make(q, 1)).coeffs[0]
    log = {pow(g0, j, q): j for j in range(q - 1)}
    a, c = sl2.elements[:, 0, 0], sl2.elements[:, 1, 0]
    conj = sl2.mul[sl2.mul, sl2.inverse[:, None]]  # conj[x, g] = x g x^-1
    for k in (1, 3):
        on_b = np.array([integer(0, n) if ci else _reduction(n)[k * log[ai] * n // (q - 1) % n]
                         for ai, ci in zip(a, c)])
        induced = on_b[conj].sum(axis=0)
        assert np.array_equal(induced, q * (q - 1) * dl_regular_character(q, "split", k).values), k


@pytest.mark.parametrize("q", [3, 5])
def test_characters_are_class_functions(q):
    chars = [dl_regular_character(q, "nonsplit", k) for k in sl2_regular_exponents(q)]
    chars += [dl_regular_character(q, "split", a) for a in range(1, q - 1) if (2 * a) % (q - 1)]
    for variant in ("+", "-"):
        pair = dual_pair(q, variant)
        chars += [o2_induced_character(pair, k) for k in range(1, pair.rotation_order // 2)]
    for chi in chars:
        for cl in conjugacy_classes(chi.group):
            assert (chi.values[cl] == chi.values[cl[0]]).all(), chi.label


@pytest.mark.parametrize("q", [3, 5])
def test_o2_characters(q):
    for variant in ("+", "-"):
        pair = dual_pair(q, variant)
        irr = o2_irreducibles(pair)
        # count: 4 linear plus (n - 2) / 2 induced
        n = pair.rotation_order
        assert len(irr) == 4 + (n - 2) // 2
        _orthogonality(irr, pair.o2, _order(q))
        # sum of squares of degrees = |O|
        assert sum(chi.degree() ** 2 for chi in irr) == len(pair.o2.elements)


def test_o2_induced_degree_and_vanishing_on_reflections():
    pair = dual_pair(3, "-")
    rho = o2_induced_character(pair, 1)
    assert rho.degree() == 2
    rot = set(pair.rotations.tolist())
    for h in range(len(pair.o2.elements)):
        if h not in rot:
            assert not rho.values[h].any()


# -- theta multiplicities


def test_multiplicity_integrality_trivial_pair():
    rep = build_weil_rep(3, "-")
    pair = rep.pair
    one = integer(1, _order(3))
    triv_sp = ClassFunction(pair.sl2, np.ones(len(pair.sl2.elements), dtype=int)[:, None] * one, "1")
    triv_o = ClassFunction(pair.o2, np.ones(len(pair.o2.elements), dtype=int)[:, None] * one, "1")
    m = theta_multiplicity(rep, triv_sp, triv_o)
    assert m >= 0
    # zeta_N pi for a pi of multiplicity 1: the double sum is zeta_N^-1 times
    # an integer, and nothing rounds it to one
    pi, rho = dl_regular_character(3, "nonsplit", 1), o2_induced_character(pair, 1)
    assert theta_multiplicity(rep, pi, rho) == 1
    twisted = ClassFunction(pair.sl2, np.roll(pi.values, 1, axis=1) @ _reduction(_order(3)), "zeta pi")
    with pytest.raises(NonIntegralMultiplicity):
        theta_multiplicity(rep, twisted, rho)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("variant", ["+", "-"])
def test_theta_multiplicity_matches_double_character_sum(q, variant):
    # oracle: sum over g, h of tr(S_g P_h) conj(pi(g)) conj(rho(h)) / (|SL2| |O|),
    # with the permutation matrix P_h built densely
    rep = build_weil_rep(q, variant)
    pair = rep.pair
    n = _order(q)
    # q tr(S_g P_h) in Z[zeta_n], as zeta_q = zeta_n^(n / q)
    p_h = np.eye(q * q, dtype=np.int64)[rep.perm]
    traces = np.zeros((len(pair.sl2.elements), len(pair.o2.elements), n), dtype=np.int64)
    traces[..., :: n // q] = np.einsum("gikt,hki->ght", rep.sp.astype(np.int64), p_h)
    pis = [dl_regular_character(q, "nonsplit", k) for k in sl2_regular_exponents(q)]
    pis += [dl_regular_character(q, "split", a) for a in range(1, q - 1) if (2 * a) % (q - 1)]
    for rho in o2_irreducibles(pair):
        per_g = np.array([_dot(tr, _conj(rho.values)) for tr in traces])
        for pi in pis:
            total = _dot(per_g, _conj(pi.values))
            m = total[0] // (q * traces[..., 0].size)
            assert m >= 0 and np.array_equal(total, integer(m * q * traces[..., 0].size, n))
            assert theta_multiplicity(rep, pi, rho) == m


@pytest.mark.parametrize("q", [3, 5])
def test_finite_theta_pattern(q):
    report = verify_finite_theta(q)
    assert report["ok"]
    exps = [e["exponent"] for e in report["characters"]]
    assert exps == sl2_regular_exponents(q)
    for entry in report["characters"]:
        assert entry["matched"]
        assert entry["inverse_pair_identical"]
        hits = [x for x in entry["minus"] if x["multiplicity"]]
        assert len(hits) == 1 and hits[0]["multiplicity"] == 1
        assert all(x["multiplicity"] == 0 for x in entry["plus"])


def test_q3_single_orbit_of_regular_characters():
    # Z/4 has two regular exponents forming one inverse pair
    report = verify_finite_theta(3)
    assert len(report["characters"]) == 2
    c1 = dl_regular_character(3, "nonsplit", 1)
    c3 = dl_regular_character(3, "nonsplit", 3)
    assert np.array_equal(c1.values, c3.values)


def test_q5_regular_exponent_pairs():
    # Z/6: exponents 1, 2, 4, 5; +-1 pairs with +-5 and +-2 with +-4
    assert sl2_regular_exponents(5) == [1, 2, 4, 5]
    chi = {k: dl_regular_character(5, "nonsplit", k).values for k in (1, 2, 4, 5)}
    assert np.array_equal(chi[1], chi[5])
    assert np.array_equal(chi[2], chi[4])
    assert not np.array_equal(chi[1], chi[2])


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("variant", ["+", "-"])
def test_full_decomposition_dimension(q, variant):
    assert decomposition_dimension_check(q, variant)


# -- Weyl form validation


@pytest.mark.parametrize("q", [3, 5])
def test_weyl_form_rank1(q):
    out = validate_weyl_form_rank1(q)
    assert out["ok"]
    assert out["sl2"]["weyl_order"] == 2
    assert out["o2"]["weyl_order"] == 2


def test_weyl_form_rank2_sp4():
    """Brute-force normalizer in Sp4(3): |W| = 4 with exponent actions the
    powers of q mod q^2 + 1.  Sp4(5) is left out for memory: its 9.36 * 10^6
    elements take 150 MB as int8 matrices and 75 MB per array of int64
    codes, and the closure's widest level, with six products per element
    and an int64 code and sort index per product, and the normalizer's
    int64 column codes (300 MB) put the estimated peak above 0.5 GB.  The
    q = 5 form is covered at rank one."""
    out = validate_weyl_form_rank2(3)
    assert out["ok"]
    assert out["group_order"] == 51840
    assert out["weyl_order"] == 4
    assert out["actions"] == [1, 3, 7, 9]


# -- integer-coded closure and normalizer against brute force


def _keys_list(mats):
    return [tuple(map(tuple, m)) for m in np.asarray(mats).tolist()]


def _keys(mats):
    return set(_keys_list(mats))


@pytest.mark.parametrize("q", [3, 5])
def test_mulclose_sl2_matches_enumeration(q):
    gens = [((0, 1), (q - 1, 0)), ((1, 1), (0, 1))]
    group = _mulclose(gens, q)
    assert len(group) == q * (q * q - 1)
    r = range(q)
    assert _keys(group) == {((a, b), (c, d)) for a in r for b in r for c in r for d in r
                            if (a * d - b * c) % q == 1}


def _conjugation_oracle(group, inverses, torus, q):
    """The multipliers a with g t_1 g^-1 = t_a, each with the number of
    elements g of group inducing it, from the given inverses g^-1."""
    index = {t: a for a, t in enumerate(_keys_list(torus))}
    images = np.asarray(group, dtype=np.int64) @ torus[1] @ inverses % q
    return Counter(index[img] for img in _keys_list(images) if img in index)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("group_name", ["sl2", "o2+", "o2-"])
def test_normalizer_matches_conjugation_oracle(q, group_name):
    variant = "+" if group_name == "o2+" else "-"
    pair = dual_pair(q, variant)
    group = (pair.sl2 if group_name == "sl2" else pair.o2).elements
    torus = pair.o2.elements[pair.rotations].astype(np.int64)
    (a, b), (c, d) = np.moveaxis(group.astype(np.int64), 0, -1)
    dets = np.array([pow(int(x), -1, q) for x in (a * d - b * c) % q])
    adjugates = np.moveaxis(np.array([[d, -b], [-c, a]]), -1, 0)
    expected = _conjugation_oracle(group, adjugates * dets[:, None, None], torus, q)  # the adjugate over det
    actions = normalizer_exponent_actions(group, torus, q)
    assert dict(actions) == expected
    assert all(type(a) is int and type(c) is int for a, c in actions.items())
    assert torus_normalizer_order(group, torus, q) == sum(expected.values())


def test_sp4_closure_preserves_gram():
    q = 3
    _, gram = _torus_matrices_in_sp4(q)
    group = _mulclose(_sp4_transvections(q, gram), q).astype(np.int64)
    j = np.array(gram, dtype=np.int64) % q
    assert len(group) == 51840
    assert np.array_equal(np.swapaxes(group, 1, 2) @ j @ group % q, np.broadcast_to(j, group.shape))


def test_mulclose_limit(monkeypatch):
    _, gram = _torus_matrices_in_sp4(3)
    monkeypatch.setattr(finitetheta, "CLOSURE_LIMIT", 1000)
    with pytest.raises(VerificationFailure):
        _mulclose(_sp4_transvections(3, gram), 3)


def test_sp4_normalizer_matches_conjugation_oracle():
    """g t_1 g^-1 with g^-1 = J^-1 g^T J, which holds on the closure as
    test_sp4_closure_preserves_gram checks."""
    q = 3
    torus, gram = _torus_matrices_in_sp4(q)
    group = _mulclose(_sp4_transvections(q, gram), q)
    j = np.array(gram, dtype=np.int64) % q
    det = round(np.linalg.det(j))
    j_inv = np.rint(np.linalg.inv(j) * det).astype(np.int64) * pow(det, -1, q) % q
    assert np.array_equal(j @ j_inv % q, np.eye(4, dtype=np.int64))
    inverses = j_inv @ np.swapaxes(group, 1, 2).astype(np.int64) @ j % q
    expected = _conjugation_oracle(group, inverses, torus.astype(np.int64), q)
    assert expected == {1: 10, 3: 10, 7: 10, 9: 10}
    assert normalizer_exponent_actions(group, torus, q) == expected


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("q", [3, 5])
def test_column_codes_give_the_matrix_codes_and_actions(q, k):
    """One code rule: the code of a matrix from its column codes is _codes,
    and the table of g sends the code of each vector v to that of g v."""
    rng = np.random.default_rng(100 * q + k)
    mats = rng.integers(0, q, size=(200, k, k)).astype(np.int8)
    vecs = _vectors(q, k)
    assert np.array_equal(_codes(vecs, q), np.arange(q**k))
    assert np.array_equal(_from_columns(_column_codes(mats, q), _places(q, k)), _codes(mats, q))
    for g, act in zip(mats, _actions(mats, q)):
        assert np.array_equal(vecs[act], vecs @ g.T.astype(np.int64) % q)


# sha256 of the int8 bytes of each closure
CLOSURE_DIGESTS = {
    "sp4_3": "09259a3db6066d93c2df1c1708f92b78be225d75d72320be73b07e1897ea1e52",
    "sl2_3": "dd37c99f37f7d0f8e1f5e8b4f86c0d315ef3ccf704318f246d4dfbea9814b298",
    "sl2_5": "65f42bb0de970bfc2260b3c6a4ec18a75b83bd76a7e89a34cad5e63135883de6",
}


@pytest.mark.parametrize("name", sorted(CLOSURE_DIGESTS))
def test_mulclose_layout_is_pinned(name):
    """The breadth-first, code-ordered layout, byte for byte, identity first."""
    group, q = name.split("_")
    q = int(q)
    if group == "sp4":
        gens = _sp4_transvections(q, _torus_matrices_in_sp4(q)[1])
    else:
        gens = [((0, 1), (q - 1, 0)), ((1, 1), (0, 1))]
    elements = _mulclose(gens, q)
    assert elements.dtype == np.int8
    assert np.array_equal(elements[0], np.eye(elements.shape[-1]))
    assert hashlib.sha256(elements.tobytes()).hexdigest() == CLOSURE_DIGESTS[name]
