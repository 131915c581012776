import random

import numpy as np
import pytest

from thetaparam.finitetheta import (
    ClassFunction,
    NotGeneralPositionFinite,
    VerificationFailure,
    _mulclose,
    _o2_decompose,
    _sp4_transvections,
    _torus_matrices_in_sp4,
    build_weil_rep,
    conjugacy_classes,
    decomposition_dimension_check,
    dl_regular_character,
    dual_pair,
    normalizer_exponent_actions,
    numerical_character_table,
    o2_induced_character,
    o2_irreducibles,
    sl2_regular_exponents,
    theta_multiplicity,
    torus_normalizer_order,
    validate_weyl_form_rank1,
    validate_weyl_form_rank2,
    verify_finite_theta,
)


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
    j, refl = _o2_decompose(pair)
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
    """Dense omega(g, h) = S_g P_h for index arrays gi, hi, with the
    permutation matrix P_h = eye[perm_h] applied to S_g as a column
    permutation: S P = S[:, perm^-1]."""
    inverse = np.argsort(rep.perm, axis=1)
    return np.take_along_axis(rep.sp[gi], inverse[hi][:, None, :], axis=2)


def test_weil_rep_dimension_and_identity():
    rep = build_weil_rep(3, "-")
    pair = rep.pair
    assert rep.sp.shape == (24, 9, 9) and rep.perm.shape == (8, 9)
    assert rep.traces.shape == (24, 8)
    gi, hi = pair.sl2.identity, pair.o2.identity
    assert np.array_equal(pair.sl2.elements[gi], np.eye(2))
    assert np.array_equal(pair.o2.elements[hi], np.eye(2))
    assert np.allclose(_omegas(rep, np.array([gi]), np.array([hi]))[0], np.eye(9))
    assert np.array_equal(rep.perm[hi], np.arange(9))


@pytest.mark.parametrize("variant", ["+", "-"])
def test_weil_rep_multiplicativity_exhaustive_q3(variant):
    q = 3
    rep = build_weil_rep(q, variant)
    sl2, o2 = rep.pair.sl2, rep.pair.o2
    n_o = len(o2.elements)
    gi, hi = np.divmod(np.arange(len(sl2.elements) * n_o), n_o)
    omega = _omegas(rep, gi, hi)  # omega[g * n_o + h] = omega(g, h)
    for g1, h1, m1 in zip(gi, hi, omega):
        rhs = omega[sl2.mul[g1, gi] * n_o + o2.mul[h1, hi]]
        assert np.max(np.abs(m1 @ omega - rhs)) < 1e-7


@pytest.mark.parametrize("variant", ["+", "-"])
def test_weil_rep_factors_compose_exhaustive_q5(variant):
    """S_g composes by the SL2 product table and P_h by the O(V) one, on
    every pair.  With the commutation test below this gives the joint law
    omega(g1, h1) omega(g2, h2) = S_g1 S_g2 P_h1 P_h2 = omega(g1 g2, h1 h2)."""
    rep = build_weil_rep(5, variant)
    sl2, o2 = rep.pair.sl2, rep.pair.o2
    assert len(sl2.elements) ** 2 == 14400
    for g1 in range(len(sl2.elements)):
        assert np.max(np.abs(rep.sp[g1] @ rep.sp - rep.sp[sl2.mul[g1]])) <= 1e-9
    # P_h = eye[perm_h], so P_h1 P_h2 = eye[perm_h2[perm_h1]]
    n_o = len(o2.elements)
    composed = rep.perm[np.arange(n_o)[None, :, None], rep.perm[:, None, :]]  # [h1, h2]
    assert np.array_equal(composed, rep.perm[o2.mul])


def test_weil_rep_commutation_exhaustive():
    for q in (3, 5):
        for variant in ("+", "-"):
            rep = build_weil_rep(q, variant)
            for perm in rep.perm:
                p_h = np.eye(q * q)[perm]
                assert np.max(np.abs(rep.sp @ p_h - p_h @ rep.sp)) < 1e-7


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
                tr = rep.traces[gi, hi]
                assert abs(abs(tr) ** 2 - q**dim_fix) < 1e-5


# -- characters


@pytest.mark.parametrize("q", [3, 5])
def test_dl_characters_norm_one(q):
    for k in sl2_regular_exponents(q):
        chi = dl_regular_character(q, "nonsplit", k)
        assert abs(chi.inner(chi) - 1) < 1e-9
        assert abs(chi.degree() - (q - 1)) < 1e-9
    n = q - 1
    for a in range(1, n):
        if (2 * a) % n:
            chi = dl_regular_character(q, "split", a)
            assert abs(chi.inner(chi) - 1) < 1e-9
            assert abs(chi.degree() - (q + 1)) < 1e-9


def test_dl_character_rejects_non_regular():
    with pytest.raises(NotGeneralPositionFinite):
        dl_regular_character(3, "nonsplit", 2)
    with pytest.raises(NotGeneralPositionFinite):
        dl_regular_character(5, "nonsplit", 3)


@pytest.mark.parametrize("q", [3, 5])
def test_dl_characters_match_numerical_table(q):
    numerical = numerical_character_table(dual_pair(q, "-").sl2)
    for k in sl2_regular_exponents(q):
        chi = dl_regular_character(q, "nonsplit", k)
        hits = [nc for nc in numerical if abs(chi.inner(nc) - 1) < 1e-6]
        assert len(hits) == 1


def test_split_torus_characters_match_numerical_table_by_values():
    numerical = numerical_character_table(dual_pair(5, "-").sl2)
    for k in (1, 3):
        chi = dl_regular_character(5, "split", k)
        hits = [nc for nc in numerical if np.max(np.abs(chi.values - nc.values)) < 1e-9]
        assert len(hits) == 1, k


@pytest.mark.parametrize("q", [3, 5])
def test_characters_are_class_functions(q):
    chars = [dl_regular_character(q, "nonsplit", k) for k in sl2_regular_exponents(q)]
    chars += [dl_regular_character(q, "split", a) for a in range(1, q - 1) if (2 * a) % (q - 1)]
    for variant in ("+", "-"):
        pair = dual_pair(q, variant)
        chars += [o2_induced_character(pair, k) for k in range(1, pair.rotation_order // 2)]
    for chi in chars:
        for cl in conjugacy_classes(chi.group):
            assert np.max(np.abs(chi.values[cl] - chi.values[cl[0]])) < 1e-12, chi.label


@pytest.mark.parametrize("q", [3, 5])
def test_o2_characters(q):
    for variant in ("+", "-"):
        pair = dual_pair(q, variant)
        irr = o2_irreducibles(pair)
        # count: 4 linear plus (n - 2) / 2 induced
        n = pair.rotation_order
        assert len(irr) == 4 + (n - 2) // 2
        for chi in irr:
            assert abs(chi.inner(chi) - 1) < 1e-9
        # pairwise orthogonal
        for i, a in enumerate(irr):
            for b in irr[i + 1 :]:
                assert abs(a.inner(b)) < 1e-9
        # sum of squares of degrees = |O|
        assert (
            abs(sum(abs(chi.degree()) ** 2 for chi in irr) - len(pair.o2.elements)) < 1e-6
        )


def test_o2_induced_degree_and_vanishing_on_reflections():
    pair = dual_pair(3, "-")
    rho = o2_induced_character(pair, 1)
    assert abs(rho.degree() - 2) < 1e-9
    rot = set(pair.rotations.tolist())
    for h in range(len(pair.o2.elements)):
        if h not in rot:
            assert abs(rho.values[h]) < 1e-12


# -- theta multiplicities


def test_multiplicity_integrality_trivial_pair():
    rep = build_weil_rep(3, "-")
    pair = rep.pair
    triv_sp = ClassFunction(pair.sl2, np.ones(len(pair.sl2.elements), dtype=complex), "1")
    triv_o = ClassFunction(pair.o2, np.ones(len(pair.o2.elements), dtype=complex), "1")
    m = theta_multiplicity(rep, triv_sp, triv_o)
    assert m >= 0


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("variant", ["+", "-"])
def test_theta_multiplicity_matches_double_character_sum(q, variant):
    # oracle: sum over g, h of tr(S_g P_h) conj(pi(g)) conj(rho(h)) / (|SL2| |O|),
    # with the permutation matrix P_h built densely
    rep = build_weil_rep(q, variant)
    pair = rep.pair
    traces = {
        (g, h): np.trace(rep.sp[g] @ np.eye(q * q)[rep.perm[h]])
        for g in range(len(pair.sl2.elements))
        for h in range(len(pair.o2.elements))
    }
    pis = [dl_regular_character(q, "nonsplit", k) for k in sl2_regular_exponents(q)]
    pis += [dl_regular_character(q, "split", a) for a in range(1, q - 1) if (2 * a) % (q - 1)]
    for pi in pis:
        for rho in o2_irreducibles(pair):
            total = sum(
                tr * pi.values[g].conjugate() * rho.values[h].conjugate() for (g, h), tr in traces.items()
            ) / len(traces)
            assert abs(total - round(total.real)) < 1e-6
            assert theta_multiplicity(rep, pi, rho) == round(total.real)


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
    assert c1.close_to(c3)


def test_q5_regular_exponent_pairs():
    # Z/6: exponents 1, 2, 4, 5; +-1 pairs with +-5 and +-2 with +-4
    assert sl2_regular_exponents(5) == [1, 2, 4, 5]
    assert dl_regular_character(5, "nonsplit", 1).close_to(dl_regular_character(5, "nonsplit", 5))
    assert dl_regular_character(5, "nonsplit", 2).close_to(dl_regular_character(5, "nonsplit", 4))
    assert not dl_regular_character(5, "nonsplit", 1).close_to(
        dl_regular_character(5, "nonsplit", 2)
    )


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
    codes, and the normalizer pass holds them again as int16 (300 MB) next
    to each product t_j g and its reduction mod q (600 MB), an estimated
    1.2 GB at peak.  The q = 5 form is covered at rank one."""
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


def _conjugation_oracle(group, torus, q):
    index = {t: j for j, t in enumerate(_keys_list(torus))}
    actions = {}
    for g in np.asarray(group, dtype=np.int64):
        (a, b), (c, d) = g.tolist()
        g_inv = np.array([[d, -b], [-c, a]]) * pow(a * d - b * c, -1, q)  # the adjugate over det
        img = tuple(map(tuple, (g @ torus[1] @ g_inv % q).tolist()))
        if img in index:
            actions[index[img]] = actions.get(index[img], 0) + 1
    return actions


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("group_name", ["sl2", "o2+", "o2-"])
def test_normalizer_matches_conjugation_oracle(q, group_name):
    variant = "+" if group_name == "o2+" else "-"
    pair = dual_pair(q, variant)
    group = (pair.sl2 if group_name == "sl2" else pair.o2).elements
    torus = pair.o2.elements[pair.rotations].astype(np.int64)
    expected = _conjugation_oracle(group, torus, q)
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


def test_mulclose_limit():
    _, gram = _torus_matrices_in_sp4(3)
    with pytest.raises(VerificationFailure):
        _mulclose(_sp4_transvections(3, gram), 3, limit=1000)
