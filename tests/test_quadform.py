import itertools
import random
from operator import mul

import pytest

from thetaparam.errors import DomainError
from thetaparam.finitefield import fq_canonical_nonsquare, fq_make
from thetaparam.localfield import (
    SQ_ONE,
    SQ_PI,
    SQ_U,
    SQ_UPI,
    STEP_RAMIFIED,
    STEP_UNRAMIFIED,
    SYM_FIXED,
    LeadingTerm,
    PrecisionExhausted,
    base_field,
    factor_field,
    lt_make,
    lt_mul,
    lt_neg,
    TruncatedElement,
    base_coordinates,
    ring_for,
    tr_add,
    tr_conj,
    tr_inv,
    tr_lift,
    tr_mul,
    tr_sub,
    tr_trace_to_base,
)
from thetaparam import quadform
from thetaparam.quadform import (
    QuadInvariants,
    SymmetryFlagViolation,
    _diagonalize_symmetric,
    _gram_matrix,
    brute_force_hilbert,
    diagonal_invariants,
    hilbert_class,
    hilbert_symbol,
    invariants_of_orthogonal_datum,
    invariants_via_gram,
    orthogonal_sum,
    so_type,
    symplectic_sanity,
    witt_equal,
)
from thetaparam.torusdata import Factor, POLARITY_ORTHOGONAL, TorusDatum

import gen


def class_reps(p):
    base = base_field(p)
    u = fq_canonical_nonsquare(fq_make(p, 1)).coeffs[0]
    return base, {
        SQ_ONE: lt_make(base, 0, [1]),
        SQ_U: lt_make(base, 0, [u]),
        SQ_PI: lt_make(base, 1, [1]),
        SQ_UPI: lt_make(base, 1, [u]),
    }


# -- Hilbert symbol table properties


@pytest.mark.parametrize("p", [3, 5, 7])
def test_symbol_table_properties(p):
    base, reps = class_reps(p)
    classes = list(reps)
    q = p
    # symmetry and bimultiplicativity on the class table
    for a, b in itertools.product(classes, repeat=2):
        assert hilbert_class(a, b, q) == hilbert_class(b, a, q)
        for c in classes:
            assert hilbert_class(a * c, b, q) == hilbert_class(a, b, q) * hilbert_class(c, b, q)
    # (x, -x) = 1 for every leading term representative
    k = fq_make(p, 1)
    for v in (0, 1, 2, 3):
        for r in k.elements():
            if r.is_zero():
                continue
            x = LeadingTerm(base, v, r)
            assert hilbert_symbol(x, lt_neg(x)) == 1
    # nondegeneracy: every nontrivial class pairs to -1 with some class
    for a in classes:
        if a == SQ_ONE:
            continue
        assert any(hilbert_class(a, b, q) == -1 for b in classes)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_symbol_agrees_with_solubility_oracle_exhaustive(p):
    base, reps = class_reps(p)
    for a, b in itertools.product(reps.values(), repeat=2):
        assert hilbert_symbol(a, b) == brute_force_hilbert(a, b)


def test_symbol_agrees_with_solubility_oracle_random():
    rng = random.Random(23)
    for _ in range(100):
        p = rng.choice([3, 5, 7])
        base = base_field(p)
        k = fq_make(p, 1)
        a = LeadingTerm(base, rng.randint(0, 3), k.from_int(rng.randint(1, p - 1)))
        b = LeadingTerm(base, rng.randint(0, 3), k.from_int(rng.randint(1, p - 1)))
        assert hilbert_symbol(a, b) == brute_force_hilbert(a, b)


def test_symbol_pinned_values():
    base = base_field(5)
    assert hilbert_symbol(lt_make(base, 0, [2]), lt_make(base, 1, [1])) == -1  # (2, 5)
    assert hilbert_symbol(lt_make(base, 0, [2]), lt_make(base, 0, [2])) == 1  # (u, u)


# -- invariants of orthogonal data


def single_factor(p, m, step, val, residue_coeffs):
    base = base_field(p)
    field = factor_field(base, m, step)
    c = LeadingTerm(field, val, field.residue_field().element(residue_coeffs), SYM_FIXED)
    return TorusDatum(base, (Factor(m, step, c, 0),), POLARITY_ORTHOGONAL)


def test_invariants_unramified_examples():
    # c = 1: Gram <2, -2u>, disc u, hasse +1
    d = single_factor(5, 1, STEP_UNRAMIFIED, 0, [1, 0])
    inv = invariants_of_orthogonal_datum(d)
    assert inv == QuadInvariants(2, SQ_U, 1)
    # c = pi: Gram <2 pi, -2u pi>, hasse flips
    d2 = single_factor(5, 1, STEP_UNRAMIFIED, 1, [1, 0])
    inv2 = invariants_of_orthogonal_datum(d2)
    assert inv2 == QuadInvariants(2, SQ_U, -1)
    # hyperbolic comparison: sum has dim 4 and trivial disc
    total = orthogonal_sum(inv, inv2, 5)
    assert total.dim == 4 and total.disc == SQ_ONE


def test_invariants_need_fixed_flags():
    base = base_field(5)
    field = factor_field(base, 1, STEP_UNRAMIFIED)
    from thetaparam.localfield import canonical_tau

    bad = TorusDatum(base, (Factor(1, STEP_UNRAMIFIED, canonical_tau(field), 0),), POLARITY_ORTHOGONAL)
    with pytest.raises(SymmetryFlagViolation):
        invariants_of_orthogonal_datum(bad)


@pytest.mark.parametrize("step, val", [
    (STEP_RAMIFIED, 1), (STEP_RAMIFIED, 3), (STEP_RAMIFIED, -1),
    (STEP_UNRAMIFIED, 0), (STEP_UNRAMIFIED, 3), (STEP_UNRAMIFIED, -1),
])
def test_both_routes_reject_a_fixed_flag_the_leading_term_contradicts(step, val):
    """An odd val on a ramified step, or the residue x of F_9, which
    Frobenius moves, on an unramified one, contradicts the fixed flag: the
    Gram route raises as the transfer route does, instead of symmetrizing
    a form that is not symmetric."""
    base = base_field(3)
    residue = [1] if step == STEP_RAMIFIED else [0, 1]
    c = lt_make(factor_field(base, 1, step), val, residue, SYM_FIXED)
    d = TorusDatum(base, (Factor(1, step, c),), POLARITY_ORTHOGONAL)
    for route in (invariants_of_orthogonal_datum, invariants_via_gram):
        with pytest.raises(SymmetryFlagViolation) as info:
            route(d)
        assert str(info.value) == "declared fixed flag contradicts the leading term"
    if step == STEP_RAMIFIED:  # an odd val lifts to a t-part, which the tensor has no columns for
        with pytest.raises(DomainError, match="^the Gram route needs c with a zero t-part$"):
            _gram_matrix(d.factors[0], 8)


def test_symplectic_sanity():
    rng = random.Random(2)
    d = gen.random_mixed_datum(5, rng, 3)
    assert symplectic_sanity(d) == 2 * d.n
    base = base_field(5)
    field = factor_field(base, 1, STEP_UNRAMIFIED)
    fixed_c = LeadingTerm(field, 0, field.residue_field().one(), SYM_FIXED)
    bad = TorusDatum(base, (Factor(1, STEP_UNRAMIFIED, fixed_c, 0),), "symplectic")
    with pytest.raises(SymmetryFlagViolation):
        symplectic_sanity(bad)


def test_so_type_rows():
    assert so_type(QuadInvariants(4, SQ_ONE, 1)).label == "split"
    assert so_type(QuadInvariants(4, SQ_ONE, -1)).label == "nonsplit_inner"
    assert so_type(QuadInvariants(2, SQ_U, 1)).label == "quasi_split_unramified"
    assert so_type(QuadInvariants(2, SQ_U, -1)).label == "quasi_split_unramified"
    assert so_type(QuadInvariants(2, SQ_PI, 1)).label == "quasi_split_ramified"
    with pytest.raises(DomainError):
        so_type(QuadInvariants(2, SQ_ONE, -1))  # no such binary space


def test_witt_equal_and_norm_scaling():
    from thetaparam.localfield import TruncatedElement, ring_for, tr_norm_step

    rng = random.Random(3)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        d = gen.random_orthogonal_datum(p, rng, 3)
        inv = invariants_of_orthogonal_datum(d)
        assert witt_equal(inv, inv)
        # rescale one c by the norm of a random truncated element
        i = rng.randrange(len(d.factors))
        f = d.factors[i]
        ring = ring_for(f.c.field, 6)
        while True:
            y = TruncatedElement(f.c.field, ring, gen.random_parts(ring, rng), 0)
            v = y.val_or_none()
            if v is not None and v <= 1:
                break
        nm_lt = tr_norm_step(y).leading_term(sym=SYM_FIXED)
        factors = list(d.factors)
        factors[i] = Factor(f.m, f.step, lt_mul(f.c, nm_lt), 0)
        d2 = d.replace_factors(factors)
        assert witt_equal(inv, invariants_of_orthogonal_datum(d2))
    flipped = QuadInvariants(4, SQ_ONE, -1)
    assert not witt_equal(QuadInvariants(4, SQ_ONE, 1), flipped)


def test_orthogonal_sum_law_against_concatenation():
    rng = random.Random(4)
    for _ in range(50):
        p = rng.choice([3, 5, 7])
        a = gen.random_orthogonal_datum(p, rng, 2)
        b = gen.random_orthogonal_datum(p, rng, 2)
        joint = TorusDatum(a.base, a.factors + b.factors, POLARITY_ORTHOGONAL)
        lhs = invariants_of_orthogonal_datum(joint)
        rhs = orthogonal_sum(
            invariants_of_orthogonal_datum(a), invariants_of_orthogonal_datum(b), p
        )
        assert lhs == rhs


def test_transfer_and_gram_routes_agree_small_sweep():
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        d = gen.random_orthogonal_datum(p, rng, 3)
        assert invariants_of_orthogonal_datum(d) == invariants_via_gram(d)


def test_diagonal_invariants_hyperbolic():
    from thetaparam.localfield import minus_one_class

    # <1, -1> over Q_5: trivial Hasse
    dim, det, hasse = diagonal_invariants([SQ_ONE, minus_one_class(5)], 5)
    assert dim == 2 and hasse == 1
    assert det == minus_one_class(5)


def _full_row_diagonalize(gram, promotions):
    """The elimination as it was before it kept to the trailing block: every
    row and column operation runs over all n entries.  Appends one entry to
    promotions per off-diagonal pivot moved onto the diagonal."""
    g = [row[:] for row in gram]
    n = len(g)
    diag = []
    for i in range(n):
        best = None
        for r in range(i, n):
            for c in range(r, n):
                v = g[r][c].val_or_none()
                if v is not None and (best is None or v < best[0]):
                    best = (v, r, c)
        if best is None:
            raise PrecisionExhausted("no certified pivot in the remaining block")
        _, r, c = best
        if r != c:
            promotions.append((i, r, c))
            for op in (tr_add, tr_sub):
                cand = [row[:] for row in g]
                for j in range(n):
                    cand[r][j] = op(cand[r][j], cand[c][j])
                for j in range(n):
                    cand[j][r] = op(cand[j][r], cand[j][c])
                if cand[r][r].val_or_none() == best[0]:
                    g = cand
                    break
            else:
                raise PrecisionExhausted("pivot promotion lost the valuation")
        if r != i:
            g[i], g[r] = g[r], g[i]
            for row in g:
                row[i], row[r] = row[r], row[i]
        pivot = g[i][i]
        inv_pivot = tr_inv(pivot)
        factors = {}
        for k in range(i + 1, n):
            if g[k][i].val_or_none() is not None:
                factors[k] = tr_mul(g[k][i], inv_pivot)
        for k, factor in factors.items():
            for j in range(n):
                g[k][j] = tr_sub(g[k][j], tr_mul(factor, g[i][j]))
        for k, factor in factors.items():
            for j in range(n):
                g[j][k] = tr_sub(g[j][k], tr_mul(factor, g[j][i]))
        diag.append(pivot)
    return diag


def test_trailing_block_elimination_matches_full_row_reference():
    """Every diagonal entry (parts, shift) equals the full-row elimination's,
    on the Gram matrices of seeded criterion-7 data at the precisions the
    Gram route tries."""
    rng = random.Random(727)
    compared, ramified, largest, promotions = 0, 0, 0, []
    for i in range(240):
        d = gen.random_orthogonal_datum((3, 5, 7)[i % 3], rng, 4)
        start = 4 + sum(abs(f.c.val) // f.c.field.e + 2 for f in d.factors)
        for factor in d.factors:
            for k in range(5):
                gram = _gram_matrix(factor, start << k)
                try:
                    expected = _full_row_diagonalize(gram, promotions)
                except PrecisionExhausted:
                    with pytest.raises(PrecisionExhausted):
                        _diagonalize_symmetric(gram)
                    continue
                got = _diagonalize_symmetric(gram)
                assert [(e.parts, e.shift) for e in got] == [(e.parts, e.shift) for e in expected]
                compared += 1
                ramified += factor.step == STEP_RAMIFIED
                largest = max(largest, len(gram))
                break
    assert compared >= 300 and ramified >= 100 and largest == 8
    assert promotions


def test_gram_exhaustion_reports_the_last_precision_tried(monkeypatch):
    tried = []

    def always_exhausted(gram):
        tried.append(gram[0][0].ring.prec)
        raise PrecisionExhausted("no certified pivot")

    monkeypatch.setattr(quadform, "_diagonalize_symmetric", always_exhausted)
    d = gen.random_orthogonal_datum(5, random.Random(3), 4)
    start = 4 + sum(abs(f.c.val) // f.c.field.e + 2 for f in d.factors)
    with pytest.raises(PrecisionExhausted, match=rf"failed up to precision {start * 16}$"):
        invariants_via_gram(d)
    assert tried == [start * 2**k for k in range(5)]


@pytest.mark.parametrize("f0", [2, 3])
def test_transfer_and_gram_routes_agree_over_a_base_of_degree_f0(f0):
    """Over F of degree f0 > 1 the F-coordinates of a Gram entry are more
    than its constant coefficient: both routes agree on seeded data that
    use both steps."""
    rng = random.Random(40 + f0)
    steps = set()
    for i in range(60):
        d = gen.random_orthogonal_datum((3, 5, 7)[i % 3], rng, 3, f0)
        assert d.base.base_f == f0
        steps.update(f.step for f in d.factors)
        assert invariants_of_orthogonal_datum(d) == invariants_via_gram(d)
    assert steps == {STEP_RAMIFIED, STEP_UNRAMIFIED}


def _entry_by_products(c, i, j):
    """Gram entry (i, j) of the trace form of c by the per-entry formula the
    cached tensor replaced: Tr_{L/F}(c b_i conj(b_j)) by products in L's
    ring, pulled back to F.  Returns (F-coordinates, shift)."""
    field, ring = c.field, c.ring
    x_a = [tuple(int(k == a) for k in range(ring.d)) for a in range(field.f)]
    basis = [TruncatedElement(field, ring, ring.parts(u, k)) for k in range(field.e) for u in x_a]
    entry = tr_trace_to_base(tr_mul(tr_mul(c, basis[i]), tr_conj(basis[j])))
    return base_coordinates(field, ring.prec)[1](entry.parts[0]), entry.shift


def test_tensor_entries_match_the_per_entry_trace_formula():
    """Every Gram entry agrees with the per-entry formula mod p^(N-1) at a
    common shift, on seeded criterion-7 data and f0 = 2 data, and most agree
    mod p^N.  Not all of them: the formula's intermediate _normalized
    divides by p, so its top digit is not certified.  On a random integral
    C with a zero t-part, as an orthogonal c lifts, the tensor map agrees
    exactly."""
    rng = random.Random(707)
    data = [gen.random_orthogonal_datum((3, 5, 7)[i % 3], rng, 4) for i in range(150)]
    data += [gen.random_orthogonal_datum((3, 5, 7)[i % 3], rng, 3, 2) for i in range(60)]
    compared, identical = 0, 0
    for d in data:
        prec = 4 + sum(abs(f.c.val) // f.c.field.e + 2 for f in d.factors)
        p, pN = d.base.base_p, d.base.base_p**prec
        for factor in d.factors:
            gram = _gram_matrix(factor, prec)
            ring = ring_for(factor.c.field, prec)
            c0 = gen.random_parts(ring, rng)[0]
            rand = TruncatedElement(factor.c.field, ring, ring.parts(c0))
            for (i, j), rows in quadform._trace_form_tensor(factor.c.field, prec).items():
                assert _entry_by_products(rand, i, j) == (tuple(sum(map(mul, r, c0)) % pN for r in rows), 0)
                coords, shift = _entry_by_products(tr_lift(factor.c, prec), i, j)
                got = gram[i][j]
                assert got.field == d.base and got.ring is ring_for(d.base, prec)
                common = max(shift, got.shift)
                want = [w * p ** (common - shift) % pN for w in coords]
                have = [w * p ** (common - got.shift) % pN for w in got.parts[0]]
                assert [w % p ** (prec - 1) for w in have] == [w % p ** (prec - 1) for w in want]
                compared += 1
                identical += have == want
    assert compared >= 2400 and identical >= 0.95 * compared
