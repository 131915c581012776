import collections
import hashlib
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
    lt_mul,
    lt_neg,
    TruncatedElement,
    base_coordinates,
    ring_for,
    tr_add,
    tr_conj,
    tr_lift,
    tr_mul,
)
from thetaparam import quadform
from thetaparam.quadform import (
    QuadInvariants,
    SymmetryFlagViolation,
    _diagonalize_symmetric,
    _gram_matrix,
    diagonal_invariants,
    hilbert_class,
    invariants_of_orthogonal_datum,
    invariants_via_gram,
    orthogonal_sum,
    so_type,
)
from thetaparam.oracle import brute_force_hilbert, square_class, tr_inv, tr_sub, tr_trace_to_base
from thetaparam.torusdata import Factor, POLARITY_ORTHOGONAL, TorusDatum

import gen
from gen import hilbert_symbol, leading_term


def class_reps(p):
    base = base_field(p)
    u = fq_canonical_nonsquare(fq_make(p, 1)).coeffs[0]
    return base, {
        SQ_ONE: leading_term(base, 0, [1]),
        SQ_U: leading_term(base, 0, [u]),
        SQ_PI: leading_term(base, 1, [1]),
        SQ_UPI: leading_term(base, 1, [u]),
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
        a = LeadingTerm(base, rng.randint(0, 3), k.element([rng.randint(1, p - 1)]))
        b = LeadingTerm(base, rng.randint(0, 3), k.element([rng.randint(1, p - 1)]))
        assert hilbert_symbol(a, b) == brute_force_hilbert(a, b)


def test_symbol_pinned_values():
    base = base_field(5)
    assert hilbert_symbol(leading_term(base, 0, [2]), leading_term(base, 1, [1])) == -1  # (2, 5)
    assert hilbert_symbol(leading_term(base, 0, [2]), leading_term(base, 0, [2])) == 1  # (u, u)


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
    c = leading_term(factor_field(base, 1, step), val, residue, SYM_FIXED)
    d = TorusDatum(base, (Factor(1, step, c),), POLARITY_ORTHOGONAL)
    for route in (invariants_of_orthogonal_datum, invariants_via_gram):
        with pytest.raises(SymmetryFlagViolation) as info:
            route(d)
        assert str(info.value) == "declared fixed flag contradicts the leading term"
    if step == STEP_RAMIFIED:  # an odd val lifts to a t-part, which the tensor has no columns for
        with pytest.raises(DomainError, match="^the Gram route needs c with a zero t-part$"):
            _gram_matrix(d.factors[0], 8)


def test_so_type_rows():
    assert so_type(QuadInvariants(4, SQ_ONE, 1)).label == "split"
    assert so_type(QuadInvariants(4, SQ_ONE, -1)).label == "nonsplit_inner"
    assert so_type(QuadInvariants(2, SQ_U, 1)).label == "quasi_split_unramified"
    assert so_type(QuadInvariants(2, SQ_U, -1)).label == "quasi_split_unramified"
    assert so_type(QuadInvariants(2, SQ_PI, 1)).label == "quasi_split_ramified"
    with pytest.raises(DomainError):
        so_type(QuadInvariants(2, SQ_ONE, -1))  # no such binary space


def test_witt_equal_and_norm_scaling():
    rng = random.Random(3)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        d = gen.random_orthogonal_datum(p, rng, 3)
        inv = invariants_of_orthogonal_datum(d)
        # rescale one c by the norm of a random truncated element
        i = rng.randrange(len(d.factors))
        f = d.factors[i]
        ring = ring_for(f.c.field, 6)
        while True:
            y = TruncatedElement(f.c.field, ring, gen.random_parts(ring, rng), 0)
            v = y.val_or_none()
            if v is not None and v <= 1:
                break
        nm_lt = tr_mul(y, tr_conj(y)).leading_term(sym=SYM_FIXED)
        factors = list(d.factors)
        factors[i] = Factor(f.m, f.step, lt_mul(f.c, nm_lt), 0)
        d2 = d.replace_factors(factors)
        assert inv == invariants_of_orthogonal_datum(d2)
    flipped = QuadInvariants(4, SQ_ONE, -1)
    assert QuadInvariants(4, SQ_ONE, 1) != flipped


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


def test_pair_steps_give_the_bytes_of_the_tr_functions():
    """Each step of the elimination on pairs (coeffs, shift) equals its
    tr_* counterpart on TruncatedElements over F of degree 1 and 2, byte
    for byte: on random pairs with zero and nonzero coefficients and shifts
    up to 2N + 1, and on a zero product of shift past N, which the least
    shift sends to shift 0."""
    rng = random.Random(2829)
    for f0, p, prec in itertools.product((1, 2), (3, 5, 7), (1, 2, 3, 5)):
        base = base_field(p, f0)
        ring = ring_for(base, prec)

        def draw():
            scale = p ** rng.randrange(prec + 1)
            return tuple(rng.randrange(ring.pN) * scale % ring.pN for _ in range(f0)), rng.randrange(2 * prec + 2)

        def element(x):
            return TruncatedElement(base, ring, (x[0],), x[1])

        def pair(x):
            return x.parts[0], x.shift

        for _ in range(40):
            x, y = draw(), draw()
            ex, ey = element(x), element(y)
            assert quadform._pair_val(ring, x) == ex.val_or_none()
            assert quadform._pair_sum(ring, x, y, 1) == pair(tr_add(ex, ey))
            assert quadform._pair_sum(ring, x, y, -1) == pair(tr_sub(ex, ey))
            assert quadform._pair_mul(ring, x, y) == pair(tr_mul(ex, ey))
            if ex.val_or_none() is not None:
                assert quadform._pair_inv(ring, x) == pair(tr_inv(ex))
        zero = ((0,) * f0, prec + 1)
        assert quadform._pair_mul(ring, zero, zero) == pair(tr_mul(element(zero), element(zero))) == ((0,) * f0, 0)


def _full_row_diagonalize(ring, rows, promotions):
    """The elimination as it was before it kept to the trailing block and
    ran on pairs: tr_* arithmetic on TruncatedElements, and every row and
    column operation over all n entries.  Appends one entry to promotions
    per off-diagonal pivot moved onto the diagonal.  Raises, as the
    elimination does, when a pivot with a nonzero entry below it has an
    inverse that truncates to zero.  Returns the diagonal as pairs."""
    base = base_field(ring.p, ring.d)
    g = [[TruncatedElement(base, ring, (coeffs,), shift) for coeffs, shift in row] for row in rows]
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
        if inv_pivot.val_or_none() is None and any(
            g[k][i].val_or_none() is not None for k in range(i + 1, n)
        ):
            raise PrecisionExhausted("pivot inverse truncates to zero")
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
    return [(x.parts[0], x.shift) for x in diag]


def test_trailing_block_elimination_matches_full_row_reference():
    """Every diagonal entry (coeffs, shift) equals the full-row elimination's,
    on the Gram matrices of seeded criterion-7 data at the precisions the
    Gram route tries."""
    rng = random.Random(727)
    compared, ramified, largest, promotions = 0, 0, 0, []
    for i in range(240):
        d = gen.random_orthogonal_datum((3, 5, 7)[i % 3], rng, 4)
        start = 4 + sum(abs(f.c.val) // f.c.field.e + 2 for f in d.factors)
        for factor in d.factors:
            for k in range(5):
                ring, rows = _gram_matrix(factor, start << k)
                try:
                    expected = _full_row_diagonalize(ring, rows, promotions)
                except PrecisionExhausted:
                    with pytest.raises(PrecisionExhausted):
                        _diagonalize_symmetric(ring, rows)
                    continue
                assert _diagonalize_symmetric(ring, rows) == expected
                compared += 1
                ramified += factor.step == STEP_RAMIFIED
                largest = max(largest, len(rows))
                break
    assert compared >= 300 and ramified >= 100 and largest == 8
    assert promotions


def _matches_full_row(ring, rows, promotions):
    """Both eliminations of the Gram matrix (ring, rows) raise
    PrecisionExhausted with the same message, or return diagonal entries
    with the same (coeffs, shift).  True when they returned."""
    try:
        expected = _full_row_diagonalize(ring, rows, promotions)
    except PrecisionExhausted as exc:
        with pytest.raises(PrecisionExhausted) as got:
            _diagonalize_symmetric(ring, rows)
        assert str(got.value) == str(exc)
        return False
    assert _diagonalize_symmetric(ring, rows) == expected
    return True


@pytest.mark.parametrize("f0", [2, 3])
def test_trailing_block_elimination_matches_full_row_reference_over_a_base_of_degree_f0(f0):
    """The same exact comparison over F of degree f0 > 1, where _mulmod
    multiplies coefficient tuples of length f0, at the precisions the Gram
    route tries."""
    rng = random.Random(900 + f0)
    compared, ramified, promotions = 0, 0, []
    for i in range(100):
        d = gen.random_orthogonal_datum((3, 5, 7)[i % 3], rng, 3, f0)
        start = 4 + sum(abs(f.c.val) // f.c.field.e + 2 for f in d.factors)
        for factor in d.factors:
            for k in range(5):
                if _matches_full_row(*_gram_matrix(factor, start << k), promotions):
                    compared += 1
                    ramified += factor.step == STEP_RAMIFIED
                    break
    assert compared >= 150 and ramified >= 75 and promotions


def test_elimination_exhausts_like_the_full_row_reference_at_low_precision():
    """At precisions 1-4 many Gram matrices run out of certified digits:
    both eliminations raise the same PrecisionExhausted or return the same
    entries, over F of degree 1 and 2."""
    rng = random.Random(728)
    outcomes = []
    for i in range(120):
        f0 = 1 + i % 2
        d = gen.random_orthogonal_datum((3, 5, 7)[i % 3], rng, 4 if f0 == 1 else 3, f0)
        for factor in d.factors:
            outcomes += (_matches_full_row(*_gram_matrix(factor, prec), []) for prec in range(1, 5))
    assert outcomes.count(False) >= 150 and outcomes.count(True) >= 400


def test_elimination_bytes_are_pinned():
    """The sha256 of every diagonal (coeffs, shift) or PrecisionExhausted
    message on the Gram matrices of seeded criterion-7 data over F of
    degree 1 and 2, at the Gram route's start precision and at precisions
    1-4.  The digest was taken from the elimination on TruncatedElements,
    before it ran on pairs."""
    rng = random.Random(2828)
    digest, outcomes = hashlib.sha256(), collections.Counter()
    for i in range(160):
        f0 = 1 + i % 2
        d = gen.random_orthogonal_datum((3, 5, 7)[i % 3], rng, 4 if f0 == 1 else 3, f0)
        start = 4 + sum(abs(f.c.val) // f.c.field.e + 2 for f in d.factors)
        for factor in d.factors:
            for prec in (start, 1, 2, 3, 4):
                try:
                    line = repr(_diagonalize_symmetric(*_gram_matrix(factor, prec)))
                    outcomes["returned"] += 1
                except PrecisionExhausted as exc:
                    line = str(exc)
                    outcomes[line] += 1
                digest.update(line.encode() + b"\n")
    assert outcomes == {
        "returned": 975,
        "no certified pivot in the remaining block": 282,
        "pivot inverse truncates to zero": 63,
    }
    assert digest.hexdigest() == "847245df4567b268ac964db4241d37fd6170c8e949c8a89c25c3e1db48d701ab"


def test_low_precision_elimination_raises_or_gives_the_transfer_invariants():
    """At precisions 1-4 a pivot's inverse can truncate to an exact zero
    while a certified-nonzero entry lies below it.  Each per-factor Gram
    matrix of seeded data over F of degree 1 and 2 either raises
    PrecisionExhausted or gives the invariants that the transfer route
    gives for the factor alone."""
    rng = random.Random(1)
    raised, agreed = 0, 0
    for i in range(150):
        f0 = 1 + i % 2
        d = gen.random_orthogonal_datum((3, 5, 7)[i % 3], rng, 4 if f0 == 1 else 3, f0)
        q = d.base.q_base
        for factor in d.factors:
            expected = invariants_of_orthogonal_datum(d.replace_factors([factor]))
            for prec in range(1, 5):
                ring, rows = _gram_matrix(factor, prec)
                try:
                    diag = _diagonalize_symmetric(ring, rows)
                except PrecisionExhausted:
                    raised += 1
                    continue
                classes = [square_class(TruncatedElement(d.base, ring, (c,), s).leading_term()) for c, s in diag]
                assert quadform._finish(*diagonal_invariants(classes, q), q) == expected
                agreed += 1
    assert raised >= 300 and agreed >= 600


def test_pair_square_class_equals_the_truncated_leading_term_class():
    """Entry by entry, _pair_square_class gives square_class of the leading
    term of TruncatedElement(F, ring, (coeffs,), shift), on every diagonal of
    the seeded data above at precisions 1-8.  A pair whose valuation reaches
    the precision raises PrecisionExhausted, as TruncatedElement.val() does."""
    rng = random.Random(1)
    seen = collections.Counter()
    for i in range(150):
        f0 = 1 + i % 2
        d = gen.random_orthogonal_datum((3, 5, 7)[i % 3], rng, 4 if f0 == 1 else 3, f0)
        k_f = d.base.residue_field()
        for factor in d.factors:
            for prec in range(1, 9):
                ring, rows = _gram_matrix(factor, prec)
                try:
                    diag = _diagonalize_symmetric(ring, rows)
                except PrecisionExhausted:
                    continue
                for c, s in diag:
                    want = square_class(TruncatedElement(d.base, ring, (c,), s).leading_term())
                    assert quadform._pair_square_class(ring, k_f, (c, s)) == want
                    seen[want] += 1
    assert set(seen) == {SQ_ONE, SQ_U, SQ_PI, SQ_UPI} and sum(seen.values()) > 4000
    for f0, shift in ((1, 0), (2, 3)):
        base = base_field(5, f0)
        ring = ring_for(base, 4)
        zero = ((0,) * f0, shift), ((625,) + (0,) * (f0 - 1), shift)
        for x in zero:
            with pytest.raises(PrecisionExhausted):
                TruncatedElement(base, ring, (x[0],), x[1]).val()
            with pytest.raises(PrecisionExhausted):
                quadform._pair_square_class(ring, base.residue_field(), x)


def _record_calls(monkeypatch, namespace, inv_name, mul_name, inverses, products):
    """Wrap the inverse and product functions named inv_name and mul_name
    where namespace (a module's dict) looks them up: each inversion appends
    (argument, result) to inverses and each product appends its two
    operands to products.  The kernel's functions take F's ring first."""
    real_inv, real_mul = namespace[inv_name], namespace[mul_name]

    def inv(*args):
        inverses.append((args[-1], real_inv(*args)))
        return inverses[-1][1]

    def mul(*args):
        products.append(args[-2:])
        return real_mul(*args)

    monkeypatch.setitem(namespace, inv_name, inv)
    monkeypatch.setitem(namespace, mul_name, mul)


def test_elimination_inverts_only_the_pivots_it_uses_and_never_multiplies_by_zero(monkeypatch):
    """On seeded criterion-7 data at the Gram route's start precision, the
    kernel's inverse runs once per pivot with a certified-nonzero entry
    below it: the pivots whose inverse the full-row reference, which
    inverts every pivot by tr_inv, goes on to use.  The last pivot is never
    inverted, and no operand of the kernel's product is an exact zero."""
    rng = random.Random(729)
    grams = []
    for i in range(120):
        d = gen.random_orthogonal_datum((3, 5, 7)[i % 3], rng, 4)
        start = 4 + sum(abs(f.c.val) // f.c.field.e + 2 for f in d.factors)
        grams += (_gram_matrix(factor, start) for factor in d.factors)
    inverses, products, ref_inverses, ref_products = [], [], [], []
    _record_calls(monkeypatch, vars(quadform), "_pair_inv", "_pair_mul", inverses, products)
    _record_calls(monkeypatch, globals(), "tr_inv", "tr_mul", ref_inverses, ref_products)
    inverted, pivots = 0, 0
    for ring, rows in grams:
        del inverses[:], products[:], ref_inverses[:], ref_products[:]
        diag = _diagonalize_symmetric(ring, rows)
        _full_row_diagonalize(ring, rows, [])
        used = [x for x, y in ref_inverses if any(m is y for _, m in ref_products)]
        assert [x for x, _ in inverses] == [(x.parts[0], x.shift) for x in used]
        assert all(x is not diag[-1] for x, _ in inverses)
        assert all(any(c % ring.pN for c in x[0]) for pair in products for x in pair)
        inverted += len(inverses)
        pivots += len(diag)
    assert len(grams) >= 150 and 0 < inverted < pivots - len(grams)


def test_gram_exhaustion_reports_the_last_precision_tried(monkeypatch):
    tried = []

    def always_exhausted(ring, rows):
        tried.append(ring.prec)
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
            base_ring, gram = _gram_matrix(factor, prec)
            assert base_ring is ring_for(d.base, prec)
            ring = ring_for(factor.c.field, prec)
            c0 = gen.random_parts(ring, rng)[0]
            rand = TruncatedElement(factor.c.field, ring, ring.parts(c0))
            for (i, j), rows in quadform._trace_form_tensor(factor.c.field, prec).items():
                assert _entry_by_products(rand, i, j) == (tuple(sum(map(mul, r, c0)) % pN for r in rows), 0)
                coords, shift = _entry_by_products(tr_lift(factor.c, prec), i, j)
                got, got_shift = gram[i][j]
                common = max(shift, got_shift)
                want = [w * p ** (common - shift) % pN for w in coords]
                have = [w * p ** (common - got_shift) % pN for w in got]
                assert [w % p ** (prec - 1) for w in have] == [w % p ** (prec - 1) for w in want]
                compared += 1
                identical += have == want
    assert compared >= 2400 and identical >= 0.95 * compared
