"""Classification of quadratic spaces over p-adic fields (p odd).

A space is pinned by (dim, disc, hasse) where disc is the normalized
discriminant (-1)^{dim/2} det(Gram) mod squares and hasse the product of
Hilbert symbols over a diagonalization.  Two independent routes compute
the invariants of the trace form Tr_{L/F}(c x conj(y)) attached to an
orthogonal torus datum:

  * a compositional route: each factor is the transfer along the
    unramified layer L0/F of the binary form <2c, -2c*Delta> over L0,
    whose invariants follow from exact residue formulas;
  * a Gram route: the matrix of the form in the integral tower basis is
    computed over F in the truncated model, from a cached trace-form
    tensor, and diagonalized in F's ring with precision tracking.

Their agreement on random data is an acceptance gate of the package.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError
from .finitefield import FqElement, _mulmod, _powmod, fq_canonical_nonsquare, fq_embedding, fq_is_square
from .localfield import (
    SQ_ONE,
    STEP_UNRAMIFIED,
    SYM_FIXED,
    LeadingTerm,
    PrecisionExhausted,
    SquareClass,
    TameFieldDescriptor,
    base_coordinates,
    base_field,
    flag_consistent,
    least_shift,
    minus_one_class,
    ring_for,
    tr_conj,
    tr_lift,
    tr_mul,
    TruncatedElement,
    valp_coeffs,
)
from .value import Value, set_field


class SymmetryFlagViolation(DomainError):
    pass


class QuadInvariants(Value):
    """dim (even), normalized discriminant class, Hasse invariant."""

    __slots__ = _fields = ("dim", "disc", "hasse")

    def __init__(self, dim: int, disc: SquareClass, hasse: int):
        set_field(self, "dim", dim)
        set_field(self, "disc", disc)
        set_field(self, "hasse", hasse)

    def det_class(self, q: int) -> SquareClass:
        """Underlying det(Gram) class: disc times the class of (-1)^{dim/2}."""
        n = self.dim // 2
        sign = minus_one_class(q) if n % 2 else SQ_ONE
        return self.disc * sign

    def as_dict(self):
        return {"dim": self.dim, "disc": self.disc.label, "hasse": self.hasse}


class SOType(Value):
    __slots__ = _fields = ("label", "hasse")

    def __init__(self, label: str, hasse: int):
        # label: split | nonsplit_inner | quasi_split_unramified | quasi_split_ramified
        set_field(self, "label", label)
        set_field(self, "hasse", hasse)

    def as_dict(self):
        return {"label": self.label, "hasse": self.hasse}


# ---------------------------------------------------------------------------
# Hilbert symbols of square classes and orthogonal sums


def hilbert_class(ca: SquareClass, cb: SquareClass, q: int) -> int:
    sign = 0
    if ca.pi and cb.pi and ((q - 1) // 2) % 2:
        sign ^= 1
    if ca.ns and cb.pi:
        sign ^= 1
    if cb.ns and ca.pi:
        sign ^= 1
    return -1 if sign else 1


def _fold(parts, q):
    """(dim, det class, hasse) of the orthogonal sum of parts given by the
    same triples: dims add, dets multiply, and each Hasse factor picks up
    the Hilbert symbol of the det classes summed so far and the new one."""
    dim, det, hasse = 0, SQ_ONE, 1
    for d1, det1, h1 in parts:
        hasse *= h1 * hilbert_class(det, det1, q)
        det = det * det1
        dim += d1
    return dim, det, hasse


def diagonal_invariants(classes, q):
    """(dim, det class, hasse) of a diagonal form given its entry classes."""
    return _fold(((1, c, 1) for c in classes), q)


def _finish(dim: int, det: SquareClass, hasse: int, q: int) -> QuadInvariants:
    n = dim // 2
    disc = det * (minus_one_class(q) if n % 2 else SQ_ONE)
    return QuadInvariants(dim, disc, hasse)


def orthogonal_sum(a: QuadInvariants, b: QuadInvariants, q: int) -> QuadInvariants:
    """Invariant composition law of _fold on two classified spaces."""
    return _finish(*_fold([(x.dim, x.det_class(q), x.hasse) for x in (a, b)], q), q)


# ---------------------------------------------------------------------------
# transfer route


def _binary_entries(factor):
    """The factor's binary form over L0 in the basis {1, theta}: <2c, -2c*Delta>.

    Delta is the canonical relative discriminant: the canonical non-square
    unit for an unramified step, the uniformizer of L0 for the ramified one.
    Entries come back as (val in L0 units, residue in the residue field of L0).
    """
    c = factor.c
    field = c.field
    k0 = field.subfield_residue()
    if field.step == STEP_UNRAMIFIED:
        emb = fq_embedding(k0, field.residue_field())
        r0 = emb.pullback(c.residue)
        u = fq_canonical_nonsquare(k0)
        return [(c.val, r0 * 2), (c.val, -(r0 * 2) * u)]
    r = c.residue  # same residue field for a ramified step
    v0 = c.val // 2
    return [(v0, r * 2), (v0 + 1, -(r * 2))]


def _transfer_one(v: int, r, m: int, q: int):
    """Invariants over F of Tr_{L0/F}(beta x y) for L0/F unramified of degree m
    and beta = pi^v * w with unit residue r.

    For v even the form is unimodular: Hasse +1 and det = Nm(w) d_m, where
    d_m (the trace form discriminant of the unramified extension) is trivial
    iff m is odd, and leg_F(Nm w) = leg_{L0}(w).  For v odd the form is pi
    times that, with det pi^m Nm(w) d_m and the standard scaling correction
    for the Hasse invariant.
    """
    leg_n = 1 if fq_is_square(r) else -1
    det_ns = (leg_n == -1) ^ (m % 2 == 0)
    det_unit = SquareClass(0, 1 if det_ns else 0)
    if v % 2 == 0:
        return m, det_unit, 1
    hasse = 1
    if (m * (m - 1) // 2) % 2 and minus_one_class(q).ns:
        hasse *= -1
    if (m - 1) % 2 and det_ns:
        hasse *= -1
    return m, SquareClass(m % 2, det_unit.ns), hasse


def _check_fixed(c: LeadingTerm):
    """Raise unless c carries the fixed flag and its leading term bears it out."""
    if c.sym != SYM_FIXED:
        raise SymmetryFlagViolation("orthogonal data need sigma-fixed c")
    if not flag_consistent(c):
        raise SymmetryFlagViolation("declared fixed flag contradicts the leading term")


def invariants_of_orthogonal_datum(datum) -> QuadInvariants:
    """(dim, disc, hasse) of the trace form of an orthogonal datum, by the
    compositional transfer route.  Every c_i must carry the fixed flag."""
    q = datum.base.q_base
    parts = []
    for factor in datum.factors:
        _check_fixed(factor.c)
        parts += (_transfer_one(v, r, factor.m, q) for v, r in _binary_entries(factor))
    return _finish(*_fold(parts, q), q)


def so_type(inv: QuadInvariants) -> SOType:
    if inv.dim < 2 or inv.dim % 2:
        raise DomainError("so_type needs even dimension >= 2")
    if inv.disc.is_trivial():
        if inv.hasse == 1:
            return SOType("split", inv.hasse)
        if inv.dim == 2:
            raise DomainError("no binary space has trivial disc and hasse -1")
        return SOType("nonsplit_inner", inv.hasse)
    if inv.disc.pi == 0:
        return SOType("quasi_split_unramified", inv.hasse)
    return SOType("quasi_split_ramified", inv.hasse)


# ---------------------------------------------------------------------------
# Gram oracle route


@lru_cache(maxsize=None)
def _trace_form_tensor(field: TameFieldDescriptor, prec: int):
    """Entry (i, j), i <= j, of the trace form over the tower basis
    b = x^a t^k (a < f, k < e): the Z_p-linear map C -> F-coordinates of
    Tr_{L/F}(C b_i conj(b_j)) for C with a zero t-part, as every fixed c
    of an orthogonal datum lifts, f0 rows of d ints mod p^N over the Z_p
    basis x^a of part 0.  Row r at x^a is sum_a' h[r][a + a'] y_0[a'] for
    y = b_i conj(b_j), h[r][s] being coordinate r of Tr_{L/F}(x^s): t-parts
    trace to 0."""
    ring = ring_for(field, prec)
    d, e, f, pN = ring.d, ring.e, field.f, ring.pN
    x = tuple([0, 1] + [0] * (d - 2)) if d > 1 else (0,)
    powers = [_powmod(x, s, ring.modulus, pN) for s in range(2 * d - 1)]
    js = tuple(range(0, d, field.base_f))  # the automorphisms fixing F
    to_f = base_coordinates(field, prec)[1]
    h = list(zip(*[to_f(ring.uscale(ring.automorphism_sum(u, js), e)) for u in powers]))
    basis = [TruncatedElement(field, ring, ring.parts(u, k)) for k in range(e) for u in powers[:f]]
    tensor = {}
    for i, b_i in enumerate(basis):
        for j in range(i, len(basis)):
            y0 = tr_mul(b_i, tr_conj(basis[j])).parts[0]
            tensor[i, j] = tuple(
                tuple([sum([u * v for u, v in zip(hr[a:], y0)]) % pN for a in range(d)]) for hr in h
            )
    return tensor


def _gram_matrix(factor, prec: int):
    """The trace form over F in the tower basis, as (ring, rows): ring is
    F's truncated ring at prec, and entry (i, j) the pair (coeffs, shift)
    meaning coeffs / p^shift, coeffs a tuple of f0 ints mod p^N with the
    least shift.  coeffs is row (i, j) of the cached tensor dotted with
    part 0 of c."""
    field = factor.c.field
    ring = ring_for(base_field(field.base_p, field.base_f), prec)
    c = tr_lift(factor.c, prec)
    if any(any(u) for u in c.parts[1:]):
        raise DomainError("the Gram route needs c with a zero t-part")
    c0 = c.parts[0]
    n = field.f * field.e
    rows = [[None] * n for _ in range(n)]
    for (i, j), tensor_rows in _trace_form_tensor(field, prec).items():
        coords = tuple([sum([u * v for u, v in zip(row, c0)]) % ring.pN for row in tensor_rows])
        (coeffs,), shift = least_shift((coords,), c.shift, ring)
        rows[i][j] = rows[j][i] = coeffs, shift
    return ring, rows


# Pairs (coeffs, shift) of F's ring (e = 1, d = f0): each step below gives
# the bytes of its tr_* counterpart on TruncatedElement(F, ring, (coeffs,), shift).


def _pair_val(ring, x):
    """Valuation of the pair x, or None when it is zero to working precision."""
    v = valp_coeffs(x[0], ring.p, ring.pN)
    return v - x[1] if v < ring.prec else None


def _pair_sum(ring, x, y, sign):
    """x + sign * y at the larger shift, not normalized, as tr_add (sign 1)
    and oracle.tr_sub (sign -1)."""
    (a, s), (b, t) = x, y
    if s < t:
        a, s = [u * ring.p ** (t - s) for u in a], t
    elif t < s:
        b = [u * ring.p ** (s - t) for u in b]
    pN = ring.pN
    return tuple([(u + sign * w) % pN for u, w in zip(a, b)]), s


def _pair_mul(ring, x, y):
    """x * y with the least shift, as tr_mul."""
    (coeffs,), shift = least_shift((_mulmod(x[0], y[0], ring.modulus, ring.pN),), x[1] + y[1], ring)
    return coeffs, shift


def _pair_inv(ring, x):
    """1 / x for a certified-nonzero x, as oracle.tr_inv: the inverse of its
    unit part (unique mod p^N), times p^-v; zero when -v >= N."""
    coeffs, shift = x
    p, pN = ring.p, ring.pN
    k = valp_coeffs(coeffs, p, pN)
    pk = p**k
    unit_inv = ring.uinv(tuple([u // pk for u in coeffs]))
    v = k - shift
    if v >= 0:
        return unit_inv, v
    scale = p**-v
    return tuple([u * scale % pN for u in unit_inv]), 0


def _pair_square_class(ring, k_f, x) -> SquareClass:
    """Square class of the pair x over F, k_f the residue field of F, as
    square_class of the leading term of TruncatedElement(F, ring, (coeffs,),
    shift): (val mod 2, whether the leading digit is a non-square), without
    building either.  Raises PrecisionExhausted when x is zero to working
    precision."""
    coeffs, shift = x
    p = ring.p
    k = valp_coeffs(coeffs, p, ring.pN)
    if k == ring.prec:
        raise PrecisionExhausted("valuation exceeds working precision")
    pk = p**k
    residue = FqElement(k_f, tuple([c // pk % p for c in coeffs]))
    return SquareClass((k - shift) % 2, 0 if fq_is_square(residue) else 1)


def _diagonalize_symmetric(ring, rows):
    """Symmetric congruence diagonalization of rows, the pairs of
    _gram_matrix over ring, pivoting on minimal valuation; returns the
    diagonal as pairs.

    The valuation of each entry is kept in a matrix beside the entries.
    Step i reads and writes only the trailing block g[i:][i:]: entries
    outside it are never read again.  It subtracts f_k times the pivot row
    from each row k below, then f_k times the pivot column from each column
    k, with f_k = g[k][i] / pivot, but skips the work whose result is known:
    the pivot is inverted only when a certified-nonzero entry lies below it
    (never the last one), row i is not updated (it is never read again),
    and no product has an exact-zero operand.  Subtracting a product with
    a zero operand would return x's coeffs and shift unchanged, since
    shifts are >= 0, so every diagonal entry has the bytes of the full
    update.  Raises PrecisionExhausted when no pivot can be certified
    nonzero, or when a pivot with a nonzero entry below it has an inverse
    that truncates to zero.
    """
    g = [row[:] for row in rows]
    n = len(g)
    val = [[_pair_val(ring, x) for x in row] for row in g]
    diag = []
    for i in range(n):
        best = None
        for r in range(i, n):
            for c in range(r, n):
                v = val[r][c]
                if v is not None and (best is None or v < best[0]):
                    best = (v, r, c)
        if best is None:
            raise PrecisionExhausted("no certified pivot in the remaining block")
        _, r, c = best
        if r != c:
            # move the minimal entry onto the diagonal: row r +/- row c and
            # the matching column operation; one choice of sign keeps the
            # valuation since p is odd
            for sign in (1, -1):
                cand = [row[:] for row in g]
                for j in range(i, n):
                    cand[r][j] = _pair_sum(ring, cand[r][j], cand[c][j], sign)
                for j in range(i, n):
                    cand[j][r] = _pair_sum(ring, cand[j][r], cand[j][c], sign)
                if _pair_val(ring, cand[r][r]) == best[0]:
                    g = cand
                    for j in range(i, n):
                        val[r][j] = _pair_val(ring, g[r][j])
                        val[j][r] = _pair_val(ring, g[j][r])
                    break
            else:
                raise PrecisionExhausted("pivot promotion lost the valuation")
        if r != i:
            for m in (g, val):
                m[i], m[r] = m[r], m[i]
                for row in m:
                    row[i], row[r] = row[r], row[i]
        pivot = g[i][i]
        below = [k for k in range(i + 1, n) if val[k][i] is not None]
        if below:
            inv_pivot = _pair_inv(ring, pivot)
            if _pair_val(ring, inv_pivot) is None:
                raise PrecisionExhausted("pivot inverse truncates to zero")
            factors = [(k, _pair_mul(ring, g[k][i], inv_pivot)) for k in below]
            factors = [(k, f) for k, f in factors if _pair_val(ring, f) is not None]
            pivot_row = [(j, g[i][j]) for j in range(i, n) if val[i][j] is not None]
            for k, factor in factors:
                g_k, val_k = g[k], val[k]
                for j, x in pivot_row:
                    y = g_k[j] = _pair_sum(ring, g_k[j], _pair_mul(ring, factor, x), -1)
                    val_k[j] = _pair_val(ring, y)
            # column i after the row pass: mostly exact zeros; the rest is
            # the error of the truncated factors, which the column pass cancels
            residue = [(j, g[j][i]) for j in below if val[j][i] is not None]
            for k, factor in factors:
                for j, x in residue:
                    y = g[j][k] = _pair_sum(ring, g[j][k], _pair_mul(ring, factor, x), -1)
                    val[j][k] = _pair_val(ring, y)
        diag.append(pivot)
    return diag


def invariants_via_gram(datum) -> QuadInvariants:
    """Gram-oracle route: explicit matrices in the truncated model,
    diagonalized with precision tracking, each diagonal pair classified by
    _pair_square_class; restarts with doubled precision on
    PrecisionExhausted."""
    q = datum.base.q_base
    k_f = datum.base.residue_field()
    for factor in datum.factors:
        _check_fixed(factor.c)
    start = 4 + sum(abs(f.c.val) // f.c.field.e + 2 for f in datum.factors)
    for prec in [start << k for k in range(5)]:
        try:
            classes = []
            for factor in datum.factors:
                ring, rows = _gram_matrix(factor, prec)
                classes += (_pair_square_class(ring, k_f, x) for x in _diagonalize_symmetric(ring, rows))
            return _finish(*diagonal_invariants(classes, q), q)
        except PrecisionExhausted:
            pass
    raise PrecisionExhausted(f"Gram diagonalization failed up to precision {prec}")

