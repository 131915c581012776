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
from .finitefield import _powmod, fq_canonical_nonsquare, fq_embedding, fq_is_square
from .localfield import (
    SQ_ONE,
    STEP_UNRAMIFIED,
    SYM_FIXED,
    LeadingTerm,
    PrecisionExhausted,
    SquareClass,
    TameFieldDescriptor,
    _normalized,
    base_coordinates,
    base_field,
    flag_consistent,
    minus_one_class,
    ring_for,
    square_class,
    tr_add,
    tr_conj,
    tr_inv,
    tr_lift,
    tr_mul,
    tr_sub,
    TruncatedElement,
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
    """The trace form over F in the tower basis: entries in F's ring, each
    row of the cached tensor dotted with part 0 of c."""
    field = factor.c.field
    base = base_field(field.base_p, field.base_f)
    ring = ring_for(base, prec)
    c = tr_lift(factor.c, prec)
    if any(any(u) for u in c.parts[1:]):
        raise DomainError("the Gram route needs c with a zero t-part")
    c0 = c.parts[0]
    n = field.f * field.e
    gram = [[None] * n for _ in range(n)]
    for (i, j), rows in _trace_form_tensor(field, prec).items():
        coords = tuple([sum([u * v for u, v in zip(row, c0)]) % ring.pN for row in rows])
        gram[i][j] = gram[j][i] = _normalized(TruncatedElement(base, ring, (coords,), c.shift))
    return gram


def _diagonalize_symmetric(gram):
    """Symmetric congruence diagonalization pivoting on minimal valuation.

    Step i reads and writes only the trailing block g[i:][i:]: entries
    outside it are never read again.  It subtracts f_k times the pivot row
    from each row k below, then f_k times the pivot column from each column
    k, with f_k = g[k][i] / pivot, but skips the work whose result is known:
    the pivot is inverted only when a certified-nonzero entry lies below it
    (never the last one), row i is not updated (it is never read again),
    and no product has an exact-zero operand.  tr_sub(x, tr_mul(f, 0))
    returns x's parts and shift unchanged, since shifts are >= 0, so every
    diagonal entry has the bytes of the full update.  Raises
    PrecisionExhausted when no pivot can be certified nonzero, or when a
    pivot with a nonzero entry below it has an inverse that truncates to
    zero.
    """
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
            # move the minimal entry onto the diagonal: row r +/- row c and
            # the matching column operation; one choice of sign keeps the
            # valuation since p is odd
            for op in (tr_add, tr_sub):
                cand = [row[:] for row in g]
                for j in range(i, n):
                    cand[r][j] = op(cand[r][j], cand[c][j])
                for j in range(i, n):
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
        below = [k for k in range(i + 1, n) if g[k][i].val_or_none() is not None]
        if below:
            inv_pivot = tr_inv(pivot)
            if inv_pivot.val_or_none() is None:
                raise PrecisionExhausted("pivot inverse truncates to zero")
            factors = [(k, tr_mul(g[k][i], inv_pivot)) for k in below]
            factors = [(k, f) for k, f in factors if f.val_or_none() is not None]
            pivot_row = [(j, g[i][j]) for j in range(i, n) if g[i][j].val_or_none() is not None]
            for k, factor in factors:
                for j, x in pivot_row:
                    g[k][j] = tr_sub(g[k][j], tr_mul(factor, x))
            # column i after the row pass: mostly exact zeros; the rest is
            # the error of the truncated factors, which the column pass cancels
            residue = [(j, g[j][i]) for j in below if g[j][i].val_or_none() is not None]
            for k, factor in factors:
                for j, x in residue:
                    g[j][k] = tr_sub(g[j][k], tr_mul(factor, x))
        diag.append(pivot)
    return diag


def invariants_via_gram(datum) -> QuadInvariants:
    """Gram-oracle route: explicit matrices in the truncated model,
    diagonalized with precision tracking; restarts with doubled precision
    on PrecisionExhausted."""
    q = datum.base.q_base
    for factor in datum.factors:
        _check_fixed(factor.c)
    start = 4 + sum(abs(f.c.val) // f.c.field.e + 2 for f in datum.factors)
    for prec in [start << k for k in range(5)]:
        try:
            classes = []
            for factor in datum.factors:
                diag = _diagonalize_symmetric(_gram_matrix(factor, prec))
                classes += (square_class(entry.leading_term()) for entry in diag)
            return _finish(*diagonal_invariants(classes, q), q)
        except PrecisionExhausted:
            pass
    raise PrecisionExhausted(f"Gram diagonalization failed up to precision {prec}")

