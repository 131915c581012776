"""Independent checks that no subcommand runs.

Each function recomputes, by a slower and more direct route, something
that the production path decides in closed form.  Only the test suite
imports this module; importing the CLI or running a subcommand leaves it
unloaded.  The Gram route of `quadform` and the truncated model of
`localfield` are oracles too: they move here once the benchmark's span
tracer stops patching them by module path (ROADMAP item 1).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .finitefield import fq_is_square
from .finitetheta import (
    ClassFunction,
    MatrixGroup,
    _order,
    _reduction,
    build_weil_rep,
    dl_regular_character,
    dual_pair,
    o2_irreducibles,
    theta_multiplicity,
)
from .localfield import (
    STEP_UNRAMIFIED,
    LeadingTerm,
    TruncatedElement,
    _align,
    _normalized,
    _product,
    _t_negated,
    is_norm,
    lt_inv,
    lt_mul,
    ring_for,
    tr_add,
    tr_lift,
    tr_mul,
)
from .torusdata import Factor, FiniteTorusDatum

# ---------------------------------------------------------------------------
# brute-force solubility oracle


def brute_force_hilbert(a: LeadingTerm, b: LeadingTerm) -> int:
    """Decide (a, b)_F by searching for solutions of a x^2 + b y^2 = z^2.

    Valuations are first reduced mod 2 by exact square rescaling.  The z = 0
    branch is the squareness of -a/b; otherwise primitive pairs (x, y) over
    O/p^2 are enumerated and a x^2 + b y^2 is tested for being a nonzero
    square from its certified leading term.  For p odd two digits are a
    sufficient search radius: a unit ratio -b/a that is not a square stops
    cancellation at depth one.
    """
    digits = 2
    if a.field != b.field or a.field.e != 1 or a.field.f != 1:
        raise DomainError("solubility oracle runs over the base field")
    field = a.field
    a = LeadingTerm(field, a.val % 2, a.residue)
    b = LeadingTerm(field, b.val % 2, b.residue)
    ratio_val = a.val - b.val
    ratio_res = -(a.residue * b.residue.inverse())
    if ratio_val % 2 == 0 and fq_is_square(ratio_res):
        return 1  # isotropic with z = 0
    prec = digits + 3
    ring = ring_for(field, prec)
    ta, tb = tr_lift(a, prec), tr_lift(b, prec)
    p, f0 = field.base_p, field.base_f
    reps = []
    for k in range(p ** (f0 * digits)):
        # k encodes f0 coordinates, each with `digits` base-p digits
        m = k
        coeffs = [0] * f0
        for j in range(digits):
            for i in range(f0):
                coeffs[i] += (m % p) * p**j
                m //= p
        reps.append(TruncatedElement(field, ring, ring.parts(tuple(coeffs)), 0))
    for x in reps:
        xv = x.val_or_none()
        for y in reps:
            yv = y.val_or_none()
            if (xv is None or xv > 0) and (yv is None or yv > 0):
                continue  # not primitive
            s = tr_add(tr_mul(ta, tr_mul(x, x)), tr_mul(tb, tr_mul(y, y)))
            v = s.val_or_none()
            if v is None or v % 2 != 0:
                continue
            if fq_is_square(s.leading_term().residue):
                return 1
    return -1


# ---------------------------------------------------------------------------
# the step involution and the trace to the base field


def relative_conjugate(a: LeadingTerm) -> LeadingTerm:
    """The involution of the marked quadratic step L/L0 on leading terms.

    Unramified step: angular residues are taken against a step-fixed
    uniformizer, so only the residue moves (by the relative Frobenius).
    Ramified step: the canonical uniformizer is negated, so the angular
    residue picks up (-1)^val and the residue field is untouched.
    """
    field = a.field
    field._need_step()
    if field.step == STEP_UNRAMIFIED:
        return a.with_residue(a.residue ** field.relative_residue_size)
    return a if a.val % 2 == 0 else a.with_residue(-a.residue)


def tr_trace_to_base(x: TruncatedElement) -> TruncatedElement:
    """Tr_{L/F}: e times the sum of part 0 over the Galois automorphisms
    fixing the base field F (the t-parts of the e t-conjugates cancel)."""
    ring = x.ring
    acc = ring.automorphism_sum(x.parts[0], tuple(range(0, ring.d, x.field.base_f)))
    return TruncatedElement(x.field, ring, ring.parts(ring.uscale(acc, ring.e)), x.shift)


# ---------------------------------------------------------------------------
# truncated subtraction and inversion: the reference of the Gram kernel's
# pair steps


def tr_sub(x: TruncatedElement, y: TruncatedElement) -> TruncatedElement:
    x, y, s = _align(x, y)
    return TruncatedElement(x.field, x.ring, tuple(map(x.ring.usub, x.parts, y.parts)), s)


def tr_inv(x: TruncatedElement) -> TruncatedElement:
    """Inverse of a certified-nonzero element."""
    ring = x.ring
    v = x.val()
    if v % ring.e:
        # y = x*t has even valuation and 1/x = t * (1/y) since t^2 = p
        return _mul_base_power(tr_inv(_mul_base_power(x, 1)), 1)
    # strip p^k to a unit u and invert it as conj(u) / Nm(u), conj: t -> -t
    pk = ring.p ** (v // ring.e + x.shift)
    u = TruncatedElement(x.field, ring, tuple([tuple([c // pk for c in w]) for w in x.parts]), 0)
    conj = _t_negated(u)
    norm_inv = ring.uinv(_product(u, conj).parts[0])
    inv = TruncatedElement(x.field, ring, tuple([ring.umul(w, norm_inv) for w in conj.parts]), 0)
    return _mul_base_power(inv, -v)


def _mul_base_power(x: TruncatedElement, v: int) -> TruncatedElement:
    """Multiply by pi_L^v where pi_L is the canonical uniformizer of L."""
    ring = x.ring
    if v % ring.e:
        x = _product(x, TruncatedElement(x.field, ring, ring.parts(ring.uone(), 1), 0))
        v -= 1
    k = v // ring.e
    parts = tuple([ring.uscale(u, ring.p**k) for u in x.parts]) if k > 0 else x.parts
    return _normalized(TruncatedElement(x.field, ring, parts, x.shift - min(k, 0)))


# ---------------------------------------------------------------------------
# the factor relation of datum equivalence, pair by pair


def tower_isos(factor: Factor):
    """F-isomorphisms of the factor tower at descriptor level.

    Unramified step: the 2m Frobenius twists.  Ramified step: m Frobenius
    twists times the sign of the uniformizer square root.
    """
    if factor.step == STEP_UNRAMIFIED:
        return [(j, 1) for j in range(2 * factor.m)]
    return [(j, s) for j in range(factor.m) for s in (1, -1)]


def apply_iso(lt: LeadingTerm, iso, q: int) -> LeadingTerm:
    j, sign = iso
    res = lt.residue ** (q**j)
    if sign == -1 and lt.val % 2:
        res = -res
    return lt.with_residue(res)


def _iso_matches_c(fa: Factor, fb: Factor, iso, q: int) -> bool:
    moved = apply_iso(fa.c, iso, q)
    ratio = lt_mul(moved, lt_inv(fb.c))
    return is_norm(ratio)


def _iso_matches_character(fa: Factor, fb: Factor, iso, q: int) -> bool:
    j, _ = iso
    mod = fa.chi0_modulus(q)
    if (fa.chi0 * q**j - fb.chi0) % mod != 0:
        return False
    if len(fa.gamma_levels) != len(fb.gamma_levels):
        return False
    for (ra, ga), (rb, gb) in zip(fa.gamma_levels, fb.gamma_levels):
        if ra != rb:
            return False
        moved = apply_iso(ga, iso, q)
        if moved.val != gb.val or moved.residue != gb.residue:
            return False
    return True


def factor_pair_equivalent(fa: Factor, fb: Factor, q: int, mode: str) -> bool:
    """Whether some tower isomorphism of fa carries c into the norm class of
    fb's c and moves fa's character data onto fb's (mode 'strict'), or one
    isomorphism does the first and another the second (mode 'weyl'): the
    factor relation that torusdata decides by one class key per factor."""
    if fa.m != fb.m or fa.step != fb.step:
        return False
    isos = tower_isos(fa)
    if mode == "strict":
        return any(
            _iso_matches_c(fa, fb, iso, q) and _iso_matches_character(fa, fb, iso, q)
            for iso in isos
        )
    # up to Weyl conjugacy the character may be twisted independently of c
    return any(_iso_matches_c(fa, fb, iso, q) for iso in isos) and any(
        _iso_matches_character(fa, fb, iso, q) for iso in isos
    )


# ---------------------------------------------------------------------------
# finite Weyl group


def weyl_group_order(fd: FiniteTorusDatum) -> int:
    order = 1
    for m in fd.entries:
        order *= 2 * m
    counts = {}
    for m in fd.entries:
        counts[m] = counts.get(m, 0) + 1
    for c in counts.values():
        for j in range(2, c + 1):
            order *= j
    return order


# ---------------------------------------------------------------------------
# conjugacy classes and the character table of SL2(q)


def conjugacy_classes(group: MatrixGroup):
    """The conjugacy classes as increasing index arrays: the identity first,
    then by size and first index."""
    first = group.mul[group.mul, group.inverse[:, None]].min(axis=0)  # min over x of x g x^-1
    classes = [np.flatnonzero(first == r) for r in np.unique(first)]
    classes.sort(key=lambda cl: (cl[0] != group.identity, len(cl), cl[0]))
    return classes


def sl2_character_table(q: int):
    """The q + 4 irreducible characters of SL2(q) in closed form (Fulton and
    Harris, Representation Theory, 5.2; Bonnafe, Representations of SL2(F_q),
    2011): the trivial and Steinberg characters, the principal and discrete
    series of dl_regular_character, and the two halves of degree (q + s) / 2
    of the reducible series, s = 1 (principal) or -1 (discrete).  A half is
    chi(z) (q + s) / 2 on z = +-I and chi(z) (s +- sqrt(eps q)) / 2 on z u,
    u unipotent, with the quadratic Gauss sum sqrt(eps q) = sum_x zeta_q^(x^2),
    eps = (-1 / q), and the sign from the square class of <N v, v>, N = u - 1.
    On trace t it is s ((t + 2) / q) on the torus of sign s (split 1,
    nonsplit -1), and 0 on the other."""
    sl2 = dual_pair(q, "-").sl2
    red = _reduction(_order(q))
    a, b, c, d = sl2.elements.reshape(-1, 4).T.astype(np.int64)
    tr = (a + d) % q
    legendre = np.array([0] + [1 if pow(x, (q - 1) // 2, q) == 1 else -1 for x in range(1, q)])
    disc = legendre[(tr * tr - 4) % q]  # 1 split, -1 nonsplit, 0 on +-I and +-unipotents
    z = np.where(tr == q - 2, -1, 1)
    center = (b == 0) & (c == 0) & (a == d)
    # <N v, v> = z b for v = (0, 1), or -z c for v = (1, 0) when b = 0
    key = legendre[np.where(b, z * b, -z * c) % q] * ((disc == 0) & ~center)
    # the Gauss sum is 1 + 2 eta, eta the sum of zeta_q^x over the nonzero squares x
    eta = red[(np.arange(1, (q + 1) // 2) ** 2 % q) * (len(red) // q)].sum(axis=0)
    chars = [ClassFunction(sl2, np.tile(red[0], (len(tr), 1)), "1"),
             ClassFunction(sl2, np.where(center, q, disc)[:, None] * red[0], "St")]
    chars += [dl_regular_character(q, "split", k) for k in range(1, (q - 1) // 2)]
    chars += [dl_regular_character(q, "nonsplit", k) for k in range(1, (q + 1) // 2)]
    for s in (1, -1):
        chi_z = np.where(z < 0, s * legendre[q - 1], 1)
        for sign in (1, -1):  # (s +- sqrt(eps q)) / 2 = (s +- 1) / 2 +- eta
            ints = np.where(center, chi_z * (q + s) // 2, chi_z * (s * key * key + sign * key) // 2)
            ints = ints + np.where(disc == s, s * legendre[(tr + 2) % q], 0)
            values = ints[:, None] * red[0] + (chi_z * sign * key)[:, None] * eta
            chars.append(ClassFunction(sl2, values, f"half[{s},{sign}]"))
    return chars


def decomposition_dimension_check(q: int, variant: str) -> bool:
    """Full decomposition accounting: sum over all irreducible pairs of
    multiplicity * deg(pi) * deg(rho) equals q^2."""
    rep = build_weil_rep(q, variant)
    return q * q == sum(theta_multiplicity(rep, pi, rho) * pi.degree() * rho.degree()
                        for pi in sl2_character_table(q) for rho in o2_irreducibles(rep.pair))
