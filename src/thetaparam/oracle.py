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
    VerificationFailure,
    build_weil_rep,
    theta_multiplicity,
)
from .localfield import (
    STEP_UNRAMIFIED,
    LeadingTerm,
    TruncatedElement,
    ring_for,
    tr_add,
    tr_lift,
    tr_mul,
)
from .torusdata import FiniteTorusDatum

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
# numerical character tables (class-algebra eigenvectors) and group tools


def conjugacy_classes(group: MatrixGroup):
    """The conjugacy classes as increasing index arrays: the identity first,
    then by size and first index."""
    first = group.mul[group.mul, group.inverse[:, None]].min(axis=0)  # min over x of x g x^-1
    classes = [np.flatnonzero(first == r) for r in np.unique(first)]
    classes.sort(key=lambda cl: (cl[0] != group.identity, len(cl), cl[0]))
    return classes


def numerical_character_table(group: MatrixGroup):
    """Irreducible characters of a small matrix group, via simultaneous
    eigenvectors of the class-sum multiplication matrices."""
    classes = conjugacy_classes(group)
    ncl = len(classes)
    cls_of = np.empty(len(group.elements), dtype=int)
    for ci, cl in enumerate(classes):
        cls_of[cl] = ci
    reps = [cl[0] for cl in classes]
    # class multiplication: tables[i, j, k] counts the x in C_i with x^-1 z_k
    # in C_j, z_k the representative of C_k
    tables = np.zeros((ncl, ncl, ncl))
    for i, cl in enumerate(classes):
        ys = cls_of[group.mul[group.inverse[cl][:, None], reps]]
        np.add.at(tables[i], (ys, np.arange(ncl)), 1)
    rng = np.random.default_rng(1)
    for _ in range(8):
        coeffs = rng.standard_normal(ncl)
        m = sum(c * tables[i] for i, c in enumerate(coeffs))
        vals, vecs = np.linalg.eig(m)
        if np.min(np.abs(vals[:, None] - vals[None, :]) + np.eye(ncl)) > 1e-6:
            break
    else:
        raise VerificationFailure("could not split the class algebra")
    sizes = np.array([len(cl) for cl in classes], dtype=float)
    chars = []
    for t in range(ncl):
        v = vecs[:, t]
        v = v / v[0]  # central character values omega_j, normalized at 1
        # chi_j = d * omega_j / |C_j| with d fixed by sum |C_j||chi_j|^2 = |G|
        norm = float(np.real(np.sum(v * np.conj(v) / sizes)))
        d = (len(group.elements) / norm) ** 0.5
        chars.append(ClassFunction(group, (d * v / sizes)[cls_of], "num"))
    return chars


def decomposition_dimension_check(q: int, variant: str) -> bool:
    """Full decomposition accounting: sum over all irreducible pairs of
    multiplicity * deg(pi) * deg(rho) equals q^2."""
    rep = build_weil_rep(q, variant)
    chars_o = numerical_character_table(rep.pair.o2)
    total = 0
    for pi in numerical_character_table(rep.pair.sl2):
        for rho in chars_o:
            m = theta_multiplicity(rep, pi, rho)
            total += m * round(abs(pi.degree())) * round(abs(rho.degree()))
    return total == q * q
