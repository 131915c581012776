"""Seeded random generators for datum sweeps, and small constructors that
the tests share.

Residue fields are capped at the default size bound, which at p = 7 caps
the unramified layer at m = 3 (F_{7^8} would exceed it) and over a base
field of degree f0 = 2 at p = 5 caps it at m = 2 (F_{5^8}).
"""

import random
from fractions import Fraction

from thetaparam.finitefield import SIZE_BOUND, fq_canonical_nonsquare, fq_embedding, fq_sqrt
from thetaparam.localfield import (
    STEP_RAMIFIED,
    STEP_UNRAMIFIED,
    SYM_ANTI,
    SYM_FIXED,
    SYM_NONE,
    LeadingTerm,
    TruncatedElement,
    base_field,
    canonical_tau,
    factor_field,
    lt_mul,
    ring_for,
)
from thetaparam.oracle import apply_iso, relative_conjugate, square_class
from thetaparam.quadform import hilbert_class
from thetaparam.theta import DistinctionWitness, e_descriptor
from thetaparam.torusdata import (
    Factor,
    POLARITY_ORTHOGONAL,
    POLARITY_SYMPLECTIC,
    TorusDatum,
    validate,
)


def max_part(p: int, f0: int = 1) -> int:
    """The largest m <= 4 whose unramified step, of residue field
    F_{p^(2 f0 m)}, stays within the size bound."""
    m = 4
    while p ** (2 * f0 * m) > SIZE_BOUND:
        m -= 1
    return m


def random_partition(n: int, cap: int, rng: random.Random):
    parts = []
    left = n
    while left:
        m = rng.randint(1, min(left, cap))
        parts.append(m)
        left -= m
    return parts


def random_nonzero(field_k, rng: random.Random):
    while True:
        x = field_k.element([rng.randrange(field_k.p) for _ in range(field_k.f)])
        if not x.is_zero():
            return x


def anti_residue(field, rng: random.Random):
    """Residue with r^Q0 = -r for an unramified step: s times a subfield unit."""
    s = canonical_tau(field).residue
    k0 = field.subfield_residue()
    emb = fq_embedding(k0, field.residue_field())
    return s * emb.apply(random_nonzero(k0, rng))


def fixed_residue(field, rng: random.Random):
    if field.step == STEP_UNRAMIFIED:
        k0 = field.subfield_residue()
        emb = fq_embedding(k0, field.residue_field())
        return emb.apply(random_nonzero(k0, rng))
    return random_nonzero(field.residue_field(), rng)


def random_c(field, step, rng: random.Random, polarity):
    sym = SYM_ANTI if polarity == POLARITY_SYMPLECTIC else SYM_FIXED
    if step == STEP_UNRAMIFIED:
        val = rng.randint(-2, 3)
        res = anti_residue(field, rng) if sym == SYM_ANTI else fixed_residue(field, rng)
    else:
        val = 2 * rng.randint(-1, 1) + (1 if sym == SYM_ANTI else 0)
        res = random_nonzero(field.residue_field(), rng)
    return LeadingTerm(field, val, res, sym)


def random_gammas(field, step, rng: random.Random, levels=None):
    if levels is None:
        levels = rng.randint(1, 2)
    if step == STEP_UNRAMIFIED:
        depths = sorted(rng.sample([1, 2, 3, 4], levels))
        return tuple(
            (Fraction(r), LeadingTerm(field, -r, anti_residue(field, rng), SYM_ANTI))
            for r in depths
        )
    depths = sorted(rng.sample([Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)], levels))
    return tuple(
        (r, LeadingTerm(field, -int(2 * r), random_nonzero(field.residue_field(), rng), SYM_ANTI))
        for r in depths
    )


def random_depth_zero_datum(p: int, rng: random.Random, n_max: int = 4) -> TorusDatum:
    base = base_field(p)
    for _ in range(200):
        parts = random_partition(rng.randint(1, n_max), max_part(p), rng)
        factors = []
        for m in parts:
            field = factor_field(base, m, STEP_UNRAMIFIED)
            c = random_c(field, STEP_UNRAMIFIED, rng, POLARITY_SYMPLECTIC)
            chi0 = rng.randrange(p**m + 1)
            factors.append(Factor(m, STEP_UNRAMIFIED, c, chi0))
        datum = TorusDatum(base, tuple(factors), POLARITY_SYMPLECTIC)
        if validate(datum).ok:
            return datum
    raise RuntimeError("could not draw a valid depth-zero datum")


def random_mixed_datum(p: int, rng: random.Random, n_max: int = 4) -> TorusDatum:
    """Valid symplectic datum mixing depth-zero and positive-depth factors."""
    base = base_field(p)
    for _ in range(200):
        parts = random_partition(rng.randint(1, n_max), max_part(p), rng)
        factors = []
        for m in parts:
            kind = rng.random()
            if kind < 0.4:
                step, gammas = STEP_UNRAMIFIED, ()
            elif kind < 0.7:
                step = STEP_UNRAMIFIED
                gammas = None
            else:
                step = STEP_RAMIFIED
                gammas = None
            field = factor_field(base, m, step)
            c = random_c(field, step, rng, POLARITY_SYMPLECTIC)
            gl = random_gammas(field, step, rng) if gammas is None else ()
            chi0 = rng.randrange(p**m + 1 if step == STEP_UNRAMIFIED else 2)
            factors.append(Factor(m, step, c, chi0, gl))
        datum = TorusDatum(base, tuple(factors), POLARITY_SYMPLECTIC)
        if validate(datum).ok:
            return datum
    raise RuntimeError("could not draw a valid mixed datum")


def norm_rescaled(f, rng: random.Random) -> Factor:
    """f with c scaled by the norm of a random leading term: an equivalent factor."""
    y = LeadingTerm(f.c.field, rng.randint(0, 1), random_nonzero(f.c.field.residue_field(), rng))
    nm = with_sym(lt_mul(y, relative_conjugate(y)), SYM_FIXED)
    return Factor(f.m, f.step, lt_mul(f.c, nm), f.chi0, f.gamma_levels)


def twisted(f, iso, q: int, move_c: bool = True) -> Factor:
    """f with its character data, and c too when move_c, moved by a tower
    isomorphism: strictly equivalent to f when move_c, else up to Weyl."""
    c = apply_iso(f.c, iso, q) if move_c else f.c
    gammas = tuple((r, apply_iso(g, iso, q)) for r, g in f.gamma_levels)
    return Factor(f.m, f.step, c, f.chi0 * q ** iso[0] % f.chi0_modulus(q), gammas)


def random_orthogonal_datum(p: int, rng: random.Random, n_max: int = 4, f0: int = 1) -> TorusDatum:
    """Orthogonal datum over the base field of degree f0 over Q_p, each
    factor's step drawn from both kinds."""
    base = base_field(p, f0)
    parts = random_partition(rng.randint(1, n_max), max_part(p, f0), rng)
    factors = []
    for m in parts:
        step = rng.choice([STEP_UNRAMIFIED, STEP_RAMIFIED])
        field = factor_field(base, m, step)
        c = random_c(field, step, rng, POLARITY_ORTHOGONAL)
        factors.append(Factor(m, step, c, 0))
    return TorusDatum(base, tuple(factors), POLARITY_ORTHOGONAL)


def sigma_fixed_residue(field, base_f, rng: random.Random):
    """Residue in the image of the sigma-fixed subfield F_{q^m} of k_L."""
    from thetaparam.finitefield import fq_make

    k_fix = fq_make(field.base_p, base_f.base_f * field.m)
    emb = fq_embedding(k_fix, field.residue_field())
    return emb.apply(random_nonzero(k_fix, rng))


def sigma_anti_residue(field, base_f, rng: random.Random):
    from thetaparam.finitefield import fq_make

    k_fix = fq_make(field.base_p, base_f.base_f * field.m)
    emb = fq_embedding(k_fix, field.residue_field())
    s = fq_sqrt(emb.apply(fq_canonical_nonsquare(k_fix)))
    return s * emb.apply(random_nonzero(k_fix, rng))


def random_witness(p: int, rng: random.Random, n_max: int = 3) -> DistinctionWitness:
    """sigma-symmetric witness with trivial depth-zero restriction: all
    factors have odd m and a ramified step, c sigma-fixed, gammas
    sigma-anti, chi0 even."""
    base_f = base_field(p)
    e_base = e_descriptor(base_f)
    n = rng.randint(1, n_max)
    parts = []
    left = n
    while left:
        m = rng.choice([x for x in (1, 3) if x <= left])
        parts.append(m)
        left -= m
    factors = []
    for m in parts:
        field = factor_field(e_base, m, STEP_RAMIFIED)
        val = 2 * rng.randint(-1, 1) + 1
        c = LeadingTerm(field, val, sigma_fixed_residue(field, base_f, rng), SYM_ANTI, SYM_FIXED)
        levels = rng.randint(1, 2)
        depths = sorted(rng.sample([Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)], levels))
        gammas = tuple(
            (
                r,
                LeadingTerm(
                    field, -int(2 * r), sigma_anti_residue(field, base_f, rng), SYM_ANTI, SYM_ANTI
                ),
            )
            for r in depths
        )
        chi0 = 2 * rng.randrange(0, 4)
        factors.append(Factor(m, STEP_RAMIFIED, c, chi0, gammas))
    datum = TorusDatum(e_base, tuple(factors), POLARITY_SYMPLECTIC)
    return DistinctionWitness(base_f, datum)


def random_parts(ring, rng):
    """Uniformly random coefficient parts of a truncated element, part 0
    drawn first."""
    return tuple(tuple(rng.randrange(ring.pN) for _ in range(ring.d)) for _ in range(ring.e))


def leading_term(field, val, residue_coeffs, sym=SYM_NONE, sigma_sym=SYM_NONE) -> LeadingTerm:
    """The leading term whose residue has the given coefficients."""
    return LeadingTerm(field, val, field.residue_field().element(residue_coeffs), sym, sigma_sym)


def with_sym(lt: LeadingTerm, sym, sigma_sym=None) -> LeadingTerm:
    """lt with the step flag sym and, if given, the base flag sigma_sym."""
    sigma_sym = lt.sigma_sym if sigma_sym is None else sigma_sym
    return LeadingTerm(lt.field, lt.val, lt.residue, sym, sigma_sym)


def hilbert_symbol(a: LeadingTerm, b: LeadingTerm) -> int:
    """The tame Hilbert symbol (a, b) over the common field of a and b."""
    return hilbert_class(square_class(a), square_class(b), a.field.residue_field().order)


def truncated_int(field, n: int, prec: int) -> TruncatedElement:
    """The image of the integer n in L's truncated ring at precision prec."""
    ring = ring_for(field, prec)
    return TruncatedElement(field, ring, ring.parts(ring.uscale(ring.uone(), n % ring.pN)))
