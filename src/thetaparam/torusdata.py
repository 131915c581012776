"""Torus data (L, L0, c, chi, gamma): validation, equivalence, residue
reduction, finite Weyl action, and block decomposition by depth.

A datum is a product of factors.  Factor i carries the tower (an
unramified layer of degree m_i over the base, then a quadratic step), the
element c_i as a leading term, the depth-zero character exponent chi0_i
against the canonical norm-one generator, and the declared positive-depth
levels (r, gamma) of the character.  Symplectic data have anti-flagged c,
orthogonal data fixed-flagged c.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .errors import DomainError
from .finitefield import fq_is_square
from .localfield import (
    STEP_RAMIFIED,
    STEP_UNRAMIFIED,
    SYM_ANTI,
    SYM_FIXED,
    LeadingTerm,
    TameFieldDescriptor,
    factor_field,
    flag_consistent,
    lt_neg,
)
from .value import Record, Value, set_field


class NotDepthZero(DomainError):
    pass


class PolarityMismatch(DomainError):
    pass


POLARITY_SYMPLECTIC = "symplectic"
POLARITY_ORTHOGONAL = "orthogonal"


class Factor(Value):
    """One factor (L_i, L_i0, c_i, chi_i) of a datum.

    gamma_levels lists (depth r, leading term of gamma) with strictly
    increasing positive rational r; val_L(gamma) = -r in F-normalized units,
    i.e. val = -r * e as an integer.
    """

    __slots__ = _fields = ("m", "step", "c", "chi0", "gamma_levels")

    def __init__(self, m: int, step: str, c: LeadingTerm, chi0: int = 0, gamma_levels: tuple = ()):
        set_field(self, "m", m)
        set_field(self, "step", step)
        set_field(self, "c", c)
        set_field(self, "chi0", chi0)
        set_field(self, "gamma_levels", gamma_levels)

    @property
    def depth(self) -> Fraction:
        return self.gamma_levels[-1][0] if self.gamma_levels else Fraction(0)

    def top_gamma(self) -> LeadingTerm:
        if not self.gamma_levels:
            raise NotDepthZero("factor has no positive-depth data")
        return self.gamma_levels[-1][1]

    def chi0_modulus(self, q: int) -> int:
        """Order of the depth-zero quotient of L^1: q^m + 1 unramified, 2 ramified."""
        return q**self.m + 1 if self.step == STEP_UNRAMIFIED else 2


class TorusDatum(Value):
    __slots__ = _fields = ("base", "factors", "polarity")

    def __init__(self, base: TameFieldDescriptor, factors: tuple, polarity: str):
        set_field(self, "base", base)
        set_field(self, "factors", factors)
        set_field(self, "polarity", polarity)

    @property
    def n(self) -> int:
        return sum(f.m for f in self.factors)

    def replace_factors(self, factors) -> "TorusDatum":
        return TorusDatum(self.base, tuple(factors), self.polarity)


class ValidationReport(Record):
    __slots__ = _fields = ("violations",)

    def __init__(self, violations: list):
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self):
        return {"ok": self.ok, "violations": list(self.violations)}


def validate(datum: TorusDatum) -> ValidationReport:
    """Collect all structural violations; an empty report means valid."""
    v = []
    base = datum.base
    if base.f != 1 or base.e != 1 or base.step is not None:
        v.append("base descriptor must be a plain base field")
        return ValidationReport(v)
    if datum.polarity not in (POLARITY_SYMPLECTIC, POLARITY_ORTHOGONAL):
        v.append(f"unknown polarity {datum.polarity!r}")
    if not datum.factors:
        v.append("datum has no factors")
    want_sym = SYM_ANTI if datum.polarity == POLARITY_SYMPLECTIC else SYM_FIXED
    for i, f in enumerate(datum.factors):
        tag = f"factor {i}"
        if f.step not in (STEP_UNRAMIFIED, STEP_RAMIFIED):
            v.append(f"{tag}: unknown step {f.step!r}")
            continue
        field = factor_field(base, f.m, f.step)
        if f.c.field != field:
            v.append(f"{tag}: c lives on the wrong field")
            continue
        if f.c.sym != want_sym:
            v.append(f"{tag}: c flag {f.c.sym} does not match polarity {datum.polarity}")
        elif not flag_consistent(f.c):
            v.append(f"{tag}: declared {f.c.sym} flag contradicts the leading term of c")
        if not f.gamma_levels:
            if f.step != STEP_UNRAMIFIED:
                v.append(f"{tag}: depth-zero factor on a ramified tower "
                         "(no trace-zero unit exists there)")
        else:
            last = Fraction(0)
            for r, g in f.gamma_levels:
                if r <= last:
                    v.append(f"{tag}: gamma depths not strictly increasing at r={r}")
                last = r
                if g.field != field:
                    v.append(f"{tag}: gamma at r={r} lives on the wrong field")
                    continue
                if g.sym != SYM_ANTI:
                    v.append(f"{tag}: gamma at r={r} is not anti-flagged")
                elif not flag_consistent(g):
                    v.append(f"{tag}: gamma at r={r} contradicts its anti flag")
                if g.val != -r * field.e:
                    v.append(f"{tag}: gamma at r={r} has val {g.val}, expected {-r * field.e}")
    if not v and not depth_zero_general_position(datum):
        v.append("depth-zero character exponents are not in general position")
    return ValidationReport(v)


# ---------------------------------------------------------------------------
# depth-zero residue reduction


class FiniteTorusDatum(Value):
    """Finite-field shadow of a depth-zero block: factors (m_i, L_i0, L_i)
    with character exponents on the norm-one groups of order q^{m_i} + 1."""

    __slots__ = _fields = ("q", "entries", "exponents")

    def __init__(self, q: int, entries: tuple, exponents: tuple):
        set_field(self, "q", q)
        set_field(self, "entries", entries)  # of m_i
        set_field(self, "exponents", exponents)

    @property
    def dim(self) -> int:
        return 2 * sum(self.entries)

    def orders(self):
        return tuple(self.q**m + 1 for m in self.entries)


def residue_reduction(datum: TorusDatum):
    """Split the depth-zero datum by val(c) parity into the two residue
    torus data (I1: even, I2: odd).  Rescaling c by a norm moves val(c) by
    an even amount, so the split needs no normalization."""
    for f in datum.factors:
        if f.gamma_levels or f.step != STEP_UNRAMIFIED:
            raise NotDepthZero("residue reduction needs an unramified, gamma-free datum")
    q = datum.base.q_base
    packs = {0: [], 1: []}
    for f in datum.factors:
        packs[f.c.val % 2].append((f.m, f.chi0 % (q**f.m + 1)))
    out = []
    for parity in (0, 1):
        ms = tuple(m for m, _ in packs[parity])
        ks = tuple(k for _, k in packs[parity])
        out.append(FiniteTorusDatum(q, ms, ks))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# finite Weyl action


def weyl_orbit(fd: FiniteTorusDatum, chi) -> frozenset:
    """Full orbit of the exponent vector under per-factor signed Frobenius
    twists and permutations of identical factors."""
    mods = fd.orders()
    start = tuple(k % n for k, n in zip(chi, mods))
    seen = {start}
    frontier = [start]
    same = [
        (i, j)
        for i in range(len(fd.entries))
        for j in range(i + 1, len(fd.entries))
        if fd.entries[i] == fd.entries[j]
    ]
    while frontier:
        cur = frontier.pop()
        nxt = []
        for i in range(len(cur)):
            t = list(cur)
            t[i] = (t[i] * fd.q) % mods[i]
            nxt.append(tuple(t))
        for i, j in same:
            t = list(cur)
            t[i], t[j] = t[j], t[i]
            nxt.append(tuple(t))
        for t in nxt:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return frozenset(seen)


def is_general_position(fd: FiniteTorusDatum, chi) -> bool:
    """Trivial Weyl stabilizer, in closed form and O(sum of m_i) steps.

    Twists q^{a_i} with a permutation s fix chi iff chi_{s(i)} = q^{a_i}
    chi_i for all i.  So the stabilizer is trivial exactly when each
    exponent's <q>-orbit mod q^m + 1 is free (size 2m, the order of q) and
    factors of equal m carry exponents in distinct orbits.  weyl_orbit is
    the brute-force check of this test.
    """
    seen = set()
    for m, k in zip(fd.entries, chi):
        mod = fd.q**m + 1
        orbit = {k * fd.q**j % mod for j in range(2 * m)}
        if len(orbit) != 2 * m or (m, min(orbit)) in seen:
            return False
        seen.add((m, min(orbit)))
    return True


def depth_zero_general_position(datum: TorusDatum) -> bool:
    """General position of the residue exponents of the gamma-free factors."""
    zero = [f for f in datum.factors if not f.gamma_levels]
    if not zero:
        return True
    return all(
        is_general_position(fd, fd.exponents)
        for fd in residue_reduction(datum.replace_factors(zero))
    )


# ---------------------------------------------------------------------------
# block decomposition


class BlockDecomposition(Value):
    """Factor indices grouped by top gamma depth, depths strictly decreasing;
    depth 0 collects the gamma-free factors."""

    __slots__ = _fields = ("levels",)

    def __init__(self, levels: tuple):
        set_field(self, "levels", levels)  # of (Fraction depth, tuple of factor indices)

    def as_dict(self):
        return {str(r): list(ix) for r, ix in self.levels}


def block_decompose(datum: TorusDatum) -> BlockDecomposition:
    groups = {}
    for i, f in enumerate(datum.factors):
        groups.setdefault(f.depth, []).append(i)
    levels = tuple(
        (r, tuple(groups[r])) for r in sorted(groups.keys(), reverse=True)
    )
    return BlockDecomposition(levels)


# ---------------------------------------------------------------------------
# equivalence


def _norm_class(c: LeadingTerm, step: str):
    """c modulo the norms of the step, split from is_norm(c / c') so that c
    and c' share it exactly when their ratio is a norm: val mod 2 on an
    unramified step; on a ramified step val mod 2 and whether
    (-1)^(val // 2) times the residue is a square."""
    if step == STEP_UNRAMIFIED:
        return c.val % 2
    return c.val % 2, fq_is_square(-c.residue if c.val // 2 % 2 else c.residue)


def _class_key(f: Factor, q: int, mode: str) -> tuple:
    """The canonical key of f's class: equal keys mean related factors.

    Related means one F-isomorphism of the tower carries c into the norm
    class of the partner's c and moves the character data (chi0 and the
    gamma terms) onto the partner's; in weyl mode two isomorphisms may do
    the two jobs.  The isomorphisms form a group: the 2m Frobenius twists j
    of an unramified step, or the m twists times the sign of the uniformizer
    root of a ramified one.  Twist j raises residues to q^j and multiplies
    chi0 by q^j; the sign negates the residues of odd val.  The key is the
    minimum over the group of what it moves: of the pair (norm class,
    character data) in strict mode, of each part alone in weyl mode.
    Frobenius keeps the norm class, so only the sign moves it.
    """
    ramified = f.step == STEP_RAMIFIED
    norm = {1: _norm_class(f.c, f.step)}
    norm[-1] = _norm_class(lt_neg(f.c), f.step) if ramified and f.c.val % 2 else norm[1]
    least_norm = min(norm.values())
    signs = [s for s in ((1, -1) if ramified else (1,)) if mode == "weyl" or norm[s] == least_norm]
    mod = f.chi0_modulus(q)
    chi0 = [f.chi0 * pow(q, j, mod) % mod for j in range(f.m if ramified else 2 * f.m)]
    least_chi0 = min(chi0)
    moved = []
    for j, k in enumerate(chi0):
        if k == least_chi0:
            twisted = [(g.residue ** q**j, g.val % 2) for _, g in f.gamma_levels]
            moved += [
                tuple((-x if s == -1 and odd else x).coeffs for x, odd in twisted) for s in signs
            ]
    levels = tuple((r, g.val) for r, g in f.gamma_levels)
    return f.m, f.step, levels, least_norm, least_chi0, min(moved)


def _class_counts(datum: TorusDatum, mode: str) -> Counter:
    q = datum.base.q_base
    counts = Counter()
    for f, n in Counter(datum.factors).items():
        counts[_class_key(f, q, mode)] += n
    return counts


def datum_equivalent(a: TorusDatum, b: TorusDatum, mode: str = "weyl") -> bool:
    """Equivalence of data: a factor bijection respecting towers such that
    some tower isomorphism carries c into the norm class of its partner and
    transports the character data (exactly for mode='strict', up to the
    finite Weyl action for mode='weyl', the default).  The factor relation
    is an orbit relation of the tower isomorphisms, so a bijection exists
    exactly when each class has as many factors in a as in b: each side's
    distinct factors are counted by their _class_key, one key per factor,
    and the counts compared.
    """
    if mode not in ("weyl", "strict"):
        raise DomainError(f"unknown equivalence mode {mode!r}")
    if a.polarity != b.polarity:
        raise PolarityMismatch(f"{a.polarity} vs {b.polarity}")
    if a.base != b.base or len(a.factors) != len(b.factors):
        return False
    return _class_counts(a, mode) == _class_counts(b, mode)
