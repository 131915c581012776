"""Tame extensions of p-adic fields in two models.

The primary model is the exact "leading term" of an element of L^x modulo
1 + m_L: an L-normalized valuation, an angular residue in the residue
field of L (taken with respect to the canonical uniformizer), and a
declared symmetry flag for the relative involution of a marked quadratic
step L/L0.  For p odd and tame towers this determines square classes and
norm classes exactly, which is everything the theta parameter maps need.

Towers handled here are an unramified layer over the base followed by an
optional quadratic step, either unramified (residue degree doubles) or
ramified (the canonical step adjoins a square root of the uniformizer).

The secondary model, TruncatedElement, is honest p-adic arithmetic at a
tracked finite precision.  An element is e parts, the coefficients of
t^0, ..., t^(e-1) for the canonical uniformizer t (t^2 = p when e = 2),
each in Z/p^N over the deterministic unramified modulus.  It exists only
as a brute-force oracle: Gram matrices of trace forms, norm-image
enumeration, and solubility searches are computed here and compared
against the exact leading-term routes.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import DomainError
from .finitefield import (
    FqDescriptor,
    FqElement,
    _mulmod,
    _powmod,
    fq_canonical_nonsquare,
    fq_embedding,
    fq_is_square,  # looked up here by perfbench/spans.py's Tracer.install
    fq_make,
    fq_sqrt,
    span_solver,
)
from .value import Value, set_field

SYM_FIXED = "fixed"
SYM_ANTI = "anti"
SYM_NONE = "none"

STEP_UNRAMIFIED = "unramified"
STEP_RAMIFIED = "ramified"


class FieldMismatch(DomainError):
    pass


class NoQuadraticStep(DomainError):
    pass


class PrecisionExhausted(DomainError):
    """The truncated model cannot certify the requested digits; retry higher."""


def sym_compose(a: str, b: str) -> str:
    """fixed*fixed = anti*anti = fixed; fixed*anti = anti; none absorbs."""
    if a == SYM_NONE or b == SYM_NONE:
        return SYM_NONE
    return SYM_FIXED if a == b else SYM_ANTI


# ---------------------------------------------------------------------------
# field descriptors


class TameFieldDescriptor(Value):
    """A tame tower L over the base field F (p odd, p does not divide e).

    base_p, base_f describe F (unramified over Q_p of residue degree base_f).
    f is the residue degree of L over F and e the ramification index; the
    optional step marker records the relative quadratic step L/L0.
    """

    __slots__ = _fields = ("base_p", "base_f", "f", "e", "step")

    def __init__(self, base_p: int, base_f: int, f: int, e: int, step: str | None = None):
        if e not in (1, 2):
            raise DomainError("ramification index must be 1 or 2")
        if base_p % 2 == 0:
            raise DomainError("p must be odd")
        if step == STEP_UNRAMIFIED and f % 2 != 0:
            raise DomainError("unramified step needs even residue degree")
        if step == STEP_RAMIFIED and e != 2:
            raise DomainError("ramified step needs e = 2")
        set_field(self, "base_p", base_p)
        set_field(self, "base_f", base_f)
        set_field(self, "f", f)
        set_field(self, "e", e)
        set_field(self, "step", step)

    @property
    def q_base(self) -> int:
        return self.base_p**self.base_f

    @property
    def m(self) -> int:
        """Degree of L0 over F for a marked quadratic step."""
        self._need_step()
        return self.f // 2 if self.step == STEP_UNRAMIFIED else self.f

    def residue_field(self) -> FqDescriptor:
        return fq_make(self.base_p, self.base_f * self.f)

    def subfield_residue(self) -> FqDescriptor:
        """Residue field of L0 (equal to that of L for a ramified step)."""
        self._need_step()
        return fq_make(self.base_p, self.base_f * self.m)

    @property
    def relative_residue_size(self) -> int:
        """|residue field of L0|, the power used by the step involution."""
        return self.base_p ** (self.base_f * self.m)

    def _need_step(self):
        if self.step is None:
            raise NoQuadraticStep(f"{self} carries no quadratic step")

    def __repr__(self):
        tag = f",{self.step}" if self.step else ""
        return f"Tame(p={self.base_p},f0={self.base_f},f={self.f},e={self.e}{tag})"


def base_field(p: int, f0: int = 1) -> TameFieldDescriptor:
    return TameFieldDescriptor(p, f0, 1, 1, None)


def factor_field(base: TameFieldDescriptor, m: int, step: str) -> TameFieldDescriptor:
    """The field L of a datum factor: unramified degree m over the base,
    then the quadratic step."""
    if base.f != 1 or base.e != 1:
        raise DomainError("factor towers build on a base field descriptor")
    if step == STEP_UNRAMIFIED:
        return TameFieldDescriptor(base.base_p, base.base_f, 2 * m, 1, step)
    if step == STEP_RAMIFIED:
        return TameFieldDescriptor(base.base_p, base.base_f, m, 2, step)
    raise DomainError(f"unknown step {step!r}")


# ---------------------------------------------------------------------------
# leading terms


class LeadingTerm(Value):
    """An element class of L^x/(1 + m_L): valuation, angular residue, flags.

    val is L-normalized (val_L(L^x) = Z).  sym declares behavior under the
    relative involution of the marked step; sigma_sym optionally declares
    behavior under an unramified base involution (used in distinction mode).
    """

    __slots__ = _fields = ("field", "val", "residue", "sym", "sigma_sym")

    def __init__(
        self,
        field: TameFieldDescriptor,
        val: int,
        residue: FqElement,
        sym: str = SYM_NONE,
        sigma_sym: str = SYM_NONE,
    ):
        if residue.is_zero():
            raise DomainError("leading term needs a nonzero residue")
        k = field.residue_field()
        if residue.field is not k and residue.field != k:
            raise FieldMismatch("residue lives in the wrong field")
        set_field(self, "field", field)
        set_field(self, "val", val)
        set_field(self, "residue", residue)
        set_field(self, "sym", sym)
        set_field(self, "sigma_sym", sigma_sym)

    def with_residue(self, residue: FqElement) -> "LeadingTerm":
        return LeadingTerm(self.field, self.val, residue, self.sym, self.sigma_sym)

    def __repr__(self):
        tags = self.sym + ("" if self.sigma_sym == SYM_NONE else f"/s:{self.sigma_sym}")
        return f"LT(val={self.val},res={list(self.residue.coeffs)},{tags})"


def lt_mul(a: LeadingTerm, b: LeadingTerm) -> LeadingTerm:
    if a.field is not b.field and a.field != b.field:
        raise FieldMismatch(f"{a.field} != {b.field}")
    return LeadingTerm(
        a.field,
        a.val + b.val,
        a.residue * b.residue,
        sym_compose(a.sym, b.sym),
        sym_compose(a.sigma_sym, b.sigma_sym),
    )


def lt_neg(a: LeadingTerm) -> LeadingTerm:
    # negation commutes with both involutions, so the flags survive
    return a.with_residue(-a.residue)


def residue_sym_ok(residue: FqElement, power: int, sym: str) -> bool:
    """The residue test of a symmetry flag for an involution acting on
    residues as x -> x^power: x^power = x if sym is fixed, -x otherwise."""
    moved = residue**power
    return moved == residue if sym == SYM_FIXED else moved == -residue


def flag_consistent(a: LeadingTerm) -> bool:
    """Necessary residue/valuation conditions for the declared sym flag."""
    if a.sym == SYM_NONE:
        return True
    field = a.field
    if field.step is None:
        return a.sym == SYM_FIXED  # no involution: only "fixed" is sensible
    if field.step == STEP_UNRAMIFIED:
        return residue_sym_ok(a.residue, field.relative_residue_size, a.sym)
    # ramified: fixed elements of L0 have even val, anti elements odd val
    return (a.val % 2 == 0) if a.sym == SYM_FIXED else (a.val % 2 == 1)


class SquareClass(Value):
    """An element of F^x / (F^x)^2 = {1, u, pi, u*pi} for p odd."""

    __slots__ = _fields = ("pi", "ns")

    def __init__(self, pi: int, ns: int):
        set_field(self, "pi", pi)  # valuation parity
        set_field(self, "ns", ns)  # 1 iff the unit part is a non-square

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return SquareClass((self.pi + other.pi) % 2, (self.ns + other.ns) % 2)

    @property
    def label(self) -> str:
        return {(0, 0): "1", (0, 1): "u", (1, 0): "pi", (1, 1): "u*pi"}[(self.pi, self.ns)]

    def is_trivial(self) -> bool:
        return self.pi == 0 and self.ns == 0

    def __repr__(self):
        return f"SquareClass({self.label})"


SQ_ONE = SquareClass(0, 0)
SQ_U = SquareClass(0, 1)
SQ_PI = SquareClass(1, 0)
SQ_UPI = SquareClass(1, 1)


def minus_one_class(q: int) -> SquareClass:
    """Square class of -1 over a field with residue size q."""
    return SquareClass(0, 0 if (q - 1) // 2 % 2 == 0 else 1)


# canonical elements -------------------------------------------------------


@lru_cache(maxsize=None)
def canonical_tau(field: TameFieldDescriptor) -> LeadingTerm:
    """Deterministic trace-zero unit of an unramified step: a square root of
    the canonical non-square of L0, whose residue s satisfies s^Q0 = -s."""
    if field.step != STEP_UNRAMIFIED:
        raise NoQuadraticStep("trace-zero units of valuation 0 need an unramified step")
    k_big = field.residue_field()
    k_small = field.subfield_residue()
    u = fq_canonical_nonsquare(k_small)
    s = fq_sqrt(fq_embedding(k_small, k_big).apply(u))
    assert residue_sym_ok(s, field.relative_residue_size, SYM_ANTI)
    return LeadingTerm(field, 0, s, SYM_ANTI, SYM_NONE)


# ---------------------------------------------------------------------------
# truncated model


class TruncatedRing:
    """O_L to absolute p-adic precision N, as (Z/p^N)[x]/(modulus)[t]/(t^e-p).

    d is the degree of the maximal unramified part of L over Q_p and e the
    ramification index (t = p for e = 1).  The modulus is the integer lift
    of the deterministic F_{p^d} modulus, so residues match the finite field
    layer.  Instances are interned by _make_ring, so identity comparison is
    safe.
    """

    def __init__(self, p: int, d: int, e: int, prec: int):
        self.p = p
        self.d = d
        self.e = e
        self.prec = prec
        self.pN = p**prec
        self.k = fq_make(p, d)
        self.modulus = tuple(int(c) for c in self.k.modulus)
        self._auto_cache: dict[int, list[tuple[int, ...]]] = {}
        self._matrix_cache: dict[tuple[int, ...], list[list[int]]] = {}

    # -- raw polynomial arithmetic on length-d integer tuples mod p^N

    def uadd(self, a, b):
        pN = self.pN
        return tuple([(x + y) % pN for x, y in zip(a, b)])

    def usub(self, a, b):
        pN = self.pN
        return tuple([(x - y) % pN for x, y in zip(a, b)])

    def uscale(self, a, c):
        pN = self.pN
        return tuple([(x * c) % pN for x in a])

    def umul(self, a, b):
        return _mulmod(a, b, self.modulus, self.pN)

    def uone(self):
        return (1,) + (0,) * (self.d - 1)

    def uzero(self):
        return (0,) * self.d

    def parts(self, u, k: int = 0):
        """The coefficient parts of u * t^k for k < e."""
        zero = (self.uzero(),)
        return zero * k + (u,) + zero * (self.e - 1 - k)

    def uinv(self, a):
        """Inverse of a unit: pow mod p^N for a constant (every unit when
        d = 1), else the Hensel lift of the residue inverse."""
        if all(c % self.p == 0 for c in a):
            raise PrecisionExhausted("inverting a non-unit in the truncated ring")
        if not any(a[1:]):
            return (pow(a[0], -1, self.pN),) + a[1:]
        y = tuple(int(c) for c in self.k.element(a).inverse().coeffs)
        prec = 1
        while prec < self.prec:  # y <- y(2 - a y), doubling correct digits
            y = self.umul(y, self.usub(self.uscale(self.uone(), 2), self.umul(a, y)))
            prec *= 2
        return y

    def _eval_int_poly(self, coeffs, at):
        acc = self.uzero()
        for c in reversed(coeffs):
            acc = self.umul(acc, at)
            acc = self.uadd(acc, self.uscale(self.uone(), c))
        return acc

    def hensel_root(self, poly, r):
        """The root of the integer polynomial poly congruent to r mod p, for
        a simple root mod p, by Newton iteration."""
        fprime = [(i * poly[i]) % self.pN for i in range(1, len(poly))]
        digits = 1
        while digits < self.prec:  # each step doubles the correct digits
            fr, fpr = self._eval_int_poly(poly, r), self._eval_int_poly(fprime, r)
            r = self.usub(r, self.umul(fr, self.uinv(fpr)))
            digits *= 2
        return r

    def automorphism_images(self, j: int) -> list[tuple[int, ...]]:
        """Images of the power basis under the Frobenius lift x -> x^{p^j}.

        Entry k is the expansion of root^k, for the unique root of the
        modulus congruent to x^{p^j} mod p: x itself for j = 0, Hensel-lifted
        from x^p by Newton iteration for j = 1, and the image of the root
        for j - 1 under the lift for j = 1 otherwise.
        """
        j %= self.d
        if j in self._auto_cache:
            return self._auto_cache[j]
        r = tuple([0, 1] + [0] * (self.d - 2)) if self.d > 1 else (0,)
        if j == 1:
            r = self.hensel_root(self.modulus, _powmod(r, self.p, self.modulus, self.pN))
        elif j > 1:
            r = self.automorphism_sum(self.automorphism_images(j - 1)[1], (1,))
        assert not any(self._eval_int_poly(self.modulus, r))
        images = [self.uone()]
        for _ in range(self.d - 1):
            images.append(self.umul(images[-1], r))
        self._auto_cache[j] = images
        return images

    def automorphism_sum(self, a, js: tuple[int, ...]):
        """The sum over j in js (each in range(d)) of the images of a under
        x -> x^{p^j}: one pass over the rows of the summed image matrices,
        which are cached per js."""
        rows = self._matrix_cache.get(js)
        if rows is None:
            images = [self.automorphism_images(j) for j in js]
            rows = self._matrix_cache[js] = [
                [sum(img[k][m] for img in images) % self.pN for k in range(self.d)]
                for m in range(self.d)
            ]
        pN = self.pN
        return tuple([sum([x * y for x, y in zip(row, a)]) % pN for row in rows])


@lru_cache(maxsize=None)
def _make_ring(p: int, d: int, e: int, prec: int) -> TruncatedRing:
    return TruncatedRing(p, d, e, prec)


def ring_for(field: TameFieldDescriptor, prec: int) -> TruncatedRing:
    return _make_ring(field.base_p, field.base_f * field.f, field.e, prec)


@lru_cache(maxsize=None)
def base_coordinates(field: TameFieldDescriptor, prec: int):
    """(theta, pullback) on L's unramified ring at prec: theta is the root of
    F's modulus lifting the residue embedding k_F -> k_L, pullback(u) the w
    with u = sum_l w_l theta^l (DomainError off F).  Keyed by the field:
    (f0, f) = (1, 2) and (2, 1) share one ring but not F."""
    ring = ring_for(field, prec)
    f0, pN = field.base_f, ring.pN
    k_f = fq_make(field.base_p, f0)
    start = fq_embedding(k_f, field.residue_field()).image_of_generator
    theta = ring.hensel_root(k_f.modulus, start.coeffs)
    powers = [_powmod(theta, l, ring.modulus, pN) for l in range(f0)]
    # theta's powers are independent mod p
    return theta, span_solver(powers, ring.p, pN, "element does not lie in the base field")


def valp_coeffs(coeffs, p: int, pN: int) -> int:
    """v_p(gcd(p^N, *coeffs)) for pN = p^N: the least p-adic valuation of
    the coefficients, capped at N, which all-zero coefficients mod p^N
    reach."""
    g = gcd(pN, *coeffs)
    v = 0
    while g > 1:  # g is a power of p
        g //= p
        v += 1
    return v


class TruncatedElement(Value):
    """(parts[0] + parts[1] t + ... + parts[e-1] t^(e-1)) / p^shift.

    Each part is a length-d coefficient tuple in the unramified ring mod p^N,
    and t is the canonical uniformizer: t^2 = p when e = 2.  Instances keep
    a __dict__ for the valuation.
    """

    _fields = ("field", "ring", "parts", "shift")

    def __init__(self, field: TameFieldDescriptor, ring: TruncatedRing, parts: tuple, shift: int = 0):
        set_field(self, "field", field)
        set_field(self, "ring", ring)
        set_field(self, "parts", parts)
        set_field(self, "shift", shift)

    def val_or_none(self):
        """L-normalized valuation, or None when zero to working precision:
        the least e (v_p(part k) - shift) + k over the parts.

        Computed once and kept in the instance dict, outside the fields
        that == and hash read."""
        if "_val" in self.__dict__:
            return self.__dict__["_val"]
        p, pN, cap = self.ring.p, self.ring.pN, self.ring.prec
        valps = [valp_coeffs(u, p, pN) for u in self.parts]
        vk = min(valps)  # the least candidate: least v_p first, then least k
        v = self.ring.e * (vk - self.shift) + valps.index(vk) if vk < cap else None
        self.__dict__["_val"] = v
        return v

    def val(self) -> int:
        v = self.val_or_none()
        if v is None:
            raise PrecisionExhausted("valuation exceeds working precision")
        return v

    def leading_term(self, sym=SYM_NONE, sigma_sym=SYM_NONE) -> LeadingTerm:
        v = self.val()
        p, e = self.ring.p, self.ring.e
        k = v // e + self.shift
        res = self.field.residue_field().element([(c // p**k) % p for c in self.parts[v % e]])
        return LeadingTerm(self.field, v, res, sym, sigma_sym)

    def __repr__(self):
        return f"Trunc({self.field}, parts={[list(u) for u in self.parts]}, /p^{self.shift})"


def _align(x: TruncatedElement, y: TruncatedElement):
    if x.field != y.field:
        raise FieldMismatch("truncated elements on different fields")
    if x.ring is not y.ring:
        raise FieldMismatch("truncated elements at different precisions")
    s = max(x.shift, y.shift)
    return _reshift(x, s), _reshift(y, s), s


def _reshift(x: TruncatedElement, s: int) -> TruncatedElement:
    if s == x.shift:
        return x
    mult = x.ring.p ** (s - x.shift)
    return TruncatedElement(x.field, x.ring, tuple([x.ring.uscale(u, mult) for u in x.parts]), s)


def least_shift(parts, shift: int, ring: TruncatedRing):
    """(parts, shift) with the least shift: p^k divided out of every
    coefficient, for the largest k <= shift that divides them all (k =
    shift when all are 0 mod p^N)."""
    if not shift:
        return parts, 0
    v = min([valp_coeffs(u, ring.p, ring.pN) for u in parts])
    k = shift if v == ring.prec else min(v, shift)
    if not k:
        return parts, shift
    pk = ring.p**k
    return tuple([tuple([c // pk for c in u]) for u in parts]), shift - k


def _normalized(x: TruncatedElement) -> TruncatedElement:
    parts, s = least_shift(x.parts, x.shift, x.ring)
    return x if s == x.shift else TruncatedElement(x.field, x.ring, parts, s)


def _product(x: TruncatedElement, y: TruncatedElement) -> TruncatedElement:
    """x * y on one ring, with t^2 = p for e = 2."""
    ring = x.ring
    if ring.e == 1:
        parts = (ring.umul(x.parts[0], y.parts[0]),)
    else:
        (a, b), (c, d) = x.parts, y.parts
        parts = (
            ring.uadd(ring.umul(a, c), ring.uscale(ring.umul(b, d), ring.p)),
            ring.uadd(ring.umul(a, d), ring.umul(b, c)),
        )
    return _normalized(TruncatedElement(x.field, ring, parts, x.shift + y.shift))


def _t_negated(x: TruncatedElement) -> TruncatedElement:
    """The image of x under t -> -t."""
    parts = tuple([x.ring.uscale(u, -1) if k % 2 else u for k, u in enumerate(x.parts)])
    return TruncatedElement(x.field, x.ring, parts, x.shift)


def tr_lift(lt: LeadingTerm, prec: int) -> TruncatedElement:
    """The coefficient lift of a leading term: lift(residue) * pi_L^val."""
    ring = ring_for(lt.field, prec)
    e = ring.e
    s = max(0, -(lt.val // e))  # ceil(-val / e) for a negative val
    v = lt.val + e * s
    unit = ring.uscale(tuple(int(c) for c in lt.residue.coeffs), ring.p ** (v // e))
    return TruncatedElement(lt.field, ring, ring.parts(unit, v % e), s)


def tr_add(x: TruncatedElement, y: TruncatedElement) -> TruncatedElement:
    x, y, s = _align(x, y)
    return TruncatedElement(x.field, x.ring, tuple(map(x.ring.uadd, x.parts, y.parts)), s)


def tr_mul(x: TruncatedElement, y: TruncatedElement) -> TruncatedElement:
    if x.field != y.field or x.ring is not y.ring:
        raise FieldMismatch("truncated elements on different fields")
    return _product(x, y)


def tr_conj(x: TruncatedElement) -> TruncatedElement:
    """The involution of the marked quadratic step, exactly."""
    x.field._need_step()
    if x.field.step == STEP_RAMIFIED:
        return _t_negated(x)
    j = x.ring.d // 2
    parts = tuple([x.ring.automorphism_sum(u, (j,)) for u in x.parts])
    return TruncatedElement(x.field, x.ring, parts, x.shift)
