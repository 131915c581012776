"""The rank-one finite theta correspondence by exact class sums, in pure Python.

For the dual pair (SL2(q), O(V)), dim V = 2 and q in {3, 5}, the trace of
the oscillator representation omega has a closed formula, the trace of the
Bruhat-cell kernel of the Schroedinger model (Gerardin, "Weil
representations associated to finite fields", J. Algebra 46, 1977; Thomas,
"The character of the Weil representation", J. LMS 2008).  With
psi(t) = zeta_q^t, g = [[a, b], [c, d]], h in O(V) and t = -1/c:

    q tr omega(g, h) = q sum_{v : a hv = v} psi(a b Q(v))                  if c = 0,
    q tr omega(g, h) = eps_V sum_v psi((a/c) Q(v) + B(tv, hv) + (d/c) Q(hv))  if c != 0,

eps_V = -1 for the norm form ('-') and +1 for the hyperbolic plane ('+').
A multiplicity is the class sum of these traces, on representatives of the
q + 4 classes of SL2(q) against every h in O(V), with the closed-form
characters: exact in Z[zeta_N], N = lcm(q, q - 1, q + 1), so a non-negative
integer or a NonIntegralMultiplicity.  finite-verify's report and rank-one
Weyl-form check are computed here, without numpy; thetaparam.finitetheta
builds the dense model that the tests compare against.

Group elements are int tuples (a, b, c, d) for [[a, b], [c, d]].  A number of
Z[zeta_N] is a tuple of (exponent, coefficient) pairs; `canonical` reduces
it mod Phi_N, so equal numbers have equal canonical forms.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product

from .errors import DomainError
from .finitefield import fq_make, fq_multiplicative_generator, fq_norm1_generator
from .value import Value, set_field


class NonIntegralMultiplicity(DomainError):
    pass


class NotGeneralPositionFinite(DomainError):
    pass


class VerificationFailure(DomainError):
    pass


class BinarySpace(Value):
    """V = F_q^2 with Q hyperbolic (variant '+') or the field norm form
    of F_{q^2} in the deterministic modulus basis (variant '-')."""

    __slots__ = _fields = ("q", "variant", "gram")

    def __init__(self, q: int, variant: str, gram: tuple):
        set_field(self, "q", q)
        set_field(self, "variant", variant)
        set_field(self, "gram", gram)  # matrix of the polar form B(u, v) = Q(u+v) - Q(u) - Q(v)

    def polar(self, u, v) -> int:
        (g00, g01), (g10, g11) = self.gram
        return (u[0] * (g00 * v[0] + g01 * v[1]) + u[1] * (g10 * v[0] + g11 * v[1])) % self.q

    def quad(self, v) -> int:
        return self.polar(v, v) * ((self.q + 1) // 2) % self.q  # B(v, v) / 2

    def vectors(self):
        return [(a, b) for a in range(self.q) for b in range(self.q)]


@lru_cache(maxsize=None)
def binary_space(q: int, variant: str) -> BinarySpace:
    if variant == "+":
        return BinarySpace(q, "+", ((0, 1), (1, 0)))
    field = fq_make(q, 2)
    # Q(a + b x) = Nm(a + b x); polarize to get the Gram matrix over F_q
    def nm(a, b):
        z = field.element([a, b])
        w = z * z.frobenius()
        assert all(c == 0 for c in w.coeffs[1:])
        return w.coeffs[0]

    q11 = nm(1, 0)
    q22 = nm(0, 1)
    b12 = (nm(1, 1) - q11 - q22) % q
    return BinarySpace(q, "-", ((2 * q11 % q, b12), (b12, 2 * q22 % q)))


def torus_generator(q: int, kind: str):
    """The generator and order of a cyclic torus of SL2(q): g0 of F_q^x,
    order q - 1, for 'split'; y0 of norm one in F_{q^2}, order q + 1, for
    'nonsplit'."""
    if kind == "split":
        return fq_multiplicative_generator(fq_make(q, 1)), q - 1
    if kind == "nonsplit":
        return fq_norm1_generator(fq_make(q, 1), 1), q + 1
    raise DomainError("torus must be 'split' or 'nonsplit'")


def multiplication_matrices(g, order):
    """The matrices of y -> g^k y for k = 0 .. order - 1 in the power basis
    1, x, x^2, ... of the field of g, each a row-major tuple: column j is
    the image of x^j."""
    field = g.field
    basis = [field.gen() ** k for k in range(field.f)]
    mats, cur = [], field.one()
    for _ in range(order):
        cols = [(cur * b).coeffs for b in basis]
        mats.append(tuple(col[i] for i in range(field.f) for col in cols))
        cur = cur * g
    return mats


def _rotations(space: BinarySpace):
    """Rotations indexed by powers of the torus generator: for '+' the maps
    diag(g0^j, g0^-j) of the split torus, for '-' the multiplications by
    the nonsplit torus, the norm-one group of F_{q^2}."""
    if space.variant == "-":
        return multiplication_matrices(*torus_generator(space.q, "nonsplit"))
    g0, n = torus_generator(space.q, "split")
    return [((g0 ** j).coeffs[0], 0, 0, (g0 ** -j).coeffs[0]) for j in range(n)]


def sl2_regular_exponents(q: int):
    n = q + 1
    return [k for k in range(1, n) if (2 * k) % n != 0]


def _mul(x, y, q):
    return ((x[0] * y[0] + x[1] * y[2]) % q, (x[0] * y[1] + x[1] * y[3]) % q,
            (x[2] * y[0] + x[3] * y[2]) % q, (x[2] * y[1] + x[3] * y[3]) % q)


@lru_cache(maxsize=None)
def groups(q: int, variant: str):
    """SL2(q), O(V) and its rotations in power order, as int tuples; the two
    groups in lexicographic order."""
    if q not in (3, 5):
        raise DomainError("the finite oracle is built for q in {3, 5}")
    if variant not in ("+", "-"):
        raise DomainError("variant must be '+' or '-'")
    space, mats = binary_space(q, variant), list(product(range(q), repeat=4))
    sl2 = [m for m in mats if (m[0] * m[3] - m[1] * m[2]) % q == 1]
    # B(m u, m v) = B(u, v) on the basis, which for odd q is Q(m v) = Q(v)
    cols = ((0, 0), (0, 1), (1, 1))
    o2 = [m for m in mats if all(space.polar(m[i::2], m[j::2]) == space.gram[i][j] for i, j in cols)]
    rot = _rotations(space)
    if len(o2) != 2 * len(rot) or not set(rot) <= set(o2) or len(set(rot)) != len(rot):
        raise VerificationFailure("rotation subgroup does not sit in O(V)")
    return tuple(sl2), tuple(o2), tuple(rot)


def _legendre(x: int, q: int) -> int:
    return 0 if x % q == 0 else 1 if pow(x, (q - 1) // 2, q) == 1 else -1


def class_key(g, q):
    """The conjugacy class of g in SL2(q): its trace, and for +-I times a
    unipotent u != 1 the square class of its entry b, or of -c when b = 0
    (that of <N v, v>, N = u - 1, up to the sign of +-I, fixed by the trace)."""
    a, b, c, d = g
    tr = (a + d) % q
    if tr not in (2, q - 2) or not (b or c):
        return tr, 0
    return tr, _legendre(b if b else -c, q)


@lru_cache(maxsize=None)
def sl2_classes(q: int):
    """(representative, size) of each of the q + 4 classes of SL2(q), the
    representative the first element of its class."""
    classes = {}
    for g in groups(q, "-")[0]:
        classes.setdefault(class_key(g, q), [g, 0])[1] += 1
    return tuple(tuple(c) for c in classes.values())


@lru_cache(maxsize=None)
def _quads(space: BinarySpace) -> dict:
    return {v: space.quad(v) for v in space.vectors()}


def weil_trace(space: BinarySpace, g, h) -> tuple:
    """q tr omega(g, h) in Z[zeta_q]: its coefficients of zeta_q^0 .. zeta_q^(q-1),
    reduced mod Phi_q (the last is 0)."""
    q, quad = space.q, _quads(space)
    a, b, c, d = g
    out = [0] * q
    for v, qv in quad.items():
        hv = ((h[0] * v[0] + h[1] * v[1]) % q, (h[2] * v[0] + h[3] * v[1]) % q)
        if c == 0:
            if (a * hv[0] - v[0]) % q == 0 and (a * hv[1] - v[1]) % q == 0:
                out[a * b * qv % q] += q
        else:  # B(tv, hv) = -(Q(v + hv) - Q(v) - Q(hv)) / c
            out[((a + 1) * qv + (d + 1) * quad[hv] - quad[(v[0] + hv[0]) % q, (v[1] + hv[1]) % q]) % q] += 1
    if c:  # the exponents above are c times the true ones, and eps_V = -1 on '-'
        out = [out[e * c % q] * (-1 if space.variant == "-" else 1) for e in range(q)]
    return tuple(x - out[-1] for x in out)


# ---------------------------------------------------------------------------
# cyclotomic numbers over zeta_N, N = _order(q)


def _order(q: int) -> int:
    """N = lcm(q, q - 1, q + 1) for odd q; every value lies in Z[zeta_N]."""
    return q * (q * q - 1) // 2


@lru_cache(maxsize=None)
def _cyclotomic_polynomial(n: int) -> tuple:
    """Phi_n, constant term first: x^n - 1 over Phi_d for each d < n dividing n."""
    p = [-1] + [0] * (n - 1) + [1]
    for m in (_cyclotomic_polynomial(d) for d in range(1, n) if n % d == 0):
        for i in range(len(p) - len(m), -1, -1):  # synthetic division by the monic m
            top = p[i + len(m) - 1]  # a coefficient of the quotient, kept in place
            for j, mj in enumerate(m[:-1]):
                p[i + j] -= top * mj
        p = p[len(m) - 1:]  # the quotient; the remainder is 0
    return tuple(p)


def canonical(x, n: int) -> tuple:
    """The coefficients of zeta_n^0 .. zeta_n^(n-1) of the number x, reduced
    mod Phi_n: equal numbers give equal tuples."""
    out = [0] * n
    for e, c in x:
        out[e % n] += c
    phi = _cyclotomic_polynomial(n)
    k = len(phi) - 1
    for j in range(n - 1, k - 1, -1):
        if out[j]:
            top = out[j]
            for i, pi in enumerate(phi):
                out[j - k + i] -= top * pi
    return tuple(out)


def _cosines(k: int, n: int, big: int):
    """zeta_n^(kj) + zeta_n^(-kj) for j = 0 .. n - 1, over zeta_big."""
    return [((k * j * (big // n), 1), (-k * j * (big // n), 1)) for j in range(n)]


# ---------------------------------------------------------------------------
# closed-form characters: (label, values), the values on the classes of
# SL2(q) in the order of sl2_classes, or on the elements of O(V) in order


def dl_character(q: int, kind: str, exponent: int):
    """The Deligne-Lusztig character of SL2(q) for a character in general
    position of the torus `kind`: the discrete series of degree q - 1 for
    'nonsplit' (sign -1), the principal series of degree q + 1 for 'split'
    (sign 1).  With chi(-1) = (-1)^k it is deg chi(z) on z = +-I, sign chi(z)
    on z times a unipotent, sign (zeta^(kj) + zeta^(-kj)) on the trace
    t^j + t^-j of this torus, and 0 on the other torus."""
    t, n = torus_generator(q, kind)
    if (2 * exponent) % n == 0:
        raise NotGeneralPositionFinite(f"exponent {exponent} mod {n} is not regular")
    sign, cos = (1 if kind == "split" else -1), _cosines(exponent, n, _order(q))
    regular = {(t ** j + t ** -j).coeffs[0]: tuple((e, sign) for e, _ in cos[j]) for j in range(1, n // 2)}
    values = []
    for (a, b, c, d), _ in sl2_classes(q):
        tr = (a + d) % q
        chi_z = 1 if tr == 2 else (-1) ** (exponent % 2)
        values.append(((0, chi_z * (q + sign if b == c == 0 else sign)),) if tr in (2, q - 2)
                      else regular.get(tr, ()))
    return f"{'ps' if sign == 1 else 'ds'}[{exponent}]", tuple(values)


@lru_cache(maxsize=None)
def _o2_parts(q: int, variant: str):
    """(j, reflection) for every element of O(V): h = r_j or h = r_j s, with
    r_j the rotations in power order and s the first reflection, so that a
    reflection h has r_j = h s, as s^2 = 1."""
    _, o2, rot = groups(q, variant)
    index = {r: j for j, r in enumerate(rot)}
    seed = next(h for h in o2 if h not in index)
    return tuple((index[h], False) if h in index else (index[_mul(h, seed, q)], True) for h in o2)


def o2_induced(q: int, variant: str, k: int):
    """ind[k], induced from the rotation character of exponent k: irreducible
    exactly when 2 k != 0 mod the rotation order n; zeta_n^(kj) + zeta_n^(-kj)
    on r_j and 0 on the reflections."""
    n = len(groups(q, variant)[2])
    if (2 * k) % n == 0:
        raise NotGeneralPositionFinite(f"exponent {k} mod {n} does not induce irreducibly")
    cos = _cosines(k, n, _order(q))
    return f"ind[{k}]", tuple(() if refl else cos[j] for j, refl in _o2_parts(q, variant))


def o2_irreducibles(q: int, variant: str):
    """The irreducible characters of the dihedral O(V): lin[rot, ref], rot^j
    on r_j and rot^j ref on r_j s, then ind[k] for 0 < k < n/2."""
    parts = _o2_parts(q, variant)
    chars = [(f"lin[{a},{b}]", tuple(((0, a ** j * (b if refl else 1)),) for j, refl in parts))
             for a in (1, -1) for b in (1, -1)]
    return chars + [o2_induced(q, variant, k) for k in range(1, len(groups(q, variant)[2]) // 2)]


def same_values(x, y, q: int) -> bool:
    return [canonical(v, _order(q)) for v in x[1]] == [canonical(v, _order(q)) for v in y[1]]


# ---------------------------------------------------------------------------
# multiplicities


@lru_cache(maxsize=None)
def _traces(q: int, variant: str):
    """q tr omega(g, h) on the class representatives g, against every h."""
    space, o2 = binary_space(q, variant), groups(q, variant)[1]
    return [[weil_trace(space, g, h) for h in o2] for g, _ in sl2_classes(q)]


@lru_cache(maxsize=None)
def _against(q: int, variant: str, rho: tuple):
    """sum_h q tr omega(g, h) conj(rho(h)) on each class representative g,
    as a coefficient list over zeta_N."""
    big = _order(q)
    step, out = big // q, []
    for row in _traces(q, variant):
        acc = [0] * big
        for tr, value in zip(row, rho):
            for t, x in enumerate(tr):
                if x:
                    for e, y in value:
                        acc[(t * step - e) % big] += x * y
        out.append(acc)
    return out


def multiplicity(q: int, variant: str, pi, rho) -> int:
    """The multiplicity of pi x rho in omega: the class sum of
    q tr omega(g, h) conj(pi(g)) conj(rho(h)) over SL2(q) x O(V), exact in
    Z[zeta_N], must be m q |SL2| |O| for an integer m >= 0, which is returned."""
    big = _order(q)
    total = []
    for (_, size), acc, value in zip(sl2_classes(q), _against(q, variant, rho[1]), pi[1]):
        total += [(f - e, size * x * y) for e, y in value for f, x in enumerate(acc) if x]
    total = canonical(total, big)
    n = q * q * (q * q - 1) * len(groups(q, variant)[1])
    m, rest = divmod(total[0], n)
    if rest or any(total[1:]) or m < 0:
        raise NonIntegralMultiplicity(f"<omega, {pi[0]} x {rho[0]}> = {list(total)} / {n}")
    return m


def verify_finite_theta(q: int) -> dict:
    """Check the rank-one theta pattern for every regular nonsplit-torus
    character: multiplicity one with the single induced character of
    matching exponent on the anisotropic pair, zero with everything else
    there and with every irreducible of the split pair; and the inverse
    exponent yields the same character.  Returns the full report."""
    report = {"q": q, "characters": [], "ok": True}
    for k in sl2_regular_exponents(q):
        pi = dl_character(q, "nonsplit", k)
        entry = {
            "exponent": k,
            "inverse_pair_identical": same_values(pi, dl_character(q, "nonsplit", q + 1 - k), q),
            "minus": [],
            "plus": [],
        }
        hits = []
        for variant, key in (("-", "minus"), ("+", "plus")):
            for rho in o2_irreducibles(q, variant):
                m = multiplicity(q, variant, pi, rho)
                entry[key].append({"rho": rho[0], "multiplicity": m})
                if m and variant == "-":
                    hits.append((rho, m))
                elif m:
                    entry.setdefault("unexpected_plus", []).append(rho[0])
        expected = o2_induced(q, "-", k)
        entry["matched"] = len(hits) == 1 and hits[0][1] == 1 and same_values(hits[0][0], expected, q)
        if not entry["matched"] or entry.get("unexpected_plus") or not entry["inverse_pair_identical"]:
            report["ok"] = False
        report["characters"].append(entry)
    if not report["ok"]:
        raise VerificationFailure(f"finite theta pattern failed for q = {q}: {report}")
    return report


def validate_weyl_form_rank1(q: int) -> dict:
    """In SL2(q) and the anisotropic O(V)(q): the normalizer of the nonsplit
    torus T = <t_1> has index-two image (order 2m with m = 1), acting by the
    signed Frobenius powers {1, q} on exponents; g normalizes T iff
    g t_1 = t_a g, a being its multiplier."""
    sl2, o2, rot = groups(q, "-")
    expected = sorted({1 % (q + 1), q % (q + 1)})
    out = {}
    for name, group in (("sl2", sl2), ("o2", o2)):
        actions = Counter(a for g in group for a, t in enumerate(rot)
                          if _mul(g, rot[1], q) == _mul(t, g, q))
        out[name] = {
            "weyl_order": sum(actions.values()) // len(rot),
            "actions": sorted(actions),
            "expected_actions": expected,
        }
    out["ok"] = all(out[k]["weyl_order"] == 2 and out[k]["actions"] == expected for k in out)
    if not out["ok"]:
        raise VerificationFailure(f"rank-one Weyl validation failed: {out}")
    return out
