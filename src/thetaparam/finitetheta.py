"""Brute-force oracle for the rank-one finite theta correspondence.

For the dual pair (SL2(q), O(V)) with dim V = 2 and q in {3, 5} this module
builds the oscillator representation explicitly in the Schroedinger model
(functions on V, dimension q^2): the orthogonal group permutes V, the
upper unipotent n(b) acts by the quadratic character multiplication
psi(b Q(v)), and the Weyl element acts by the finite Fourier transform
whose scalar normalization is pinned by the group relations
(n(1) w)^3 = w^4 = 1 and then verified exhaustively.

Deligne-Lusztig characters of SL2(q) (discrete and principal series in
general position) and the induced characters of the dihedral groups
O(V+-)(q) are provided in closed form, cross-checked against numerically
computed character tables, and fed into multiplicity sums that verify the
rank-one theta pattern: a regular nonsplit-torus character lifts with
multiplicity one to the anisotropic pair and vanishes on the split pair.

The Weyl-form checks close matrix groups over F_q breadth-first on exact
integer codes of their elements, and find torus normalizers by the
inverse-free test g t = t' g: one exact pass, with no matrix inverse.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .finitefield import (
    fq_legendre,
    fq_make,
    fq_multiplicative_generator,
    fq_norm1_generator,
)


class NormalizationFailure(DomainError):
    pass


class NonIntegralMultiplicity(DomainError):
    pass


class VerificationFailure(DomainError):
    pass


MULT_TOL = 1e-6
MAT_TOL = 1e-8


def _psi(q):
    return lambda t: cmath.exp(2j * cmath.pi * (t % q) / q)


def _matmul(a, b, q):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) % q for j in range(len(b[0])))
        for i in range(len(a))
    )


def _matvec(m, v, q):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) % q for i in range(len(m)))


_IDENTITY = ((1, 0), (0, 1))


# ---------------------------------------------------------------------------
# the two binary quadratic spaces and their isometry groups


@dataclass(frozen=True)
class BinarySpace:
    """V = F_q^2 with Q hyperbolic (variant '+') or the field norm form
    of F_{q^2} in the deterministic modulus basis (variant '-')."""

    q: int
    variant: str
    gram: tuple  # matrix of the polar form B(u, v) = Q(u+v) - Q(u) - Q(v)

    def quad(self, v) -> int:
        if self.variant == "+":
            return (v[0] * v[1]) % self.q
        g = self.gram
        return ((g[0][0] * v[0] * v[0] + g[1][1] * v[1] * v[1]) * pow(2, -1, self.q)
                + g[0][1] * v[0] * v[1]) % self.q

    def bilinear(self, u, v) -> int:
        g = self.gram
        return (
            g[0][0] * u[0] * v[0] + g[0][1] * (u[0] * v[1] + u[1] * v[0]) + g[1][1] * u[1] * v[1]
        ) % self.q

    def vectors(self):
        return [(a, b) for a in range(self.q) for b in range(self.q)]


def _binary_space(q: int, variant: str) -> BinarySpace:
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
    gram = ((2 * q11 % q, b12), (b12, 2 * q22 % q))
    return BinarySpace(q, "-", gram)


@dataclass(frozen=True)
class FiniteDualPair:
    """SL2(q) paired with the isometry group of one binary quadratic space."""

    q: int
    variant: str
    space: BinarySpace
    sp_elements: tuple
    o_elements: tuple
    rotations: tuple  # o-element keys in the order of powers of the norm-one generator

    @property
    def rotation_order(self) -> int:
        return len(self.rotations)


def _gl2_elements(q: int):
    """GL2(q) in lexicographic order of the entries (a, b, c, d)."""
    return [((a, b), (c, d)) for a in range(q) for b in range(q) for c in range(q)
            for d in range(q) if (a * d - b * c) % q]


def _sl2_elements(q: int):
    return [m for m in _gl2_elements(q) if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % q == 1]


def _orthogonal_elements(space: BinarySpace):
    """The m in GL2(q) with m^T G m = G for the polar Gram matrix G; for odd
    q these are exactly the m with Q(mv) = Q(v), as Q(v) = B(v, v) / 2."""
    q, g = space.q, space.gram
    return [m for m in _gl2_elements(q) if _matmul(tuple(zip(*m)), _matmul(g, m, q), q) == g]


def _multiplication_matrices(g, order):
    """The matrices of y -> g^k y for k = 0 .. order - 1 in the power basis
    1, x, x^2, ... of the field of g; column j is the image of x^j."""
    field = g.field
    basis = [field.gen() ** k for k in range(field.f)]
    mats, cur = [], field.one()
    for _ in range(order):
        mats.append(tuple(zip(*((cur * b).coeffs for b in basis))))
        cur = cur * g
    return mats


def _rotation_list(space: BinarySpace):
    """Rotations indexed by powers of the canonical generator: for '-' the
    multiplications by the norm-one group of F_{q^2}, for '+' the maps
    diag(g0^j, g0^-j)."""
    q = space.q
    if space.variant == "-":
        return _multiplication_matrices(fq_norm1_generator(fq_make(q, 1), 1), q + 1)
    g0 = fq_multiplicative_generator(fq_make(q, 1)).coeffs[0]
    return [((pow(g0, j, q), 0), (0, pow(g0, -j, q))) for j in range(q - 1)]


@lru_cache(maxsize=None)
def dual_pair(q: int, variant: str) -> FiniteDualPair:
    if q not in (3, 5):
        raise DomainError("the finite oracle is built for q in {3, 5}")
    if variant not in ("+", "-"):
        raise DomainError("variant must be '+' or '-'")
    space = _binary_space(q, variant)
    sp = tuple(_sl2_elements(q))
    o = tuple(_orthogonal_elements(space))
    expect = 2 * (q - 1) if variant == "+" else 2 * (q + 1)
    if len(sp) != q * (q * q - 1) or len(o) != expect:
        raise VerificationFailure("group orders are off")
    rotations = tuple(_rotation_list(space))
    rot_set = set(rotations)
    if not rot_set <= set(o) or len(rot_set) != expect // 2:
        raise VerificationFailure("rotation subgroup does not sit in O(V)")
    return FiniteDualPair(q, variant, space, sp, o, rotations)


# ---------------------------------------------------------------------------
# oscillator representation


@dataclass
class RepMatrixSet:
    """The oscillator representation on functions on V, with every array in
    the order of pair.sp_elements and pair.o_elements.

    sp[i] is the matrix of the i-th element g of SL2(q); the j-th element h
    of O(V) acts by the index permutation f -> f[perm[j]], which commutes
    with every sp[i].  traces[i, j] = sum_k sp[i, k, perm[j, k]] is the
    trace of the pair (g, h^-1), equal to that of (g, h) because h and h^-1
    are conjugate in the dihedral group O(V).
    """

    pair: FiniteDualPair
    sp: np.ndarray  # (|SL2|, d, d) complex
    perm: np.ndarray  # (|O|, d) int
    traces: np.ndarray  # (|SL2|, |O|) complex


def _scalar_of(mat, dim) -> complex:
    lam = mat[0, 0]
    if np.max(np.abs(mat - lam * np.eye(dim))) > MAT_TOL:
        raise NormalizationFailure("matrix is not scalar where a relation demands it")
    return complex(lam)


def build_weil_rep(q: int, variant: str) -> RepMatrixSet:
    """Construct the oscillator representation for the pair (SL2(q), O(V)).

    The unipotent action is exact; the Fourier candidate for the Weyl
    element carries an unknown scalar c, pinned uniquely by
    (n(1) w)^3 = 1 and w^4 = 1 (as c = mu3 / mu4 for the measured scalar
    defects), after which the whole group is generated breadth-first with
    every Cayley collision checked, and commutation with the permutation
    action of every element of O(V) is verified on every element of SL2(q).
    """
    pair = dual_pair(q, variant)
    space = pair.space
    psi = _psi(q)
    vecs = space.vectors()
    dim = len(vecs)
    index = {v: i for i, v in enumerate(vecs)}

    def n_mat(b):
        return np.diag([psi(b * space.quad(v)) for v in vecs])

    fourier = np.array(
        [[psi(space.bilinear(v, u)) for u in vecs] for v in vecs], dtype=complex
    ) / q

    n1 = n_mat(1)
    mu3 = _scalar_of(np.linalg.matrix_power(n1 @ fourier, 3), dim)
    mu4 = _scalar_of(np.linalg.matrix_power(fourier, 4), dim)
    c = mu3 / mu4
    w_mat = c * fourier
    if (
        np.max(np.abs(np.linalg.matrix_power(n1 @ w_mat, 3) - np.eye(dim))) > MAT_TOL
        or np.max(np.abs(np.linalg.matrix_power(w_mat, 4) - np.eye(dim))) > MAT_TOL
    ):
        raise NormalizationFailure("relation normalization failed")

    w_key = ((0, 1), (q - 1, 0))
    gens = {w_key: w_mat}
    for b in range(1, q):
        gens[((1, b), (0, 1))] = n_mat(b)

    pos = {g: i for i, g in enumerate(pair.sp_elements)}
    sp = np.empty((len(pos), dim, dim), dtype=complex)
    sp[pos[_IDENTITY]] = np.eye(dim)
    reached, frontier = {_IDENTITY}, [_IDENTITY]
    while frontier:
        nxt = []
        for cur in frontier:
            for gk, gm in gens.items():
                new = _matmul(gk, cur, q)
                cand = gm @ sp[pos[cur]]
                if new in reached:
                    if np.max(np.abs(sp[pos[new]] - cand)) > MAT_TOL:
                        raise NormalizationFailure("inconsistent Cayley collision")
                else:
                    sp[pos[new]] = cand
                    reached.add(new)
                    nxt.append(new)
        frontier = nxt
    if len(reached) != len(pos):
        raise NormalizationFailure("generators did not reach the whole group")

    perm = np.array(
        [[index[_matvec(_mat_inverse(h, q), v, q)] for v in vecs] for h in pair.o_elements]
    )
    # P S P^-1 = S entrywise for each g and the permutation matrix P of each perm;
    # one g at a time keeps the temporaries at |O| d^2 entries
    for s in sp:
        if np.max(np.abs(s[perm[:, :, None], perm[:, None, :]] - s)) > MAT_TOL:
            raise NormalizationFailure("Sp and O actions do not commute")
    return RepMatrixSet(pair, sp, perm, sp[:, np.arange(dim), perm].sum(-1))


def _mat_inverse(m, q):
    """Inverse of a 2x2 matrix over F_q; every caller passes a 2x2 matrix."""
    (a, b), (c, d) = m
    dinv = pow((a * d - b * c) % q, -1, q)
    return ((d * dinv) % q, (-b * dinv) % q), ((-c * dinv) % q, (a * dinv) % q)


# ---------------------------------------------------------------------------
# class functions


@dataclass
class ClassFunction:
    """A class function given by its values on every group element."""

    group: str  # 'sp' or 'o'
    values: dict
    label: str

    def degree(self) -> complex:
        return self.values[_IDENTITY]

    def inner(self, other: "ClassFunction") -> complex:
        n = len(self.values)
        return sum(self.values[k] * other.values[k].conjugate() for k in self.values) / n

    def close_to(self, other: "ClassFunction") -> bool:
        return all(abs(self.values[k] - other.values[k]) < MULT_TOL for k in self.values)


@lru_cache(maxsize=None)
def _sl2_class_keys(q: int):
    """Class label of every SL2(q) element.

    Labels: identity, minus, (unipot, sign, eps) for +-(unipotent) with the
    square class of the symplectic invariant <Nv, v>, (split, {x, 1/x}),
    (ell, trace)."""
    out = {}
    for g in _sl2_elements(q):
        (a, b), (c, d) = g
        tr = (a + d) % q
        if g == _IDENTITY:
            out[g] = ("id",)
        elif g == ((q - 1, 0), (0, q - 1)):
            out[g] = ("minus",)
        elif tr == 2 or tr == q - 2:
            sign = 1 if tr == 2 else -1
            h = g if sign == 1 else _matmul(((q - 1, 0), (0, q - 1)), g, q)
            nmat = ((h[0][0] - 1, h[0][1]), (h[1][0], h[1][1] - 1))
            v = (1, 0) if _matvec(nmat, (1, 0), q) != (0, 0) else (0, 1)
            nv = _matvec(nmat, v, q)
            inv = (nv[0] * v[1] - nv[1] * v[0]) % q
            out[g] = ("unipot", sign, fq_legendre(inv, q))
        elif fq_legendre(tr * tr - 4, q) == 1:  # tr != +-2 here, so the argument is a unit
            roots = [x for x in range(1, q) if (x * x - tr * x + 1) % q == 0]
            out[g] = ("split", frozenset(roots))
        else:
            out[g] = ("ell", tr)
    return out


def _nonsplit_trace_index(q: int):
    """For each elliptic trace t, the exponent j with y0^j + y0^{-j} = t,
    y0 the canonical norm-one generator of F_{q^2}."""
    base = fq_make(q, 1)
    y0 = fq_norm1_generator(base, 1)
    field = y0.field
    out = {}
    cur = field.one()
    for j in range(q + 1):
        tr = cur + cur.frobenius()
        assert all(c == 0 for c in tr.coeffs[1:])
        out.setdefault(tr.coeffs[0], j)
        cur = cur * y0
    return out


def dl_regular_character(q: int, torus: str, exponent: int) -> ClassFunction:
    """Deligne-Lusztig character of SL2(q) for a torus character in general
    position: discrete series of degree q - 1 for the nonsplit torus,
    principal series of degree q + 1 for the split torus."""
    keys = _sl2_class_keys(q)
    if torus == "nonsplit":
        n = q + 1
        if (2 * exponent) % n == 0:
            raise NotGeneralPositionFinite(f"exponent {exponent} mod {n} is not regular")
        zeta = cmath.exp(2j * cmath.pi / n)
        sign_z = (-1) ** (exponent % 2) if n % 2 == 0 else zeta ** (exponent * (n // 2))
        tr_index = _nonsplit_trace_index(q)
        values = {}
        for g, key in keys.items():
            if key == ("id",):
                values[g] = complex(q - 1)
            elif key == ("minus",):
                values[g] = sign_z * (q - 1)
            elif key[0] == "unipot":
                values[g] = complex(-1) if key[1] == 1 else -sign_z
            elif key[0] == "split":
                values[g] = 0j
            else:
                j = tr_index[key[1]]
                values[g] = -(zeta ** (exponent * j) + zeta ** (-exponent * j))
        return ClassFunction("sp", values, f"ds[{exponent}]")
    if torus == "split":
        n = q - 1
        if (2 * exponent) % n == 0:
            raise NotGeneralPositionFinite(f"exponent {exponent} mod {n} is not regular")
        zeta = cmath.exp(2j * cmath.pi / n)
        g0 = fq_multiplicative_generator(fq_make(q, 1)).coeffs[0]
        dlog = {pow(g0, j, q): j for j in range(n)}
        sign_z = zeta ** (exponent * (n // 2))
        values = {}
        for g, key in keys.items():
            if key == ("id",):
                values[g] = complex(q + 1)
            elif key == ("minus",):
                values[g] = sign_z * (q + 1)
            elif key[0] == "unipot":
                values[g] = complex(1) if key[1] == 1 else sign_z
            elif key[0] == "split":
                x = min(key[1])
                j = dlog[x]
                values[g] = zeta ** (exponent * j) + zeta ** (-exponent * j)
            else:
                values[g] = 0j
        return ClassFunction("sp", values, f"ps[{exponent}]")
    raise DomainError("torus must be 'split' or 'nonsplit'")


class NotGeneralPositionFinite(DomainError):
    pass


def _o2_decompose(pair: FiniteDualPair):
    """(rotation index, is_reflection) for every element of O(V); a
    reflection h is written as rotation * seed with a fixed seed."""
    rot_index = {m: j for j, m in enumerate(pair.rotations)}
    seed_inv = _mat_inverse(_reflection_seed(pair), pair.q)
    out = {}
    for h in pair.o_elements:
        refl = h not in rot_index
        j = rot_index.get(_matmul(h, seed_inv, pair.q) if refl else h)
        if j is None:
            raise VerificationFailure("element is neither rotation nor reflection")
        out[h] = (j, refl)
    return out


@lru_cache(maxsize=None)
def _reflection_seed(pair: FiniteDualPair):
    rot = set(pair.rotations)
    for h in pair.o_elements:
        if h not in rot:
            return h
    raise VerificationFailure("no reflection found")


def o2_induced_character(pair: FiniteDualPair, exponent: int) -> ClassFunction:
    """Induction to O(V) of the rotation character of the given exponent;
    irreducible exactly when 2 * exponent != 0 mod the rotation order."""
    n = pair.rotation_order
    if (2 * exponent) % n == 0:
        raise NotGeneralPositionFinite(f"exponent {exponent} mod {n} does not induce irreducibly")
    zeta = cmath.exp(2j * cmath.pi / n)
    dec = _o2_decompose(pair)
    values = {}
    for h, (j, refl) in dec.items():
        values[h] = 0j if refl else zeta ** (exponent * j) + zeta ** (-exponent * j)
    return ClassFunction("o", values, f"ind[{exponent}]")


def o2_one_dimensionals(pair: FiniteDualPair):
    """The four linear characters of the dihedral O(V); the rotation order
    q -+ 1 is even here, so the rotation sign character exists."""
    n = pair.rotation_order
    if n % 2:
        raise VerificationFailure("rotation order should be even for odd q")
    dec = _o2_decompose(pair)
    out = []
    for rot_sign in (1, -1):
        for refl_sign in (1, -1):
            values = {
                h: complex(rot_sign**j * (refl_sign if refl else 1))
                for h, (j, refl) in dec.items()
            }
            out.append(ClassFunction("o", values, f"lin[{rot_sign},{refl_sign}]"))
    return out


def o2_irreducibles(pair: FiniteDualPair):
    """Complete list of irreducible characters of the dihedral group O(V):
    the four linear ones (which check that n is even) and ind[k] for
    0 < k < n/2, one from each pair ind[k] = ind[n - k]."""
    n = pair.rotation_order
    return o2_one_dimensionals(pair) + [o2_induced_character(pair, k) for k in range(1, n // 2)]


def sl2_regular_exponents(q: int):
    n = q + 1
    return [k for k in range(1, n) if (2 * k) % n != 0]


# ---------------------------------------------------------------------------
# multiplicities


def theta_multiplicity(rep: RepMatrixSet, pi: ClassFunction, rho: ClassFunction) -> int:
    """Multiplicity of pi x rho in the oscillator representation:
    the normalized double character sum, with an integrality assertion."""
    cpi = np.conj([pi.values[g] for g in rep.pair.sp_elements])
    crho = np.conj([rho.values[h] for h in rep.pair.o_elements])
    total = complex(cpi @ rep.traces @ crho) / rep.traces.size
    m = round(total.real)
    if abs(total - m) > MULT_TOL or m < 0:
        raise NonIntegralMultiplicity(f"<omega, {pi.label} x {rho.label}> = {total}")
    return m


def verify_finite_theta(q: int) -> dict:
    """Check the rank-one theta pattern for every regular nonsplit-torus
    character: multiplicity one with the single induced character of
    matching exponent on the anisotropic pair, zero with everything else
    there and with every irreducible of the split pair; and the inverse
    exponent yields the same character.  Returns the full report."""
    rep_minus = build_weil_rep(q, "-")
    rep_plus = build_weil_rep(q, "+")
    pair_minus = rep_minus.pair
    report = {"q": q, "characters": [], "ok": True}
    for k in sl2_regular_exponents(q):
        pi = dl_regular_character(q, "nonsplit", k)
        pi_inv = dl_regular_character(q, "nonsplit", (q + 1) - k)
        entry = {
            "exponent": k,
            "inverse_pair_identical": pi.close_to(pi_inv),
            "minus": [],
            "plus": [],
        }
        hits = []
        for rho in o2_irreducibles(pair_minus):
            m = theta_multiplicity(rep_minus, pi, rho)
            entry["minus"].append({"rho": rho.label, "multiplicity": m})
            if m:
                hits.append((rho, m))
        for rho in o2_irreducibles(rep_plus.pair):
            m = theta_multiplicity(rep_plus, pi, rho)
            entry["plus"].append({"rho": rho.label, "multiplicity": m})
            if m:
                entry.setdefault("unexpected_plus", []).append(rho.label)
        expected = o2_induced_character(pair_minus, k)
        entry["matched"] = (
            len(hits) == 1
            and hits[0][1] == 1
            and hits[0][0].close_to(expected)
        )
        if not entry["matched"] or entry.get("unexpected_plus") or not entry["inverse_pair_identical"]:
            report["ok"] = False
        report["characters"].append(entry)
    if not report["ok"]:
        raise VerificationFailure(f"finite theta pattern failed for q = {q}: {report}")
    return report


# ---------------------------------------------------------------------------
# numerical character tables (class-algebra eigenvectors) and group tools


def conjugacy_classes(elements, q):
    elems = list(elements)
    index = {e: i for i, e in enumerate(elems)}
    unassigned = set(elems)
    classes = []
    while unassigned:
        g = next(iter(unassigned))
        orbit = {
            _matmul(_matmul(x, g, q), _mat_inverse(x, q), q) for x in elems
        }
        classes.append(sorted(orbit, key=lambda e: index[e]))
        unassigned -= orbit
    classes.sort(key=lambda cl: (cl[0] != _IDENTITY, len(cl), index[cl[0]]))
    return classes


def numerical_character_table(elements, q):
    """Irreducible characters of a small matrix group, via simultaneous
    eigenvectors of the class-sum multiplication matrices.  Returns
    (classes, list of per-element ClassFunction-style dicts)."""
    elems = list(elements)
    classes = conjugacy_classes(elems, q)
    ncl = len(classes)
    cls_of = {}
    for ci, cl in enumerate(classes):
        for e in cl:
            cls_of[e] = ci
    reps = [cl[0] for cl in classes]
    # class multiplication: T_i[j][k] = #{x in C_i : x * (y_k-ish)} with fixed
    # z_k representative: count pairs x in C_i, y in C_j with x y = z_k
    tables = np.zeros((ncl, ncl, ncl))
    for i, cl in enumerate(classes):
        for k, z in enumerate(reps):
            for x in cl:
                y = _matmul(_mat_inverse(x, q), z, q)
                tables[i, cls_of[y], k] += 1
    rng = np.random.default_rng(1)
    for _ in range(8):
        coeffs = rng.standard_normal(ncl)
        m = sum(c * tables[i] for i, c in enumerate(coeffs))
        vals, vecs = np.linalg.eig(m)
        if np.min(np.abs(vals[:, None] - vals[None, :]) + np.eye(ncl)) > 1e-6:
            break
    else:
        raise VerificationFailure("could not split the class algebra")
    order = len(elems)
    sizes = np.array([len(cl) for cl in classes], dtype=float)
    chars = []
    for t in range(ncl):
        v = vecs[:, t]
        v = v / v[0]  # central character values omega_j, normalized at 1
        # chi_j = d * omega_j / |C_j| with d fixed by sum |C_j||chi_j|^2 = |G|
        norm = float(np.real(np.sum(v * np.conj(v) / sizes)))
        d = (order / norm) ** 0.5
        chi = d * v / sizes
        chars.append({reps[j]: complex(chi[j]) for j in range(ncl)})
    return classes, cls_of, chars


def decomposition_dimension_check(q: int, variant: str) -> bool:
    """Full decomposition accounting: sum over all irreducible pairs of
    multiplicity * deg(pi) * deg(rho) equals q^2."""
    rep = build_weil_rep(q, variant)
    pair = rep.pair
    cls_sp, cls_of_sp, chars_sp = numerical_character_table(pair.sp_elements, q)
    cls_o, cls_of_o, chars_o = numerical_character_table(pair.o_elements, q)
    total = 0
    for chi_sp in chars_sp:
        pi = ClassFunction("sp", {g: chi_sp[cls_sp[cls_of_sp[g]][0]] for g in pair.sp_elements}, "num")
        for chi_o in chars_o:
            rho = ClassFunction("o", {h: chi_o[cls_o[cls_of_o[h]][0]] for h in pair.o_elements}, "num")
            m = theta_multiplicity(rep, pi, rho)
            total += m * round(abs(pi.degree())) * round(abs(rho.degree()))
    return total == q * q


# ---------------------------------------------------------------------------
# Weyl-group form validation by brute-force normalizers.  Elements are small-int
# numpy matrices keyed by the exact code sum_k entry_k q^k of their entries
# (< q^16 < 2^63 for 4 x 4 at q <= 5); the closure is a level-at-a-time BFS on
# codes, and g normalizes T = <t_1> iff g t_1 = t_j g, j being its multiplier.


def _codes(mats, q):
    flat = np.asarray(mats).reshape(len(mats), -1)
    codes = np.zeros(len(flat), dtype=np.int64)
    for col in flat.T[::-1]:
        codes = codes * q + col
    return codes


def _mulclose(gens, q, limit=10**7):
    """The group generated by gens, as an int8 array of its elements in
    breadth-first order, identity first."""
    gens = np.asarray(gens, dtype=np.int16)
    frontier = np.eye(gens.shape[-1], dtype=np.int8)[None]
    levels, seen = [frontier], _codes(frontier, q)
    while len(frontier):
        prods, prod_codes = [], []
        for g in gens:
            prod = (g @ frontier % q).astype(np.int8)
            codes = _codes(prod, q)
            new = ~np.isin(codes, seen, assume_unique=True)
            prods.append(prod[new])
            prod_codes.append(codes[new])
        codes, first = np.unique(np.concatenate(prod_codes), return_index=True)
        frontier = np.concatenate(prods)[first]
        levels.append(frontier)
        seen = np.concatenate([seen, codes])
        if len(seen) > limit:
            raise VerificationFailure("closure exceeded the size limit")
    return np.concatenate(levels)


def normalizer_exponent_actions(group, torus_elements, q) -> Counter:
    """The exponent maps j -> a*j induced on the cyclic torus, listed as the
    powers of torus_elements[1], by its normalizer in group: each multiplier
    a mod the torus order with the number of normalizer elements inducing
    it, so the counts sum to the normalizer order."""
    group = np.asarray(group, dtype=np.int16)
    torus = np.asarray(torus_elements, dtype=np.int16)
    lhs = _codes(group @ torus[1] % q, q)
    mult = np.full(len(group), -1)
    for a, t in enumerate(torus):
        mult[_codes(t @ group % q, q) == lhs] = a
    return Counter(mult[mult >= 0].tolist())


def torus_normalizer_order(group, torus_elements, q) -> int:
    return sum(normalizer_exponent_actions(group, torus_elements, q).values())


def validate_weyl_form_rank1(q: int) -> dict:
    """In SL2(q) and both O(V)(q): the normalizer of the nonsplit torus has
    index-two image (order 2m with m = 1), acting by the signed Frobenius
    powers {1, q} on exponents."""
    pair = dual_pair(q, "-")
    expected = sorted({1 % (q + 1), q % (q + 1)})
    out = {}
    for name, group in (("sl2", pair.sp_elements), ("o2", pair.o_elements)):
        actions = normalizer_exponent_actions(group, pair.rotations, q)
        out[name] = {
            "weyl_order": sum(actions.values()) // len(pair.rotations),
            "actions": sorted(actions),
            "expected_actions": expected,
        }
    out["ok"] = all(out[k]["weyl_order"] == 2 and out[k]["actions"] == expected for k in out)
    if not out["ok"]:
        raise VerificationFailure(f"rank-one Weyl validation failed: {out}")
    return out


def _torus_matrices_in_sp4(q: int):
    """The elliptic torus of Sp4(q) with m = 2: the norm-one group of
    F_{q^4} over F_{q^2} acting by multiplication on F_{q^4} with the
    symplectic form Tr(c x conj(y)), c trace-zero."""
    base = fq_make(q, 1)
    big = fq_make(q, 4)
    g = fq_norm1_generator(base, 2)
    # basis 1, x, x^2, x^3 of F_{q^4}; c with c^{q^2} = -c
    x = big.gen()
    basis = [big.one(), x, x * x, x * x * x]
    cand = None
    for e in big.elements():
        if not e.is_zero() and e ** (q * q) == -e:
            cand = e
            break
    c = cand

    def tr_to_base(z):
        acc = big.zero()
        cur = z
        for _ in range(4):
            acc = acc + cur
            cur = cur.frobenius()
        assert all(co == 0 for co in acc.coeffs[1:])
        return acc.coeffs[0]

    gram = [[tr_to_base(c * basis[i] * (basis[j] ** (q * q))) for j in range(4)] for i in range(4)]

    return _multiplication_matrices(g, q * q + 1), gram


def _sp4_transvections(q: int, gram):
    """Generators of Sp4(q): symplectic transvections x -> x + <x, v> v."""
    def form(u, v):
        return sum(gram[i][j] * u[i] * v[j] for i in range(4) for j in range(4)) % q

    gens = []
    seeds = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 1)]
    for v in seeds:
        cols = []
        for k in range(4):
            e = tuple(1 if i == k else 0 for i in range(4))
            w = tuple((e[i] + form(e, v) * v[i]) % q for i in range(4))
            cols.append(w)
        gens.append(tuple(tuple(cols[j][i] for j in range(4)) for i in range(4)))
    return gens


def validate_weyl_form_rank2(q: int = 3) -> dict:
    """Brute-force normalizer of the m = 2 elliptic torus inside Sp4(q):
    the relative Weyl group is cyclic of order 4, acting on exponents by
    powers of q mod q^2 + 1."""
    torus, gram = _torus_matrices_in_sp4(q)
    group = _mulclose(_sp4_transvections(q, gram), q)
    expected_order = q**4 * (q**2 - 1) * (q**4 - 1)
    if len(group) != expected_order:
        raise VerificationFailure(f"|Sp4({q})| = {len(group)} != {expected_order}")
    if not np.isin(_codes(torus, q), _codes(group, q)).all():
        raise VerificationFailure("the torus does not sit inside the generated group")
    n = len(torus)
    actions = normalizer_exponent_actions(group, torus, q)
    n_order = sum(actions.values())
    expected = sorted({pow(q, j, n) for j in range(4)})
    out = {
        "group_order": len(group),
        "weyl_order": n_order // n,
        "actions": sorted(actions),
        "expected_actions": expected,
        "ok": n_order // n == 4 and sorted(actions) == expected,
    }
    if not out["ok"]:
        raise VerificationFailure(f"rank-two Weyl validation failed: {out}")
    return out
