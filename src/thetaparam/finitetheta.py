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
O(V+-)(q) are provided in closed form, checked against the numerical
character tables of thetaparam.oracle, and fed into multiplicity sums that
verify the rank-one theta pattern: a regular nonsplit-torus character lifts
with multiplicity one to the anisotropic pair and vanishes on the split pair.

Every group element is a small-int numpy matrix keyed by the int64 code of
its entries.  SL2(q) and O(V) are MatrixGroups: their elements in code
order with a table of products, so class functions are vectors in that
order and conjugation, inverses and classes are table lookups.  The
Weyl-form checks close matrix groups over F_q breadth-first on codes, and
find torus normalizers by the inverse-free test g t = t' g: one exact pass,
with no matrix inverse.
"""

from __future__ import annotations

import cmath
from collections import Counter
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .finitefield import fq_make, fq_multiplicative_generator, fq_norm1_generator
from .value import Record, Value, set_field


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


# ---------------------------------------------------------------------------
# finite matrix groups in one layout


def _codes(mats, q):
    """The code sum_k entry_k q^(K-1-k) of each matrix, its K entries read
    row by row with the first most significant: code order is the
    lexicographic order of the entries.  Exact for 4 x 4 matrices at
    q <= 5, as q^16 < 2^63."""
    flat = np.asarray(mats).reshape(len(mats), -1)
    codes = np.zeros(len(flat), dtype=np.int64)
    for col in flat.T:
        codes = codes * q + col
    return codes


class MatrixGroup:
    """A finite group of square matrices over F_q: the int8 elements in
    code order, mul[i, j] the index of elements[i] @ elements[j], and the
    identity and inverse of every element as indices."""

    def __init__(self, elements, q: int):
        self.q = q
        self.elements = np.asarray(elements, dtype=np.int8)
        self.codes = _codes(self.elements, q)
        e = self.elements.astype(np.int64)
        self.mul = self.index(e[:, None] @ e[None])
        self.identity = int(self.index(np.eye(e.shape[-1], dtype=np.int64)))
        self.inverse = np.argmax(self.mul == self.identity, axis=1)

    def index(self, mats) -> np.ndarray:
        """The indices of the matrices mats[..., :, :], entries taken mod q."""
        mats = np.asarray(mats) % self.q
        codes = _codes(mats.reshape(-1, *mats.shape[-2:]), self.q)
        pos = np.searchsorted(self.codes, codes).clip(max=len(self.codes) - 1)
        if (self.codes[pos] != codes).any():
            raise VerificationFailure("a matrix lies outside the group")
        return pos.reshape(mats.shape[:-2])


# ---------------------------------------------------------------------------
# the two binary quadratic spaces and their isometry groups


class BinarySpace(Value):
    """V = F_q^2 with Q hyperbolic (variant '+') or the field norm form
    of F_{q^2} in the deterministic modulus basis (variant '-')."""

    __slots__ = _fields = ("q", "variant", "gram")

    def __init__(self, q: int, variant: str, gram: tuple):
        set_field(self, "q", q)
        set_field(self, "variant", variant)
        set_field(self, "gram", gram)  # matrix of the polar form B(u, v) = Q(u+v) - Q(u) - Q(v)

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


class FiniteDualPair(Value):
    """SL2(q) paired with the isometry group of one binary quadratic space.
    Equal only to itself."""

    __slots__ = _fields = ("q", "variant", "space", "sl2", "o2", "rotations")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        q: int,
        variant: str,
        space: BinarySpace,
        sl2: MatrixGroup,
        o2: MatrixGroup,
        rotations: np.ndarray,
    ):
        set_field(self, "q", q)
        set_field(self, "variant", variant)
        set_field(self, "space", space)
        set_field(self, "sl2", sl2)
        set_field(self, "o2", o2)
        # indices into o2, in the order of powers of the norm-one generator
        set_field(self, "rotations", rotations)

    @property
    def rotation_order(self) -> int:
        return len(self.rotations)


def _multiplication_matrices(g, order):
    """The matrices of y -> g^k y for k = 0 .. order - 1 in the power basis
    1, x, x^2, ... of the field of g; column j is the image of x^j."""
    field = g.field
    basis = [field.gen() ** k for k in range(field.f)]
    mats, cur = [], field.one()
    for _ in range(order):
        mats.append([(cur * b).coeffs for b in basis])
        cur = cur * g
    return np.swapaxes(np.array(mats, dtype=np.int8), 1, 2)


def _torus(q: int, torus: str):
    """The generator and order of a cyclic torus of SL2(q): g0 of F_q^x,
    order q - 1, for 'split'; y0 of norm one in F_{q^2}, order q + 1, for
    'nonsplit'."""
    if torus == "split":
        return fq_multiplicative_generator(fq_make(q, 1)), q - 1
    if torus == "nonsplit":
        return fq_norm1_generator(fq_make(q, 1), 1), q + 1
    raise DomainError("torus must be 'split' or 'nonsplit'")


def _rotation_list(space: BinarySpace):
    """Rotations indexed by powers of the torus generator: for '+' the maps
    diag(g0^j, g0^-j) of the split torus, for '-' the multiplications by
    the nonsplit torus, the norm-one group of F_{q^2}."""
    q = space.q
    if space.variant == "-":
        return _multiplication_matrices(*_torus(q, "nonsplit"))
    g0, n = _torus(q, "split")
    return np.array([np.diag([(g0 ** j).coeffs[0], (g0 ** -j).coeffs[0]]) for j in range(n)])


@lru_cache(maxsize=None)
def dual_pair(q: int, variant: str) -> FiniteDualPair:
    if q not in (3, 5):
        raise DomainError("the finite oracle is built for q in {3, 5}")
    if variant not in ("+", "-"):
        raise DomainError("variant must be '+' or '-'")
    space = _binary_space(q, variant)
    # every 2 x 2 matrix over F_q, in lexicographic (so code) order; SL2 is
    # det = 1, and O(V) is m^T G m = G for the polar Gram matrix G, which for
    # odd q is exactly Q(mv) = Q(v), as Q(v) = B(v, v) / 2
    mats = np.indices((q,) * 4).reshape(4, -1).T.reshape(-1, 2, 2)
    gram = np.array(space.gram)
    det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    sl2 = MatrixGroup(mats[det % q == 1], q)
    o2 = MatrixGroup(mats[(np.swapaxes(mats, 1, 2) @ gram @ mats % q == gram).all(axis=(1, 2))], q)
    expect = 2 * (q - 1) if variant == "+" else 2 * (q + 1)
    if len(sl2.elements) != q * (q * q - 1) or len(o2.elements) != expect:
        raise VerificationFailure("group orders are off")
    rotations = o2.index(_rotation_list(space))
    if len(set(rotations.tolist())) != expect // 2:
        raise VerificationFailure("rotation subgroup does not sit in O(V)")
    return FiniteDualPair(q, variant, space, sl2, o2, rotations)


# ---------------------------------------------------------------------------
# oscillator representation


class RepMatrixSet(Record):
    """The oscillator representation on functions on V, with every array in
    the element order of pair.sl2 and pair.o2.

    sp[i] is the matrix of the i-th element g of SL2(q); the j-th element h
    of O(V) acts by the index permutation f -> f[perm[j]], which commutes
    with every sp[i].  traces[i, j] = sum_k sp[i, k, perm[j, k]] is the
    trace of the pair (g, h^-1), equal to that of (g, h) because h and h^-1
    are conjugate in the dihedral group O(V).
    """

    __slots__ = _fields = ("pair", "sp", "perm", "traces")

    def __init__(self, pair: FiniteDualPair, sp: np.ndarray, perm: np.ndarray, traces: np.ndarray):
        self.pair = pair
        self.sp = sp  # (|SL2|, d, d) complex
        self.perm = perm  # (|O|, d) int
        self.traces = traces  # (|SL2|, |O|) complex


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

    sl2 = pair.sl2
    gens = sl2.index([[[0, 1], [-1, 0]]] + [[[1, b], [0, 1]] for b in range(1, q)])
    gen_mats = [w_mat] + [n_mat(b) for b in range(1, q)]

    sp = np.empty((len(sl2.elements), dim, dim), dtype=complex)
    sp[sl2.identity] = np.eye(dim)
    reached = np.zeros(len(sp), dtype=bool)
    reached[sl2.identity] = True
    frontier = [sl2.identity]
    while frontier:
        nxt = []
        for cur in frontier:
            for gk, gm in zip(gens, gen_mats):
                new = sl2.mul[gk, cur]
                cand = gm @ sp[cur]
                if reached[new]:
                    if np.max(np.abs(sp[new] - cand)) > MAT_TOL:
                        raise NormalizationFailure("inconsistent Cayley collision")
                else:
                    sp[new] = cand
                    reached[new] = True
                    nxt.append(new)
        frontier = nxt
    if not reached.all():
        raise NormalizationFailure("generators did not reach the whole group")

    # vectors are in code order, so h acts by the argsort of the codes of h v
    hv = pair.o2.elements @ np.array(vecs).T % q
    perm = np.argsort(hv[:, 0] * q + hv[:, 1], axis=1)
    # P S P^-1 = S entrywise for each g and the permutation matrix P of each perm;
    # one g at a time keeps the temporaries at |O| d^2 entries
    for s in sp:
        if np.max(np.abs(s[perm[:, :, None], perm[:, None, :]] - s)) > MAT_TOL:
            raise NormalizationFailure("Sp and O actions do not commute")
    return RepMatrixSet(pair, sp, perm, sp[:, np.arange(dim), perm].sum(-1))


# ---------------------------------------------------------------------------
# class functions


class ClassFunction(Record):
    """A class function given by its values on the elements of a group, in
    their order."""

    __slots__ = _fields = ("group", "values", "label")

    def __init__(self, group: MatrixGroup, values: np.ndarray, label: str):
        self.group = group
        self.values = values  # complex
        self.label = label

    def degree(self) -> complex:
        return self.values[self.group.identity]

    def close_to(self, other: "ClassFunction") -> bool:
        return bool(np.all(np.abs(self.values - other.values) < MULT_TOL))


@lru_cache(maxsize=None)
def _cyclic_sums(k: int, n: int) -> np.ndarray:
    """zeta^(kj) + zeta^(-kj) for j = 0 .. n - 1, zeta = exp(2 pi i / n)."""
    zeta = cmath.exp(2j * cmath.pi / n)
    sums = np.array([zeta ** (k * j) + zeta ** (-k * j) for j in range(n)])
    sums.flags.writeable = False
    return sums


def dl_regular_character(q: int, torus: str, exponent: int) -> ClassFunction:
    """Deligne-Lusztig character of SL2(q) for a torus character in general
    position: discrete series of degree q - 1 for the nonsplit torus,
    principal series of degree q + 1 for the split torus.

    With sign = +1 (split) or -1 (nonsplit) and chi(-1) = (-1)^k, the value
    is deg chi(z) on z = +-I, sign chi(z) on z times a unipotent,
    sign (zeta^(kj) + zeta^(-kj)) on the regular trace t^j + t^-j of this
    torus, and 0 on the other torus."""
    t, n = _torus(q, torus)
    if (2 * exponent) % n == 0:
        raise NotGeneralPositionFinite(f"exponent {exponent} mod {n} is not regular")
    sign = 1 if torus == "split" else -1
    sums = _cyclic_sums(exponent, n)
    # regular[tr] = sign (zeta^(kj) + zeta^(-kj)) for tr = t^j + t^-j, 0 < j < n/2
    regular = np.zeros(q, dtype=complex)
    for j in range(1, n // 2):
        regular[(t ** j + t ** -j).coeffs[0]] = sign * sums[j]
    sl2 = dual_pair(q, "-").sl2
    a, b, c, d = sl2.elements.reshape(-1, 4).T.astype(np.int64)
    tr = (a + d) % q
    chi_z = np.where(tr == 2, 1, (-1) ** (exponent % 2))  # chi(z) for z = +-I, on +-unipotents
    values = np.where((tr == 2) | (tr == q - 2),
                      chi_z * np.where((b == 0) & (c == 0), q + sign, sign), regular[tr])
    return ClassFunction(sl2, values, f"{'ps' if sign == 1 else 'ds'}[{exponent}]")


class NotGeneralPositionFinite(DomainError):
    pass


def _o2_decompose(pair: FiniteDualPair):
    """The rotation index j and the reflection flag of every element of O(V),
    as two arrays: a reflection h is rotations[j] * seed, the seed being the
    first reflection."""
    o2 = pair.o2
    rot_index = np.full(len(o2.elements), -1)
    rot_index[pair.rotations] = np.arange(len(pair.rotations))
    refl = rot_index < 0
    j = np.where(refl, rot_index[o2.mul[:, o2.inverse[np.argmax(refl)]]], rot_index)
    if (j < 0).any():
        raise VerificationFailure("element is neither rotation nor reflection")
    return j, refl


def o2_induced_character(pair: FiniteDualPair, exponent: int) -> ClassFunction:
    """Induction to O(V) of the rotation character of the given exponent;
    irreducible exactly when 2 * exponent != 0 mod the rotation order."""
    n = pair.rotation_order
    if (2 * exponent) % n == 0:
        raise NotGeneralPositionFinite(f"exponent {exponent} mod {n} does not induce irreducibly")
    j, refl = _o2_decompose(pair)
    values = np.where(refl, 0, _cyclic_sums(exponent, n)[j])
    return ClassFunction(pair.o2, values, f"ind[{exponent}]")


def o2_one_dimensionals(pair: FiniteDualPair):
    """The four linear characters of the dihedral O(V); the rotation order
    q -+ 1 is even here, so the rotation sign character exists."""
    n = pair.rotation_order
    if n % 2:
        raise VerificationFailure("rotation order should be even for odd q")
    j, refl = _o2_decompose(pair)
    return [
        ClassFunction(pair.o2, (rot_sign**j * np.where(refl, refl_sign, 1)).astype(complex),
                      f"lin[{rot_sign},{refl_sign}]")
        for rot_sign in (1, -1)
        for refl_sign in (1, -1)
    ]


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
    total = complex(np.conj(pi.values) @ rep.traces @ np.conj(rho.values)) / rep.traces.size
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
# Weyl-group form validation by brute-force normalizers.  The closure is a
# level-at-a-time BFS on codes, and g normalizes T = <t_1> iff g t_1 = t_j g,
# j being its multiplier.


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
    torus = pair.o2.elements[pair.rotations]
    out = {}
    for name, group in (("sl2", pair.sl2), ("o2", pair.o2)):
        actions = normalizer_exponent_actions(group.elements, torus, q)
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
    """Generators of Sp4(q): the symplectic transvections x -> x + <x, v> v,
    whose matrices are I + v (J v)^T for the Gram matrix J."""
    seeds = np.vstack([np.eye(4, dtype=np.int64), [[1, 1, 0, 0], [0, 1, 1, 1]]])
    jv = seeds @ np.array(gram).T
    return (np.eye(4, dtype=np.int64) + seeds[:, :, None] * jv[:, None, :]) % q


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
