"""The dense reference for the rank-one finite theta correspondence.

For the dual pair (SL2(q), O(V)) with dim V = 2 and q in {3, 5} this module
builds the oscillator representation explicitly in the Schroedinger model
(functions on V, dimension q^2): the orthogonal group permutes V, the
upper unipotent n(b) acts by the quadratic character multiplication
psi(b Q(v)), and the Weyl element acts by the finite Fourier transform
times a sign pinned by the group relations (n(1) w)^3 = w^4 = 1, after
which the whole representation is verified exhaustively.  Its traces and
element-wise multiplicity sums are the independent check of the class-sum
route of thetaparam.weilchar, whose groups, spaces and closed-form
characters it reads as numpy arrays.

The arithmetic is exact: q S_g over Z[zeta_q] and characters over Z[zeta_N]
are integer coefficient arrays reduced mod the cyclotomic polynomial, every
check is `==`, and a multiplicity is an integer or a NonIntegralMultiplicity.
Every group element is a small-int numpy matrix keyed by the int64 code of
its entries; SL2(q) and O(V) are MatrixGroups, their elements in code order
with a table of products.  The rank-two Weyl-form check carries each
matrix as its column codes, on which a matrix acts by a lookup table: it
closes Sp4(q) breadth-first and finds torus normalizers by the
inverse-free test g t = t' g through such tables.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .finitefield import fq_make, fq_norm1_generator
from .value import Record, Value, set_field
from .weilchar import BinarySpace, NonIntegralMultiplicity, VerificationFailure
from .weilchar import _order, binary_space, canonical, class_key, dl_character, groups, multiplication_matrices
from .weilchar import o2_induced, sl2_classes
from .weilchar import o2_irreducibles as weil_o2_irreducibles


class NormalizationFailure(DomainError):
    pass


# ---------------------------------------------------------------------------
# finite matrix groups in one layout


def _codes(mats, q):
    """The code sum_k entry_k q^(K-1-k) of each vector or matrix, its K
    entries read row by row with the first most significant: code order is
    the lexicographic order of the entries.  Exact for 4 x 4 matrices at
    q <= 5, as q^16 < 2^63."""
    flat = np.asarray(mats).reshape(len(mats), -1)
    codes = np.zeros(len(flat), dtype=np.int64)
    for col in flat.T:
        codes = codes * q + col
    return codes


def _vectors(q: int, k: int) -> np.ndarray:
    """The q^k vectors of F_q^k, in code order."""
    return np.indices((q,) * k).reshape(k, -1).T


def _column_codes(mats, q):
    """The column-code form of each matrix mats[i], entries in [0, q): its
    column codes, in the smallest dtype for q^k codes, on which g acts by
    its table of _actions; _from_columns gives the matrix's code back."""
    mats = np.asarray(mats)
    k = mats.shape[-2]
    codes = _codes(np.swapaxes(mats, -1, -2).reshape(-1, k), q)
    return codes.reshape(len(mats), -1).astype(np.min_scalar_type(q**k - 1))


def _actions(mats, q):
    """act[i, c], the code of mats[i] v mod q for the vector v of code c."""
    return _column_codes(np.asarray(mats, dtype=np.int64) @ _vectors(q, np.shape(mats)[-1]).T % q, q)


def _places(q: int, k: int) -> np.ndarray:
    """place[j, c], the code of the matrix with column j the vector of code
    c and zeros elsewhere."""
    units = _vectors(q, k)[None, :, :, None] * np.eye(k, dtype=np.int64)[:, None, None]
    return _codes(units.reshape(-1, k, k), q).reshape(k, -1)


def _from_columns(cols, place):
    """The codes of the matrices whose column codes are the rows of cols."""
    return sum(place[j][cols[:, j]] for j in range(len(place)))


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
# the dual pair


class FiniteDualPair(Value):
    """SL2(q) paired with the isometry group of one binary quadratic space.
    Equal only to itself."""

    __slots__ = _fields = ("q", "variant", "space", "sl2", "o2", "rotations")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, q: int, variant: str, space: BinarySpace, sl2: MatrixGroup, o2: MatrixGroup,
                 rotations: np.ndarray):
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


@lru_cache(maxsize=None)
def dual_pair(q: int, variant: str) -> FiniteDualPair:
    """The pair on the elements that weilchar.groups lists, as MatrixGroups."""
    sl2, o2, rotations = (np.reshape(x, (-1, 2, 2)) for x in groups(q, variant))
    expect = 2 * (q - 1) if variant == "+" else 2 * (q + 1)
    if len(sl2) != q * (q * q - 1) or len(o2) != expect:
        raise VerificationFailure("group orders are off")
    sl2, o2 = MatrixGroup(sl2, q), MatrixGroup(o2, q)
    return FiniteDualPair(q, variant, binary_space(q, variant), sl2, o2, o2.index(rotations))


# ---------------------------------------------------------------------------
# cyclotomic integers
#
# A number of Z[zeta_n] is an integer array whose last axis holds the
# coefficients of zeta_n^0 .. zeta_n^(n-1), zeta_n = exp(2 pi i / n),
# canonical when reduced mod the cyclotomic polynomial Phi_n (coefficients
# from phi(n) on are 0): equal numbers are equal arrays, and sums of
# canonical arrays are canonical.


@lru_cache(maxsize=None)
def _reduction(n: int) -> np.ndarray:
    """R with a @ R the canonical form of a: row k is the canonical zeta_n^k."""
    rows = np.array([canonical(((k, 1),), n) for k in range(n)], dtype=np.int64)
    rows.flags.writeable = False
    return rows


def _conj(a: np.ndarray) -> np.ndarray:
    """The conjugate, zeta^k -> zeta^-k; not canonical."""
    n = a.shape[-1]
    return a[..., -np.arange(n) % n]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[i] b[i] in Z[zeta_n], canonical, for integer-valued arrays a
    and b of shape (k, n).  The float64 products are exact while
    k n max|a| max|b| < 2^53, which bounds every partial sum."""
    n = a.shape[-1]
    m = a.T.astype(float) @ b.astype(float)  # m[s, r]: the coefficient of zeta^(s + r)
    return np.bincount(_exponent_sums(n), m.ravel(), n).astype(np.int64) @ _reduction(n)


@lru_cache(maxsize=None)
def _exponent_sums(n: int) -> np.ndarray:
    return ((np.arange(n)[:, None] + np.arange(n)) % n).ravel()


# ---------------------------------------------------------------------------
# oscillator representation


class RepMatrixSet(Record):
    """The oscillator representation on functions on V, with every array in
    the element order of pair.sl2 and pair.o2, exact over Z[zeta_q].

    sp[i] is q times the matrix S_g of the i-th element g of SL2(q); the
    j-th element h of O(V) acts by the index permutation f -> f[perm[j]],
    which commutes with every sp[i].  traces[i, j] = sum_k sp[i, k, perm[j, k]]
    is q times the trace of the pair (g, h^-1), equal to that of (g, h)
    because h and h^-1 are conjugate in the dihedral group O(V).
    """

    __slots__ = _fields = ("pair", "sp", "perm", "traces")

    def __init__(self, pair: FiniteDualPair, sp: np.ndarray, perm: np.ndarray, traces: np.ndarray):
        self.pair = pair
        self.sp = sp  # (|SL2|, d, d, q) int8, canonical
        self.perm = perm  # (|O|, d) int
        self.traces = traces  # (|SL2|, |O|, q) int16, canonical


def build_weil_rep(q: int, variant: str) -> RepMatrixSet:
    """Construct the oscillator representation for the pair (SL2(q), O(V)).

    With psi(t) = zeta_q^t, q n(b) is diagonal with entries q psi(b Q(v))
    and q w = c F for the Fourier matrix F[v, u] = psi(B(v, u)) and a sign
    c, pinned as the one for which (n(1) w)^3 = 1 and w^4 = 1 hold exactly.
    The whole group is then generated breadth-first, with every Cayley
    collision checked, and commutation with the permutation action of every
    element of O(V) is checked on every element of SL2(q).
    """
    pair = dual_pair(q, variant)
    space = pair.space
    vecs = space.vectors()
    dim = len(vecs)
    red = _reduction(q)
    quad = np.array([space.quad(v) for v in vecs])
    # F[v, u] = F1[v0, u'0] F1[v1, u'1] for u' = G u, the polar Gram matrix G,
    # and F1[a, b] = zeta^(a b).  F1 acts on (index, coefficient) pairs by
    # right multiplication with f1: row (b, t), column (a, s) holds the
    # coefficient of zeta^s in the canonical zeta^(t + a b)
    gu = np.array(vecs) @ np.array(space.gram) % q
    by_gu = np.argsort(gu[:, 0] * q + gu[:, 1])  # u with G u = u', in the order of u'
    ab = np.arange(q)[:, None, None] * np.arange(q)
    f1 = red[(ab + np.arange(q)[:, None]) % q].reshape(q * q, q * q).astype(float)
    # the unipotent n(b) turns zeta^t in row v into zeta^(t + b Q(v)): entry
    # (v, j, s) of q S_(n(b) g) is entry source[b - 1, (v, j, s)] of q S_g
    shifts = (np.arange(q) - np.arange(1, q)[:, None, None] * quad[:, None]) % q
    rows = np.arange(dim)[:, None, None] * dim + np.arange(dim)[:, None]
    source = (rows * q + shifts[:, :, None]).reshape(q - 1, -1)

    def w_act(x):
        """q S_(w0 g) from the arrays x = q S_g, w0 = F / q, by F1 on u'1
        and then on u'0.  The float64 products are exact: their operands are
        integers, and a partial sum adds at most q^2 terms of size at most
        2q, then q^2 of size at most 2q^3, so stays below 2 q^5 = 6250 < 2^53."""
        k = len(x)  # a product per element: one large product would split across threads
        y = x[:, by_gu].reshape(k, q, q, dim, q).transpose(0, 1, 3, 2, 4).reshape(k, -1, q * q)
        y = (y.astype(float) @ f1).reshape(k, q, dim, q, q).transpose(0, 2, 3, 1, 4)
        y = (y.reshape(k, -1, q * q) @ f1).astype(np.int32).reshape(k, dim, q, q, q)  # j, v1, v0, s
        z = y // q
        if (z * q != y).any() or (np.abs(z) > q).any():
            raise NormalizationFailure("q S_g leaves the coefficients in [-q, q] of Z[zeta_q]")
        return z.astype(np.int8).transpose(0, 3, 2, 1, 4).reshape(k, dim, dim, q)

    def n_act(x):
        """q S_(n(b) g) for b = 1 .. q - 1, stacked, from the arrays x = q S_g."""
        y = x.reshape(len(x), -1)[:, source].reshape(len(x), q - 1, dim, dim, q).swapaxes(0, 1)
        return (y - y[..., -1:]).reshape(-1, dim, dim, q)  # mod Phi_q = 1 + ... + x^(q-1)

    one = (q * np.eye(dim, dtype=np.int8))[..., None] * red[0].astype(np.int8)  # q I
    cube, fourth = one[None], one[None]
    for _ in range(3):
        cube = n_act(w_act(cube))[:1]
    for _ in range(4):
        fourth = w_act(fourth)
    c = next((c for c in (1, -1) if np.array_equal(c * cube[0], one)), 0)
    if not c or not np.array_equal(fourth[0], one):
        raise NormalizationFailure("relation normalization failed")

    sl2 = pair.sl2
    gens = sl2.index([[[0, 1], [-1, 0]]] + [[[1, b], [0, 1]] for b in range(1, q)])
    sp = np.zeros((len(sl2.elements), dim, dim, q), dtype=np.int8)
    sp[sl2.identity] = one
    reached = np.zeros(len(sp), dtype=bool)
    reached[sl2.identity] = True
    queue = np.array([sl2.identity])
    while len(queue):  # 16 elements at a time keep the float temporaries near 1 MB
        batch, queue = queue[:16], queue[16:]
        x = sp[batch]
        cand = np.concatenate([c * w_act(x), n_act(x)])
        targets = sl2.mul[gens[:, None], batch].ravel()
        fresh = ~reached[targets]
        sp[targets[fresh]] = cand[fresh]
        reached[targets] = True
        if (sp[targets] != cand).any():
            raise NormalizationFailure("inconsistent Cayley collision")
        queue = np.concatenate([queue, np.flatnonzero(np.bincount(targets[fresh], minlength=len(sp)))])
    if not reached.all():
        raise NormalizationFailure("generators did not reach the whole group")

    # vectors are in code order, so h acts by the argsort of the codes of h v
    hv = pair.o2.elements @ np.array(vecs).T % q
    perm = np.argsort(hv[:, 0] * q + hv[:, 1], axis=1)
    # P S P^-1 = S entrywise for each g and the permutation matrix P of each perm
    for p in perm:
        if (sp.take(p, axis=1).take(p, axis=2) != sp).any():
            raise NormalizationFailure("Sp and O actions do not commute")
    traces = sp[:, np.arange(dim), perm].sum(axis=2, dtype=np.int16)
    return RepMatrixSet(pair, sp, perm, traces)


# ---------------------------------------------------------------------------
# class functions


class ClassFunction(Record):
    """A class function given by its values on the elements of a group, in
    their order: values[i] is canonical in Z[zeta_N], N = _order(group.q)."""

    __slots__ = _fields = ("group", "values", "label")

    def __init__(self, group: MatrixGroup, values: np.ndarray, label: str):
        self.group = group
        self.values = values  # (|G|, N) int
        self.label = label

    def degree(self) -> int:
        return int(self.values[self.group.identity, 0])


def _class_function(group: MatrixGroup, label: str, values) -> ClassFunction:
    """A closed-form character of weilchar, given on the elements of group."""
    return ClassFunction(group, np.array([canonical(v, _order(group.q)) for v in values]), label)


def dl_regular_character(q: int, torus: str, exponent: int) -> ClassFunction:
    """weilchar.dl_character on the elements of SL2(q)."""
    label, values = dl_character(q, torus, exponent)
    index = {class_key(g, q): i for i, (g, _) in enumerate(sl2_classes(q))}
    sl2 = dual_pair(q, "-").sl2
    return _class_function(sl2, label, [values[index[class_key(g, q)]] for g in groups(q, "-")[0]])


def o2_induced_character(pair: FiniteDualPair, exponent: int) -> ClassFunction:
    return _class_function(pair.o2, *o2_induced(pair.q, pair.variant, exponent))


def o2_irreducibles(pair: FiniteDualPair):
    return [_class_function(pair.o2, *chi) for chi in weil_o2_irreducibles(pair.q, pair.variant)]


# ---------------------------------------------------------------------------
# multiplicities


def theta_multiplicity(rep: RepMatrixSet, pi: ClassFunction, rho: ClassFunction) -> int:
    """Multiplicity of pi x rho in the oscillator representation: the double
    character sum of q tr(S_g P_h) conj(pi(g)) conj(rho(h)) over
    SL2(q) x O(V), exact in Z[zeta_N], must be m q |SL2| |O| for an integer
    m >= 0, which is returned."""
    n_g, n_h, q = rep.traces.shape
    big = pi.values.shape[-1]
    # zeta_q^t conj(rho(h)), zeta_q = zeta_N^(N / q), times the traces, summed over h
    # and t for every g.  The float64 sums are exact: coefficients are at most q^3 in
    # traces and q + 1 < 2^4 in characters (at most q + 1 roots of unity, each with
    # coefficients in {-1, 0, 1}), so partial sums stay below |O| q^4 2^4 < 2^18 here
    # and 2^18 |SL2| N 2^4 < 2^42 in _dot.
    rho_t = rho.values[:, (big // q * np.arange(q)[:, None] - np.arange(big)) % big]
    per_g = rep.traces.reshape(n_g, n_h * q).astype(float) @ rho_t.reshape(n_h * q, big)
    total = _dot(per_g, _conj(pi.values))
    size = q * n_g * n_h
    m, rest = divmod(int(total[0]), size)
    if rest or total[1:].any() or m < 0:
        raise NonIntegralMultiplicity(f"<omega, {pi.label} x {rho.label}> = {total.tolist()} / {size}")
    return m


# ---------------------------------------------------------------------------
# Weyl-group form validation by brute-force normalizers.  The closure is a
# level-at-a-time BFS on codes, and g normalizes T = <t_1> iff g t_1 = t_j g,
# j being its multiplier.
CLOSURE_LIMIT = 10**7  # the largest group _mulclose builds


def _sorted_member(codes, sorted_codes):
    """Whether each code lies in the sorted array sorted_codes."""
    pos = np.searchsorted(sorted_codes, codes).clip(max=len(sorted_codes) - 1)
    return sorted_codes[pos] == codes


def _mulclose(gens, q):
    """The group generated by gens, as an int8 array of its elements in
    breadth-first order, identity first; each level in code order.  The
    elements are carried in column-code form, where g M is act_g[cols]."""
    k = np.shape(gens)[-1]
    acts, place = _actions(gens, q), _places(q, k)
    frontier = _column_codes(np.eye(k, dtype=np.int8)[None], q)
    levels, seen = [frontier], _from_columns(frontier, place)  # seen stays sorted
    while len(frontier):
        prods = acts[:, frontier].reshape(-1, k)  # g @ frontier for each generator g in turn
        codes = _from_columns(prods, place)
        order = np.argsort(codes)
        first = order[np.diff(codes[order], prepend=-1) != 0]  # one of each code, in code order
        first = first[~_sorted_member(codes[first], seen)]
        frontier = prods[first]
        levels.append(frontier)
        seen = np.sort(np.concatenate([seen, codes[first]]))
        if len(seen) > CLOSURE_LIMIT:
            raise VerificationFailure("closure exceeded the size limit")
    return np.ascontiguousarray(_vectors(q, k).astype(np.int8)[np.concatenate(levels)].swapaxes(1, 2))


def normalizer_exponent_actions(group, torus_elements, q) -> Counter:
    """The exponent maps j -> a*j induced on the cyclic torus, listed as the
    powers of torus_elements[1], by its normalizer in group: each multiplier
    a mod the torus order with the number of normalizer elements inducing
    it, so the counts sum to the normalizer order.  Entries lie in [0, q).
    The rows of g t_1 are t_1^T acting on the rows of g, the columns of
    t_a g are t_a acting on those of g."""
    k = np.shape(group)[-1]
    rows, cols, place = _column_codes(np.swapaxes(group, 1, 2), q), _column_codes(group, q), _places(q, k)
    lhs = _codes(_actions(np.swapaxes(torus_elements, 1, 2), q)[1][rows], q**k)  # g t_1, from its row codes
    mult = np.full(len(group), -1)
    for a, act in enumerate(_actions(torus_elements, q)):
        mult[_from_columns(cols, place[:, act]) == lhs] = a  # place[:, act] reads t_a g off the columns of g
    return Counter(mult[mult >= 0].tolist())


def torus_normalizer_order(group, torus_elements, q) -> int:
    return sum(normalizer_exponent_actions(group, torus_elements, q).values())


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
    c = next(e for e in big.elements() if not e.is_zero() and e ** (q * q) == -e)

    def tr_to_base(z):
        acc = big.zero()
        cur = z
        for _ in range(4):
            acc = acc + cur
            cur = cur.frobenius()
        assert all(co == 0 for co in acc.coeffs[1:])
        return acc.coeffs[0]

    gram = [[tr_to_base(c * basis[i] * (basis[j] ** (q * q))) for j in range(4)] for i in range(4)]

    return np.reshape(multiplication_matrices(g, q * q + 1), (-1, 4, 4)).astype(np.int8), gram


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
    if not _sorted_member(_codes(torus, q), np.sort(_codes(group, q))).all():
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
