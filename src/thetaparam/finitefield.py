"""Exact arithmetic in small finite fields F_{p^f}, p odd.

Fields are represented as F_p[x]/(modulus) with a deterministic modulus:
monic polynomials are enumerated in lexicographic coefficient order
(constant coefficient varies fastest) and the first irreducible one is
taken, so the same (p, f) always yields the same field on every run.

Elements are coefficient vectors of length f.  The module also provides
embeddings between fields of compatible degree, quadratic residue tests,
square roots (Tonelli-Shanks with a deterministic non-residue), and
generators of norm-one subgroups of quadratic extensions.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import DomainError
from .value import Value, set_field

SIZE_BOUND = 10**6  # largest field order fq_make builds


class NotPrime(DomainError):
    pass


class DegreeTooLarge(DomainError):
    pass


class ZeroInput(DomainError):
    pass


class FieldTooLarge(DomainError):
    pass


def is_prime(n: int) -> bool:
    return n > 1 and _prime_factors(n) == [n]


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient tuples, constant term first)

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_divmod(a, b, p):
    """(quotient, remainder) of a by a nonzero trimmed b over F_p."""
    a = list(a)
    db, inv = len(b) - 1, pow(b[-1], -1, p)
    quo = [0] * max(0, len(a) - db)
    for shift in range(len(a) - 1 - db, -1, -1):
        c = quo[shift] = a[shift + db] * inv % p
        if c:
            for i in range(db + 1):
                a[shift + i] = (a[shift + i] - c * b[i]) % p
    return _poly_trim(quo), _poly_trim(a[:db])


def _poly_mul(a, b, p):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b, i):
            out[j] = (out[j] + ai * bj) % p
    return tuple(out)


def _mulmod(a, b, modulus, n):
    """a * b mod (modulus, n) for coefficient tuples of length d = deg modulus
    over Z/n; modulus is monic.  Serves F_p[x]/(m) and (Z/p^N)[x]/(m)."""
    d = len(a)
    if d == 1:
        return ((a[0] * b[0]) % n,)
    out = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] = (out[j] + ai * bj) % n
    for k in range(2 * d - 2, d - 1, -1):
        c = out[k]
        if c:
            for i, mi in enumerate(modulus[:d], k - d):
                out[i] = (out[i] - c * mi) % n
    return tuple(out[:d])


def _powmod(a, e, modulus, n):
    """a^e for e >= 0 in the ring of _mulmod."""
    out = (1,) + (0,) * (len(modulus) - 2)
    while e:
        if e & 1:
            out = _mulmod(out, a, modulus, n)
        e >>= 1
        if e:
            a = _mulmod(a, a, modulus, n)
    return out


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _poly_trim(out)


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _digits(k: int, p: int, n: int) -> list:
    """The n base-p digits of k, least significant first."""
    out = []
    for _ in range(n):
        k, d = divmod(k, p)
        out.append(d)
    return out


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(modulus, p):
    """Rabin test: x^{p^f} = x mod m and gcd(x^{p^{f/l}} - x, m) = 1 for prime l | f."""
    f = len(modulus) - 1
    if f == 1:
        return True
    x = (0, 1) + (0,) * (f - 2)
    if _poly_sub(_powmod(x, p**f, modulus, p), x, p):
        return False
    for ell in _prime_factors(f):
        xd = _powmod(x, p ** (f // ell), modulus, p)
        g = _poly_gcd(_poly_sub(xd, x, p), modulus, p)
        if len(g) - 1 != 0:
            return False
    return True


# ---------------------------------------------------------------------------


class FqDescriptor(Value):
    """A finite field F_{p^f} with its deterministic defining modulus."""

    __slots__ = _fields = ("p", "f", "modulus")

    def __init__(self, p: int, f: int, modulus: tuple):
        set_field(self, "p", p)
        set_field(self, "f", f)
        set_field(self, "modulus", modulus)  # monic, length f+1, constant coefficient first

    @property
    def order(self) -> int:
        return self.p**self.f

    def element(self, coeffs) -> "FqElement":
        p, f = self.p, self.f
        c = [x % p for x in coeffs[:f]]
        return FqElement(self, tuple(c + [0] * (f - len(c))))

    def zero(self) -> "FqElement":
        return self.element([])

    def one(self) -> "FqElement":
        return self.element([1])

    def gen(self) -> "FqElement":
        """The class of x (for f = 1 this is the class of 0)."""
        if self.f == 1:
            return self.zero()
        return self.element([0, 1])

    def elements(self):
        """All p^f elements in lexicographic coefficient order (c0 fastest)."""
        for k in range(self.order):
            yield self.element(_digits(k, self.p, self.f))

    def __repr__(self):
        return f"F_{self.p}^{self.f}"


@lru_cache(maxsize=None)
def fq_make(p: int, f: int) -> FqDescriptor:
    """Create the deterministic descriptor of F_{p^f}; p odd prime, p^f <= SIZE_BOUND.

    The bound is checked first: p^f > SIZE_BOUND for every p >= 2 once f
    reaches the bit length of SIZE_BOUND, so neither a huge power nor trial
    division of a huge p is ever computed."""
    if f < 1 or f >= SIZE_BOUND.bit_length() or p**f > SIZE_BOUND:
        raise DegreeTooLarge(f"p^f = {p}**{f} exceeds bound {SIZE_BOUND}")
    if not is_prime(p) or p == 2:
        raise NotPrime(f"p = {p} is not an odd prime")
    for k in range(p**f):
        modulus = tuple(_digits(k, p, f)) + (1,)
        if _is_irreducible(modulus, p):
            return FqDescriptor(p, f, modulus)
    raise DegreeTooLarge("no irreducible modulus found")  # unreachable


class FqElement(Value):
    __slots__ = _fields = ("field", "coeffs")

    def __init__(self, field: FqDescriptor, coeffs: tuple):
        assert len(coeffs) == field.f
        set_field(self, "field", field)
        set_field(self, "coeffs", coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FqElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FqElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        k = self.field
        if isinstance(other, int):
            return FqElement(k, tuple((a * other) % k.p for a in self.coeffs))
        self._check(other)
        return FqElement(k, _mulmod(self.coeffs, other.coeffs, k.modulus, k.p))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        """self^e; for e = p^j (j >= 1) the Frobenius x -> x^(p^j), which is
        F_p-linear, applied as the cached matrix of _frobenius_rows."""
        if e < 0:
            return self.inverse() ** (-e)
        k = self.field
        p = k.p
        j = _frobenius_index(e, p)
        if j:
            a = self.coeffs
            rows = _frobenius_rows(k, j % k.f)
            return FqElement(k, tuple([sum([m * c for m, c in zip(row, a)]) % p for row in rows]))
        return FqElement(k, _powmod(self.coeffs, e, k.modulus, p))

    def inverse(self):
        """Extended Euclid in F_p[x]: s * self = r mod the modulus until r
        is a nonzero constant, then s / r."""
        if self.is_zero():
            raise ZeroInput("inverse of zero")
        k = self.field
        p = k.p
        r0, r1, s0, s1 = k.modulus, _poly_trim(self.coeffs), (), (1,)
        while len(r1) > 1:
            quo, r2 = _poly_divmod(r0, r1, p)
            r0, r1, s0, s1 = r1, r2, s1, _poly_sub(s0, _poly_mul(quo, s1, p), p)
        inv = pow(r1[0], -1, p)
        return k.element([c * inv for c in s1])

    def frobenius(self):
        """x -> x^p."""
        return self ** self.field.p

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise DomainError("elements of different fields")

    def __repr__(self):
        return f"{list(self.coeffs)} in {self.field}"


def _frobenius_index(e: int, p: int) -> int:
    """j >= 1 with e = p^j, or 0 when e is no such power."""
    j = 0
    while e > 1 and e % p == 0:
        e //= p
        j += 1
    return j if e == 1 else 0


@lru_cache(maxsize=None)
def _frobenius_rows(field: FqDescriptor, j: int) -> tuple:
    """The rows of the f x f matrix over F_p of x -> x^(p^j) on the power
    basis: column i is the image of x^i, the i-th power of the image of x."""
    p, f, modulus = field.p, field.f, field.modulus
    cols = [(1,) + (0,) * (f - 1)]
    if f > 1:
        image = _powmod((0, 1) + (0,) * (f - 2), p**j, modulus, p)
        cols.append(image)
        for _ in range(f - 2):
            cols.append(_mulmod(cols[-1], image, modulus, p))
    return tuple(zip(*cols))


def fq_is_square(x: FqElement) -> bool:
    """True iff x is a nonzero square: x^{(q-1)/2} = Nm(x)^{(p-1)/2} for the
    norm to F_p, computed as the resultant Res(modulus, x) by Euclid."""
    if x.is_zero():
        raise ZeroInput("square test of zero")
    p = x.field.p
    a, b, norm = x.field.modulus, _poly_trim(x.coeffs), 1
    while len(b) > 1:
        # Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r), r = a mod b
        r = _poly_divmod(a, b, p)[1]
        norm = norm * (-1) ** ((len(a) - 1) * (len(b) - 1)) * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    norm *= pow(b[0], len(a) - 1, p)  # Res(a, c) = c^deg(a)
    return pow(norm, (p - 1) // 2, p) == 1


@lru_cache(maxsize=None)
def fq_multiplicative_generator(field: FqDescriptor) -> FqElement:
    """First element (coefficient-lex order) of multiplicative order q - 1."""
    n = field.order - 1
    primes = _prime_factors(n)
    for x in field.elements():
        if x.is_zero():
            continue
        if all((x ** (n // ell)) != field.one() for ell in primes):
            return x
    raise DomainError("no generator found")  # unreachable


def fq_norm1_generator(q_desc: FqDescriptor, m: int) -> FqElement:
    """Generator of ker(Nm: F_{q^{2m}}^x -> F_{q^m}^x), cyclic of order q^m + 1.

    Returns z^{q^m - 1} for the canonical multiplicative generator z of
    F_{q^{2m}}.  q_desc describes the base field F_q.
    """
    q = q_desc.order
    if q ** (2 * m) > SIZE_BOUND:
        raise FieldTooLarge(f"F_{q}^{2 * m} exceeds bound {SIZE_BOUND}")
    big = fq_make(q_desc.p, q_desc.f * 2 * m)
    z = fq_multiplicative_generator(big)
    return z ** (q**m - 1)


@lru_cache(maxsize=None)
def fq_canonical_nonsquare(field: FqDescriptor) -> FqElement:
    """First non-square in coefficient-lex order."""
    for x in field.elements():
        if not x.is_zero() and not fq_is_square(x):
            return x
    raise DomainError("no nonsquare found")  # unreachable


def fq_sqrt(x: FqElement) -> FqElement:
    """A square root of x (Tonelli-Shanks with the canonical non-residue)."""
    if x.is_zero():
        return x
    if not fq_is_square(x):
        raise DomainError("element is not a square")
    field = x.field
    q = field.order
    if q % 4 == 3:
        return x ** ((q + 1) // 4)
    # q - 1 = 2^s * t, t odd
    t, s = q - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    z = fq_canonical_nonsquare(field) ** t
    r = x ** ((t + 1) // 2)
    w = x**t
    while w != field.one():
        # find least k with w^{2^k} = 1
        k, wk = 0, w
        while wk != field.one():
            wk = wk * wk
            k += 1
        b = z
        for _ in range(s - k - 1):
            b = b * b
        r = r * b
        w = w * b * b
        z = b * b
        s = k
    return r


# ---------------------------------------------------------------------------
# embeddings


def _evaluate(coeffs, x: FqElement) -> FqElement:
    """sum_k coeffs[k] x^k for integer coefficients, in the field of x."""
    acc = x.field.zero()
    power = x.field.one()
    for c in coeffs:
        if c:
            acc = acc + c * power
        power = power * x
    return acc


class FqEmbedding(Value):
    """A ring embedding F_{p^a} -> F_{p^b} (a | b), via the image of x.

    Instances keep a __dict__, where cached_property stores the solver."""

    _fields = ("source", "target", "image_of_generator")

    def __init__(self, source: FqDescriptor, target: FqDescriptor, image_of_generator: FqElement):
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "image_of_generator", image_of_generator)

    def apply(self, x: FqElement) -> FqElement:
        if x.field != self.source:
            raise DomainError("element not in the source field")
        return _evaluate(x.coeffs, self.image_of_generator)

    @cached_property
    def _solver(self):
        """Solves sum_j w_j x^j = y over F_p for the image x of the generator."""
        cols = []
        power = self.target.one()
        for _ in range(self.source.f):
            cols.append(power.coeffs)
            power = power * self.image_of_generator
        p = self.source.p
        return span_solver(cols, p, p, "element is not in the embedded subfield")

    def pullback(self, y: FqElement) -> FqElement:
        """Inverse on the image; raises if y is not in the embedded subfield."""
        if y.field != self.target:
            raise DomainError("element not in the target field")
        return self.source.element(self._solver(y.coeffs))


def _row_reduce(rows, p, ncols, n):
    """Reduced row echelon form over Z/n for n a power of p, pivoting on
    units in the first ncols columns; returns the reduced rows and
    {pivot column: row index}."""
    aug = [[v % n for v in row] for row in rows]
    pivots = {}
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(aug)) if aug[r][col] % p), None)
        if piv is None:
            continue
        aug[top], aug[piv] = aug[piv], aug[top]
        inv = pow(aug[top][col], -1, n)
        aug[top] = [(v * inv) % n for v in aug[top]]
        for r in range(len(aug)):
            if r != top and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(v - factor * w) % n for v, w in zip(aug[r], aug[top])]
        pivots[col] = top
    return aug, pivots


def span_solver(cols, p: int, n: int, message: str):
    """The solver of u = sum_j w_j cols[j] over Z/n, n a power of p, for columns
    independent mod p: reducing [cols | identity] records the row operations
    once; each call applies them to u and returns w, or raises DomainError(message)."""
    k, d = len(cols), len(cols[0])
    rows = [[col[i] for col in cols] + [int(i == r) for r in range(d)] for i in range(d)]
    ops = [row[k:] for row in _row_reduce(rows, p, k, n)[0]]

    def solve(u) -> tuple:
        z = [sum([o * c for o, c in zip(row, u)]) % n for row in ops]
        if any(z[k:]):
            raise DomainError(message)
        return tuple(z[:k])

    return solve


@lru_cache(maxsize=None)
def fq_embedding(source: FqDescriptor, target: FqDescriptor) -> FqEmbedding:
    """Deterministic embedding F_{p^a} -> F_{p^b}.

    The subfield {z : z^{p^a} = z} of the target is computed by linear
    algebra over F_p; its elements (at most p^a of them) are scanned in a
    deterministic order for a root of the source modulus.
    """
    if source.p != target.p or target.f % source.f != 0:
        raise DomainError("no embedding: incompatible fields")
    if source == target:
        return FqEmbedding(source, target, target.gen())
    p, a, b = source.p, source.f, target.f
    # matrix of Frobenius^a - id on the power basis of the target
    xp = target.gen() ** (p**a)
    cols = []
    power = target.one()
    for k in range(b):
        shifted = list(power.coeffs)
        shifted[k] = (shifted[k] - 1) % p
        cols.append(shifted)
        power = power * xp
    aug, pivots = _row_reduce([[cols[j][i] for j in range(b)] for i in range(b)], p, b, p)
    kernel = []
    for free in (c for c in range(b) if c not in pivots):
        vec = [0] * b
        vec[free] = 1
        for col, r in pivots.items():
            vec[col] = (-aug[r][free]) % p
        kernel.append(vec)
    # scan F_p-combinations of the kernel basis for a root of the source modulus
    dim = len(kernel)
    assert dim == a
    for k in range(p**dim):
        coeffs = _digits(k, p, dim)
        cand = target.element(
            [sum(coeffs[j] * kernel[j][i] for j in range(dim)) % p for i in range(b)]
        )
        if _evaluate(source.modulus, cand).is_zero():
            return FqEmbedding(source, target, cand)
    raise DomainError("embedding root not found")  # unreachable
