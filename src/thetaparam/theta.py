"""Parameter-level theta lifts and distinction transport.

The lift sends a symplectic datum (L, L0, c, chi) to the orthogonal datum
of its theta partner factor by factor: c_theta = c * tau * pi on a
gamma-free (depth-zero) factor, tau a trace-zero unit and pi the base
uniformizer, and c_theta = -c * gamma at the top level of every other
factor, the character inverted throughout.  The target quadratic space is
classified by quadform as the orthogonal sum of the depth-zero part and the
rest.  The depth-zero part is cross-checked against the parity prediction:
with r = #{factors with even val(c)} and s = #{odd},

    disc(V) = 1 iff r + s is even, and the Hasse sign is (-1)^r,

which pins split / non-split / quasi-split via the standard p-adic
classification.

Distinction mode works over an unramified quadratic extension E/F with
involution sigma.  Witnesses declare sigma-fixed c and sigma-anti gamma;
the criterion is triviality of the depth-zero restriction to the sigma-fixed
norm-one torus.  The transport multiplies the lifted c_theta (which is
sigma-anti factor by factor) by a trace-zero unit iota of E, producing a
sigma-fixed datum that descends to an F-structure.
"""

from __future__ import annotations

from .errors import DomainError
from .finitefield import fq_embedding
from .localfield import (
    STEP_RAMIFIED,
    STEP_UNRAMIFIED,
    SYM_ANTI,
    SYM_FIXED,
    SYM_NONE,
    LeadingTerm,
    SQ_ONE,
    SQ_U,
    TameFieldDescriptor,
    canonical_tau,
    factor_field,
    lt_mul,
    lt_neg,
    residue_sym_ok,
)
from .quadform import (
    QuadInvariants,
    SOType,
    invariants_of_orthogonal_datum,
    orthogonal_sum,
    so_type,
)
from .torusdata import (
    Factor,
    POLARITY_ORTHOGONAL,
    POLARITY_SYMPLECTIC,
    TorusDatum,
    NotDepthZero,
    block_decompose,
    datum_equivalent,
    depth_zero_general_position,
    validate,
)
from .value import Value, set_field


class NotGeneralPosition(DomainError):
    pass


class NotSingleBlock(DomainError):
    pass


class InvalidWitness(DomainError):
    pass


class SymmetryAssertionFailed(DomainError):
    pass


class ThetaResult(Value):
    """Lifted orthogonal datum with its invariants.

    The lift raises unless the computed invariants of its depth-zero part
    equal the parity prediction, and nothing predicts the positive-depth
    part apart from computing it.  choices records the uniformizer and each
    depth-zero factor's tau under the factor's index; it is empty without
    such factors.
    """

    __slots__ = _fields = ("lifted", "target_invariants", "so", "choices")

    def __init__(self, lifted: TorusDatum, target_invariants: QuadInvariants, so: SOType, choices: dict):
        set_field(self, "lifted", lifted)
        set_field(self, "target_invariants", target_invariants)
        set_field(self, "so", so)
        set_field(self, "choices", choices)


# ---------------------------------------------------------------------------
# the lift


def _embed_base_term(lt: LeadingTerm, field: TameFieldDescriptor) -> LeadingTerm:
    """Push a leading term of the base field into a factor field L."""
    k_base = lt.field.residue_field()
    k_l = field.residue_field()
    res = lt.residue if k_base == k_l else fq_embedding(k_base, k_l).apply(lt.residue)
    return LeadingTerm(field, lt.val * field.e, res, SYM_FIXED, lt.sigma_sym)


def default_uniformizer(base: TameFieldDescriptor) -> LeadingTerm:
    return LeadingTerm(base, 1, base.residue_field().one(), SYM_FIXED, SYM_FIXED)


def _term_choice(lt: LeadingTerm) -> dict:
    """A leading-term choice as its report records it."""
    return {"val": lt.val, "residue": list(lt.residue.coeffs)}


def parity_predict(datum: TorusDatum):
    """Invariants of the theta target of a depth-zero symplectic datum as a
    pure function of the valuation parities: with r factors of even val(c)
    and s of odd val(c), disc is trivial iff r = s mod 2 and hasse = (-1)^r.
    """
    for f in datum.factors:
        if f.gamma_levels or f.step != STEP_UNRAMIFIED:
            raise NotDepthZero("parity prediction applies to depth-zero data")
    r = sum(1 for f in datum.factors if f.c.val % 2 == 0)
    s = len(datum.factors) - r
    disc = SQ_ONE if (r + s) % 2 == 0 else SQ_U
    hasse = 1 if r % 2 == 0 else -1
    inv = QuadInvariants(2 * datum.n, disc, hasse)
    return inv, so_type(inv)


def lift_depth_zero(
    datum: TorusDatum,
    uniformizer: LeadingTerm | None = None,
    taus: dict | None = None,
) -> ThetaResult:
    """Theta lift of a depth-zero symplectic datum in general position,
    without the rest of validation: the lift map on a datum whose factors
    are all unramified and gamma-free."""
    if datum.polarity != POLARITY_SYMPLECTIC:
        raise DomainError("theta lift starts from a symplectic datum")
    for f in datum.factors:
        if f.gamma_levels or f.step != STEP_UNRAMIFIED:
            raise NotDepthZero("depth-zero lift needs an unramified gamma-free datum")
    if not depth_zero_general_position(datum):
        raise NotGeneralPosition("depth-zero exponents have a nontrivial Weyl stabilizer")
    return _lift_factors(datum, uniformizer, taus)


def lift_positive_block(datum: TorusDatum) -> ThetaResult:
    """Theta lift of a symplectic datum whose factors share one positive
    depth, without the rest of validation."""
    if datum.polarity != POLARITY_SYMPLECTIC:
        raise DomainError("theta lift starts from a symplectic datum")
    depths = {f.depth for f in datum.factors}
    if len(depths) != 1 or 0 in depths:
        raise NotSingleBlock(f"factors carry depths {sorted(depths)}")
    return _lift_factors(datum)


def validate_for_lift(datum: TorusDatum):
    """Raise unless the datum is valid and symplectic, the domain of lift."""
    report = validate(datum)
    if not report.ok:
        raise DomainError("invalid datum: " + "; ".join(report.violations))
    if datum.polarity != POLARITY_SYMPLECTIC:
        raise DomainError("theta lift starts from a symplectic datum")


def lift(
    datum: TorusDatum,
    uniformizer: LeadingTerm | None = None,
    taus: dict | None = None,
) -> ThetaResult:
    """Theta lift of a valid symplectic datum."""
    validate_for_lift(datum)
    return _lift_factors(datum, uniformizer, taus)


def _lift_factors(datum: TorusDatum, uniformizer=None, taus=None) -> ThetaResult:
    """The lift map, one pass over the factors of a symplectic datum.

    A gamma-free factor i gets c_theta = c * tau_i * pi, with tau_i = taus[i]
    or the canonical trace-zero unit of L_i and pi the uniformizer; every
    other factor gets c_theta = -(c * gamma) at its top level; every factor's
    character data are inverted.  The invariants of the lifted depth-zero
    factors, cross-checked against the parity prediction, and those of the
    rest are computed once each and composed by the orthogonal sum law.
    """
    q = datum.base.q_base
    levels = block_decompose(datum).levels
    zero = levels[-1][1] if levels and levels[-1][0] == 0 else ()  # the gamma-free factors
    if zero:
        if uniformizer is None:
            uniformizer = default_uniformizer(datum.base)
        if uniformizer.val != 1:
            raise DomainError("uniformizer must have valuation 1")
    lifted = []
    tau_record = {}
    for i, f in enumerate(datum.factors):
        if f.gamma_levels:
            c_theta = lt_neg(lt_mul(f.c, f.top_gamma()))
        else:
            field = f.c.field
            tau = (taus or {}).get(i) or canonical_tau(field)
            if tau.field != field or tau.val != 0 or tau.sym != SYM_ANTI:
                raise DomainError(f"factor {i}: tau must be a trace-zero unit of L")
            c_theta = lt_mul(lt_mul(f.c, tau), _embed_base_term(uniformizer, field))
            tau_record[str(i)] = _term_choice(tau)
        gammas = tuple((r, lt_neg(g)) for r, g in f.gamma_levels)
        lifted.append(Factor(f.m, f.step, c_theta, (-f.chi0) % f.chi0_modulus(q), gammas))
    out = TorusDatum(datum.base, tuple(lifted), POLARITY_ORTHOGONAL)
    target = QuadInvariants(0, SQ_ONE, 1)
    choices = {}
    if zero:
        target = invariants_of_orthogonal_datum(out.replace_factors(lifted[i] for i in zero))
        predicted, _ = parity_predict(datum.replace_factors(datum.factors[i] for i in zero))
        if target != predicted:
            raise DomainError(
                f"internal cross-check failed: computed {target} vs predicted {predicted}"
            )
        choices = {"uniformizer": _term_choice(uniformizer), "tau": tau_record}
    if len(zero) < len(lifted):
        rest = out.replace_factors(f for f in lifted if f.gamma_levels)
        target = orthogonal_sum(target, invariants_of_orthogonal_datum(rest), q)
    if target.dim != 2 * datum.n:
        raise DomainError("equal-rank violation: lifted dimension is not 2n")
    return ThetaResult(out, target, so_type(target), choices)


# ---------------------------------------------------------------------------
# distinction with respect to an unramified Galois involution


def e_descriptor(base_f_field: TameFieldDescriptor) -> TameFieldDescriptor:
    """E = the unramified quadratic extension of F, as a base descriptor."""
    return TameFieldDescriptor(base_f_field.base_p, 2 * base_f_field.base_f, 1, 1, None)


def canonical_iota(base_f_field: TameFieldDescriptor) -> LeadingTerm:
    """iota = sqrt(u) in E: a trace-zero unit for sigma, with u the canonical
    non-square of the residue field of F.  E/F is the unramified quadratic
    step over F, so this is its canonical tau."""
    tau = canonical_tau(factor_field(base_f_field, 1, STEP_UNRAMIFIED))
    return LeadingTerm(e_descriptor(base_f_field), 0, tau.residue, SYM_NONE, SYM_ANTI)


def canonical_sigma_uniformizer(base_f_field: TameFieldDescriptor) -> LeadingTerm:
    """pi_E = p * sqrt(u): a uniformizer of E lying in the sigma-anti part."""
    iota = canonical_iota(base_f_field)
    return LeadingTerm(iota.field, 1, iota.residue, iota.sym, iota.sigma_sym)


def _sigma_ok(lt: LeadingTerm, base_f_field: TameFieldDescriptor, sym: str) -> bool:
    """Whether lt is declared sigma-sym and its residue agrees; sigma acts on
    the residue field of an E-factor as x -> x^{q^m}, q the residue size of F."""
    return lt.sigma_sym == sym and residue_sym_ok(lt.residue, base_f_field.q_base**lt.field.m, sym)


class DistinctionWitness(Value):
    """A symplectic datum over E with a declared factor-wise F-structure.

    The F-structure of factor i is the canonical pair K_i0 (unramified of
    degree m_i over F) and K_i = K_i0(sqrt(p)); validity requires E not
    contained in K_i, which in this tower model forces odd m_i and a
    ramified step.  sigma-fixedness of c and sigma-antisymmetry of every
    gamma are declared through the sigma flags of the leading terms.
    """

    __slots__ = _fields = ("base_f_field", "datum_over_e")

    def __init__(self, base_f_field: TameFieldDescriptor, datum_over_e: TorusDatum):
        set_field(self, "base_f_field", base_f_field)
        set_field(self, "datum_over_e", datum_over_e)


def witness_violations(w: DistinctionWitness) -> list:
    v = []
    e_base = e_descriptor(w.base_f_field)
    if w.datum_over_e.base != e_base:
        v.append("datum base is not the unramified quadratic extension of F")
        return v
    if w.datum_over_e.polarity != POLARITY_SYMPLECTIC:
        v.append("witness datum must be symplectic")
    report = validate(w.datum_over_e)
    v.extend(report.violations)
    for i, f in enumerate(w.datum_over_e.factors):
        tag = f"factor {i}"
        if f.m % 2 == 0:
            v.append(f"{tag}: E embeds into K (even degree), so K tensor E is not a field")
            continue
        if f.step != STEP_RAMIFIED:
            v.append(f"{tag}: an unramified step forces E inside K, so K tensor E "
                     "is not a field")
            continue
        if not _sigma_ok(f.c, w.base_f_field, SYM_FIXED):
            v.append(f"{tag}: c is not declared and consistent sigma-fixed")
        for r, g in f.gamma_levels:
            if not _sigma_ok(g, w.base_f_field, SYM_ANTI):
                v.append(f"{tag}: gamma at depth {r} is not sigma-anti")
    return v


class DistinctionVerdict(Value):
    __slots__ = _fields = ("distinguished", "restriction_exponents", "details")

    def __init__(self, distinguished: bool, restriction_exponents: tuple, details: dict):
        set_field(self, "distinguished", distinguished)
        set_field(self, "restriction_exponents", restriction_exponents)
        set_field(self, "details", details)

    def as_dict(self):
        return {
            "distinguished": self.distinguished,
            "restriction_exponents": list(self.restriction_exponents),
            "details": dict(self.details),
        }


def distinguished_check(w: DistinctionWitness) -> DistinctionVerdict:
    """Decide distinction for the supplied witness.

    The depth-zero quotient of the sigma-fixed norm-one torus K^1 has order
    two and maps onto that of L^1, so the depth-zero restriction of chi is
    trivial exactly when every chi0 is even; the positive-depth conditions
    are the declared sigma-antisymmetry of the gammas, checked by
    witness_violations.  A negative verdict records that the normalization
    search over norm-class rescalings of c and Weyl twists of chi is
    exhausted: in this tower model both preserve chi0 mod 2, so it cannot
    flip a verdict.
    """
    bad = witness_violations(w)
    if bad:
        raise InvalidWitness("; ".join(bad))
    exps = tuple(f.chi0 % 2 for f in w.datum_over_e.factors)
    direct = all(e == 0 for e in exps)
    details = {"direct": direct}
    if not direct:
        # Weyl twists multiply chi0 by odd powers of q and norm rescalings do
        # not touch chi at all; the mod-2 restriction exponent is invariant.
        details["search"] = "exhausted: restriction exponents are twist-invariant"
    return DistinctionVerdict(direct, exps, details)


def _iota_twist_factor(f: Factor, iota_in_l: LeadingTerm) -> Factor:
    c = lt_mul(f.c, iota_in_l)
    gammas = tuple((r, lt_mul(g, iota_in_l)) for r, g in f.gamma_levels)
    return Factor(f.m, f.step, c, f.chi0, gammas)


class TransportResult(Value):
    """Distinction transport output: the sigma-fixed iota-twisted lift over
    E, its descended F-structure, and the invariants on both sides."""

    __slots__ = _fields = (
        "twisted_datum_e", "invariants_e", "f_datum", "invariants_f", "so_f", "choices", "checks"
    )

    def __init__(
        self,
        twisted_datum_e: TorusDatum,
        invariants_e: QuadInvariants,
        f_datum: TorusDatum,
        invariants_f: QuadInvariants,
        so_f: SOType,
        choices: dict,
        checks: dict,
    ):
        set_field(self, "twisted_datum_e", twisted_datum_e)
        set_field(self, "invariants_e", invariants_e)
        set_field(self, "f_datum", f_datum)
        set_field(self, "invariants_f", invariants_f)
        set_field(self, "so_f", so_f)
        set_field(self, "choices", choices)
        set_field(self, "checks", checks)


def distinction_transport(w: DistinctionWitness) -> TransportResult:
    """Lift over E, verify sigma(c_theta) = -c_theta factor by factor,
    twist by the canonical iota, and descend to the F-structure.

    The gamma data of the twisted datum are also multiplied by iota: this
    is the additive-character renormalization psi -> psi_iota that makes
    the datum sigma-rational, and it restores -c * gamma form for the
    twisted pair.  Scalar re-extension of the F-structure reproduces the
    twisted datum (checked through datum_equivalent).
    """
    verdict = distinguished_check(w)
    if not verdict.distinguished:
        raise DomainError("transport requires a distinguished witness")
    datum_e = w.datum_over_e
    lifted = _lift_factors(datum_e)  # witness_violations has validated datum_e
    iota = canonical_iota(w.base_f_field)
    k_e = iota.field.residue_field()

    twisted_factors = []
    for i, f in enumerate(lifted.lifted.factors):
        if not _sigma_ok(f.c, w.base_f_field, SYM_ANTI):
            raise SymmetryAssertionFailed(f"factor {i}: sigma(c_theta) != -c_theta")
        k_l = f.c.field.residue_field()
        iota_l = LeadingTerm(
            f.c.field, 0, fq_embedding(k_e, k_l).apply(iota.residue), SYM_FIXED, SYM_ANTI
        )
        tf = _iota_twist_factor(f, iota_l)
        if not _sigma_ok(tf.c, w.base_f_field, SYM_FIXED):
            raise SymmetryAssertionFailed(f"factor {i}: iota * c_theta is not sigma-fixed")
        twisted_factors.append(tf)
    twisted = TorusDatum(datum_e.base, tuple(twisted_factors), POLARITY_ORTHOGONAL)
    inv_e = invariants_of_orthogonal_datum(twisted)

    f_datum = descend_to_f(twisted, w.base_f_field)
    inv_f = invariants_of_orthogonal_datum(f_datum)
    re_extended = extend_to_e(f_datum, w.base_f_field)
    checks = {
        "sigma_anti_c_theta": True,
        "re_extension_equivalent": datum_equivalent(re_extended, twisted),
    }
    pi_e = canonical_sigma_uniformizer(w.base_f_field)
    choices = {
        "iota": _term_choice(iota),
        "sigma_uniformizer": _term_choice(pi_e),
    }
    return TransportResult(twisted, inv_e, f_datum, inv_f, so_type(inv_f), choices, checks)


def descend_to_f(datum_e: TorusDatum, base_f_field: TameFieldDescriptor) -> TorusDatum:
    """F-structure of a factor-wise sigma-fixed datum over E: residues are
    pulled back along the residue embedding of the canonical K-tower."""
    factors = []
    for f in datum_e.factors:
        field_f = factor_field(base_f_field, f.m, f.step)
        emb = fq_embedding(field_f.residue_field(), f.c.field.residue_field())
        c = LeadingTerm(field_f, f.c.val, emb.pullback(f.c.residue), f.c.sym, SYM_NONE)
        gammas = tuple(
            (r, LeadingTerm(field_f, g.val, emb.pullback(g.residue), g.sym, SYM_NONE))
            for r, g in f.gamma_levels
        )
        factors.append(Factor(f.m, f.step, c, f.chi0 % f.chi0_modulus(base_f_field.q_base), gammas))
    return TorusDatum(base_f_field, tuple(factors), datum_e.polarity)


def extend_to_e(datum_f: TorusDatum, base_f_field: TameFieldDescriptor) -> TorusDatum:
    """Scalar extension to E of a datum over F (residues embedded, towers
    re-based); chi0 is preserved on the order-two depth-zero quotients."""
    e_base = e_descriptor(base_f_field)
    factors = []
    for f in datum_f.factors:
        field_e = factor_field(e_base, f.m, f.step)
        emb = fq_embedding(f.c.field.residue_field(), field_e.residue_field())
        c = LeadingTerm(field_e, f.c.val, emb.apply(f.c.residue), f.c.sym, SYM_FIXED)
        gammas = tuple(
            (r, LeadingTerm(field_e, g.val, emb.apply(g.residue), g.sym, SYM_NONE))
            for r, g in f.gamma_levels
        )
        factors.append(Factor(f.m, f.step, c, f.chi0, gammas))
    return TorusDatum(e_base, tuple(factors), datum_f.polarity)
