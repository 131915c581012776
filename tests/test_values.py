"""Semantics of the package's value classes: constructor order, keyword
names and defaults, field-tuple equality and hashing, repr, immutability
and the validation each constructor performs."""

import copy
import random

import numpy as np
import pytest

from thetaparam.errors import DomainError
from thetaparam.finitefield import FqDescriptor, FqElement, FqEmbedding, fq_embedding, fq_make
from thetaparam.finitetheta import (
    BinarySpace,
    ClassFunction,
    FiniteDualPair,
    RepMatrixSet,
    build_weil_rep,
    dual_pair,
)
from thetaparam.localfield import (
    STEP_RAMIFIED,
    STEP_UNRAMIFIED,
    FieldMismatch,
    LeadingTerm,
    SquareClass,
    TameFieldDescriptor,
    TruncatedElement,
    base_field,
    factor_field,
    ring_for,
)
from thetaparam.quadform import QuadInvariants, SOType
from thetaparam.theta import (
    DistinctionVerdict,
    DistinctionWitness,
    ThetaResult,
    TransportResult,
    distinction_transport,
    distinguished_check,
    lift,
)
from thetaparam.torusdata import (
    POLARITY_SYMPLECTIC,
    BlockDecomposition,
    Factor,
    FiniteTorusDatum,
    TorusDatum,
    ValidationReport,
    block_decompose,
)

import gen

FIELDS = {
    FqDescriptor: ("p", "f", "modulus"),
    FqElement: ("field", "coeffs"),
    FqEmbedding: ("source", "target", "image_of_generator"),
    TameFieldDescriptor: ("base_p", "base_f", "f", "e", "step"),
    LeadingTerm: ("field", "val", "residue", "sym", "sigma_sym"),
    SquareClass: ("pi", "ns"),
    TruncatedElement: ("field", "ring", "parts", "shift"),
    QuadInvariants: ("dim", "disc", "hasse"),
    SOType: ("label", "hasse"),
    Factor: ("m", "step", "c", "chi0", "gamma_levels"),
    TorusDatum: ("base", "factors", "polarity"),
    ValidationReport: ("violations",),
    FiniteTorusDatum: ("q", "entries", "exponents"),
    BlockDecomposition: ("levels",),
    ThetaResult: ("lifted", "target_invariants", "predicted_invariants", "so", "choices"),
    DistinctionWitness: ("base_f_field", "datum_over_e"),
    DistinctionVerdict: ("distinguished", "restriction_exponents", "details"),
    TransportResult: (
        "twisted_datum_e", "invariants_e", "f_datum", "invariants_f", "so_f", "choices", "checks"
    ),
    BinarySpace: ("q", "variant", "gram"),
    FiniteDualPair: ("q", "variant", "space", "sl2", "o2", "rotations"),
    RepMatrixSet: ("pair", "sp", "perm", "traces"),
    ClassFunction: ("group", "values", "label"),
}
MUTABLE = {ValidationReport, RepMatrixSet, ClassFunction}
IDENTITY_EQ = {FiniteDualPair}
DEFAULTS = {
    TameFieldDescriptor: {"step": None},
    LeadingTerm: {"sym": "none", "sigma_sym": "none"},
    TruncatedElement: {"shift": 0},
    Factor: {"chi0": 0, "gamma_levels": ()},
}

BASE5 = base_field(5)
L5U = factor_field(BASE5, 1, STEP_UNRAMIFIED)
L5R = factor_field(BASE5, 1, STEP_RAMIFIED)
K25 = fq_make(5, 2)


def _instances():
    datum = TorusDatum(
        BASE5, (Factor(1, STEP_UNRAMIFIED, gen.leading_term(L5U, 0, [0, 2], "anti"), 1),), POLARITY_SYMPLECTIC
    )
    witness = gen.random_witness(5, random.Random(1), 1)
    pair = dual_pair(3, "+")
    return {
        FqDescriptor: K25,
        FqElement: K25.element([1, 2]),
        FqEmbedding: fq_embedding(fq_make(5, 1), K25),
        TameFieldDescriptor: L5R,
        LeadingTerm: LeadingTerm(L5U, 1, K25.element([1, 2]), "anti", "fixed"),
        SquareClass: SquareClass(1, 1),
        TruncatedElement: TruncatedElement(L5R, ring_for(L5R, 2), ((1,), (3,)), 1),
        QuadInvariants: lift(datum).target_invariants,
        SOType: lift(datum).so,
        Factor: datum.factors[0],
        TorusDatum: datum,
        ValidationReport: ValidationReport(["a violation"]),
        FiniteTorusDatum: FiniteTorusDatum(5, (1,), (2,)),
        BlockDecomposition: block_decompose(datum),
        ThetaResult: lift(datum),
        DistinctionWitness: witness,
        DistinctionVerdict: distinguished_check(witness),
        TransportResult: distinction_transport(witness),
        BinarySpace: pair.space,
        FiniteDualPair: pair,
        RepMatrixSet: build_weil_rep(3, "+"),
        ClassFunction: ClassFunction(pair.o2, np.ones(len(pair.o2.elements), dtype=complex), "one"),
    }


_LT = "LT(val=0,res=[0, 2],anti)"
_FACTOR = f"Factor(m=1, step='unramified', c={_LT}, chi0=1, gamma_levels=())"
_DATUM = f"TorusDatum(base=Tame(p=5,f0=1,f=1,e=1), factors=({_FACTOR},), polarity='symplectic')"
_INV = "QuadInvariants(dim=2, disc=SquareClass(u), hasse=-1)"
_SO = "SOType(label='quasi_split_unramified', hasse=-1)"
REPRS = {
    FqDescriptor: "F_5^2",
    FqElement: "[1, 2] in F_5^2",
    FqEmbedding: "FqEmbedding(source=F_5^1, target=F_5^2, image_of_generator=[0, 0] in F_5^2)",
    TameFieldDescriptor: "Tame(p=5,f0=1,f=1,e=2,ramified)",
    LeadingTerm: "LT(val=1,res=[1, 2],anti/s:fixed)",
    SquareClass: "SquareClass(u*pi)",
    TruncatedElement: "Trunc(Tame(p=5,f0=1,f=1,e=2,ramified), parts=[[1], [3]], /p^1)",
    QuadInvariants: _INV,
    SOType: _SO,
    Factor: _FACTOR,
    TorusDatum: _DATUM,
    ThetaResult: "ThetaResult(lifted=TorusDatum(base=Tame(p=5,f0=1,f=1,e=1), factors=(Factor(m=1, "
    "step='unramified', c=LT(val=1,res=[2, 0],fixed), chi0=5, gamma_levels=()),), "
    f"polarity='orthogonal'), target_invariants={_INV}, predicted_invariants={_INV}, so={_SO}, "
    "choices={'uniformizer': {'val': 1, 'residue': [1]}, 'tau': {'0': {'val': 0, 'residue': [0, 2]}}})",
    ValidationReport: "ValidationReport(violations=['a violation'])",
    FiniteTorusDatum: "FiniteTorusDatum(q=5, entries=(1,), exponents=(2,))",
    BlockDecomposition: "BlockDecomposition(levels=((Fraction(0, 1), (0,)),))",
    DistinctionVerdict: "DistinctionVerdict(distinguished=True, restriction_exponents=(0,), "
    "details={'direct': True})",
    BinarySpace: "BinarySpace(q=3, variant='+', gram=((0, 1), (1, 0)))",
}

ERRORS = {
    FqElement: [(lambda: FqElement(K25, (1,)), AssertionError, "")],
    TameFieldDescriptor: [
        (lambda: TameFieldDescriptor(5, 1, 1, 3), DomainError, "ramification index must be 1 or 2"),
        (lambda: TameFieldDescriptor(4, 1, 1, 3), DomainError, "ramification index must be 1 or 2"),
        (lambda: TameFieldDescriptor(4, 1, 1, 1), DomainError, "p must be odd"),
        (lambda: TameFieldDescriptor(5, 1, 1, 1, STEP_UNRAMIFIED), DomainError,
         "unramified step needs even residue degree"),
        (lambda: TameFieldDescriptor(5, 1, 2, 1, STEP_RAMIFIED), DomainError,
         "ramified step needs e = 2"),
    ],
    LeadingTerm: [
        (lambda: LeadingTerm(L5U, 0, K25.zero()), DomainError, "leading term needs a nonzero residue"),
        (lambda: LeadingTerm(L5R, 0, K25.one()), FieldMismatch, "residue lives in the wrong field"),
    ],
}


@pytest.fixture(scope="module")
def instances():
    return _instances()


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_value_class_semantics(cls, instances):
    """Field order and keyword names, defaults, equality of the field tuple
    within one class only, hash of the field tuple, the pinned repr,
    immutability, copies and the constructor's validation errors."""
    x, names = instances[cls], FIELDS[cls]
    values = tuple(getattr(x, n) for n in names)
    same, by_name = cls(*values), cls(**dict(zip(names, values)))
    if cls in IDENTITY_EQ:
        assert x == x and x != same and hash(x) == object.__hash__(x)
    else:
        assert x == same == by_name
        assert tuple(getattr(same, n) for n in names) == values
    defaults = DEFAULTS.get(cls, {})
    short = cls(*values[: len(names) - len(defaults)])
    assert {n: getattr(short, n) for n in defaults} == defaults
    other = next(v for k, v in instances.items() if k is not cls)
    assert x.__eq__(other) is NotImplemented and x != other
    assert x.__eq__(values) is NotImplemented and x != values

    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(x)
        setattr(same, names[0], values[0])
    elif cls not in IDENTITY_EQ:
        try:
            expected = hash(values)
        except TypeError:  # a dict field: unhashable, as the field tuple is
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == expected == hash(same)
    if cls not in MUTABLE:
        for attempt in (lambda: setattr(x, names[0], values[0]), lambda: delattr(x, names[0])):
            with pytest.raises(AttributeError):
                attempt()
        assert getattr(x, names[0]) is values[0]
    if cls not in MUTABLE | IDENTITY_EQ:
        assert copy.copy(x) == x

    want = REPRS.get(cls) or f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    assert repr(x) == want
    for build, exc, message in ERRORS.get(cls, []):
        with pytest.raises(exc) as info:
            build()
        assert type(info.value) is exc and str(info.value) == message

