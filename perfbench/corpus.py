"""Seeded corpus generator: the benchmark's inputs as JSON documents.

The draws follow the acceptance-test distributions (the test suite's
``gen.py``): mixed symplectic data (criterion 2), sigma-symmetric
witnesses (criterion 6) and orthogonal data (criterion 7).  The library is
used only to build the data; the program under test receives the JSON
documents that ``datum_to_json`` writes.  The same seed gives byte-identical
documents.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

from thetaparam.cli import datum_to_json
from thetaparam.finitefield import fq_canonical_nonsquare, fq_embedding, fq_make, fq_sqrt
from thetaparam.localfield import (
    STEP_RAMIFIED,
    STEP_UNRAMIFIED,
    SYM_ANTI,
    SYM_FIXED,
    LeadingTerm,
    base_field,
    canonical_tau,
    factor_field,
)
from thetaparam.theta import e_descriptor
from thetaparam.torusdata import (
    POLARITY_ORTHOGONAL,
    POLARITY_SYMPLECTIC,
    Factor,
    TorusDatum,
    validate,
)


def _max_part(p: int) -> int:
    # residue fields stay under the default size bound: F_{7^8} exceeds it
    return 3 if p == 7 else 4


def _partition(n: int, cap: int, rng: random.Random):
    parts, left = [], n
    while left:
        m = rng.randint(1, min(left, cap))
        parts.append(m)
        left -= m
    return parts


def _nonzero(k, rng: random.Random):
    while True:
        x = k.element([rng.randrange(k.p) for _ in range(k.f)])
        if not x.is_zero():
            return x


def _subfield_unit(field, rng: random.Random):
    k0 = field.subfield_residue()
    return fq_embedding(k0, field.residue_field()).apply(_nonzero(k0, rng))


def _c(field, step, rng: random.Random, polarity):
    if polarity == POLARITY_SYMPLECTIC:
        sym = SYM_ANTI
        if step == STEP_UNRAMIFIED:
            val = rng.randint(-2, 3)
            res = canonical_tau(field).residue * _subfield_unit(field, rng)
        else:
            val = 2 * rng.randint(-1, 1) + 1
            res = _nonzero(field.residue_field(), rng)
    else:
        sym = SYM_FIXED
        if step == STEP_UNRAMIFIED:
            val = rng.randint(-2, 3)
            res = _subfield_unit(field, rng)
        else:
            val = 2 * rng.randint(-1, 1)
            res = _nonzero(field.residue_field(), rng)
    return LeadingTerm(field, val, res, sym)


def _gammas(field, step, rng: random.Random):
    levels = rng.randint(1, 2)
    if step == STEP_UNRAMIFIED:
        depths = sorted(rng.sample([1, 2, 3, 4], levels))
        return tuple(
            (Fraction(r), LeadingTerm(
                field, -r, canonical_tau(field).residue * _subfield_unit(field, rng), SYM_ANTI))
            for r in depths
        )
    depths = sorted(rng.sample([Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)], levels))
    return tuple(
        (r, LeadingTerm(field, -int(2 * r), _nonzero(field.residue_field(), rng), SYM_ANTI))
        for r in depths
    )


def depth_zero_datum(p: int, rng: random.Random, n_max: int = 4) -> TorusDatum:
    """Valid depth-zero symplectic datum (criterion 1 and 5 inputs)."""
    base = base_field(p)
    for _ in range(200):
        factors = []
        for m in _partition(rng.randint(1, n_max), _max_part(p), rng):
            field = factor_field(base, m, STEP_UNRAMIFIED)
            c = _c(field, STEP_UNRAMIFIED, rng, POLARITY_SYMPLECTIC)
            factors.append(Factor(m, STEP_UNRAMIFIED, c, rng.randrange(p**m + 1)))
        datum = TorusDatum(base, tuple(factors), POLARITY_SYMPLECTIC)
        if validate(datum).ok:
            return datum
    raise RuntimeError("could not draw a valid depth-zero datum")


def mixed_datum(p: int, rng: random.Random, n_max: int = 4) -> TorusDatum:
    """Valid symplectic datum mixing depth-zero, unramified and ramified
    positive-depth factors (criterion 2 inputs)."""
    base = base_field(p)
    for _ in range(200):
        factors = []
        for m in _partition(rng.randint(1, n_max), _max_part(p), rng):
            kind = rng.random()
            step = STEP_RAMIFIED if kind >= 0.7 else STEP_UNRAMIFIED
            field = factor_field(base, m, step)
            c = _c(field, step, rng, POLARITY_SYMPLECTIC)
            gammas = () if kind < 0.4 else _gammas(field, step, rng)
            chi0 = rng.randrange(p**m + 1 if step == STEP_UNRAMIFIED else 2)
            factors.append(Factor(m, step, c, chi0, gammas))
        datum = TorusDatum(base, tuple(factors), POLARITY_SYMPLECTIC)
        if validate(datum).ok:
            return datum
    raise RuntimeError("could not draw a valid mixed datum")


def orthogonal_datum(p: int, rng: random.Random, n_max: int = 4) -> TorusDatum:
    """Orthogonal datum, about half its factors on a ramified step
    (criterion 7 inputs)."""
    base = base_field(p)
    factors = []
    for m in _partition(rng.randint(1, n_max), _max_part(p), rng):
        step = rng.choice([STEP_UNRAMIFIED, STEP_RAMIFIED])
        field = factor_field(base, m, step)
        factors.append(Factor(m, step, _c(field, step, rng, POLARITY_ORTHOGONAL), 0))
    return TorusDatum(base, tuple(factors), POLARITY_ORTHOGONAL)


def _sigma_residue(field, base_f, rng: random.Random, anti: bool):
    k_fix = fq_make(field.base_p, base_f.base_f * field.m)
    emb = fq_embedding(k_fix, field.residue_field())
    x = emb.apply(_nonzero(k_fix, rng))
    return fq_sqrt(emb.apply(fq_canonical_nonsquare(k_fix))) * x if anti else x


def witness_datum(p: int, rng: random.Random, n_max: int = 3) -> TorusDatum:
    """Symplectic datum over E of a sigma-symmetric witness with trivial
    depth-zero restriction (criterion 6 inputs): odd m, ramified steps,
    sigma-fixed c, sigma-anti gammas, even chi0."""
    base_f = base_field(p)
    e_base = e_descriptor(base_f)
    parts, left = [], rng.randint(1, n_max)
    while left:
        m = rng.choice([x for x in (1, 3) if x <= left])
        parts.append(m)
        left -= m
    factors = []
    for m in parts:
        field = factor_field(e_base, m, STEP_RAMIFIED)
        val = 2 * rng.randint(-1, 1) + 1
        c = LeadingTerm(field, val, _sigma_residue(field, base_f, rng, False), SYM_ANTI, SYM_FIXED)
        depths = sorted(rng.sample([Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)],
                                   rng.randint(1, 2)))
        gammas = tuple(
            (r, LeadingTerm(field, -int(2 * r), _sigma_residue(field, base_f, rng, True),
                            SYM_ANTI, SYM_ANTI))
            for r in depths
        )
        factors.append(Factor(m, STEP_RAMIFIED, c, 2 * rng.randrange(0, 4), gammas))
    return TorusDatum(e_base, tuple(factors), POLARITY_SYMPLECTIC)


def rejected_doc(doc: dict, rng: random.Random) -> dict:
    """A schema-valid symplectic document that ``validate`` rejects: one
    factor's c carries the fixed flag, which contradicts the polarity."""
    bad = copy.deepcopy(doc)
    bad["factors"][rng.randrange(len(bad["factors"]))]["c"]["sym"] = "fixed"
    return bad


# cli-docs mix per 20 draws: 15 lift, 3 transport, 2 rejected by validate,
# spread so that every prefix of ten or more draws holds each kind
DOCS_PATTERN = tuple(
    "transport" if i in (4, 11, 17) else "reject" if i in (9, 19) else "lift" for i in range(20)
)


def cli_docs_corpus(seed: int, size: int):
    """[(kind, doc)] in a fixed order; p alternates between 5 and 7."""
    rng = random.Random(seed)
    out = []
    for i in range(size):
        kind = DOCS_PATTERN[i % len(DOCS_PATTERN)]
        p = 5 if i % 2 == 0 else 7
        if kind == "transport":
            out.append((kind, datum_to_json(witness_datum(p, rng, 3), base_is_e=True)))
        elif kind == "reject":
            out.append((kind, rejected_doc(datum_to_json(mixed_datum(p, rng, 4)), rng)))
        else:
            out.append((kind, datum_to_json(mixed_datum(p, rng, 4))))
    return out


def gram_corpus(seed: int, size: int):
    """[doc] of orthogonal data; p cycles through 3, 5, 7."""
    rng = random.Random(seed)
    return [datum_to_json(orthogonal_datum((3, 5, 7)[i % 3], rng, 4)) for i in range(size)]


def cold_docs(seed: int) -> dict:
    """Small documents for the fresh-process calls: a mixed datum, a
    depth-zero datum and a witness, all at p = 5."""
    rng = random.Random(seed)
    return {
        "mixed": datum_to_json(mixed_datum(5, rng, 2)),
        "depth_zero": datum_to_json(depth_zero_datum(5, rng, 2)),
        "witness": datum_to_json(witness_datum(5, rng, 1), base_is_e=True),
    }
