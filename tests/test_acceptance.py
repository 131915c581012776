"""Acceptance criteria, one test per criterion, each printing a PASS line
with its runtime.  Tolerances: none; the arithmetic is exact everywhere,
and a finite multiplicity sum must be exactly a non-negative integer
(enforced inside weilchar.multiplicity and finitetheta.theta_multiplicity,
neither of which rounds).

Run with:  pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
import time

from thetaparam.cli import seeded_choices
from thetaparam.finitefield import fq_make
from thetaparam.localfield import LeadingTerm, base_field
from thetaparam.oracle import brute_force_hilbert
from thetaparam.quadform import hilbert_class, invariants_of_orthogonal_datum, invariants_via_gram
from thetaparam.localfield import SQ_ONE, SQ_PI, SQ_U, SQ_UPI, lt_neg
from thetaparam.finitefield import fq_canonical_nonsquare
from thetaparam.theta import (
    distinction_transport,
    distinguished_check,
    extend_to_e,
    lift,
    lift_depth_zero,
    parity_predict,
)
from thetaparam.torusdata import datum_equivalent, validate
from thetaparam.weilchar import sl2_regular_exponents, verify_finite_theta

import gen
from gen import hilbert_symbol, leading_term


def _report(name, t0, budget):
    dt = time.time() - t0
    print(f"PASS {name}: {dt:.1f}s (budget {budget}s)")
    assert dt < budget, f"{name} exceeded its runtime budget: {dt:.1f}s"


def test_criterion_1_remark_table_reproduction():
    """>= 500 random depth-zero symplectic data (p in {5,7}, n <= 4):
    computed invariants of the lift equal the parity prediction exactly."""
    t0 = time.time()
    rng = random.Random(101)
    for i in range(500):
        p = 5 if i % 2 == 0 else 7
        d = gen.random_depth_zero_datum(p, rng, 4)
        res = lift_depth_zero(d)
        predicted, so = parity_predict(d)
        computed = invariants_of_orthogonal_datum(res.lifted)
        assert computed == predicted, (d, computed, predicted)
        assert computed.disc == predicted.disc and computed.hasse == predicted.hasse
    _report("criterion 1 (parity table, 500 depth-zero data)", t0, 60)


def test_criterion_2_equal_rank_dimension_law():
    """>= 500 random valid symplectic data including mixed blocks: the
    lifted quadratic space has dimension exactly 2n."""
    t0 = time.time()
    rng = random.Random(202)
    for i in range(500):
        p = 5 if i % 2 == 0 else 7
        d = gen.random_mixed_datum(p, rng, 4)
        res = lift(d)
        assert res.target_invariants.dim == 2 * d.n
    _report("criterion 2 (dimension law, 500 mixed data)", t0, 60)


def test_criterion_3_finite_theta_verification():
    """q in {3, 5}: every regular nonsplit-torus character of SL2(q) has
    multiplicity exactly 1 with the single predicted irreducible of the
    anisotropic pair (and that irreducible is the induced character of
    exponent +-mu), 0 with everything else there and with every
    irreducible of the split pair; every multiplicity an exact integer."""
    t0 = time.time()
    for q in (3, 5):
        report = verify_finite_theta(q)
        assert report["ok"]
        assert [e["exponent"] for e in report["characters"]] == sl2_regular_exponents(q)
        for entry in report["characters"]:
            assert entry["matched"]
            assert entry["inverse_pair_identical"]
            assert all(type(x["multiplicity"]) is int for x in entry["plus"] + entry["minus"])
            assert all(x["multiplicity"] == 0 for x in entry["plus"])
            assert sum(x["multiplicity"] for x in entry["minus"]) == 1
    _report("criterion 3 (finite theta, q = 3 and 5)", t0, 300)


def test_criterion_4_hilbert_symbol_suite():
    """Exhaustive 4x4 square-class table for p in {3,5,7}: symmetry,
    bimultiplicativity, (a,-a) = 1, nondegeneracy; plus agreement with
    brute-force solubility of a x^2 + b y^2 = z^2 on 100 random pairs."""
    t0 = time.time()
    for p in (3, 5, 7):
        base = base_field(p)
        u = fq_canonical_nonsquare(fq_make(p, 1)).coeffs[0]
        reps = {
            SQ_ONE: leading_term(base, 0, [1]),
            SQ_U: leading_term(base, 0, [u]),
            SQ_PI: leading_term(base, 1, [1]),
            SQ_UPI: leading_term(base, 1, [u]),
        }
        classes = list(reps)
        for a, b in itertools.product(classes, repeat=2):
            assert hilbert_class(a, b, p) == hilbert_class(b, a, p)
            for c in classes:
                assert hilbert_class(a * c, b, p) == hilbert_class(a, b, p) * hilbert_class(c, b, p)
        for x in reps.values():
            assert hilbert_symbol(x, lt_neg(x)) == 1
        for a in classes:
            if a != SQ_ONE:
                assert any(hilbert_class(a, b, p) == -1 for b in classes)
    rng = random.Random(404)
    for _ in range(100):
        p = rng.choice([3, 5, 7])
        base = base_field(p)
        k = fq_make(p, 1)
        a = LeadingTerm(base, rng.randint(0, 3), k.element([rng.randint(1, p - 1)]))
        b = LeadingTerm(base, rng.randint(0, 3), k.element([rng.randint(1, p - 1)]))
        assert hilbert_symbol(a, b) == brute_force_hilbert(a, b)
    _report("criterion 4 (Hilbert symbol suite)", t0, 30)


def test_criterion_5_choice_independence():
    """100 random data, 5 alternative (tau, pi) seeds each: all lifts are
    pairwise equivalent and have identical invariants."""
    t0 = time.time()
    rng = random.Random(505)
    for i in range(100):
        p = 5 if i % 2 == 0 else 7
        d = gen.random_depth_zero_datum(p, rng, 3)
        lifts = [lift(d)]
        for seed in range(5):
            uni, taus = seeded_choices(d, 1000 * i + seed)
            lifts.append(lift(d, uni, taus))
        base_inv = lifts[0].target_invariants
        for a, b in itertools.combinations(range(6), 2):
            assert lifts[a].target_invariants == base_inv
            assert datum_equivalent(lifts[a].lifted, lifts[b].lifted)
    _report("criterion 5 (choice independence, 100 data x 5 seeds)", t0, 60)


def test_criterion_6_distinction_transport():
    """100 random sigma-symmetric witnesses with trivial depth-zero
    restriction (E/F unramified, p in {5,7}, n <= 3): distinguished;
    transport asserts sigma(c_theta) = -c_theta, emits a sigma-fixed
    iota-twisted F-structure, and scalar re-extension is equivalent to the
    twisted lift over E."""
    t0 = time.time()
    rng = random.Random(606)
    for i in range(100):
        p = 5 if i % 2 == 0 else 7
        w = gen.random_witness(p, rng, 3)
        verdict = distinguished_check(w)
        assert verdict.distinguished
        out = distinction_transport(w)
        assert out.checks["sigma_anti_c_theta"]
        assert all(f.c.sym == "fixed" for f in out.f_datum.factors)
        assert validate(out.f_datum).ok
        assert out.checks["re_extension_equivalent"]
        re_ext = extend_to_e(out.f_datum, w.base_f_field)
        assert datum_equivalent(re_ext, out.twisted_datum_e)
        assert out.invariants_f.dim == 2 * w.datum_over_e.n
    _report("criterion 6 (distinction transport, 100 witnesses)", t0, 60)


def test_criterion_7_oracle_equivalence():
    """>= 500 random orthogonal data including ramified steps: the
    transfer-formula and Gram-oracle invariant routes agree exactly."""
    t0 = time.time()
    rng = random.Random(707)
    ram_seen = 0
    for i in range(500):
        p = (3, 5, 7)[i % 3]
        d = gen.random_orthogonal_datum(p, rng, 4)
        ram_seen += any(f.step == "ramified" for f in d.factors)
        assert invariants_of_orthogonal_datum(d) == invariants_via_gram(d)
    assert ram_seen > 100
    _report("criterion 7 (oracle equivalence, 500 orthogonal data)", t0, 120)
