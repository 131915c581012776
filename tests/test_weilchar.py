"""The class-sum route of thetaparam.weilchar against the dense Schroedinger
model of thetaparam.finitetheta, and the finite oracle against the
production lift."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thetaparam import weilchar
from thetaparam.cli import parse_datum
from thetaparam.errors import DomainError
from thetaparam.finitetheta import (
    ClassFunction,
    _order,
    _reduction,
    build_weil_rep,
    dl_regular_character,
    dual_pair,
    normalizer_exponent_actions,
    o2_irreducibles,
    theta_multiplicity,
)
from thetaparam.oracle import conjugacy_classes, sl2_character_table
from thetaparam.theta import lift
from thetaparam.weilchar import NonIntegralMultiplicity

ROOT = Path(__file__).resolve().parents[1]


def _tuples(group):
    return [tuple(g) for g in group.elements.reshape(-1, 4).tolist()]


def _number(array) -> tuple:
    """A canonical coefficient array as a weilchar number."""
    return tuple((e, int(c)) for e, c in enumerate(array.tolist()) if c)


def _on_classes(chi: ClassFunction, q: int):
    """A ClassFunction of SL2(q) as weilchar values on its class representatives."""
    sl2 = chi.group
    reps = sl2.index(np.reshape([g for g, _ in weilchar.sl2_classes(q)], (-1, 2, 2)))
    return chi.label, tuple(_number(chi.values[i]) for i in reps)


def _on_elements(chi: ClassFunction):
    return chi.label, tuple(_number(v) for v in chi.values)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("variant", ["+", "-"])
def test_formula_traces_equal_the_dense_traces_on_every_pair(q, variant):
    """Entry for entry, so the formula's value on a class representative
    is its value on the whole class: the trace is a class function."""
    rep = build_weil_rep(q, variant)
    space = weilchar.binary_space(q, variant)
    sl2, o2 = _tuples(rep.pair.sl2), _tuples(rep.pair.o2)
    assert (tuple(sl2), tuple(o2)) == weilchar.groups(q, variant)[:2]
    traces = [[weilchar.weil_trace(space, g, h) for h in o2] for g in sl2]
    assert traces == [[tuple(t) for t in row] for row in rep.traces.tolist()]


@pytest.mark.parametrize("q", [3, 5])
def test_classes_are_the_conjugacy_classes(q):
    sl2 = dual_pair(q, "-").sl2
    elements = _tuples(sl2)
    by_key = {}
    for g in elements:
        by_key.setdefault(weilchar.class_key(g, q), []).append(g)
    expected = {tuple(elements[i] for i in cl) for cl in conjugacy_classes(sl2)}
    assert {tuple(cl) for cl in by_key.values()} == expected
    assert tuple((cl[0], len(cl)) for cl in by_key.values()) == weilchar.sl2_classes(q)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("variant", ["+", "-"])
def test_class_sum_multiplicity_equals_the_dense_multiplicity(q, variant):
    """Every irreducible pi of SL2(q) against every irreducible rho of O(V)."""
    rep = build_weil_rep(q, variant)
    for pi in sl2_character_table(q):
        for rho in o2_irreducibles(rep.pair):
            m = weilchar.multiplicity(q, variant, _on_classes(pi, q), _on_elements(rho))
            assert m == theta_multiplicity(rep, pi, rho), (pi.label, rho.label)


@pytest.mark.parametrize("q", [3, 5])
def test_non_characters_are_non_integral_on_both_routes(q):
    """zeta_N pi, and pi's value at the identity alone (0 elsewhere), for a
    pi of multiplicity one with ind[1]: the second sum is q |O| m / |SL2|
    for the multiplicity 0 < m < q^2 of ind[1] in omega restricted to O(V)."""
    rep = build_weil_rep(q, "-")
    pi = dl_regular_character(q, "nonsplit", 1)
    rho = next(r for r in o2_irreducibles(rep.pair) if r.label == "ind[1]")
    at_one = np.zeros_like(pi.values)
    at_one[pi.group.identity] = pi.values[pi.group.identity]
    fakes = [np.roll(pi.values, 1, axis=1) @ _reduction(_order(q)), at_one]
    assert weilchar.multiplicity(q, "-", _on_classes(pi, q), _on_elements(rho)) == 1
    for values in fakes:
        fake = ClassFunction(pi.group, values, "fake")
        with pytest.raises(NonIntegralMultiplicity):
            theta_multiplicity(rep, fake, rho)
        with pytest.raises(NonIntegralMultiplicity):
            weilchar.multiplicity(q, "-", _on_classes(fake, q), _on_elements(rho))


@pytest.mark.parametrize("q", [3, 5])
def test_weyl_form_rank1_matches_the_numpy_normalizer(q):
    pair = dual_pair(q, "-")
    torus = pair.o2.elements[pair.rotations]
    out = weilchar.validate_weyl_form_rank1(q)
    for name, group in (("sl2", pair.sl2), ("o2", pair.o2)):
        actions = normalizer_exponent_actions(group.elements, torus, q)
        assert out[name]["actions"] == sorted(actions)
        assert out[name]["weyl_order"] == sum(actions.values()) // len(torus)


def _python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_finite_verify_leaves_numpy_and_finitetheta_unloaded():
    code = (
        "import contextlib, io, sys\n"
        "from thetaparam import cli\n"
        "for q in sys.argv[1:] or ['3', '5']:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['finite-verify', '--q', q]) == 0\n"
        "print([m for m in ('numpy', 'thetaparam.finitetheta') if m in sys.modules])"
    )
    assert _python(code).strip() == "[]"


def test_rank2_check_leaves_numpy_ma_unloaded():
    code = (
        "import sys\n"
        "from thetaparam.finitetheta import validate_weyl_form_rank2\n"
        "assert validate_weyl_form_rank2(3)['ok']\n"
        "print('numpy.ma' in sys.modules)"
    )
    assert _python(code).strip() == "False"


@pytest.mark.parametrize("p", [3, 5])
def test_depth_zero_lift_matches_the_finite_oracle(p):
    """Every rank-one depth-zero symplectic datum over Q_p with m = 1, an
    unramified step, val in [-3, 3], every residue and every chi0: a valid
    one lifts to the anisotropic plane quasi_split_unramified with chi0 ->
    -chi0 mod p + 1, and the oracle gives the discrete series of chi0
    multiplicity one exactly with that exponent's ind on the '-' pair and
    zero on the '+' pair; a non-regular chi0 is rejected."""
    n, regular = p + 1, weilchar.sl2_regular_exponents(p)
    lifted, valid = {}, 0
    for val in range(-3, 4):
        for a in range(p):
            for b in range(p):
                for chi0 in range(n):
                    doc = {"base": {"p": p, "f": 1}, "polarity": "symplectic", "factors": [
                        {"m": 1, "step": "unramified", "chi0": chi0,
                         "c": {"val": val, "residue_coeffs": [a, b], "sym": "anti"}}]}
                    try:
                        res = lift(parse_datum(doc)[0])
                    except DomainError:
                        continue
                    valid += 1
                    assert chi0 in regular
                    assert res.so.label == "quasi_split_unramified"
                    assert res.lifted.factors[0].chi0 == (-chi0) % n
                    lifted.setdefault(chi0, set()).add(res.lifted.factors[0].chi0)
    assert sorted(lifted) == regular
    assert valid == 7 * (p - 1) * len(regular)  # the p - 1 nonzero residues of trace zero
    for chi0, (target,) in lifted.items():
        pi = weilchar.dl_character(p, "nonsplit", chi0)
        match = weilchar.o2_induced(p, "-", target)
        for rho in weilchar.o2_irreducibles(p, "-"):
            expected = 1 if weilchar.same_values(rho, match, p) else 0
            assert weilchar.multiplicity(p, "-", pi, rho) == expected, (chi0, rho[0])
        for rho in weilchar.o2_irreducibles(p, "+"):
            assert weilchar.multiplicity(p, "+", pi, rho) == 0, (chi0, rho[0])
