"""Property test: every schema-valid document gets one JSON report and an
exit code from the CLI, never a traceback or an unbounded run."""

import json
import tempfile
import time
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetaparam.cli import main
from thetaparam.finitefield import SIZE_BOUND

SUBCOMMANDS = ("validate", "lift", "predict", "blocks", "distinguish", "transport")
R_VALUES = ("0", "1", "2", "1/2", "3/2", "5/3", "1/0")
SYMS = st.sampled_from(["fixed", "anti", "none"])
SECONDS_PER_CALL = 10.0


@st.composite
def documents(draw):
    p, f = draw(st.sampled_from([3, 5, 7, 9, 11])), draw(st.integers(1, 2))
    polarity, distinction = draw(st.sampled_from(["symplectic", "orthogonal"])), draw(st.booleans())
    # a quarter of the documents may carry residue coefficients outside 0..p-1,
    # zero residues, surplus entries and flags against the polarity; the rest
    # stay in range and flag c as the polarity asks
    wild = draw(st.integers(0, 3)) == 0
    c_sym = SYMS if wild else st.just("anti" if polarity == "symplectic" else "fixed")
    coeff = st.integers(-1, p + 2) if wild else st.integers(0, p - 1)

    def residue(degree):
        coeffs = draw(st.lists(coeff, min_size=1, max_size=degree + wild))
        return coeffs if wild or any(coeffs) else [1] + coeffs[1:]

    def with_sigma(term):
        if draw(st.booleans()):
            term["sigma_sym"] = draw(SYMS)
        return term

    factors = []
    for _ in range(draw(st.integers(1, 3))):
        m, step = draw(st.integers(1, 3)), draw(st.sampled_from(["unramified", "ramified"]))
        degree = f * (1 + distinction) * m * (2 if step == "unramified" else 1)
        c = {"val": draw(st.integers(-3, 3)), "residue_coeffs": residue(degree), "sym": draw(c_sym)}
        factor = {"m": m, "step": step, "c": with_sigma(c)}
        if draw(st.booleans()):
            factor["chi0"] = draw(st.integers(-2, 12))
        gammas = [
            with_sigma({"r": draw(st.sampled_from(R_VALUES)), "residue_coeffs": residue(degree)})
            for _ in range(draw(st.integers(0, 2)))
        ]
        if gammas:
            factor["gamma"] = gammas
        factors.append(factor)
    doc = {"base": {"p": p, "f": f}, "polarity": polarity, "factors": factors}
    if distinction:
        structures = []
        for _ in range(draw(st.integers(0, len(factors) + wild))):
            entry = {}
            if draw(st.booleans()):
                entry["sigma_c"] = draw(SYMS)
            if draw(st.booleans()):
                entry["sigma_gamma"] = draw(st.lists(SYMS, max_size=3))
            structures.append(entry)
        doc["distinction"] = {"E": "unramified", "F_structure": structures}
    return doc


def _reinterpreted(doc) -> bool:
    """Whether reading the document would reduce a residue coefficient mod p
    or drop sigma_gamma entries that have no gamma level."""
    p = doc["base"]["p"]
    terms = [f["c"] for f in doc["factors"]] + [g for f in doc["factors"] for g in f.get("gamma", [])]
    if any(not 0 <= c < p for lt in terms for c in lt["residue_coeffs"]):
        return True
    structures = doc.get("distinction", {}).get("F_structure", [])
    return any(len(s.get("sigma_gamma", [])) > len(f.get("gamma", []))
               for s, f in zip(structures, doc["factors"]))


def _over_size_bound(doc) -> bool:
    """Whether a residue field of the document has more than SIZE_BOUND
    elements; p^20 > SIZE_BOUND already, so the power stays small."""
    p, f = doc["base"]["p"], doc["base"]["f"] * (1 + ("distinction" in doc))
    degrees = [f * x["m"] * (2 if x["step"] == "unramified" else 1) for x in doc["factors"]]
    return any(p ** min(d, 20) > SIZE_BOUND for d in degrees)


# the README examples, which every subcommand that applies accepts, and
# each with the two reinterpretations that parsing rejects
DEPTH_ZERO = {
    "base": {"p": 5, "f": 1},
    "polarity": "symplectic",
    "factors": [{"m": 1, "step": "unramified",
                 "c": {"val": 0, "residue_coeffs": [0, 2], "sym": "anti"}, "chi0": 1}],
}
WITNESS = {
    "base": {"p": 5, "f": 1},
    "polarity": "symplectic",
    "factors": [{"m": 1, "step": "ramified",
                 "c": {"val": 1, "residue_coeffs": [3, 0], "sym": "anti"},
                 "chi0": 2, "gamma": [{"r": "1/2", "residue_coeffs": [0, 2]}]}],
    "distinction": {"E": "unramified", "F_structure": [{"sigma_c": "fixed", "sigma_gamma": ["anti"]}]},
}


def _edited(doc, path, value):
    out = json.loads(json.dumps(doc))
    *keys, last = path
    target = out
    for key in keys:
        target = target[key]
    target[last] = value
    return out


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@example(DEPTH_ZERO)
@example(WITNESS)
@example(_edited(DEPTH_ZERO, ["factors", 0, "c", "residue_coeffs"], [5, 7]))
@example(_edited(DEPTH_ZERO, ["factors", 0, "c", "residue_coeffs"], [0, -3]))
@example(_edited(WITNESS, ["distinction", "F_structure", 0, "sigma_gamma"], ["anti", "fixed", "none"]))
# fields far over SIZE_BOUND: rejected before any primality test or big power
@example(_edited(DEPTH_ZERO, ["base", "p"], 2305843009213693951))  # a prime
@example(_edited(DEPTH_ZERO, ["base", "f"], 100000000))
@example(_edited(DEPTH_ZERO, ["factors", 0, "m"], 100000000))
@given(documents())
def test_every_schema_valid_document_gets_a_report(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "d.json", Path(tmp) / "r.json"
        path.write_text(json.dumps(doc))
        for command in SUBCOMMANDS:
            start = time.perf_counter()
            code = main(["--out", str(out), command, str(path)])
            elapsed = time.perf_counter() - start
            report = json.loads(out.read_text())
            assert code in (0, 1, 2) and report["tool"] == "thetaparam", (command, report)
            assert elapsed < SECONDS_PER_CALL, (command, elapsed)
            if _reinterpreted(doc) or _over_size_bound(doc):
                assert code == 1 and "error" in report, (command, report)
