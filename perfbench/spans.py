"""Span tracer that wraps the program's layer boundaries from outside.

Each boundary function is replaced where its caller looks it up (a module
global of the calling module, a class attribute for operators, or the
``jsonschema`` name inside ``thetaparam.cli``), so ``src/`` is not touched.
Every call records one span ``(op, parent, name, start_ns, end_ns)``; spans
of one benchmark operation share ``op``.  Spans stay in memory until the
run ends; self times are derived from them afterwards.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import Counter, defaultdict

# (module where the caller looks the name up, attribute, span name).  Span
# names start with the layer (module) that does the work.
BOUNDARIES = [
    ("thetaparam.cli", "main", "cli.main"),
    ("thetaparam.cli", "load_document", "cli.load_document"),
    ("thetaparam.cli", "parse_datum", "cli.parse"),
    ("thetaparam.cli", "_emit", "cli.emit"),
    ("thetaparam.cli", "seeded_choices", "cli.seeded_choices"),
    ("thetaparam.cli", "lift", "theta.lift"),
    ("thetaparam.cli", "parity_predict", "theta.parity_predict"),
    ("thetaparam.cli", "distinguished_check", "theta.distinguished_check"),
    ("thetaparam.cli", "distinction_transport", "theta.transport"),
    ("thetaparam.theta", "lift", "theta.lift"),
    ("thetaparam.theta", "lift_depth_zero", "theta.lift_depth_zero"),
    ("thetaparam.theta", "lift_positive_block", "theta.lift_positive_block"),
    ("thetaparam.cli", "validate", "torusdata.validate"),
    ("thetaparam.theta", "validate", "torusdata.validate"),
    ("thetaparam.cli", "block_decompose", "torusdata.block_decompose"),
    ("thetaparam.theta", "block_decompose", "torusdata.block_decompose"),
    ("thetaparam.cli", "datum_equivalent", "torusdata.datum_equivalent"),
    ("thetaparam.theta", "datum_equivalent", "torusdata.datum_equivalent"),
    ("thetaparam.torusdata", "weyl_orbit", "torusdata.weyl_orbit"),
    ("thetaparam.theta", "invariants_of_orthogonal_datum", "quadform.transfer"),
    ("thetaparam.quadform", "invariants_of_orthogonal_datum", "quadform.transfer"),
    ("thetaparam.quadform", "invariants_via_gram", "quadform.gram"),
    ("thetaparam.quadform", "_gram_matrix", "quadform.gram_matrix"),
    ("thetaparam.quadform", "_diagonalize_symmetric", "quadform.diagonalize"),
    ("thetaparam.quadform", "flag_consistent", "localfield.flag_consistent"),
    ("thetaparam.torusdata", "flag_consistent", "localfield.flag_consistent"),
    ("thetaparam.quadform", "tr_mul", "localfield.tr_mul"),
    ("thetaparam.localfield", "tr_mul", "localfield.tr_mul"),
    ("thetaparam.finitefield", "fq_is_square", "finitefield.is_square"),
    ("thetaparam.localfield", "fq_is_square", "finitefield.is_square"),
    ("thetaparam.quadform", "fq_is_square", "finitefield.is_square"),
    ("thetaparam.cli", "verify_finite_theta", "finitetheta.verify_finite_theta"),
    ("thetaparam.cli", "validate_weyl_form_rank1", "finitetheta.weyl_rank1"),
    ("thetaparam.finitetheta", "validate_weyl_form_rank2", "finitetheta.weyl_rank2"),
    ("thetaparam.finitetheta", "build_weil_rep", "finitetheta.build_weil_rep"),
    ("thetaparam.finitetheta", "theta_multiplicity", "finitetheta.multiplicity"),
    ("thetaparam.finitetheta", "_mulclose", "finitetheta.closure"),
    ("thetaparam.finitetheta", "torus_normalizer_order", "finitetheta.normalizer"),
    ("thetaparam.finitetheta", "normalizer_exponent_actions", "finitetheta.normalizer"),
]

# operators and methods: patched on the class, which is where Python looks
# them up for every caller
METHOD_BOUNDARIES = [
    ("thetaparam.finitefield", "FqElement", "__pow__", "finitefield.pow"),
    ("thetaparam.finitefield", "FqElement", "inverse", "finitefield.inverse"),
]

# lru_cache'd functions whose cache_info() the traced run reports
CACHES = [
    ("thetaparam.finitefield", "fq_make"),
    ("thetaparam.finitefield", "fq_embedding"),
    ("thetaparam.finitefield", "fq_multiplicative_generator"),
    ("thetaparam.finitefield", "fq_canonical_nonsquare"),
    ("thetaparam.localfield", "canonical_tau"),
    ("thetaparam.finitetheta", "dual_pair"),
]

# results that are counted at the boundary that returns them
RESULT_COUNTS = {
    "torusdata.weyl_orbit": "torusdata.orbit_states",
    "finitetheta.closure": "finitetheta.group_elements",
}


def cache_snapshot() -> dict:
    out = {}
    for mod, name in CACHES:
        info = getattr(importlib.import_module(mod), name).cache_info()
        out[name] = (info.hits, info.misses)
    return out


def cache_delta(before: dict, after: dict) -> dict:
    return {
        k: {"hits": after[k][0] - before[k][0], "misses": after[k][1] - before[k][1]}
        for k in after
    }


class Tracer:
    """Holds spans and counts; ``install`` patches the boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        result_count = RESULT_COUNTS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as ex:
                counts[f"{name}.raised.{type(ex).__name__}"] += 1
                raise
            finally:
                spans[sid] = (self.op, parent, name, t0, clock())
                stack.pop()
            if result_count:
                counts[result_count] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod, attr, name in BOUNDARIES:
            module = importlib.import_module(mod)
            setattr(module, attr, self._wrap(name, getattr(module, attr)))
        for mod, cls_name, attr, name in METHOD_BOUNDARIES:
            cls = getattr(importlib.import_module(mod), cls_name)
            setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
        import jsonschema

        cli = importlib.import_module("thetaparam.cli")
        cli.jsonschema = types.SimpleNamespace(
            validate=self._wrap("cli.schema", jsonschema.validate),
            ValidationError=jsonschema.ValidationError,
        )

    def begin_op(self, op: int):
        self.op = op

    def dump(self, path: str, extra: dict):
        """Write spans, counts and ``extra`` as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, fh)


def summarize(spans) -> dict:
    """Per span name: calls, inclusive ns and self ns (inclusive minus the
    time covered by direct children)."""
    child_ns = defaultdict(int)
    for op, parent, name, t0, t1 in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0})
    for sid, (op, parent, name, t0, t1) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["incl_ns"] += t1 - t0
        row["self_ns"] += t1 - t0 - child_ns[sid]
    return dict(out)

