"""Benchmark worker: set-up, measurement, microbenchmarks and jobs.

``run.py`` starts one worker process per step, so that caches and peak RSS
do not leak between workloads or between set-up and measurement:

    worker.py setup   <workload> <seed> <dir> [--smoke]
    worker.py measure <workload> <seconds> <dir> [--trace] [--probe] [--corrupt]
    worker.py micro   [--smoke]
    worker.py job     cli|rank2 [--trace-out <path>] [-- <cli argv>]

``setup``, ``measure`` and ``micro`` print one JSON object on the last line
of stdout.  ``job`` is one fresh-process call of the program, optionally
traced; it writes the program's report to stdout.

Every workload is a closed loop with one client: the next operation starts
when the previous one ends.  Each operation's output is checked; a check
that fails, a wrong exit code or a traceback counts the operation as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}

# corpus sizes: (full, --smoke)
DOCS_SIZE = (120, 10)
GRAM_SIZE = (1200, 9)
# a traced probe of a workload that is not the one under test: op count
PROBE_OPS = {"cli-docs": 40, "gram-oracle": 60}
# criterion 7 asks for more than 100 ramified data in 500
RAMIFIED_FLOOR = 0.2

DOCS_SUB = {"lift": "lift", "transport": "transport", "reject": "validate"}
DOCS_CODE = {"lift": 0, "transport": 0, "reject": 1}

COLD_CALLS = [
    ("validate", ["validate", "{mixed}"]),
    ("lift", ["lift", "{mixed}"]),
    ("lift_tau_seed", ["lift", "--tau-seed", "7", "{depth_zero}"]),
    ("predict", ["predict", "{depth_zero}"]),
    ("equiv", ["equiv", "{depth_zero}", "{depth_zero}"]),
    ("blocks", ["blocks", "{mixed}"]),
    ("distinguish", ["distinguish", "{witness}"]),
    ("transport", ["transport", "{witness}"]),
    ("finite_verify_q3", ["finite-verify", "--q", "3"]),
]

# the short jobs run three times per set, so that the latency median of a
# set does not rest on one sample of one job
FINITE_JOBS = [
    ("finite_verify_q3", ["cli", "finite-verify", "--q", "3"]),
    ("finite_verify_q5", ["cli", "finite-verify", "--q", "5"]),
] * 3 + [("weyl_rank2_q3", ["rank2"])]
SP4_Q3_ORDER = 51840

clock = time.perf_counter_ns


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli_inprocess(argv) -> tuple[int, bytes]:
    from thetaparam import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


def fresh_cmd(job: list, trace_out: str | None = None) -> list:
    """Command line of one fresh-process job; untraced CLI calls run the
    program's own entry point, everything else goes through ``job``."""
    kind, *argv = job
    if kind == "cli" and trace_out is None:
        return [PY, "-m", "thetaparam.cli", *argv]
    cmd = [PY, str(HERE / "worker.py"), "job", kind]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    return cmd + ["--", *argv]


def run_fresh(cmd, timeout=150) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, timeout=timeout)


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, d: Path, smoke: bool) -> dict:
    """Compile bytecode, generate and write the corpus, and compute in-process
    the references that the checks compare against."""
    import compileall

    compileall.compile_dir(str(SRC / "thetaparam"), force=True, quiet=1)
    import corpus

    d.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()

    def write(name, doc):
        raw = json.dumps(doc, sort_keys=True).encode()
        digest.update(raw)
        path = d / name
        path.write_bytes(raw)
        return str(path)

    if workload == "cli-docs":
        plan = []
        for i, (kind, doc) in enumerate(corpus.cli_docs_corpus(seed, DOCS_SIZE[smoke])):
            argv = [DOCS_SUB[kind], write(f"doc{i:04d}.json", doc)]
            plan.append({"kind": kind, "argv": argv, "n": sum(f["m"] for f in doc["factors"])})
    elif workload == "gram-oracle":
        from thetaparam import quadform
        from thetaparam.cli import parse_datum

        plan = []
        for i, doc in enumerate(corpus.gram_corpus(seed, GRAM_SIZE[smoke])):
            datum, _ = parse_datum(doc)
            expected = quadform.invariants_of_orthogonal_datum(datum).as_dict()
            ramified = any(f["step"] == "ramified" for f in doc["factors"])
            plan.append({"path": write(f"doc{i:04d}.json", doc), "expected": expected,
                         "ramified": ramified})
    elif workload == "cli-cold":
        paths = {k: write(f"{k}.json", doc) for k, doc in corpus.cold_docs(seed).items()}
        plan = []
        for name, template in COLD_CALLS:
            argv = [a.format(**paths) for a in template]
            code, report = run_cli_inprocess(argv)
            plan.append({"name": name, "argv": argv, "code": code, "report": report.decode()})
    elif workload == "finite-oracle":
        import thetaparam.finitetheta  # noqa: F401  (warm the numpy import)

        plan = [{"name": name, "job": job} for name, job in FINITE_JOBS[:1 if smoke else None]]
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    (d / "plan.json").write_text(json.dumps(plan))
    return {"corpus_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# measurement


class Loop:
    """Closed loop over a fixed list of operations with per-op checks.

    ``run_op(k)`` performs operation k and returns ``(status, report)``:
    the exit status and the report bytes.  ``check(k, status, report)``
    raises or returns False when either is wrong.  ``corrupt`` truncates the
    first report before its check, to show that the check path counts it.
    """

    def __init__(self, n_items, run_op, check, corrupt=False):
        self.n_items, self.run_op, self.check = n_items, run_op, check
        self.corrupt = corrupt
        self.item_ns = [[] for _ in range(n_items)]
        self.pass_ns, self.errors = [], []
        self.failed = 0
        self.first_pass = []

    def run(self, seconds, max_ops=None, whole_passes=False, tracer=None):
        """Run for ``seconds`` (or ``max_ops`` operations)."""
        start = pass_start = clock()
        deadline = start + int(seconds * 1e9)
        i = 0
        while True:
            k = i % self.n_items
            if tracer is not None:
                tracer.begin_op(i)
            t0 = clock()
            try:
                status, report = self.run_op(k)
            except Exception as ex:  # a traceback is a failed operation
                report = repr(ex).encode()
                self._fail(k, f"raised {ex!r}")
            else:
                self.item_ns[k].append(clock() - t0)
                if self.corrupt and i == 0:
                    report = report[: len(report) // 2]
                try:
                    ok = self.check(k, status, report)
                except Exception as ex:
                    ok, why = False, f"check raised {ex!r}"
                else:
                    why = "check failed"
                if not ok:
                    self._fail(k, why)
            if i < self.n_items:
                self.first_pass.append(report)
            i += 1
            now = clock()
            if i % self.n_items == 0:
                self.pass_ns.append(now - pass_start)
                pass_start = now
            if max_ops is not None:
                if i >= max_ops:
                    break
            elif whole_passes:
                # stop at a pass boundary once another pass would overrun
                if i % self.n_items == 0 and now + self.pass_ns[-1] > deadline:
                    break
            elif now >= deadline:
                break
        self.elapsed_ns = clock() - start
        self.ops = i

    def _fail(self, k, why):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {k}: {why}")

    def summary(self) -> dict:
        return {
            "ops": self.ops,
            "failed": self.failed,
            "errors": self.errors,
            "elapsed_s": self.elapsed_ns / 1e9,
            "item_ms": [[x / 1e6 for x in xs] for xs in self.item_ns],
            "pass_s": [x / 1e9 for x in self.pass_ns],
            "items": self.n_items,
            "report_sha256": sha256(b"".join(self.first_pass)),
        }


def measure(workload, seconds, d: Path, traced, probe, corrupt) -> dict:
    plan = json.loads((d / "plan.json").read_text())
    tracer = spans.Tracer() if traced else None
    return MEASURES[workload](plan, seconds, d, tracer, probe, corrupt)


def _in_process(loop, seconds, d, tracer, probe_ops, warm_ops):
    """Warm up, then run the loop; with a tracer, install it after warm-up,
    take cache deltas around the loop and write the spans to ``d``."""
    for k in range(min(warm_ops, loop.n_items)):
        try:
            loop.run_op(k)
        except Exception:
            pass  # the measured loop runs it again and counts the failure
    if tracer is not None:
        tracer.install()
        before = spans.cache_snapshot()
    loop.run(seconds, max_ops=probe_ops, tracer=tracer)
    out = loop.summary()
    if tracer is not None:
        out["caches"] = spans.cache_delta(before, spans.cache_snapshot())
        tracer.dump(str(d / "trace.json"), {"caches": out["caches"]})
        out["spans"] = {"all": spans.summarize(tracer.spans)}
        out["counts"] = {"all": dict(tracer.counts)}
    out["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
    return out


def measure_cli_docs(plan, seconds, d, tracer, probe, corrupt):
    from thetaparam import cli  # noqa: F401  (import outside the timed loop)

    def run_op(k):
        return run_cli_inprocess(plan[k]["argv"])

    first_sha = {}

    def check(k, code, report):
        entry = plan[k]
        digest = sha256(report)
        # every later run of a document must repeat its first good report
        if code != DOCS_CODE[entry["kind"]] or first_sha.get(k, digest) != digest:
            return False
        res = json.loads(report)["result"]
        if entry["kind"] == "lift":
            ok = (res["invariants"]["dim"] == 2 * entry["n"]
                  and res["invariants"] == res["predicted_invariants"])
        elif entry["kind"] == "transport":
            ok = (all(res["checks"].values())
                  and res["invariants_over_F"]["dim"] == 2 * entry["n"])
        else:
            ok = res["ok"] is False and bool(res["violations"])
        if ok:
            first_sha[k] = digest
        return ok

    loop = Loop(len(plan), run_op, check, corrupt)
    return _in_process(loop, seconds, d, tracer, PROBE_OPS["cli-docs"] if probe else None, 20)


def measure_gram(plan, seconds, d, tracer, probe, corrupt):
    from thetaparam import quadform
    from thetaparam.cli import parse_datum

    data = [parse_datum(json.loads(Path(e["path"]).read_bytes()))[0] for e in plan]

    def run_op(k):
        # looked up on the module at call time, so a tracer sees the calls
        transfer = quadform.invariants_of_orthogonal_datum(data[k])
        gram = quadform.invariants_via_gram(data[k])
        return None, json.dumps([transfer.as_dict(), gram.as_dict()], sort_keys=True).encode()

    def check(k, status, report):
        transfer, gram = json.loads(report)
        return transfer == gram == plan[k]["expected"]

    loop = Loop(len(plan), run_op, check, corrupt)
    out = _in_process(loop, seconds, d, tracer, PROBE_OPS["gram-oracle"] if probe else None, 10)
    done = [plan[i % len(plan)]["ramified"] for i in range(out["ops"])]
    out["ramified_share"] = sum(done) / len(done)
    if out["ramified_share"] <= RAMIFIED_FLOOR:
        out["errors"].append(f"ramified share {out['ramified_share']:.3f} <= {RAMIFIED_FLOOR}")
        out["failed"] += 1
    return out


def _fresh_loop(jobs, check, seconds, tracer, probe, corrupt, d):
    """Closed loop of fresh-process jobs, whole passes only.  Traced, each
    child writes its spans to a file that is folded in after it exits."""
    groups, counts, caches = {}, {}, {}

    def run_op(k):
        name, job = jobs[k]
        trace_out = None if tracer is None else str(d / f"trace-{name}.json")
        proc = run_fresh(fresh_cmd(job, trace_out))
        if trace_out is not None:
            _fold(trace_out, name, groups, counts, caches)
        return (proc.returncode, proc.stderr), proc.stdout

    def checked(k, status, report):
        code, stderr = status
        return stderr == b"" and check(k, code, report)

    loop = Loop(len(jobs), run_op, checked, corrupt)
    loop.run(seconds, max_ops=len(jobs) if probe else None, whole_passes=True)
    out = loop.summary()
    out["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        out["spans"], out["counts"], out["caches"] = groups, counts, caches
    return out


def _fold(path, group, groups, counts, caches):
    with open(path) as fh:
        dump = json.load(fh)
    merged = groups.setdefault(group, {})
    for name, row in spans.summarize(dump["spans"]).items():
        acc = merged.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
        for key in acc:
            acc[key] += row[key]
    acc_counts = counts.setdefault(group, {})
    for name, n in dump["counts"].items():
        acc_counts[name] = acc_counts.get(name, 0) + n
    for name, (hits, misses) in dump["caches"].items():
        row = caches.setdefault(name, {"hits": 0, "misses": 0})
        row["hits"] += hits
        row["misses"] += misses


def _median_wall_ms(cmd, runs) -> float:
    times = []
    for _ in range(runs):
        t0 = clock()
        subprocess.run(cmd, cwd=ROOT, env=ENV, check=True, capture_output=True, timeout=60)
        times.append((clock() - t0) / 1e6)
    return statistics.median(times)


def measure_cold(plan, seconds, d, tracer, probe, corrupt):
    jobs = [(e["name"], ["cli", *e["argv"]]) for e in plan]

    def check(k, code, report):
        return code == plan[k]["code"] and report == plan[k]["report"].encode()

    extra = {}
    if tracer is not None:
        # cold import of the CLI module over a bare interpreter, and one
        # untraced pass for the per-subcommand cold times
        bare = _median_wall_ms([PY, "-c", "pass"], 5)
        extra["import_ms"] = _median_wall_ms([PY, "-c", "import thetaparam.cli"], 5) - bare
        if probe:
            extra["untraced_item_ms"] = _fresh_loop(jobs, check, 0, None, True, False, d)["item_ms"]
    out = _fresh_loop(jobs, check, seconds, tracer, probe, corrupt, d)
    out.update(extra)
    out["job_names"] = [name for name, _ in jobs]
    return out


def measure_finite(plan, seconds, d, tracer, probe, corrupt):
    jobs = [(e["name"], e["job"]) for e in plan]

    def check(k, code, report):
        if code != 0:
            return False
        rep = json.loads(report)
        if jobs[k][1][0] == "rank2":
            return (rep["ok"] is True and rep["group_order"] == SP4_Q3_ORDER
                    and rep["weyl_order"] == 4)
        res = rep["result"]
        return res["theta"]["ok"] is True and res["weyl"]["ok"] is True

    out = _fresh_loop(jobs, check, seconds, tracer, probe, corrupt, d)
    out["job_names"] = [name for name, _ in jobs]
    return out


MEASURES = {
    "cli-docs": measure_cli_docs,
    "gram-oracle": measure_gram,
    "cli-cold": measure_cold,
    "finite-oracle": measure_finite,
}


# ---------------------------------------------------------------------------
# finitefield microbenchmarks


def micro(smoke: bool) -> dict:
    """Per-op microseconds of F_q arithmetic at F_25 and F_{5^8}: median and
    quartiles over repeated timed batches of seeded random elements."""
    from thetaparam.finitefield import fq_is_square, fq_make

    rng = random.Random(8)
    batch, repeats = (8, 3) if smoke else (48, 11)
    out = {}

    def timed(name, fn, xs):
        per_op = []
        for _ in range(repeats):
            t0 = clock()
            for x in xs:
                fn(x)
            per_op.append((clock() - t0) / 1e3 / len(xs))
        q1, med, q3 = statistics.quantiles(per_op, n=4)
        out[name] = {"median": statistics.median(per_op), "q1": q1, "q3": q3}

    for tag, (p, f) in {"q25": (5, 2), "q5e8": (5, 8)}.items():
        k = fq_make(p, f)
        xs = []
        while len(xs) < batch:
            x = k.element([rng.randrange(p) for _ in range(f)])
            if not x.is_zero():
                xs.append(x)
        y = xs[-1]
        timed(f"finitefield.mul_us.{tag}", lambda x: x * y, xs)
        timed(f"finitefield.is_square_us.{tag}", fq_is_square, xs)
        timed(f"finitefield.inverse_us.{tag}", lambda x: x.inverse(), xs)
        if tag == "q5e8":
            q0 = p ** (f // 2)  # |k_{L0}| for the quadratic step F_{5^8} / F_{5^4}
            timed("finitefield.frob_pow_us.q5e8", lambda x: x**q0, xs)
    return out


# ---------------------------------------------------------------------------
# one fresh-process job


def job(kind: str, trace_out: str | None, argv: list) -> int:
    if kind == "cli":
        from thetaparam import cli
    else:
        from thetaparam import finitetheta
    tracer = None
    if trace_out:
        tracer = spans.Tracer()
        tracer.install()
        tracer.begin_op(0)
    if kind == "cli":
        code = cli.main(argv)
    else:
        # looked up on the module at call time, so a tracer sees the call
        rep = finitetheta.validate_weyl_form_rank2(3)
        sys.stdout.write(json.dumps(rep, sort_keys=True) + "\n")
        code = 0
    if tracer is not None:
        # a fresh process: its cache totals are the whole process's
        tracer.dump(trace_out, {"caches": spans.cache_snapshot()})
    return code


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    cmd, *rest = argv
    flags = {a for a in rest if a.startswith("--")}
    pos = [a for a in rest if not a.startswith("--")]
    if cmd == "job":
        kind = rest[0]
        trace_out = rest[rest.index("--trace-out") + 1] if "--trace-out" in rest else None
        cli_argv = rest[rest.index("--") + 1:] if "--" in rest else []
        return job(kind, trace_out, cli_argv)
    if cmd == "setup":
        workload, seed, d = pos
        result = setup(workload, int(seed), Path(d), "--smoke" in flags)
    elif cmd == "measure":
        workload, seconds, d = pos
        result = measure(workload, float(seconds), Path(d), "--trace" in flags,
                         "--probe" in flags, "--corrupt" in flags)
    elif cmd == "micro":
        result = micro("--smoke" in flags)
    else:
        raise SystemExit(f"unknown command {cmd!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
