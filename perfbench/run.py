"""thetaparam benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (closed loop, one client, each in its own process):

    cli-docs       thetaparam.cli.main in-process over a seeded corpus:
                   lift of mixed data, transport of witnesses, and
                   documents that validate rejects (exit 1)
    cli-cold       one fresh ``python -m thetaparam.cli <sub>`` per call,
                   cycling through every subcommand on small documents
    gram-oracle    the library: transfer route and Gram route on orthogonal
                   data, which must agree
    finite-oracle  fresh-process finite oracle jobs: finite-verify --q 3,
                   --q 5 and the Sp4(3) Weyl-form closure

Human-readable lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, measured untraced;
with ``--trace 1`` they are the per-layer metrics, from a traced run (see
README.md for which workload each comes from).  The exit code is 0 when
every output checked correct, 1 otherwise, 2 when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ["cli-docs", "cli-cold", "gram-oracle", "finite-oracle"]
SETUP_REPEATS = 3
LAYERS = ["cli", "theta", "torusdata", "quadform", "localfield", "finitefield", "finitetheta"]


class WorkerFailed(RuntimeError):
    pass


def worker(*args, timeout=170) -> dict:
    """Run one worker step in its own process group; on a timeout the whole
    group (the worker and any job it started) is killed and reaped."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise WorkerFailed(f"{' '.join(cmd[2:4])} exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def setup(workload, seed, index, smoke) -> tuple[float, Path, dict]:
    """One set-up in a fresh process, timed from spawn to exit."""
    d = WORK / workload / f"seed-{seed}" / f"setup{index}"
    t0 = time.perf_counter()
    info = worker("setup", workload, seed, d, *(["--smoke"] if smoke else []))
    return time.perf_counter() - t0, d, info


def measure(workload, seconds, d, traced=False, probe=False, corrupt=False) -> dict:
    flags = [f for f, on in (("--trace", traced), ("--probe", probe), ("--corrupt", corrupt)) if on]
    return worker("measure", workload, seconds, d, *flags, timeout=seconds + 170)


def quantile(xs, q) -> float:
    """Percentile q (0 < q < 100), interpolated within the samples."""
    if len(xs) < 2:
        return max(xs)
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q) - 1]


def environment() -> str:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    cpu = platform.processor() or platform.machine()
    return (f"env: git {sha}; python {platform.python_version()}; "
            f"nproc {os.cpu_count()}; cpu {cpu}")


# ---------------------------------------------------------------------------
# end-to-end


def end_to_end(m: dict, setup_s: list) -> tuple[dict, list]:
    """End-to-end metrics of one untraced run."""
    lat = [x for xs in m["item_ms"] for x in xs]
    wall = (statistics.median(m["pass_s"]) if m["pass_s"]
            else m["elapsed_s"] * m["items"] / max(m["ops"], 1))
    metrics = {
        "ops_per_s": ((m["ops"] - m["failed"]) / m["elapsed_s"], "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }
    p90 = quantile(lat, 90)
    notes = [
        f"latency samples: {len(lat)} operations; p90 {p90:.4f} ms "
        f"({sum(x > p90 for x in lat)} beyond)",
        f"wall_s: median of {len(m['pass_s'])} whole passes over {m['items']} fixed operations",
        f"setup_s: median of {len(setup_s)} fresh-process set-ups {[round(s, 3) for s in setup_s]}",
    ]
    if len(lat) >= 1000:
        p99 = quantile(lat, 99)
        notes.append(f"latency p99 {p99:.4f} ms ({sum(x > p99 for x in lat)} beyond)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def run_untraced(workload, seed, seconds, smoke, corrupt) -> tuple[dict, int, int, list]:
    setups = [setup(workload, seed, i, smoke) for i in range(SETUP_REPEATS)]
    notes = []
    corpus_ok = len({info["corpus_sha256"] for _, _, info in setups}) == 1
    if not corpus_ok:
        notes.append("ERROR: set-ups generated different corpora from one seed")
    m = measure(workload, seconds, setups[0][1], corrupt=corrupt)
    (setups[0][1].parent / "measure.json").write_text(json.dumps(m))
    metrics, more = end_to_end(m, [s for s, _, _ in setups])
    notes += more + [f"error: {e}" for e in m["errors"]]
    if "ramified_share" in m:
        notes.append(f"ramified share of data run: {m['ramified_share']:.3f}")
    notes.append(f"report sha256 (first pass): {m['report_sha256']}")
    return metrics, m["ops"], m["failed"] + (not corpus_ok), notes


# ---------------------------------------------------------------------------
# per-layer


class Group:
    """Per-name call counts and times of one traced measurement group."""

    def __init__(self, summary: dict, counts: dict):
        self.summary, self.counts = summary, counts

    def calls(self, *names):
        return sum(self.summary.get(n, {}).get("calls", 0) for n in names)

    def incl_ms(self, *names):
        return sum(self.summary.get(n, {}).get("incl_ns", 0) for n in names) / 1e6

    def self_ms(self, *names):
        return sum(self.summary.get(n, {}).get("self_ns", 0) for n in names) / 1e6

    def per_call_us(self, name):
        return 1e3 * self.incl_ms(name) / max(self.calls(name), 1)


def _group(m, name="all") -> Group:
    return Group(m["spans"].get(name, {}), m["counts"].get(name, {}))


def per_layer(workload, runs: dict, m_un: dict, micro: dict) -> tuple[dict, list]:
    """Every per-layer metric.  ``runs`` holds one traced measurement per
    workload (the full run for ``workload``, short probes for the others);
    each metric comes from the workload it is defined on."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    docs = runs["cli-docs"]
    s, n = _group(docs), docs["ops"]
    put("cli.schema_ms_per_doc", s.incl_ms("cli.schema") / n, "ms")
    put("cli.parse_ms_per_doc", s.incl_ms("cli.parse") / n, "ms")
    put("cli.self_ms_per_doc",
        s.self_ms("cli.main", "cli.load_document", "cli.emit", "cli.seeded_choices") / n, "ms")
    put("theta.lift_self_ms_per_doc",
        s.self_ms("theta.lift", "theta.lift_depth_zero", "theta.lift_positive_block") / n, "ms")
    put("theta.transport_ms_per_doc", s.incl_ms("theta.transport") / n, "ms")
    put("torusdata.validate_calls_per_doc", s.calls("torusdata.validate") / n, "count")
    put("torusdata.validate_ms_per_doc", s.incl_ms("torusdata.validate") / n, "ms")
    put("torusdata.orbit_states_per_doc", s.counts.get("torusdata.orbit_states", 0) / n, "count")
    put("quadform.transfer_calls_per_doc", s.calls("quadform.transfer") / n, "count")
    put("quadform.transfer_us_per_call", s.per_call_us("quadform.transfer"), "us")
    put("localfield.flag_consistent_calls_per_doc",
        s.calls("localfield.flag_consistent") / n, "count")
    put("localfield.flag_consistent_us_per_call", s.per_call_us("localfield.flag_consistent"), "us")
    put("finitefield.pow_calls_per_doc", s.calls("finitefield.pow") / n, "count")
    put("finitefield.pow_us_per_call", s.per_call_us("finitefield.pow"), "us")
    put("finitefield.is_square_calls_per_doc", s.calls("finitefield.is_square") / n, "count")
    put("finitefield.is_square_us_per_call", s.per_call_us("finitefield.is_square"), "us")

    gram = runs["gram-oracle"]
    s, n = _group(gram), gram["ops"]
    restarts = sum(s.counts.get(f"quadform.{b}.raised.PrecisionExhausted", 0)
                   for b in ("gram_matrix", "diagonalize"))
    put("quadform.gram_ms_per_datum", s.incl_ms("quadform.gram") / n, "ms")
    put("quadform.gram_attempts_per_datum", (s.calls("quadform.gram") + restarts) / n, "count")
    put("localfield.tr_mul_calls_per_datum", s.calls("localfield.tr_mul") / n, "count")
    put("localfield.tr_mul_us_per_call", s.per_call_us("localfield.tr_mul"), "us")

    cold = runs["cli-cold"]
    put("cli.import_ms", cold["import_ms"], "ms")
    item_ms = m_un["item_ms"] if workload == "cli-cold" else cold["untraced_item_ms"]
    for sub, xs in zip(cold["job_names"], item_ms):
        put(f"cli.cold_ms.{sub}", statistics.median(xs), "ms")
    calls = cold["ops"]
    put("finitefield.fq_make_misses", cold["caches"]["fq_make"]["misses"] / calls, "count")
    put("finitefield.embedding_misses", cold["caches"]["fq_embedding"]["misses"] / calls, "count")

    fin = runs["finite-oracle"]
    job_runs = {}
    for name, xs in zip(fin["job_names"], fin["item_ms"]):
        job_runs[name] = job_runs.get(name, 0) + len(xs)
    q5, n_q5 = _group(fin, "finite_verify_q5"), max(job_runs.get("finite_verify_q5", 0), 1)
    rank2, n_rank2 = _group(fin, "weyl_rank2_q3"), max(job_runs.get("weyl_rank2_q3", 0), 1)
    normalizer = rank2.incl_ms("finitetheta.normalizer") / 1e3
    put("finitetheta.weil_rep_build_s.q5", q5.incl_ms("finitetheta.build_weil_rep") / 1e3 / n_q5, "s")
    put("finitetheta.multiplicity_s.q5", q5.incl_ms("finitetheta.multiplicity") / 1e3 / n_q5, "s")
    put("finitetheta.normalizer_s.sp4_q3", normalizer / n_rank2, "s")
    put("finitetheta.sp4_closure_s.q3",
        (rank2.incl_ms("finitetheta.weyl_rank2") / 1e3 - normalizer) / n_rank2, "s")
    put("finitetheta.group_elements.sp4_q3",
        rank2.counts.get("finitetheta.group_elements", 0) / n_rank2, "count")

    for name, row in micro.items():
        put(name, row["median"], "us")

    for wl in WORKLOADS:
        caches, ops = runs[wl]["caches"], runs[wl]["ops"]
        for _, fn in spans.CACHES:
            put(f"cache.{wl}.{fn}.hits_per_op", caches[fn]["hits"] / ops, "count")
            put(f"cache.{wl}.{fn}.misses_per_op", caches[fn]["misses"] / ops, "count")

    mine = runs[workload]
    traced_rate = (mine["ops"] - mine["failed"]) / mine["elapsed_s"]
    untraced_rate = (m_un["ops"] - m_un["failed"]) / m_un["elapsed_s"]
    put("trace.ops_per_s_untraced", untraced_rate, "1/s")
    put("trace.ops_per_s_traced", traced_rate, "1/s")
    put("trace.overhead_ops_per_s", traced_rate - untraced_rate, "1/s")
    lat = [x for xs in m_un["item_ms"] for x in xs]
    put("tail.latency_p90_ms", quantile(lat, 90), "ms")
    put("tail.latency_p99_ms", quantile(lat, 99), "ms")
    notes = [
        f"traced {workload}: {mine['ops']} ops; untraced: {m_un['ops']} ops",
        f"tracing overhead: {traced_rate:.4f} traced vs {untraced_rate:.4f} untraced ops/s",
        f"tail.latency_p90_ms and p99 over all {len(lat)} untraced runs of operations",
        "probes: " + ", ".join(f"{wl} {runs[wl]['ops']} ops" for wl in WORKLOADS if wl != workload),
    ]
    layer_self = {}
    for group in mine["spans"]:
        g = _group(mine, group)
        for name in g.summary:
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + g.self_ms(name)
    notes.append(f"self time per op of traced {workload}, by layer: " + ", ".join(
        f"{layer} {layer_self.get(layer, 0.0) / mine['ops']:.4f} ms" for layer in LAYERS))
    for name, row in micro.items():
        notes.append(f"{name}: median {row['median']:.3f} us, quartiles "
                     f"{row['q1']:.3f} .. {row['q3']:.3f}")
    return out, notes


def run_traced(workload, seed, seconds, smoke, corrupt) -> tuple[dict, int, int, list]:
    dirs = {wl: setup(wl, seed, 0, smoke)[1] for wl in WORKLOADS}
    m_un = measure(workload, seconds, dirs[workload])
    runs = {workload: measure(workload, seconds, dirs[workload], traced=True, corrupt=corrupt)}
    for wl in WORKLOADS:
        if wl != workload:
            runs[wl] = measure(wl, seconds, dirs[wl], traced=True, probe=True)
    micro = worker("micro", *(["--smoke"] if smoke else []))
    metrics, notes = per_layer(workload, runs, m_un, micro)
    measured = [m_un, *runs.values()]
    for m in measured:
        notes += [f"error: {e}" for e in m["errors"]]
    return (metrics, sum(m["ops"] for m in measured), sum(m["failed"] for m in measured), notes)


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in turn, each through this script in its own process."""
    table, ok, attempted, failed = {}, True, 0, 0
    for wl in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {wl}")
        print("\n".join(lines[:-1]))
        if not lines or not lines[-1].startswith("{"):
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        ok &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        table.update({f"{wl}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": table}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora and job set")
    parser.add_argument("--corrupt", action="store_true",
                        help="truncate the first report before its check (must count as failed)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thetaparam" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'thetaparam'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    print(environment())
    print(f"workload {args.workload}; seed {args.seed}; seconds {args.seconds}; trace {args.trace}")
    run = run_traced if args.trace else run_untraced
    try:
        metrics, attempted, failed, notes = run(
            args.workload, args.seed, args.seconds, args.smoke, args.corrupt)
    except (WorkerFailed, subprocess.TimeoutExpired) as ex:
        print(f"benchmark step failed: {ex}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.4f} {m['unit']}")
    print("\n".join(notes))
    print(f"error_rate {failed / max(attempted, 1):.6f} ({failed} of {attempted} operations)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
