"""sunbch benchmark: the coordinate route on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload pairs-n8 --seed 1 --seconds 22 --trace 0

One process and one thread drive the package as a closed loop: each call
starts only after the previous one has returned.  The pair workloads' inputs
come from the seed alone (see ``inputs.py``), and their SHA-256 is printed,
so two commits are compared on identical inputs only when the digests match.
verify-n4 draws its vectors with the package's own sampler; the SHA-256 of
what it drew is printed per `sunbch verify` seed.

``--trace 0`` measures the end-to-end metrics.  Times are normalized to a
nominal machine speed by a reference kernel run between calls (see
``calibrate.py``); the raw figures are in the detail record.  ``--trace 1``
is a separate run that wraps the package's public functions from outside
(``tracer.py``) and reports calls, self time (raw) and originated domain
errors per function.

The last line of stdout is the result object; the line before it is a
detail record (digest, sample counts, refusals, wrong results, raw times,
tracing overhead).  The exit code is 0 unless a result disagrees with the
dense oracle, a self-check fails, or the package cannot be imported from
``src/``; the reason is then printed on stderr.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the benchmark is single-threaded.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import inputs  # noqa: E402
from tracer import FAILURE_SITES, NAMES, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# A result is wrong when it differs from the dense oracle by more than this
# share of the oracle's largest coordinate.
REL_TOL = 1e-8
# Fresh interpreters timed per run for setup_s, after one that warms the
# bytecode cache; the median is reported.
SETUP_REPEATS = 7
# Whole `sunbch verify` runs per timed section, at least; verify_s is their median.
MIN_VERIFY_RUNS = 3
# Traced passes per traced run, at least; counts must repeat across them.
MIN_TRACED_PASSES = 2


@dataclass(frozen=True)
class Workload:
    n: int
    pairs: int = 0  # operand pairs in the pool (pair workloads)
    log10_scale: tuple[float, float] | None = None  # per-operand 10**U(lo, hi)
    trials: int = 0  # `sunbch verify --trials` (verify workload)


# On a 2-CPU Xeon a 22 s run makes about 3 passes at N = 8, 2 on
# near-identity-n4 and 10 at N = 3; each pool has enough successful calls
# for a p90 with ten samples above it.  near-identity-n4 refuses about 70 %
# of compose calls; its pool is large enough, with the scales stratified
# (see inputs.pair_pool), that compose_ok_share spreads about 4 % by seed.
WORKLOADS = {
    "pairs-n8": Workload(n=8, pairs=112),
    "pairs-n3": Workload(n=3, pairs=512),
    "near-identity-n4": Workload(n=4, pairs=2048, log10_scale=(-6.0, -1.0)),
    "verify-n4": Workload(n=4, trials=50),
}


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import sunbch
        import sunbch.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import sunbch from {SRC}: {exc}")
    if Path(sunbch.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported sunbch from {sunbch.__file__}, not {SRC}")
    return sunbch


# Timed in a fresh interpreter; numpy is loaded before the clock starts.
# The reference kernel runs afterwards to give that interpreter's speed.
SETUP_CHILD = """\
import json, time, numpy
t0 = time.perf_counter()
import sunbch
sunbch.cached_algebra({n})
t1 = time.perf_counter()
import calibrate
ref = sorted(calibrate.time_kernel() for _ in range(11))[5]
print(json.dumps([t1 - t0, ref, sunbch.__file__]))
"""


def measure_setup(n: int) -> tuple[list[float], list[float]]:
    """Seconds from `import sunbch` to a built cached_algebra(n): (normalized, raw)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    normalized, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD.format(n=n)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, ref, path = json.loads(out.stdout)
        if Path(path).resolve().parent.parent != SRC:
            raise SystemExit(f"perfbench: set-up child imported sunbch from {path}")
        if i:
            raw.append(float(seconds))
            normalized.append(float(seconds) * calibrate.NOMINAL_S / float(ref))
    return normalized, raw


def same(a, b) -> bool:
    """Outcomes agree bitwise: equal error codes, or arrays with equal bytes."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_metrics(op: str, seconds: np.ndarray, ok: np.ndarray, ok_share: float) -> dict:
    """Throughput, latency and success share of one operation.

    ok_per_s counts successes per second of all time spent in the
    operation, refusals included; the percentiles are over successes.
    """
    if not ok.any():
        raise SystemExit(f"perfbench: no successful {op} call to time")
    p50, p90 = np.percentile(seconds[ok], [50, 90]) * 1e3
    return {
        f"{op}_ok_per_s": metric(float(ok.sum() / seconds.sum()), "1/s"),
        f"{op}_p50_ms": metric(float(p50), "ms"),
        f"{op}_p90_ms": metric(float(p90), "ms"),
        f"{op}_ok_share": metric(ok_share, "share"),
    }


def start_calibration() -> calibrate.Calibration:
    cal = calibrate.Calibration()
    for _ in range(calibrate.WINDOW):
        cal.sample()
    return cal


def speed_summary(cal: calibrate.Calibration) -> dict:
    factors = np.asarray(cal.seconds) / calibrate.NOMINAL_S
    return {"samples": len(factors), "median": float(np.median(factors)),
            "min": float(factors.min()), "max": float(factors.max())}


# ---- pair workloads -----------------------------------------------------------

# Per pair, in this order: the coordinate route, then its dense oracle.
OPS = ("compose", "similarity", "compose_direct", "similarity_direct")


def pair_ops(api, n: int):
    basis, tensors = api.cached_algebra(n)
    bch = api.bch  # looked up per call, so the tracer's wrappers are used
    return (
        lambda m, v: bch.compose(tensors, basis, m, v),
        lambda m, v: bch.similarity(tensors, basis, m, v),
        lambda m, v: bch.compose_direct(basis, m, v),
        lambda m, v: bch.similarity_direct(basis, m, v),
    )


def run_pass(api, ops, pool, deadline=None, tracer=None, cal=None):
    """One pass over the pool: (outcomes, per-call seconds, per-pair start times).

    An outcome is the result array or the code of the NumericalDomainError
    raised.  With a deadline the pass stops after the first pair that ends
    past it, and later pairs keep NaN times.  With a calibration the
    reference kernel may run before a pair, outside its timing.
    """
    outcomes = [[None] * len(ops) for _ in range(len(pool))]
    times = np.full((len(pool), len(ops)), np.nan)
    stamps = np.full(len(pool), np.nan)
    for i, (m, v) in enumerate(pool):
        if tracer is not None:
            tracer.request = i
        if cal is not None:
            cal.tick()
        stamps[i] = perf_counter()
        for k, op in enumerate(ops):
            start = perf_counter()
            try:
                out = op(m, v)
            except api.NumericalDomainError as exc:
                out = exc.code
            times[i, k] = perf_counter() - start
            outcomes[i][k] = out
        if deadline is not None and perf_counter() >= deadline:
            break
    return outcomes, times, stamps


def check_against_oracle(outcomes, workload: str, seed: int) -> dict:
    """Compare every coordinate-route success with its dense oracle."""
    wrong, refused = [], {"compose": {}, "similarity": {}}
    worst = {"compose": 0.0, "similarity": 0.0}
    failed = np.zeros((len(outcomes), 2), dtype=bool)
    for i, row in enumerate(outcomes):
        for k, op in enumerate(OPS[:2]):
            out, ref = row[k], row[k + 2]
            if isinstance(out, str):
                refused[op][out] = refused[op].get(out, 0) + 1
                failed[i, k] = True
                continue
            if isinstance(ref, str):
                wrong.append({"workload": workload, "seed": seed, "index": i, "op": op,
                              "reason": f"oracle refused: {ref}"})
                failed[i, k] = True
                continue
            rel = float(np.max(np.abs(out - ref)) / np.max(np.abs(ref)))
            worst[op] = max(worst[op], rel)
            if not rel <= REL_TOL:
                wrong.append({"workload": workload, "seed": seed, "index": i, "op": op,
                              "rel_err": rel})
                failed[i, k] = True
    return {"failed": failed, "wrong": wrong, "refused": refused, "worst_rel_err": worst}


def pair_pool(api, name: str, w: Workload, seed: int) -> np.ndarray:
    generators = inputs.gell_mann(w.n)
    if not np.allclose(generators, api.build_basis(w.n).matrices, rtol=0, atol=1e-15):
        raise SystemExit("perfbench: the package's generator basis no longer matches inputs.gell_mann")
    return inputs.pair_pool(generators, inputs.rng_for(name, seed), w.pairs, w.log10_scale)


def pair_metrics(per_input: np.ndarray, ok: np.ndarray, setup: float) -> dict:
    """End-to-end metrics from each input's time per op, shape (pairs, len(OPS))."""
    metrics = {"setup_s": metric(setup, "s")}
    for k, op in enumerate(OPS[:2]):
        metrics.update(op_metrics(op, per_input[:, k], ok[:, k], float(ok[:, k].mean())))
    # Time the dense oracles take to recompute the whole pool.
    metrics["verify_s"] = metric(float(per_input[:, 2:].sum()), "s")
    return metrics


def pairs_end_to_end(api, name: str, w: Workload, seed: int, seconds: float):
    pool = pair_pool(api, name, w, seed)
    setup, setup_raw = measure_setup(w.n)
    ops = pair_ops(api, w.n)
    run_pass(api, ops, pool[:4])  # warm-up, untimed
    gc.collect()
    cal = start_calibration()
    deadline = perf_counter() + seconds
    # The first pass runs every op; later ones repeat only the coordinate
    # route, so the oracles' time is taken from one pass.
    passes = [run_pass(api, ops, pool, cal=cal)]
    while perf_counter() < deadline:
        passes.append(run_pass(api, ops[:2], pool, deadline, cal=cal))
    for _ in range(calibrate.WINDOW // 2):
        cal.sample()
    first = passes[0][0]
    unstable = [
        {"pass": p, "index": i, "op": OPS[k]}
        for p, (outcomes, times, _) in enumerate(passes[1:], start=1)
        for i, row in enumerate(outcomes) if not np.isnan(times[i, -1])
        for k in range(len(row)) if not same(row[k], first[i][k])
    ]
    check = check_against_oracle(first, name, seed)
    raw = np.full((len(passes), len(pool), len(OPS)), np.nan)
    for p, (_, times, _) in enumerate(passes):
        raw[p, :, :times.shape[1]] = times
    speed = np.stack([cal.speed(np.nan_to_num(stamps)) for _, _, stamps in passes])
    # Each input's time is its median over the passes, at nominal speed.
    per_input = np.nanmedian(raw / speed[:, :, None], axis=0)
    ok = ~check["failed"]
    attempted = 2 * len(pool)
    failed = int(check["failed"].sum())
    metrics = pair_metrics(per_input, ok, statistics.median(setup))
    raw_metrics = pair_metrics(np.nanmedian(raw, axis=0), ok, statistics.median(setup_raw))
    detail = {
        "pool_pairs": len(pool),
        "passes": len(passes),
        "samples": {op: {"inputs": int(ok[:, k].sum()),
                         "calls": int(np.sum(~np.isnan(raw[:, ok[:, k], k])))}
                    for k, op in enumerate(OPS[:2])},
        "failed_share": failed / attempted,
        "refused": check["refused"],
        "wrong": check["wrong"],
        "worst_rel_err": check["worst_rel_err"],
        "unstable": unstable,
        "route_over_oracle": {
            op: float(np.median(per_input[ok[:, k], k]) / np.median(per_input[ok[:, k], k + 2]))
            for k, op in enumerate(OPS[:2])
        },
        "raw": {k: v["value"] for k, v in raw_metrics.items()},
        "speed": speed_summary(cal),
        "setup_samples_s": setup,
    }
    correct = not check["wrong"] and not unstable
    return correct, attempted, failed, metrics, detail, inputs.digest(name, seed, repr(w), pool)


def pairs_traced(api, name: str, w: Workload, seed: int, seconds: float, tracer: Tracer):
    pool = pair_pool(api, name, w, seed)
    setup_lo = tracer.mark()
    tracer.request = "setup"
    tracer.install()
    ops = pair_ops(api, w.n)  # builds cached_algebra(n) under the tracer
    tracer.uninstall()
    setup_hi = tracer.mark()
    run_pass(api, ops, pool[:4])  # warm-up, untimed
    gc.collect()
    cal = start_calibration()
    # Untraced and traced passes alternate, so both see the same machine.
    untraced, traced, spans = [], [], []  # run_pass results; the traced passes' span ranges
    deadline = perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or perf_counter() < deadline:
        untraced.append(run_pass(api, ops, pool, cal=cal))
        lo = tracer.mark()
        tracer.install()
        try:
            traced.append(run_pass(api, ops, pool, tracer=tracer, cal=cal))
            spans.append((lo, tracer.mark()))
        finally:
            tracer.uninstall()
    for _ in range(calibrate.WINDOW // 2):
        cal.sample()
    baseline = untraced[0][0]
    check = check_against_oracle(baseline, name, seed)
    mismatched = [
        {"pass": p, "traced": t, "index": i, "op": OPS[k]}
        for t, passes in ((False, untraced[1:]), (True, traced))
        for p, (outcomes, _, _) in enumerate(passes)
        for i, row in enumerate(outcomes)
        for k in range(len(OPS)) if not same(row[k], baseline[i][k])
    ]

    def pass_seconds(passes):
        """Time inside the ops per pass: (raw, at nominal speed)."""
        return [(float(times.sum()), float(np.sum(times / cal.speed(stamps)[:, None])))
                for _, times, stamps in passes]

    failed = int(check["failed"].sum())
    return trace_result(
        tracer, (setup_lo, setup_hi), spans, pass_seconds(traced), pass_seconds(untraced),
        mismatched, not check["wrong"], 2 * len(pool), failed,
        {"wrong": check["wrong"], "refused": check["refused"]},
        inputs.digest(name, seed, repr(w), pool),
    )


# ---- verify workload ----------------------------------------------------------

# `sunbch verify` seeds a run may use: seed * VERIFY_SEEDS onward, in order.
# A domain error anywhere aborts a verify run with exit 3, and the seed fixes
# whether it does.  So a refused seed runs once, counts as failed and is
# reported apart, cut short; the next seed is tried, and the timed runs
# repeat the first seed that is not refused.
VERIFY_SEEDS = 16


@dataclass
class VerifyRun:
    argv: list
    code: int
    report: str
    stderr: str
    start: float
    end: float
    # Set when `sunbch.verify` is instrumented: per timed op, each call's
    # (start, seconds, raised); the SHA-256 of the vectors random_coords drew.
    calls: dict | None = None
    drawn: str | None = None


def verify_argv(w: Workload, seed: int) -> list[str]:
    return ["verify", "--n", str(w.n), "--seed", str(seed), "--trials", str(w.trials)]


def run_cli(api, argv) -> VerifyRun:
    """One in-process `sunbch` call."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main(argv)
    return VerifyRun(argv, code, out.getvalue(), err.getvalue(), start, perf_counter())


# Properties that compare the coordinate route with its dense oracle: the
# benchmark's own correctness criterion, so their failure makes a run wrong.
ROUTE_PROPERTIES = ("compose_route_agreement", "similarity_route_agreement")


def failed_properties(run: VerifyRun) -> list:
    """[name, max_residual] of each property a completed verify run failed."""
    return [[row["name"], row["max_residual"]]
            for row in json.loads(run.report)["properties"] if not row["pass"]]


def verify_outcome(run: VerifyRun) -> str:
    """'ok'; 'refused' (exit 3, a domain error); 'failed' (exit 1, only
    properties other than the route agreements failed); 'wrong' (anything else)."""
    if run.code == 3:
        return "refused"
    if run.code not in (0, 1):
        return "wrong"
    try:
        failed = failed_properties(run)
    except (ValueError, KeyError, TypeError):
        return "wrong"
    if bool(failed) != (run.code == 1):
        return "wrong"
    if not failed:
        return "ok"
    return "wrong" if any(name in ROUTE_PROPERTIES for name, _ in failed) else "failed"


def first_not_refused(w: Workload, seed: int, invoke) -> tuple[list, VerifyRun]:
    """``invoke(argv)`` on the run's verify seeds until one is not refused: (refused, that run)."""
    refused = []
    for verify_seed in range(seed * VERIFY_SEEDS, (seed + 1) * VERIFY_SEEDS):
        run = invoke(verify_argv(w, verify_seed))
        if verify_outcome(run) != "refused":
            return refused, run
        refused.append(run)
    raise SystemExit(f"perfbench: all {VERIFY_SEEDS} verify seeds of seed {seed} were refused")


# `sunbch.verify` bindings: the first two are timed per call; all of them
# give the reference kernel a chance to run between calls, which spreads
# calibration samples over the whole verify run.
TIMED = ("compose", "similarity")
TICKED = TIMED + ("random_coords", "cross", "dot_sym", "algebra_matrix")


def instrument(module, tick, sinks: dict) -> dict:
    """Patch the module's bindings; returns the originals for restoring.

    Each patched call first calls ``tick()``.  Each timed call appends
    (start, seconds, raised) to ``sinks[name]``; each vector random_coords
    returns is appended to ``sinks["drawn"]``.
    """
    originals = {name: getattr(module, name) for name in TICKED}

    def wrap(name, fn):
        def wrapped(*args, **kwargs):
            tick()
            if name == "random_coords":
                out = fn(*args, **kwargs)
                sinks["drawn"].append(out)
                return out
            if name not in TIMED:
                return fn(*args, **kwargs)
            raised = True
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                sinks[name].append((start, perf_counter() - start, raised))
        return wrapped

    for name, fn in originals.items():
        setattr(module, name, wrap(name, fn))
    return originals


def verify_metrics(runs, run_seconds, setup: float, ok_share: dict, speed=None) -> dict:
    """End-to-end metrics of repeated runs of one seed; ``speed(stamps)`` normalizes."""
    metrics = {"setup_s": metric(setup, "s")}
    for op in TIMED:
        calls = np.array([run.calls[op] for run in runs])  # (runs, calls, [start, seconds, raised])
        seconds = calls[:, :, 1] / (speed(calls[:, :, 0]) if speed else 1.0)
        # Call j of every run has the same input; take its median over runs.
        per_input = np.median(seconds, axis=0)
        metrics.update(op_metrics(op, per_input, calls[0, :, 2] == 0, ok_share[op]))
    metrics["verify_s"] = metric(statistics.median(run_seconds), "s")
    return metrics


def verify_end_to_end(api, name: str, w: Workload, seed: int, seconds: float):
    setup, setup_raw = measure_setup(w.n)
    api.cached_algebra(w.n)
    sinks = {}

    def invoke(argv):
        sinks.update({op: [] for op in TIMED}, drawn=[])
        run = run_cli(api, argv)
        run.calls = {op: sinks[op] for op in TIMED}
        run.drawn = inputs.digest(*sinks["drawn"])
        return run

    gc.collect()
    cal = start_calibration()
    originals = instrument(api.verify, cal.tick, sinks)
    deadline = perf_counter() + seconds
    try:
        refused, run = first_not_refused(w, seed, invoke)
        runs = [run]
        while len(runs) < MIN_VERIFY_RUNS or perf_counter() < deadline:
            runs.append(invoke(run.argv))
    finally:
        for fn_name, fn in originals.items():
            setattr(api.verify, fn_name, fn)
    for _ in range(calibrate.WINDOW // 2):
        cal.sample()
    outcome = verify_outcome(run)
    nondeterministic = len({(r.code, r.report, r.drawn) for r in runs}) > 1
    attempted = len(refused) + len(runs)
    failed = len(refused) + sum(verify_outcome(r) != "ok" for r in runs)
    # Shares over the calls of every seed tried, the refused ones included.
    ok_share = {}
    for op in TIMED:
        raised = [c[2] for r in refused + [run] for c in r.calls[op]]
        ok_share[op] = 1.0 - sum(raised) / len(raised)
    # The reference kernel ran inside the runs; work_time leaves it out.
    work = [cal.work_time(r.start, r.end) for r in runs]
    metrics = verify_metrics(runs, [norm for _, norm in work], statistics.median(setup),
                             ok_share, cal.speed)
    raw_metrics = verify_metrics(runs, [raw for raw, _ in work], statistics.median(setup_raw),
                                 ok_share)
    detail = {
        "argv": run.argv,
        "runs": len(runs),
        "outcome": outcome,
        "cut_short": [{"argv": r.argv, "exit": r.code, "seconds": r.end - r.start,
                       "stderr": r.stderr, "raised_in": [op for op in TIMED
                                                         if any(c[2] for c in r.calls[op])]}
                      for r in refused],
        "stderr": sorted({r.stderr for r in runs if r.stderr}),
        "samples": {op: {"inputs": len(run.calls[op]), "calls": len(run.calls[op]) * len(runs)}
                    for op in TIMED},
        "failed_share": failed / attempted,
        "failed_properties": failed_properties(run) if outcome == "failed" else [],
        "wrong": [{"workload": name, "seed": seed, "index": i, "argv": r.argv}
                  for i, r in enumerate(runs) if verify_outcome(r) == "wrong"],
        "nondeterministic": nondeterministic,
        "inputs_drawn_sha256": {r.argv[4]: r.drawn for r in refused + [run]},
        "raw": {k: v["value"] for k, v in raw_metrics.items()},
        "speed": speed_summary(cal),
        "setup_samples_s": setup,
        "verify_samples_s": [norm for _, norm in work],
    }
    correct = outcome != "wrong" and not nondeterministic
    return correct, attempted, failed, metrics, detail, verify_digest(name, seed, w)


def verify_digest(name: str, seed: int, w: Workload) -> str:
    """The benchmark's own input to verify-n4: its seed range and trial count."""
    return inputs.digest(name, *verify_argv(w, seed * VERIFY_SEEDS), VERIFY_SEEDS)


def verify_traced(api, name: str, w: Workload, seed: int, seconds: float, tracer: Tracer):
    setup_lo = tracer.mark()
    tracer.request = "setup"
    tracer.install()
    api.cached_algebra(w.n)
    tracer.uninstall()
    setup_hi = tracer.mark()
    gc.collect()
    cal = start_calibration()
    # In traced passes the reference kernel runs inside a span of its own, so
    # its time leaves the self time of the traced function that called it.
    traced_tick = tracer.wrap("calibrate.tick", cal.tick)

    def one_pass(traced: bool):
        """The seeds of one end-to-end run, each once, ticking as the end-to-end run does."""
        if traced:
            tracer.request = f"pass{len(spans)}"
            lo = tracer.mark()
            tracer.install()
        sinks = {op: [] for op in TIMED} | {"drawn": []}
        # Patched over the tracer's wrappers, so restored before them.
        originals = instrument(api.verify, traced_tick if traced else cal.tick, sinks)
        try:
            refused, run = first_not_refused(w, seed, lambda argv: run_cli(api, argv))
        finally:
            for fn_name, fn in originals.items():
                setattr(api.verify, fn_name, fn)
            if traced:
                tracer.uninstall()
                spans.append((lo, tracer.mark()))
        return refused + [run]

    # Untraced and traced passes alternate, so both see the same machine.
    untraced, traced, spans = [], [], []
    deadline = perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or perf_counter() < deadline:
        untraced.append(one_pass(False))
        traced.append(one_pass(True))
    for _ in range(calibrate.WINDOW // 2):
        cal.sample()

    def pass_seconds(passes):
        """Run time per pass without the reference kernel: (raw, at nominal speed)."""
        return [tuple(np.sum([cal.work_time(r.start, r.end) for r in runs], axis=0).tolist())
                for runs in passes]

    def key(runs):
        return [(r.argv, r.code, r.report) for r in runs]

    base = untraced[0]
    mismatched = [
        {"pass": p, "traced": t}
        for t, passes in ((False, untraced[1:]), (True, traced))
        for p, runs in enumerate(passes) if key(runs) != key(base)
    ]
    outcome = verify_outcome(base[-1])
    return trace_result(
        tracer, (setup_lo, setup_hi), spans, pass_seconds(traced), pass_seconds(untraced),
        mismatched, outcome != "wrong", len(base), len(base) - (outcome == "ok"),
        {"outcome": outcome, "argv": [r.argv for r in base],
         "failed_properties": failed_properties(base[-1]) if outcome == "failed" else []},
        verify_digest(name, seed, w),
    )


# ---- traced-run summary -------------------------------------------------------


def trace_result(tracer, setup_range, span_ranges, traced_s, untraced_s, mismatched,
                 correct, attempted, failed, extra, digest):
    """Per-layer metrics: set-up plus one pass, self time as the median over passes.

    ``traced_s`` and ``untraced_s`` hold each pass's (raw, nominal-speed) seconds.
    """
    setup = tracer.summary(*setup_range)
    summaries = [tracer.summary(*lo_hi) for lo_hi in span_ranges]
    counts = [{name: (row[0], row[2]) for name, row in s.items()} for s in summaries]
    unrepeated = sorted(name for name in NAMES if len({c[name] for c in counts}) > 1)
    metrics = {}
    for name in NAMES:
        self_s = setup[name][1] + statistics.median(s[name][1] for s in summaries)
        metrics[f"{name}.calls"] = metric(setup[name][0] + summaries[0][name][0], "count")
        metrics[f"{name}.self_ms"] = metric(self_s * 1e3, "ms")
        if name in FAILURE_SITES:
            metrics[f"{name}.failed"] = metric(setup[name][2] + summaries[0][name][2], "count")

    def overhead(k):
        return (statistics.median(t[k] for t in traced_s)
                / statistics.median(u[k] for u in untraced_s) - 1.0)

    detail = dict(extra)
    detail.update({
        "traced_passes": len(span_ranges),
        "untraced_pass_s": [u[1] for u in untraced_s],
        "traced_pass_s": [t[1] for t in traced_s],
        "tracing_overhead": overhead(1),
        "tracing_overhead_raw": overhead(0),
        "spans": len(tracer.spans),
        "traced_differs_from_untraced": mismatched,
        "counts_not_repeated": unrepeated,
    })
    ok = correct and not mismatched and not unrepeated
    return ok, attempted, failed, metrics, detail, digest


# ---- entry point ---------------------------------------------------------------


# Detail-record entries that say why a run is incorrect.
CHECKS = ("wrong", "unstable", "nondeterministic", "traced_differs_from_untraced",
          "counts_not_repeated", "outcome", "failed_properties")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nominal_reference_s": calibrate.NOMINAL_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    api = import_package()
    w = WORKLOADS[args.workload]
    run_args = (api, args.workload, w, args.seed, args.seconds)
    if args.trace:
        tracer = Tracer(api.NumericalDomainError)
        run = verify_traced if w.trials else pairs_traced
        correct, attempted, failed, metrics, detail, digest = run(*run_args, tracer)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(HERE.parent))
    else:
        run = verify_end_to_end if w.trials else pairs_end_to_end
        correct, attempted, failed, metrics, detail, digest = run(*run_args)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_sha256": digest, "environment": environment()}
    record.update(detail)
    print(json.dumps(record))
    if not correct:
        reasons = {k: record[k] for k in CHECKS if record.get(k)}
        print(f"perfbench: result check failed: {json.dumps(reasons)[:2000]}", file=sys.stderr)
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
