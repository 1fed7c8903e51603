"""curveinv benchmark: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload exact_deep --seed 1 --seconds 25 --trace 0

Run from the repository root, which must hold the library under src/.
Workloads (see workloads.py): exact_deep, move_walk, numeric_verify.  One
process, one caller: each op starts when the previous one returns.

--trace 0 prints the end-to-end metrics: set-up time (median of fresh
processes that only build the inputs), ops per second, median and 90th
percentile op latency, peak memory, and the cold-start time of the CLI
command the workload stands for (median of fresh processes).  Every
timing is host-scaled: ops by a gauge kernel run after each op
(HostGauge), child processes by a reference child run just before each
(REF_CHILD), so that a shared host's varying speed cancels; the raw
timings are printed beside them.  --trace 1 first repeats the untraced
loop, then runs the same ops again with every public layer function
wrapped in a span (tracer.py), and prints per-layer calls and self times.
Either way the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; a summary (and, traced,
every span) is written under perfbench/out/.

--tiny shrinks every input for the self-test (test_perfbench.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One thread per process for every BLAS/OpenMP pool numpy may start, set
# before numpy is first imported; load comes from this one process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_REPEATS = 3
CLI_REPEATS = 5

# the CLI command each workload stands for, and a line its output must hold
CLI_COMMANDS = {
    "exact_deep": (["invariant", "figure8_sphere"], "jplus = 0"),
    "move_walk": (["move", "circle_sphere", "--site",
                   "birth:0:0.0.250:0.0.750:opposite"], "delta jplus = 0"),
    "numeric_verify": (["numeric", "--fixture", "circle_torus"], "PASS"),
}


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_library():
    """Import curveinv from this checkout's src/, never from elsewhere."""
    if not (SRC / "curveinv" / "__init__.py").is_file():
        raise SystemExit(f"error: no curveinv sources under {SRC}")
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import curveinv

    if SRC not in Path(curveinv.__file__).resolve().parents:
        raise SystemExit(f"error: curveinv imported from {curveinv.__file__}, not {SRC}")


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def kernel():
    """Fixed interpreter-bound work like the library's: small dicts, tuples
    and Fraction arithmetic.  About 1 ms on the reference host."""
    acc, table = Fraction(0), {}
    for i in range(1, 250):
        key = (i % 13, i % 5)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    return acc, sorted(table.items())


class HostGauge:
    """Host speed next to each timed op, to scale its latency.

    Other tenants of a shared host slow this process by up to 2x, for
    milliseconds up to minutes at a time.  After each op the gauge runs
    `kernel` for a tenth of the op's time (at least once); the op's local
    scale is REF_MS over the mean kernel time of those calls, widened back
    to the last WINDOW calls for short ops.  A scaled latency is the op's
    time on a host where the kernel takes REF_MS."""

    REF_MS = 1.0
    WINDOW = 40

    def __init__(self):
        self.times = []

    def follow(self, seconds):
        """Run the kernel after a timed piece of `seconds`; its local scale."""
        first = len(self.times)
        deadline = perf_counter() + 0.1 * seconds
        while True:
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
            self.times.append(t1 - t0)
            if t1 >= deadline:
                break
        recent = self.times[min(first, len(self.times) - self.WINDOW):]
        return self.REF_MS / (1000.0 * sum(recent) / len(recent))


# A fresh interpreter that imports what a CLI cold start imports (numpy
# included) and runs the kernel 40 times.  Each timed child process is
# paired with one run of it just before, and scaled by REF_COLD_S over its
# time: the pair shares whatever the host is doing at that moment.
REF_CHILD = ["-c", "import sys; sys.path.insert(0, sys.argv[1]); import numpy, run\n"
             "for _ in range(40): run.kernel()", str(HERE)]
REF_COLD_S = 0.3


def timed_children(cmd, repeats, expect, failures):
    """Scaled and raw wall times of `repeats` sequential fresh processes
    running cmd, each paired with a reference child; each must exit 0 with
    `expect` in its output, or a failure is recorded."""
    scaled, raw = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable] + REF_CHILD, cwd=ROOT, env=child_env(),
                       check=True, timeout=150)
        t1 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=150)
        t2 = perf_counter()
        raw.append(t2 - t1)
        scaled.append((t2 - t1) * REF_COLD_S / (t1 - t0))
        if proc.returncode != 0 or expect not in proc.stdout:
            failures.append(f"{' '.join(cmd[1:])} exited {proc.returncode} without "
                            f"{expect!r}: {proc.stdout[-200:]} {proc.stderr[-300:]}")
    return scaled, raw


def closed_loop(wl, seconds, tracer=None):
    """Run ops back to back until `seconds` have passed, each followed by
    the host gauge.  Returns scaled and raw op latencies, op classes,
    failure messages, and the largest sizes seen (traced runs only,
    measured outside the op spans)."""
    from workloads import CheckFailed, Sizes

    gauge = HostGauge()
    scaled, latencies, labels, failures = [], [], [], []
    biggest = Sizes(0, 0, 0, 0)
    deadline = perf_counter() + seconds
    k = 0
    while True:
        result = None
        t0 = perf_counter()
        sid = tracer.op_span(k) if tracer else None
        try:
            result = wl.run_op(k)
        except CheckFailed as exc:
            failures.append(f"op {k}: {exc}")
        except Exception:
            failures.append(f"op {k}: {traceback.format_exc(limit=4)}")
        finally:
            if tracer:
                tracer.close_op(sid)
        t1 = perf_counter()
        latencies.append(t1 - t0)
        labels.append(None if result is None else result[0])
        scaled.append((t1 - t0) * gauge.follow(t1 - t0))
        if tracer and result is not None:
            tracer.enabled = False
            s = wl.sizes(result)
            tracer.enabled = True
            for field in vars(biggest):
                setattr(biggest, field, max(getattr(biggest, field), getattr(s, field)))
        k += 1
        if t1 >= deadline:
            return scaled, latencies, labels, failures, biggest


def metric(value, unit):
    return {"value": value, "unit": unit}


def summary(values, cycle):
    """(ops per second, median ms, 90th percentile ms) of op latencies.

    Ops per second counts whole cycles of the workload's fixed op order
    only (all ops if there is less than one), because a trailing partial
    cycle would change the mix of ops it averages over."""
    whole = len(values) - len(values) % cycle or len(values)
    p90 = values[0] if len(values) < 2 else statistics.quantiles(
        values, n=10, method="inclusive")[8]
    return (whole / sum(values[:whole]), 1000 * statistics.median(values), 1000 * p90)


def run_plain(args, wl, meta, lines):
    """Untraced run: the end-to-end metrics.  Set-up children must rebuild
    inputs with the same digest (same seed, same inputs); CLI children must
    print their expected line."""
    child_failures = []
    setup_scaled, setup_raw = timed_children(
        [sys.executable, str(Path(__file__)), "--setup-only", "--workload",
         args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else []),
        1 if args.tiny else SETUP_REPEATS, wl.digest, child_failures)
    scaled, latencies, labels, failures, _ = closed_loop(wl, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cli_args, expect = CLI_COMMANDS[args.workload]
    cli_scaled, cli_raw = timed_children(
        [sys.executable, "-m", "curveinv.cli"] + cli_args,
        1 if args.tiny else CLI_REPEATS, expect, child_failures)
    n = len(latencies)
    names = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "cli_cold_ms")
    values = (statistics.median(setup_scaled), *summary(scaled, wl.cycle),
              1000 * statistics.median(cli_scaled))
    raw = dict(zip(names, (statistics.median(setup_raw), *summary(latencies, wl.cycle),
                           1000 * statistics.median(cli_raw))))
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "cli_cold_ms": "ms"}
    metrics = {name: metric(v, units[name]) for name, v in zip(names, values)}
    metrics["peak_rss_mb"] = metric(rss_mb, "MB")
    samples = {
        "setup_s": f"median of {len(setup_raw)} fresh processes",
        "ops_per_s": f"{n} ops",
        "op_p50_ms": f"n={n}",
        "op_p90_ms": f"n={n}, {n - int(0.9 * n)} beyond",
        "cli_cold_ms": f"median of {len(cli_raw)} x curveinv {' '.join(cli_args)}",
        "peak_rss_mb": "this process",
    }
    lines.append("  timings are host-scaled (see HostGauge, REF_CHILD); raw beside them")
    for name, m in metrics.items():
        unscaled = f"; raw {raw[name]:.6g}" if name in raw else ""
        lines.append(f"  {name:<12} = {m['value']:.6g} {m['unit']}  ({samples[name]}{unscaled})")
    lines.append(f"  fail_frac    = {len(failures)}/{n} = {len(failures) / n:.6g}")
    if hasattr(wl, "err_to_tol"):
        lines.append(f"  err_to_tol   = {wl.err_to_tol:.6g}  (largest |numeric - exact| "
                     f"/ fixture tolerance over {n} ops x {len(wl.QS)} q values)")
    meta.update(samples=samples, raw=raw, setup_times_s=setup_raw, cli_times_s=cli_raw,
                ops=list(zip(labels, latencies, scaled)))
    return n + len(setup_raw) + len(cli_raw), failures + child_failures, metrics


def run_traced(args, wl, meta, lines):
    """Traced run: the untraced loop once more as the overhead base, then
    the same ops (fresh set-up, same seed) with every layer function traced."""
    from tracer import Tracer
    from workloads import WORKLOADS

    base, _, _, base_failures, _ = closed_loop(wl, args.seconds)
    base_rate = summary(base, wl.cycle)[0]
    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        traced, _, _, failures, biggest = closed_loop(wl, args.seconds, tracer)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    rate = summary(traced, wl.cycle)[0]
    totals = tracer.layer_totals()
    metrics = {}
    for name, (calls, self_ns, _) in totals.items():
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_ms"] = metric(self_ns / 1e6, "ms")
    attempted, accepted = wl.birth_counts()
    metrics["moves.birth_accept_ratio"] = metric(accepted / attempted if attempted else 0.0, "ratio")
    metrics["moves.birth_attempts"] = metric(attempted, "count")
    for field, value in vars(biggest).items():
        metrics[f"size.{field}_max"] = metric(value, "count")
    metrics["trace.overhead_ratio"] = metric(rate / base_rate, "ratio")
    metrics["trace.base_ops_per_s"] = metric(base_rate, "1/s")
    metrics["geometry.err_to_tol"] = metric(getattr(wl, "err_to_tol", 0.0), "ratio")

    lines.append(f"  traced {len(traced)} ops at {rate:.4g} ops/s; untraced base "
                 f"{len(base)} ops at {base_rate:.4g} ops/s; overhead ratio "
                 f"{rate / base_rate:.4f} (traced / untraced, both host-scaled)")
    lines.append(f"  births accepted {accepted} of {attempted} attempted (set-up and ops)")
    lines.append(f"  largest sizes: {vars(biggest)}")
    op_ns = totals["op"][2]
    ranked = sorted(((v[1], k, v) for k, v in totals.items() if k != "op"), reverse=True)
    lines.append("  layer (self_ms unscaled)                calls    self_ms  self%  incl_ms")
    for self_ns, name, (calls, _, incl_ns) in ranked:
        if calls:
            lines.append(f"  {name:<38} {calls:>7} {self_ns / 1e6:>10.1f} "
                         f"{100 * self_ns / op_ns:>5.1f} {incl_ns / 1e6:>8.1f}")
    top = ranked[0][1]
    if args.workload == "exact_deep":
        verdict = "met" if top == "diagram.subsurface_profile" else "NOT met"
        share = 100 * totals["diagram.subsurface_profile"][2] / op_ns
        lines.append(f"  prediction 'diagram.subsurface_profile has the largest self "
                     f"time': {verdict}; largest self time is {top}; "
                     f"subsurface_profile with its callees takes {share:.1f}% of op time")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans)
    meta["spans_file"] = str(spans.relative_to(ROOT))
    return len(base) + len(traced), base_failures + failures, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("exact_deep", "move_walk", "numeric_verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print their digest and exit")
    args = parser.parse_args(argv)

    import_library()
    import numpy
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    if args.setup_only:
        print(wl.digest)
        return 0

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "input_digest": wl.digest,
    }
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    run = run_traced if args.trace else run_plain
    attempted, failures, metrics = run(args, wl, meta, lines)
    for failure in failures[:5]:
        lines.append(f"  FAILED {failure}")
    meta.update(attempted=attempted, failed=len(failures))
    print("\n".join(lines))
    print("# meta " + json.dumps({k: v for k, v in meta.items() if k != "ops"}))
    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({"meta": meta, "metrics": metrics,
                                       "failures": failures}, indent=1))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
