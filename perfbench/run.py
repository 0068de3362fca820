"""toricount benchmark: one seeded workload, timed through the real CLI.

    python3 perfbench/run.py --workload constants --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout and imports the package from its `src/`.
Each CLI call is `toricount.cli.main(argv)` in this process with stdout
captured: one closed-loop caller, no threads.  Passes of the workload's
fixed job repeat until `--seconds` have passed (at least three passes);
each call is timed by its mean over the passes, and the time metrics are
scaled to the nominal host speed (see speed.py).
Outputs are checked after timing.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With `--trace 0`
the metrics are the end-to-end ones; with `--trace 1` untraced and traced
passes alternate and the metrics are the per-layer ones.

    python3 perfbench/run.py --baselines

prints the timings quoted as baselines in the roadmap instead.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import checks
import spans
import speed
from workloads import WORKLOADS, Result

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_REPEATS = 5  # set-ups per run: this process and four fresh ones
SETUP_KERNEL_S = 0.2  # host-speed sampling after each set-up
MIN_PASSES = 3
PASS_DEADLINE_S = 120  # start no pass that would likely end after this


def import_package():
    """Import toricount from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "toricount", "__init__.py")):
        sys.exit("error: no package at %s; run from a checkout of the repository" % SRC)
    sys.path.insert(0, SRC)
    import toricount
    import toricount.cli

    if not os.path.abspath(toricount.__file__).startswith(SRC + os.sep):
        sys.exit("error: imported toricount from %s, not %s" % (toricount.__file__, SRC))
    return toricount


def run_call(cli, call):
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    gc.collect()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(call.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback from the CLI is a failed call
        error = "%s: %s" % (type(exc).__name__, exc)
    seconds = time.perf_counter() - start
    return Result(call, code, out.getvalue(), err.getvalue(), seconds, error)


def setup(workload, seed, workdir):
    """Import, write the workload's fan files, make one warm-up call; time it all."""
    start = time.perf_counter()
    tk = import_package()
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        wl = WORKLOADS[workload](
            random.Random("%d:fans" % seed), workdir, checks.load_pinned(), checks.Schemas(SRC)
        )
    except ValueError as exc:  # a generated fan failed validate_fan
        sys.exit("error: %s" % exc)
    warm = run_call(tk.cli, wl.warmup)
    if warm.error or warm.code != 0:
        sys.exit("error: warm-up call %s failed: %s" % (wl.warmup.argv, warm.error or warm.err))
    return time.perf_counter() - start, tk, wl


def setup_in_fresh_process(workload, seed, index):
    """Set-up time measured in a new interpreter, where imports are cold."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload,
         "--seed", str(seed), "--workdir", os.path.join(WORK, "%s-%d-setup%d" % (workload, seed, index))],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit("error: set-up in a fresh process failed:\n%s" % proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def traced_pass(tk, wl, calls, tracer):
    results = []
    for call in calls:
        with tracer.span("input", call.input_id):
            with tracer.span("cli.main", call.input_id, command=call.command):
                results.append(run_call(tk.cli, call))
            wl.layers(tk, tracer, call, results[-1])
    return results


def measure(tk, wl, seed, seconds, tracer):
    """Passes over the run's job: untraced, or alternating with traced ones.

    In an untraced pass the host's speed is sampled before and after each
    call, and `scaled` gets the pass's call times at the nominal speed.
    """
    calls = wl.job(random.Random("%d:args" % seed))
    untraced, scaled, traced, spans_of = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        done = len(untraced) + len(traced)
        if done >= MIN_PASSES and (elapsed >= seconds or elapsed + last > PASS_DEADLINE_S):
            break
        t0 = time.perf_counter()
        if tracer is not None and done % 2 == 1:
            first = len(tracer.spans)
            traced.append(traced_pass(tk, wl, calls, tracer))
            spans_of.append(tracer.spans[first:])
        else:
            results = []
            kernel = [speed.sample(0)]  # kernel[i] and kernel[i + 1] bracket call i
            for c in calls:
                results.append(run_call(tk.cli, c))
                kernel.append(speed.sample(speed.SHARE * results[-1].seconds))
            untraced.append(results)
            scaled.append([speed.scale(r.seconds, kernel[i] + kernel[i + 1]) for i, r in enumerate(results)])
        last = time.perf_counter() - t0
    return untraced, scaled, traced, spans_of


def call_times(rows):
    """Each call's mean time over the passes; a row holds one pass's times."""
    return [statistics.fmean(ts) for ts in zip(*rows)]


def end_to_end(untraced, scaled, setups, rss_mb, wl, failed, attempted):
    times = call_times(scaled)
    # A fan's paired calls (P and 3e5 - P, say) shift work between them
    # with the seed; their mean does not, so the median is taken over fans.
    by_fan = {}
    for r, t in zip(untraced[0], times):
        by_fan.setdefault(r.call.fan, []).append(t)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(times), "s"),
        "call_p50_s": (statistics.median(statistics.fmean(ts) for ts in by_fan.values()), "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "theta_rel_radius": (wl.theta_radius([r for rs in untraced for r in rs]), "ratio"),
    }


def per_layer(untraced, traced, spans_of):
    metrics = spans.median_metrics([spans.pass_metrics(s) for s in spans_of])
    # each traced pass against the untraced pass just before it
    metrics["trace.overhead_ratio"] = statistics.median(
        sum(r.seconds for r in t) / sum(r.seconds for r in u) for u, t in zip(untraced, traced)
    )
    return {name: (value, spans.unit(name)) for name, value in metrics.items()}


def baselines():
    """The roadmap's baseline timings, measured on the host running this."""
    tk = import_package()
    dp6 = tk.corpus.fan("dp6")
    rows = []
    t0 = time.perf_counter()
    n = tk.counting.count_points(dp6, 500, strategy="naive")
    rows.append(("count dp6 naive B=500", time.perf_counter() - t0, "N=%d" % n))
    t0 = time.perf_counter()
    ep = tk.tamagawa.tau(dp6, 10**5)
    rows.append(("tau dp6 cutoff 1e5", time.perf_counter() - t0, "rel radius %.3g" % (ep.radius / ep.center)))
    for argv in (["constants", "dp6"], ["constants", "dp6", "--cutoff", "1000000"]):
        t0 = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            code = tk.cli.main(argv)
        rows.append((" ".join(argv), time.perf_counter() - t0, "exit %d" % code))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, %r); "
                    "import toricount.cli" % SRC], check=True, timeout=60)
    rows.append(("interpreter start + import toricount.cli", time.perf_counter() - t0, ""))
    for name, seconds, note in rows:
        print("%-44s %8.3f s  %s" % (name, seconds, note))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baselines", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.baselines:
        baselines()
        return 0
    if not args.workload:
        parser.error("--workload is required")
    workdir = args.workdir or os.path.join(WORK, "%s-%d" % (args.workload, args.seed))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    setup_s, tk, wl = setup(args.workload, args.seed, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # each set-up is scaled by the kernel runs after it and, but for the
    # first (the kernel must not import what the package imports), before it
    raw_setups, kernel = [setup_s], [speed.sample(SETUP_KERNEL_S)]
    setups = [speed.scale(setup_s, kernel[0])]
    for i in range(1, SETUP_REPEATS):
        raw_setups.append(setup_in_fresh_process(args.workload, args.seed, i))
        kernel.append(speed.sample(SETUP_KERNEL_S))
        setups.append(speed.scale(raw_setups[-1], kernel[-2] + kernel[-1]))

    tracer = spans.Tracer(tk) if args.trace else None
    untraced, scaled, traced, spans_of = measure(tk, wl, args.seed, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = 0
    for results in untraced + traced:
        for r, message in zip(results, wl.check_pass(results)):
            attempted += 1
            if message:
                failed += 1
                if failed <= 20:
                    print("FAILED %s: %s" % (r.call.input_id, message))

    if tracer is None:
        metrics = end_to_end(untraced, scaled, setups, rss_mb, wl, failed, attempted)
    else:
        metrics = per_layer(untraced, traced, spans_of)
        tracer.write(os.path.join(WORK, "trace-%s-%d.json" % (args.workload, args.seed)))

    print("workload %s seed %d: %d untraced passes of %d calls, %d traced passes"
          % (args.workload, args.seed, len(untraced), len(untraced[0]), len(traced)))
    for name, (value, unit) in metrics.items():
        print("  %-28s %14.6g %s" % (name, value, unit))
    if tracer is None:
        raw = call_times([[r.seconds for r in rs] for rs in untraced])
        print("  %-28s %14.6g s" % ("unscaled wall_s", sum(raw)))
        print("  %-28s %14.6g" % ("host slowdown", sum(raw) / metrics["wall_s"][0]))
        print("  unscaled set-ups: %s s" % " ".join("%.3f" % t for t in raw_setups))
        for rs, row in zip(untraced, scaled):
            print("  pass: %.3f s unscaled, %.3f s scaled" % (sum(r.seconds for r in rs), sum(row)))
    print("  %-28s %14.6g ratio" % ("fail_ratio", failed / attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
