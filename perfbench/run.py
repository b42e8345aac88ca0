"""Run a rotorsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain_gap --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --seconds 24     # every workload, one interpreter each

A run sets up (imports, warm-up), then repeats the workload's command lines
through `rotorsim.cli.main` until --seconds have passed, checking every
output. Times are reported at a fixed machine speed: a short pace unit
(prepare.pace) is timed every PACE_INTERVAL_S while the commands run, and
the mean time of a repetition is scaled by the mean of PACE_REF_S / (pace
unit time) over the run.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced repetitions and reports per-layer metrics
derived from the spans. The last line of standard output is a JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import prepare

prepare.configure_process()  # before anything imports numpy

import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 8
# wall_s and setup_s are times at the speed at which one prepare.pace() unit
# takes this long. On the 2-vCPU machine the benchmark was sized on the unit
# took 8 to 15 ms as other tenants loaded the host.
PACE_REF_S = 0.010
PACE_INTERVAL_S = 0.25
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Rep:
    wall: float
    cpu: float
    paces: list  # prepare.pace() samples taken while the ops ran
    outputs: list  # (exit code, stdout) per op
    op_spans: list  # (first, end) index into tracer.spans per op
    tracer: spans.Tracer | None = None

    @property
    def traced(self) -> bool:
        return self.tracer is not None


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def at_reference_speed(times, paces) -> float:
    """Mean of `times` at the speed at which prepare.pace() takes PACE_REF_S.

    PACE_REF_S / pace is the machine's speed at one instant relative to the
    reference. The samples are spread evenly over the time measured, so
    their mean is the mean relative speed over that time, and the work done
    in a time t would take t * (mean relative speed) at the reference speed.
    The host's speed flips between levels within seconds, so the mean over
    the whole run, not a ratio per repetition, is taken.
    """
    return statistics.fmean(times) * statistics.fmean(PACE_REF_S / p for p in paces)


def setup_seconds() -> tuple:
    """Time from starting a probe interpreter to its "ready" line.

    Returns (mean at the reference speed, median as measured).
    """
    times, paces = [], [prepare.pace()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py")],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit("error: set-up probe failed")
        paces.append(prepare.pace())
    return at_reference_speed(times, paces), statistics.median(times)


class Pacer:
    """Times prepare.pace() every PACE_INTERVAL_S of wall time while active.

    A SIGALRM handler runs the unit in the main thread between bytecodes, so
    the samples are taken on the core the program runs on and spread evenly
    over time, however long each command line runs. `spent` and `spent_cpu`
    are the time the samples took, which the caller takes out of its
    timings.
    """

    def __init__(self):
        self.paces, self.spent, self.spent_cpu = [], 0.0, 0.0

    def _sample(self, signum, frame):
        cpu0, start = _cpu_seconds(), time.perf_counter()
        self.paces.append(prepare.pace())
        self.spent += time.perf_counter() - start
        self.spent_cpu += _cpu_seconds() - cpu0

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PACE_INTERVAL_S, PACE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_rep(cli, ops, outdir, traced: bool) -> Rep:
    """One pass over `ops`; untraced passes also sample the pace.

    Traced passes take no pace samples, so spans hold only program time.
    """
    shutil.rmtree(outdir, ignore_errors=True)
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    outputs, bounds, pacer = [], [], Pacer()
    try:
        with contextlib.nullcontext() if traced else pacer:
            cpu0, t0 = _cpu_seconds(), time.perf_counter()
            spent0, spent_cpu0 = pacer.spent, pacer.spent_cpu
            for op in ops:
                first = len(tracer.spans) if tracer else 0
                outputs.append(prepare.run_cli(cli, op.argv + ("--out", str(outdir / op.label))))
                bounds.append((first, len(tracer.spans) if tracer else 0))
            wall = time.perf_counter() - t0 - (pacer.spent - spent0)
            cpu = _cpu_seconds() - cpu0 - (pacer.spent_cpu - spent_cpu0)
    finally:
        if tracer:
            tracer.uninstall()
    return Rep(wall, cpu, pacer.paces, outputs, bounds, tracer)


def _differing_files(baseline, outdir) -> list:
    names = sorted(p.name for p in baseline.iterdir()) if baseline.is_dir() else []
    if names != sorted(p.name for p in outdir.iterdir()):
        return ["output file set differs from the first repetition"]
    return [f"{name} differs from the first repetition" for name in names
            if (baseline / name).read_bytes() != (outdir / name).read_bytes()]


def check_rep(rep, ops, outdir, baseline, oracles, reference, residual_tol) -> list:
    """Problems per op: [(label, [problem, ...]), ...] for ops that failed."""
    failed = []
    for op, (code, stdout), (first, end) in zip(ops, rep.outputs, rep.op_spans):
        problems = [f"exit code {code}"] if code != 0 else []
        if code == 0:
            summary = workloads.summarize(op.label, outdir / op.label, stdout)
            problems += workloads.check_op(op, summary, oracles)
            problems += workloads.compare_reference(op.label, summary, reference)
            if baseline is not None:
                problems += _differing_files(baseline / op.label, outdir / op.label)
            op_spans = rep.tracer.spans[first:end] if rep.traced else []
            residual = max((s.attrs.get("max_residual", 0.0) for s in op_spans), default=0.0)
            if residual > residual_tol:
                problems.append(f"eigenpair residual {residual:.3g} exceeds {residual_tol:g}")
        if problems:
            failed.append((op.label, problems))
    return failed


def run_workload(args) -> dict:
    cli = prepare.import_cli()
    prepare.pace()  # the first call pays numpy's lazy set-up
    from rotorsim import spectra
    residual_tol = getattr(spectra, "RESIDUAL_TOL", 1e-8)
    env = prepare.environment()
    ops = workloads.make_ops(args.workload, args.seed, prepare.ROOT)
    out = prepare.OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)

    setup_s, setup_raw_s = (None, None) if args.trace else setup_seconds()
    prepare.warm_up(cli, workloads.warm_up_ops(prepare.ROOT), out / "warm_up")
    oracles = workloads.oracles(ops)
    reference = {}
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {})

    reps, problems = [], []
    start = time.perf_counter()
    while True:
        rep_dir = out / f"rep{len(reps)}"
        rep = run_rep(cli, ops, rep_dir, traced=bool(args.trace) and len(reps) % 2 == 1)
        baseline = out / "rep0" if reps else None
        problems += check_rep(rep, ops, rep_dir, baseline, oracles, reference, residual_tol)
        if reps:
            shutil.rmtree(rep_dir)
        reps.append(rep)
        # stop once another repetition would end more than half a repetition late
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall for r in reps)
        if len(reps) >= 1 + args.trace and elapsed + typical / 2 > args.seconds:
            break

    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    wall_s = at_reference_speed([r.wall for r in untraced],
                                [p for r in untraced for p in r.paces])
    wall_raw_s = statistics.median(r.wall for r in untraced)
    if args.trace:
        per_rep = [spans.layer_metrics(r.tracer.spans) for r in traced]
        values = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        values["process.cpu_s"] = statistics.median(r.cpu for r in untraced)
        values["trace_overhead_s"] = statistics.median(r.wall for r in traced) - wall_raw_s
        units = spans.PER_LAYER
    else:
        values = {"wall_s": wall_s, "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    attempted = len(ops) * len(reps)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "wall_raw_s": wall_raw_s, "setup_raw_s": setup_raw_s,
              "repetitions": [{"wall_raw_s": r.wall, "cpu_s": r.cpu,
                               "pace_s": r.paces, "traced": r.traced} for r in reps],
              "error_rate": len(problems) / attempted, "problems": problems, **result}
    if args.trace:
        record["missing_names"] = sorted(set().union(*(r.tracer.missing for r in traced)))
        spans_path = prepare.OUT / f"{args.workload}.spans.json"
        spans_path.write_text(json.dumps(
            [row for i, r in enumerate(traced) for row in spans.span_records(r.tracer.spans, i)]))
    (prepare.OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    _print_report(record)
    return result


def _print_report(record):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{len(record['repetitions'])} repetitions  trace {record['trace']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'wall_raw_s':28s} {record['wall_raw_s']:.6g} s (as measured)")
    if record["setup_raw_s"] is not None:
        print(f"  {'setup_raw_s':28s} {record['setup_raw_s']:.6g} s (as measured)")
    print(f"  {'error_rate':28s} {record['error_rate']:.6g} "
          f"({record['failed']} of {record['attempted']} ops failed)")
    for label, problems in record["problems"]:
        print(f"  FAILED {label}: {'; '.join(problems)}")
    if record.get("missing_names"):
        print(f"  not traced (names not found): {', '.join(record['missing_names'])}")
    print(f"  environment {json.dumps(record['environment'])}")


def run_all(args):
    results = {}
    for name in workloads.WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with {done.returncode}")
        results[name] = json.loads(lines[-1])
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args) if args.workload else run_all(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
