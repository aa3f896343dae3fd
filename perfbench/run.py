"""genpos benchmark: one workload per process, closed loop, every result checked.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Runs passes over the workload's ops, one op at a time in an order shuffled
by the seed, until --seconds have passed and at least MIN_PASSES passes are
done.  Each op runs under a time limit (SIGALRM) and its result is checked
against a reference outside the timed region.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The lines before it give the same figures for people,
plus failed_frac, the failures by category (timeout, error, wrong), the
tail percentile used and the raw wall time.  ``--workload all`` runs every
workload, each in a fresh process.

Times are in reference seconds (see CAL_REF_S).  End-to-end metrics, with
tracing off:
  setup_s      median over SETUP_REPEATS fresh processes of: import genpos, build
               the workload's graphs, write its graph files
  wall_s       one pass: the sum over ops of each op's median latency
  op_p50_ms    median over ops of each op's median latency
  op_tail_ms   the per-op median latency at the highest percentile that
               has at least ten samples beyond it in MIN_PASSES passes
  peak_rss_mb  peak resident set of this process or any child it waited for
A timed-out op counts at its limit.

Per-layer metrics (--trace 1): calls and self time of each traced function
(see layers.py) for one set-up plus one pass, distinct graphs per call of
the distance and interval tables, interpreter and import times of the CLI
(measured on the cli workload only, 0 elsewhere), the outcomes of the
hard-tail probes, and the tracing overhead (traced wall_s minus untraced
wall_s, both measured in this run).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads as wl  # noqa: E402

WORKLOADS = tuple(wl.SPEC["workloads"])
SETUP_REPEATS = 15
# Every run makes at least this many passes, so that the tail percentile
# (see Measurement.tail) has ten samples beyond it in every run.
MIN_PASSES = 3
CLI_LAYER_REPEATS = 3
CLI_LAYER_KEYS = ("cli.interpreter_s", "cli.import_s", "cli.import_numpy_s")
# Machine speed on a shared VM drifts by a third within minutes, and every
# timing drifts with it.  A fixed pure-Python loop timed around the ops
# tracks that drift: over 150 s of one repeated solve, the quartile spread
# of 10 s block medians was 0.28 for raw times and 0.03 for their ratio to
# the loop.  So times are reported in reference seconds: raw seconds x
# CAL_REF_S / the loop's time measured around them.  CAL_REF_S is a fixed
# constant within the loop's range on the 2-vCPU VM (Python 3.11) where the
# benchmark was defined, 1.3 to 2.0 ms, so there the two units are close.
CAL_LOOPS = 4000
CAL_REF_S = 0.0015
CAL_EVERY_S = 0.1


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that ran past its limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_genpos():
    """Import genpos from this checkout's src/, never from elsewhere."""
    if not (wl.SRC / "genpos" / "__init__.py").is_file():
        raise SystemExit(f"error: no genpos package under {wl.SRC}")
    sys.path.insert(0, str(wl.SRC))
    import genpos

    if Path(genpos.__file__).resolve().parent != wl.SRC / "genpos":
        raise SystemExit(f"error: imported genpos from {genpos.__file__}, not {wl.SRC}")
    return genpos


def workdir_for(workload: str) -> Path:
    return wl.HERE / ".work" / f"{workload}-{os.getpid()}"


def calibrate() -> float:
    """Median time of three runs of a fixed pure-Python loop (no genpos)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc, table = 0, list(range(64))
        for i in range(CAL_LOOPS):
            m = (i * 2654435761) & 0xFFFFFFFF
            acc = ((acc ^ table[m & 63] | (m >> 7)) << 1) & 0xFFFFFFFF
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup_once(workload: str, seed: int) -> float:
    """One set-up in this fresh process, in reference seconds; its files
    are removed after."""
    before = calibrate()
    start = time.perf_counter()
    gp = import_genpos()
    workdir = workdir_for(workload)
    wl.build(gp, workload, seed, wl.Checker(gp), workdir)
    elapsed = time.perf_counter() - start
    factor = CAL_REF_S / ((before + calibrate()) / 2)
    shutil.rmtree(workdir, ignore_errors=True)
    return elapsed * factor


def median_setup_s(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, check=True, cwd=wl.ROOT,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_op(op, limit: float):
    """(outcome, seconds, result, detail) with outcome ok, timeout or error."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        result = op.run()
        elapsed = time.perf_counter() - start
    except OpTimeout:
        return "timeout", limit, None, f"over {limit} s"
    except Exception as exc:  # every crash, RecursionError included, is a failed op
        return "error", time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return "ok", elapsed, result, None


class Measurement:
    """Latency samples and outcomes of whole passes over a list of ops.

    Raw op times wait in ``pending`` until the next calibration; each is
    then converted to reference seconds with the mean of the calibrations
    just before and just after it.
    """

    def __init__(self):
        self.samples = defaultdict(list)
        self.raw = defaultdict(list)
        self.outcomes = Counter()
        self.failures = []
        self.passes = 0
        self.pass_records = []
        self.factors = []
        self._pending = []
        self._cal = calibrate()
        self._cal_at = time.perf_counter()

    def record(self, op, outcome, elapsed, detail):
        self._pending.append((op.name, elapsed))
        self.outcomes[outcome] += 1
        if outcome != "ok":
            self.failures.append((outcome, op.name, detail))
        if time.perf_counter() - self._cal_at >= CAL_EVERY_S:
            self.calibrate()

    def calibrate(self):
        cal = calibrate()
        factor = CAL_REF_S / ((self._cal + cal) / 2)
        for name, elapsed in self._pending:
            self.samples[name].append(elapsed * factor)
            self.raw[name].append(elapsed)
        self.factors.append(factor)
        self._pending.clear()
        self._cal, self._cal_at = cal, time.perf_counter()

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes["ok"]

    def wall_s(self, raw=False) -> float:
        samples = self.raw if raw else self.samples
        return sum(statistics.median(v) for v in samples.values())

    def per_op(self) -> list:
        """Each op's median latency, longest first."""
        return sorted((statistics.median(v) for v in self.samples.values()), reverse=True)

    def tail(self):
        """(latency, percentile): the per-op median with at least ten
        samples beyond it in a run of MIN_PASSES passes."""
        meds = self.per_op()
        k = min(-(-10 // MIN_PASSES), len(meds) - 1)
        return meds[k], 100.0 * (1.0 - k / len(meds))


def measure(ops, limit, seconds, rng, tracer=None) -> Measurement:
    m = Measurement()
    deadline = time.perf_counter() + seconds
    while m.passes < MIN_PASSES or time.perf_counter() < deadline:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            # an untraced run may end inside a pass; traced records stay per whole pass
            if tracer is None and m.passes >= MIN_PASSES and time.perf_counter() >= deadline:
                m.calibrate()
                return m
            outcome, elapsed, result, detail = run_op(op, limit)
            if outcome == "ok":
                with tracer.paused() if tracer else contextlib.nullcontext():
                    detail = op.check(result)
                if detail is not None:
                    outcome = "wrong"
            m.record(op, outcome, elapsed, detail)
        m.passes += 1
        if tracer is not None:
            m.pass_records.append(tracer.take())
    m.calibrate()
    return m


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def _timed_child(code: str, extra=()) -> "tuple[float, str]":
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, *extra, "-c", code], capture_output=True, text=True,
        check=True, cwd=wl.ROOT, env=wl.cli_env(),
    )
    return time.perf_counter() - start, out.stdout + out.stderr


def cli_layer() -> dict:
    """Interpreter start-up, import of genpos.cli, and numpy's share of it,
    in reference seconds."""
    before = calibrate()
    interp = [_timed_child("pass")[0] for _ in range(CLI_LAYER_REPEATS)]
    code = "import time; t = time.perf_counter(); import genpos.cli; print(time.perf_counter() - t)"
    imports = [float(_timed_child(code)[1].split()[-1]) for _ in range(CLI_LAYER_REPEATS)]
    numpy_s = []
    for _ in range(CLI_LAYER_REPEATS):
        text = _timed_child("import genpos.cli", ("-X", "importtime"))[1]
        for line in text.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                numpy_s.append(int(parts[1]) / 1e6)
    factor = CAL_REF_S / ((before + calibrate()) / 2)
    numpy_median = statistics.median(numpy_s) if numpy_s else 0.0
    values = (statistics.median(interp), statistics.median(imports), numpy_median)
    return {key: value * factor for key, value in zip(CLI_LAYER_KEYS, values)}


def layer_metrics(setup_record: dict, m: Measurement) -> dict:
    """Calls and self time (reference seconds, at the run's median
    calibration factor) for one set-up plus one traced pass."""
    out = {}
    passes = m.pass_records
    factor = statistics.median(m.factors)
    for name in layers.span_names():
        calls = setup_record["calls"].get(name, 0) + statistics.fmean(
            r["calls"].get(name, 0) for r in passes
        )
        self_s = setup_record["self_s"].get(name, 0.0) + statistics.fmean(
            r["self_s"].get(name, 0.0) for r in passes
        )
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s * factor, "s")
    for name in layers.DISTINCT_KEYS:
        calls = sum(r["calls"].get(name, 0) for r in passes)
        distinct = sum(len(r["distinct"].get(name, ())) for r in passes)
        out[f"{name}.graphs_per_call"] = (distinct / calls if calls else 0.0, "graphs/call")
    return out


def report(workload, m: Measurement, metrics: dict, extra_lines=()):
    print(f"== {workload}: {m.passes} passes, {m.attempted} ops attempted, {m.failed} failed")
    for outcome, name, detail in m.failures[:20]:
        print(f"FAILED {outcome}: {name}: {detail}")
    for line in extra_lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    gp = import_genpos()
    setup_s = None if traced else median_setup_s(workload, seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    limit = wl.SPEC["workloads"][workload]["op_limit_s"]
    rng = random.Random(seed)
    checker = wl.Checker(gp)
    workdir = workdir_for(workload)
    try:
        ops, probes = wl.build(gp, workload, seed, checker, workdir)
        if not traced:
            m = measure(ops, limit, seconds, rng)
            tail, pct = m.tail()
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (m.wall_s(), "s"),
                "op_p50_ms": (1000.0 * statistics.median(m.per_op()), "ms"),
                "op_tail_ms": (1000.0 * tail, "ms"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            lines = [
                f"{workload} failed_frac = {m.failed / m.attempted:.6g} "
                f"(wrong {m.outcomes['wrong']}, error {m.outcomes['error']}, timeout {m.outcomes['timeout']})",
                f"{workload} op_tail_ms is p{pct:.1f} of {len(m.samples)} per-op median latencies, "
                f"each over {m.passes} to {m.passes + 1} passes",
                f"{workload} raw wall_s = {m.wall_s(raw=True):.6g} s; reference s per raw s: "
                f"median {statistics.median(m.factors):.4g} over {len(m.factors)} calibrations",
            ]
            return report(workload, m, metrics, lines)

        untraced = measure(ops, limit, seconds / 2, rng)
        tracer = layers.Tracer()
        tracer.install()
        tracer.active = True
        ops, probes = wl.build(gp, workload, seed, checker, workdir, tracer)
        setup_record = tracer.take()
        m = measure(ops, limit, seconds / 2, rng, tracer)
        tracer.active = False
        metrics = layer_metrics(setup_record, m)
        # the interpreter and import times matter only where each op is a subprocess
        cli = cli_layer() if workload == "cli" else dict.fromkeys(CLI_LAYER_KEYS, 0.0)
        metrics.update({k: (v, "s") for k, v in cli.items()})
        outcomes = Counter()
        lines = []
        for op in wl.certificate_ops(gp, checker, "solve", probes, seed):
            outcome, elapsed, result, detail = run_op(op, limit)
            if outcome == "ok":
                detail = op.check(result)
                outcome = "ok" if detail is None else "wrong"
            outcomes[outcome] += 1
            lines.append(f"probe {outcome}: {op.name} ({elapsed:.3f} s){': ' + detail if detail else ''}")
        for outcome in ("ok", "wrong", "error", "timeout"):
            metrics[f"probe.{outcome}"] = (outcomes[outcome], "count")
        metrics["trace.overhead_s"] = (m.wall_s() - untraced.wall_s(), "s")
        lines.append(f"{workload} traced wall_s = {m.wall_s():.6g} s, untraced wall_s = {untraced.wall_s():.6g} s")
        return report(workload, m, metrics, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own fresh process; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=wl.ROOT,
        )
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            return out.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(setup_once(args.workload, args.seed))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
