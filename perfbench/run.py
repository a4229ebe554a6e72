"""Benchmark for realcycle: seeded workloads, exact oracles, a traced run.

One run:
    python3 perfbench/run.py --workload curves --seed 1 --seconds 30 --trace 0

runs one workload as a closed loop with a single client in this process,
times every request from outside the package, checks every answer against the
oracle planted in its input, and prints a run record line and then, as the
last line, the result object.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` installs the span recorder and reports the per-layer metrics.

Every workload in both modes, with the tracing overhead:
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Seed 1 is the default; seed 7919 is held out, for checking a claimed gain on
inputs that were not looked at while the change was written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELDOUT_SEED = 7919

SETUP_REPEATS = 15
REF_SLICE_S = 0.002         # a reference slice on the README's machine, when quiet
SLICE_EVERY_S = 0.02        # request time between two reference slices
MAX_WALL_S = 150            # ends a run early only if the program got far slower
LISTED = 200                # cap on the timeouts listed in one record

SETUP_CODE = "import realcycle, realcycle.cli; realcycle.cli.build_parser(); print(realcycle.__file__)"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("curves", "forms", "lattices", "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _commit() -> str:
    """The checked-out commit, read from .git without running git (a checkout
    may have no .git at all)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def reference_work() -> Fraction:
    """Fixed work of the kind the package does (Fraction arithmetic, small
    integers, lists, dicts), written with the standard library only, so that
    no change to realcycle changes its cost."""
    acc, counts = Fraction(0), {}
    xs = list(range(600, 0, -1))
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        counts[i % 17] = counts.get(i % 17, 0) + i * i
    xs.sort()
    return acc + sum(xs) + len(counts)


def slice_speed() -> float:
    """The machine's speed now, relative to the reference: REF_SLICE_S over
    the seconds one reference slice takes."""
    start = perf_counter()
    reference_work()
    reference_work()
    return REF_SLICE_S / (perf_counter() - start)


def at_reference(times: list[float], after: list[int], speeds: list[float]) -> list[float]:
    """Request times turned into seconds at the reference speed.  A shared
    host runs the same code up to twice as fast or slow from one second to
    the next.  Request i ran between slices after[i] and after[i] + 1, which
    saw the same changes, so its time is scaled by the mean of their speeds.
    A preempted slice has a speed near zero; it halves the scaled times of
    the requests next to it and touches no other."""
    return [t * (speeds[j] + speeds[j + 1]) / 2 for t, j in zip(times, after)]


def measure_setup() -> list[float]:
    """Fresh interpreter to `realcycle` imported and the CLI parser built, the
    cost every command-line invocation pays.  One unmeasured start first
    writes the bytecode cache, as an installed package would have it.  These
    times are not scaled: starting a process and importing did not follow the
    reference slices."""
    env = _setup_env()
    cmd = [sys.executable, "-c", SETUP_CODE]
    first = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if first.returncode != 0 or Path(first.stdout.strip()).resolve().parent != SRC / "realcycle":
        raise RuntimeError(f"set-up did not import realcycle from {SRC}: {first.stderr.strip()}")
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=120, check=True)
        samples.append(perf_counter() - start)
    return samples


def quantile(xs: list[float], q: float) -> float:
    """Harrell-Davis estimate of quantile q of sorted xs: the mean of the
    order statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density over
    their cells.  It estimates the same quantile as nearest rank, but one
    slow or fast sample moves it by a fraction of a rank, not a whole one."""
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    lo, hi = max(0, math.floor((q - 12 * sd) * n)), min(n, math.ceil((q + 12 * sd) * n))
    total = value = 0.0
    for i in range(lo, hi):                  # cell of xs[i]: [i/n, (i+1)/n], Simpson on 4 steps
        h = 1.0 / (4 * n)
        ys = [density(i / n + k * h) for k in range(5)]
        w = h / 3 * (ys[0] + 4 * ys[1] + 2 * ys[2] + 4 * ys[3] + ys[4])
        total += w
        value += w * xs[i]
    return value / total


def tail(latencies: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it) for the highest whole
    percentile that still has at least ten samples beyond it by nearest rank;
    the value is the Harrell-Davis estimate of that percentile."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 0, -1):
        rank_ = math.ceil(p * n / 100)
        if n - rank_ >= 10:
            return p, quantile(xs, p / 100), n - rank_
    rank_ = math.ceil(n / 2)
    return 50, quantile(xs, 0.5), n - rank_


class Alarm:
    """Per-request deadline: SIGALRM from an interval timer raises Deadline
    inside whatever the request is running."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.armed = False
        self.charged = None
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if not self.armed:
            return
        self.armed = False
        if self.recorder is not None:
            self.charged = self.recorder.charge_timeout()
        raise tracer.Deadline()

    def run(self, call, deadline: float):
        """(outcome, result, seconds, stale span frames cleared) with outcome
        ok / timeout / error."""
        self.charged = None
        stale = 0
        start = perf_counter()
        try:
            try:
                self.armed = True
                signal.setitimer(signal.ITIMER_REAL, deadline)
                result = call()
                outcome = "ok"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self.armed = False
        except tracer.Deadline:
            outcome, result = "timeout", None
        except (Exception, SystemExit) as exc:       # noqa: BLE001 - a crash is a wrong answer
            outcome, result = "error", "".join(traceback.format_exception_only(type(exc), exc)).strip()
        took = perf_counter() - start
        if self.recorder is not None and self.recorder.stack:
            # a deadline that fired inside a span's own bookkeeping can leave
            # its frame behind; none may outlive the request
            stale = len(self.recorder.stack)
            self.recorder.stack.clear()
        return outcome, result, took, stale


def _clear_caches(modules) -> None:
    """Drop memoised results between requests: the command line serves one
    input per process, so no request may profit from an earlier one."""
    for mod in modules:
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def run_workload(args) -> int:
    sys.path.insert(1, str(SRC))
    setup = measure_setup() if not args.trace else []
    import realcycle
    if Path(realcycle.__file__).resolve().parent != SRC / "realcycle":
        print(f"error: imported realcycle from {realcycle.__file__}, not {SRC}", file=sys.stderr)
        return 2

    recorder = None
    if args.trace:
        recorder = tracer.Recorder()
        tracer.install(recorder)
    import workloads
    layer_modules = [sys.modules[f"realcycle.{name}"] for name in tracer.LAYERS]

    alarm = Alarm(recorder)
    stream = workloads.WORKLOADS[args.workload](args.seed)
    cycles = max(1, round(args.seconds / workloads.CYCLE_S[args.workload]))
    digest = hashlib.sha256()
    cycle_digests = []
    by_kind: dict[str, dict[str, int]] = {}
    latencies: list[float] = []         # correct answers, unscaled
    times: list[float] = []             # every request, unscaled
    after: list[int] = []               # the slice each request follows
    good: list[bool] = []               # answered correctly
    speeds: list[float] = []
    timeouts, wrong = [], []
    busy = 0.0
    since_slice = SLICE_EVERY_S
    attempted = stale_frames = 0
    wall_start = perf_counter()
    while True:
        req = next(stream)
        if since_slice >= SLICE_EVERY_S:
            speeds.append(slice_speed())
            since_slice = 0.0
        outcome, result, took, stale = alarm.run(req.call, req.deadline)
        stale_frames += stale
        busy += took
        since_slice += took
        times.append(took)
        after.append(len(speeds) - 1)
        attempted += 1
        counts = by_kind.setdefault(req.kind, {"attempted": 0, "correct": 0, "timeout": 0, "wrong": 0,
                                               "busy_s": 0.0, "max_correct_s": 0.0})
        counts["attempted"] += 1
        counts["busy_s"] += took
        problem = None
        if outcome == "ok":
            try:
                problem = req.check(result)
            except Exception as exc:                 # noqa: BLE001 - unreadable output is wrong
                problem = f"oracle could not read the answer: {type(exc).__name__}: {exc}"
        elif outcome == "error":
            problem = f"raised {result}"
        if outcome == "timeout":
            counts["timeout"] += 1
            entry = {"id": req.ident, "kind": req.kind, "deadline_s": req.deadline, "input": req.text}
            if alarm.charged:
                entry["layer"] = alarm.charged
            if len(timeouts) < LISTED:
                timeouts.append(entry)
        elif problem:
            counts["wrong"] += 1
            wrong.append({"id": req.ident, "kind": req.kind, "input": req.text, "problem": problem})
            print(f"WRONG id={req.ident} kind={req.kind} input={req.text} :: {problem}",
                  file=sys.stderr)
        else:
            counts["correct"] += 1
            counts["max_correct_s"] = max(counts["max_correct_s"], took)
            latencies.append(took)
        good.append(not problem and outcome == "ok")
        piece = f"{req.ident} {req.kind} {outcome}\n".encode()
        if outcome == "ok":
            piece += req.render(result)
        digest.update(piece)
        _clear_caches(layer_modules)
        if req.cycle_end:
            cycle_digests.append(digest.hexdigest())
            if len(cycle_digests) == cycles:
                break
        if perf_counter() - wall_start > MAX_WALL_S:
            break
    speeds.append(slice_speed())
    wall = perf_counter() - wall_start

    correct = len(latencies)
    if not correct:
        print("error: no request was answered correctly", file=sys.stderr)
        return 1
    n_timeouts = sum(c["timeout"] for c in by_kind.values())
    failed = attempted - correct
    scaled = at_reference(times, after, speeds)
    ref_latencies = [t for t, ok in zip(scaled, good) if ok]
    throughput = correct / sum(scaled)
    record = {
        "workload": args.workload, "seed": args.seed, "heldout_seed": HELDOUT_SEED,
        "trace": args.trace, "python": platform.python_version(), "commit": _commit(),
        "nproc": os.cpu_count(), "seconds": args.seconds, "cycles": len(cycle_digests),
        "attempted": attempted, "correct": correct, "wrong": len(wrong), "timeouts": n_timeouts,
        "failed_share": failed / attempted, "throughput_rps": throughput,
        "raw_throughput_rps": correct / busy, "raw_throughput_wall_rps": correct / wall,
        "speed": {"slices": len(speeds), "median": statistics.median(speeds),
                  "request_time_ratio": sum(scaled) / busy},
        "busy_s": busy, "wall_s": wall, "requests_by_kind": dict(sorted(by_kind.items())),
        "cycle_digests": cycle_digests,
        "setup_samples_s": setup,
        "timeout_list": timeouts, "wrong_list": wrong,
    }
    if recorder is None:
        p, tail_value, beyond = tail(ref_latencies)
        record["tail"] = {"percentile": p, "samples": correct, "beyond": beyond}
        ordered = sorted(latencies)
        record["raw_latency_percentiles_ms"] = {
            f"p{q}": ordered[max(1, math.ceil(q / 100 * correct)) - 1] * 1000
            for q in (50, 75, 80, 85, 90, 95, 99)}
        record["raw_latency_p50_ms"] = statistics.median(latencies) * 1000
        record["raw_latency_tail_ms"] = tail(latencies)[1] * 1000
        metrics = {
            "throughput_rps": (throughput, "1/s"),
            "latency_p50_ms": (statistics.median(ref_latencies) * 1000, "ms"),
            "latency_tail_ms": (tail_value * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    else:
        metrics = tracer.metrics(recorder)
        layers_self = sum(s.self for s in recorder.stats.values())
        unspanned = busy - recorder.top_total
        between = wall - busy
        record["accounting"] = {
            "wall_s": wall, "layers_self_s": layers_self, "unspanned_s": unspanned,
            "between_s": between, "gap_s": wall - layers_self - unspanned - between,
            "stale_frames": stale_frames,
        }
        metrics["traced.throughput_rps"] = (throughput, "1/s")
        metrics["bench.self_s"] = (between, "s")
        metrics["request.unspanned_s"] = (unspanned, "s")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, one subprocess at a time."""
    rows, bad = {}, False
    for workload in ("curves", "forms", "lattices"):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                return 1
            rows[workload, trace] = (json.loads(lines[-2])["record"], json.loads(lines[-1]))
    summary = {}
    for workload in ("curves", "forms", "lattices"):
        (rec, res), (trec, tres) = rows[workload, 0], rows[workload, 1]
        bad |= not res["correct"] or not tres["correct"]
        print(f"== {workload}  seed {args.seed}  commit {rec['commit'][:12]}  "
              f"python {rec['python']}  nproc {rec['nproc']}")
        for name, m in res["metrics"].items():
            print(f"   {name:<18} {m['value']:>14.6g} {m['unit']}")
        t = rec["tail"]
        print(f"   tail = p{t['percentile']:g} of {t['samples']} correct answers, {t['beyond']} beyond it")
        print(f"   failed_share       {rec['failed_share']:>14.6g} ratio  (attempted {rec['attempted']}, "
              f"correct {rec['correct']}, wrong {rec['wrong']}, timeouts {rec['timeouts']})")
        for entry in rec["timeout_list"]:
            print(f"     timeout id={entry['id']} {entry['kind']} after {entry['deadline_s']} s: "
                  f"{entry['input'][:160]}")
        overhead = 1 - trec["throughput_rps"] / rec["throughput_rps"]
        acc = trec["accounting"]
        print(f"   tracing overhead {overhead:.1%} of untraced throughput; traced wall "
              f"{acc['wall_s']:.3f} s = layer self times {acc['layers_self_s']:.3f} s + in requests "
              f"outside spans {acc['unspanned_s']:.3f} s + between requests {acc['between_s']:.3f} s "
              f"(gap {acc['gap_s']:.1e} s, {acc['stale_frames']} stale frames)")
        summary[workload] = {"record": rec, "metrics": res["metrics"],
                             "traced_record": trec, "per_layer": tres["metrics"],
                             "tracing_overhead": overhead}
    print(json.dumps(summary, sort_keys=True))
    return 1 if bad else 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "realcycle" / "__init__.py").is_file():
        print(f"error: no realcycle sources in {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
