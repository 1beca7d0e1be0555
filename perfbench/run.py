"""Closed-loop benchmark of the pisot CLI: one client, one request at a time.

    python3 perfbench/run.py --workload {search,powers,modular} --seed N \
        --seconds S --trace {0,1}

Each request is the argv a user would type, run in-process through
pisot.cli.run with --json, under a per-request time cap; interpreter
start-up is measured separately as setup_s. Every answer is checked
against the benchmark's own oracles (oracles.py). A run's request list is a
fixed number of seeded passes (workloads.py); --seconds sets that number, at
about that many seconds of work on the commit that defined the benchmark.
The list is sent in a fixed number of rounds, and the timing metrics use
each request's median time over the rounds.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 each round also runs traced, and it holds the per-layer metrics
(tracing.py) and the tracing overhead. A wrong answer is listed with its
input and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import mpmath

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

WORKLOADS = ("search", "powers", "modular")
SETUP_REPEATS = 9
# The host's speed drifts by up to 1.7x, in phases from seconds to minutes,
# and it moves the program's times and those of reference_work() alike. The
# run does the reference work before a request at most every
# REFERENCE_EVERY_S. Each time in the result is scaled by REFERENCE_S / (the
# median of the REFERENCE_NEAR reference times nearest to it): it reads as
# seconds on a host where the reference work takes REFERENCE_S, about what it
# took on the 2-CPU host where the benchmark was defined.
REFERENCE_S = 0.0125
REFERENCE_EVERY_S = 0.3
REFERENCE_NEAR = 15


class RequestTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so that no handler in the program
    (the CLI catches OSError, and TimeoutError is one) can swallow it."""


class Outcome:
    __slots__ = ("label", "seconds", "kind", "detail", "started")

    def __init__(self, label, seconds, kind, detail="", started=0.0):
        self.label, self.seconds, self.kind, self.detail = label, seconds, kind, detail
        self.started = started


def measure_setup(repeats: int) -> list[float]:
    """Times to start a fresh interpreter and import pisot.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pisot.cli"
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(perf_counter() - t0)
    return times


def _error_class(stderr: str) -> str:
    head = stderr.strip().split(":", 1)[0]
    return head if head.isidentifier() else "unknown"


_REFERENCE_INT = 7 ** 20000


def reference_work() -> float:
    """Seconds for a fixed piece of work that shares no code with the
    program, of the three kinds the program spends its time in: a loop of
    small-integer arithmetic, products of 17000-digit integers, and mpmath
    arithmetic at 60 digits."""
    t0 = perf_counter()
    x = 0
    for i in range(10000):
        x = (x * 31 + i) & 0xFFFFFFFF
    for _ in range(4):
        _REFERENCE_INT * _REFERENCE_INT
    with mpmath.workdps(60):
        r, acc = mpmath.sqrt(2), mpmath.mpf(0)
        for i in range(750):
            acc += r * i / (i + 1)
    return perf_counter() - t0


class Client:
    """Sends requests through pisot.cli.run and classifies each outcome:
    ok, rejected (a typed error that was expected), error:<Class>, timeout,
    or wrong."""

    def __init__(self, cli):
        self.cli = cli
        self.reference = []  # (midpoint, seconds) of each reference_work()
        self.started = 0.0  # when the last request started
        self._next_reference = 0.0
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._armed:
            raise RequestTimeout()

    def send(self, req):
        """Returns (seconds, kind, detail); kind "value" means rc 0 with
        stdout in detail, still to be checked."""
        if req.before is not None:
            req.before()
        if perf_counter() >= self._next_reference:
            seconds = reference_work()
            self._next_reference = perf_counter() + REFERENCE_EVERY_S
            self.reference.append((perf_counter() - seconds / 2, seconds))
        # Start every request from a collected heap, as a fresh CLI process
        # does; otherwise a full collection left pending by earlier requests
        # lands on a random later one.
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        rc = crash = None
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, req.cap_s)
        t0 = self.started = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.run(req.argv)
        except RequestTimeout:
            rc = "timeout"
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an untyped crash is an outcome to report
            crash = exc
        finally:
            elapsed = perf_counter() - t0
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        if rc == "timeout":
            return elapsed, "timeout", f"no answer within {req.cap_s:g} s"
        if crash is not None:
            return elapsed, f"error:{type(crash).__name__}", str(crash)[:200]
        if rc != 0:
            return elapsed, f"error:{_error_class(err.getvalue())}", err.getvalue().strip()[:200]
        return elapsed, "value", out.getvalue()


def classify(req, kind, detail) -> tuple[str, str]:
    if kind == "value":
        if req.expect == "reject":
            return "wrong", "a value where a typed error was expected"
        why = req.check(detail)
        return ("ok", "") if why is None else ("wrong", why)
    if req.expect == "reject" and kind.startswith("error:") and kind != "error:unknown":
        return "rejected", kind[len("error:"):]
    return kind, detail


def tail(latencies):
    """The highest percentile with at least ten requests beyond it:
    (value, percentile, requests beyond)."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0, 0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs), 10


def environment(seed: int) -> dict:
    import mpmath
    import pisot

    digest = hashlib.sha256()
    for path in sorted((SRC / "pisot").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "commit": _git_head(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "pisot_backend": getattr(pisot, "BACKEND", None),
        "cpus": os.cpu_count(),
        "seed": seed,
    }


def _git_head():
    """The commit, read from .git without running git (a checkout may have
    no .git, and git would search the parent directories)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_round(client, reqs, order, first_round, timed_out, tracer=None, first_id=0):
    """Sends reqs[i] for i in order. After the first round it skips requests
    marked `once` and those in timed_out: a request that hit its cap is not
    sent again in the same mode, since its time is the cap. Returns
    (index, Outcome) pairs."""
    done = []
    if tracer is not None:
        tracer.install()
    try:
        for i in order:
            if i in timed_out or (reqs[i].once and not first_round):
                continue
            if tracer is not None:
                tracer.request_id = first_id + len(done)
            seconds, kind, detail = client.send(reqs[i])
            kind, detail = classify(reqs[i], kind, detail)
            if kind == "timeout":
                timed_out.add(i)
            done.append((i, Outcome(reqs[i].label, seconds, kind, detail, client.started)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return done


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pisot" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC / 'pisot'}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import pisot.cli

    import tracing
    import workloads

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=scratch)
    rounds = workloads.ROUNDS[args.workload]
    try:
        n_passes = workloads.passes_for(args.workload, args.seconds)
        gen = workloads.Generator(args.workload, args.seed, n_passes, workdir)
        groups = [g for p in range(n_passes) for g in gen.build(p)]
        reqs = [req for g in groups for req in g]
        starts = [sum(map(len, groups[:j])) for j in range(len(groups))]
        client = Client(pisot.cli)
        tracer = tracing.Tracer() if args.trace else None
        # Each mode (untraced, traced) keeps every request's outcomes over the
        # rounds; the metrics use the median of their times.
        samples = {False: [[] for _ in reqs], True: [[] for _ in reqs]}
        setups = []  # (when, times) of each group of set-up samples
        timed_out = {False: set(), True: set()}
        outcomes, request_s, sent_as = [], {}, {}
        for r in range(rounds):
            # Interpreter start-up is sampled between rounds, so that its
            # median, like the request times, spans the whole run.
            setups.append((perf_counter(), measure_setup(-(-SETUP_REPEATS // rounds))))
            # Odd rounds run the groups in reverse, so that the repeats of
            # each request lie at different distances in time.
            js = range(len(groups)) if r % 2 == 0 else reversed(range(len(groups)))
            order = [starts[j] + k for j in js for k in range(len(groups[j]))]
            # A traced run repeats each round traced, first after and then
            # before the untraced one.
            modes = ((False, True) if r % 2 == 0 else (True, False)) if tracer else (False,)
            for traced in modes:
                first = len(request_s)
                done = run_round(client, reqs, order, r == 0, timed_out[traced],
                                 tracer if traced else None, first)
                for n, (i, o) in enumerate(done):
                    outcomes.append(o)
                    samples[traced][i].append(o)
                    if traced:
                        request_s[first + n] = o.seconds
                        sent_as[first + n] = i
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = statistics.median(x for _, xs in setups for x in xs)

    counts: dict[str, int] = {}
    for o in outcomes:
        counts[o.kind] = counts.get(o.kind, 0) + 1
    attempted = len(outcomes)
    failed = sum(n for kind, n in counts.items() if kind not in ("ok", "rejected"))
    wrong = [o for o in outcomes if o.kind == "wrong"]
    latencies = [statistics.median(o.seconds for o in os_) for os_ in samples[False]]
    tail_s, tail_pct, beyond = tail(latencies)
    reference_ms = 1000 * statistics.median(s for _, s in client.reference)
    when = [t for t, _ in client.reference]

    def scale(t):
        j = bisect.bisect_left(when, t)
        near = client.reference[max(0, j - REFERENCE_NEAR // 2):j + REFERENCE_NEAR // 2 + 1]
        return REFERENCE_S / statistics.median(s for _, s in near)

    # A request that hit its cap took the cap in wall time, not work, so its
    # time is not scaled.
    scaled = [statistics.median(o.seconds if o.kind == "timeout" else
                                o.seconds * scale(o.started + o.seconds / 2) for o in os_)
              for os_ in samples[False]]
    scaled_setup_s = statistics.median(x * scale(t) for t, xs in setups for x in xs)
    problems = []

    print(f"workload {args.workload}: seed {args.seed}, {len(reqs)} requests from "
          f"{n_passes} pass(es), {rounds} rounds, {attempted} sent, closed loop, 1 client")
    print("outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    print(f"fail_ratio {failed / attempted:.4f} (1); op_tail_ms is p{tail_pct:.1f} of "
          f"{len(latencies)} request medians, {beyond} beyond it")
    print(f"reference work: median {reference_ms:.4f} ms of {len(client.reference)}; "
          f"unscaled solve_s {sum(latencies):.6g} s, "
          f"op_p50_ms {1000 * statistics.median(latencies):.6g}, op_tail_ms {1000 * tail_s:.6g}, "
          f"setup_s {setup_s:.6g}")
    seen = set()
    for o in outcomes:  # every wrong answer, and one example of each failure class
        if o.kind == "wrong" or (o.kind != "ok" and o.kind not in seen):
            seen.add(o.kind)
            print(f"  {o.kind}: {o.label} ({o.seconds:.2f} s) {o.detail[:160]}")

    if tracer is not None:
        problems = tracing.check_spans(tracer.spans, request_s)
        tracer.write(str(scratch / f"spans-{args.workload}-{args.seed}.jsonl"))
        sends = Counter(sent_as.values())
        weights = {rid: 1 / sends[i] for rid, i in sent_as.items()}
        metrics = tracing.layer_metrics(tracer.spans, weights)
        untraced = sum(latencies)
        traced = sum(statistics.median(o.seconds for o in os_) for os_ in samples[True])
        metrics.update({
            "trace.solve_s_untraced": (untraced, "s"),
            "trace.solve_s_traced": (traced, "s"),
            "trace.overhead_s": (traced - untraced, "s"),
            "trace.spans": (sum(weights[s[4]] for s in tracer.spans), "count"),
            "host.reference_ms": (reference_ms, "ms"),
            "fail_ratio": (failed / attempted, "1"),
        })
        for p in problems:
            print(f"span check: {p}")
    else:
        metrics = {
            "solve_s": (sum(scaled), "s"),
            "op_p50_ms": (1000 * statistics.median(scaled), "ms"),
            "op_tail_ms": (1000 * tail(scaled)[0], "ms"),
            "ok_ratio": (1 - failed / attempted, "1"),
            "setup_s": (scaled_setup_s, "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if wrong:
        print(f"WRONG ANSWERS: {len(wrong)}")
    print("env " + json.dumps(environment(args.seed)))
    correct = not wrong and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
