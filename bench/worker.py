"""Runs one workload against divsum in a fresh process.

``run.py`` starts this with a JSON job on stdin and reads one JSON result
from stdout.  Keeping the requests in their own process keeps sympy (the
oracle) out of the measured process and makes its peak RSS the workload's.

Load is a closed loop: one client, sequential, single-threaded.  Each
request is one argv passed to ``divsum.cli.run_command`` with stdout and
stderr captured.  Before each request the Bernoulli and Euler table caches
are cleared, because each real CLI call is a fresh process; they are not
cleared inside a request.  The round of requests repeats until the run has
lasted ``seconds`` and made ``min_requests`` requests.  Every round must
print exactly what the first round printed.  Between requests a
``reference.Speedometer`` times a fixed block of work now and then, and
each request's time is also recorded rescaled to nominal speed.
"""

from __future__ import annotations

import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from reference import Speedometer  # noqa: E402


def _run_one(cli, caches, argv):
    for cache in caches:
        cache.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.run_command(argv)
        except Exception as exc:  # a request that raises is a failure; the run goes on
            rc = None
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = perf_counter() - start
    return elapsed, (rc, out.getvalue().rstrip("\n"), err.getvalue())


class Runner:
    def __init__(self, cli, caches, requests):
        self.cli, self.caches, self.requests = cli, caches, requests
        self.speed = Speedometer()
        self.first: list = []  # (rc, stdout, stderr) of each request in round one
        self.mismatched = 0

    def rounds(self, seconds, min_requests, after_request=None):
        """Repeat the round; returns raw and rescaled latencies, the rescaled
        busy time (reference blocks excluded), raw wall time and rounds."""
        raw, cycles, epochs, rounds = [], [], [], 0
        start = perf_counter()
        while True:
            for i, argv in enumerate(self.requests):
                epochs.append(self.speed.tick())
                begin = perf_counter()
                elapsed, result = _run_one(self.cli, self.caches, argv)
                if after_request:
                    after_request(i)
                cycles.append(perf_counter() - begin)
                self.speed.spent(cycles[-1])
                raw.append(elapsed)
                if len(self.first) <= i:
                    self.first.append(result)
                elif result != self.first[i]:
                    self.mismatched += 1
            rounds += 1
            if perf_counter() - start >= seconds and len(raw) >= min_requests:
                break
        wall = perf_counter() - start
        scales = self.speed.scales()
        scaled = [t * scales[e] for t, e in zip(raw, epochs)]
        busy = sum(t * scales[e] for t, e in zip(cycles, epochs))
        return raw, scaled, busy, wall, rounds


def _traced_round(runner, sizes, spans_path):
    from tracer import Tracer, install, per_layer, write_spans

    tracer = Tracer()
    install(tracer)
    bernoulli, euler = runner.caches
    info = []

    def after_request(i):
        b, e = bernoulli.cache_info(), euler.cache_info()
        info.append((b.hits, b.misses, e.misses))
        tracer.request = i + 1

    tracer.request = 0
    _, _, busy, _, _ = runner.rounds(0, 0, after_request)
    metrics = per_layer(tracer)
    hits = sum(h for h, _, _ in info)
    builds = sum(m for _, m, _ in info)
    metrics["sequences.bernoulli_table.builds"] = builds
    metrics["sequences.bernoulli_table.hit_ratio"] = hits / (hits + builds) if hits + builds else 0.0
    metrics["sequences.euler_table.builds"] = sum(m for _, _, m in info)
    # Builds per request in the lower and upper half of the size argument
    # (N or K): on identities they grow with K, one table per weighted term.
    sized = sorted((s, m) for s, (_, m, _) in zip(sizes, info) if s is not None)
    half = len(sized) // 2
    for key, part in (("k_lower_half", sized[:half]), ("k_upper_half", sized[half:])):
        value = sum(m for _, m in part) / len(part) if part else 0.0
        metrics[f"sequences.bernoulli_table.builds_per_req.{key}"] = value
    if spans_path:
        Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
        write_spans(tracer, spans_path)
    return metrics, len(runner.requests) / busy


def run(job: dict) -> dict:
    sys.path.insert(0, str(BENCH.parent / "src"))
    import divsum.cli as cli
    from divsum import sequences

    # The lru_cache objects themselves: the tracer later rebinds the names.
    runner = Runner(cli, (sequences.bernoulli_table, sequences.euler_table), job["requests"])
    raw, scaled, busy, wall, rounds = runner.rounds(job["seconds"], job["min_requests"])
    result = {
        "latencies": scaled,
        "raw_latencies": raw,
        "busy_s": busy,
        "wall_s": wall,
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if job["trace"]:
        metrics, traced_rps = _traced_round(runner, job["sizes"], job.get("spans_path"))
        metrics["trace.overhead_rps"] = traced_rps - len(scaled) / busy
        result["per_layer"] = metrics
    result["first"] = runner.first
    result["mismatched"] = runner.mismatched
    return result


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
