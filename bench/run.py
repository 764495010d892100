"""The divsum benchmark: four seeded CLI workloads, checked against sympy.

Usage, from the root of a checkout::

    python3 bench/run.py --workload tables --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke      # every workload once, plus self-checks

A run times set-up, generates one round of requests from the seed
(``workloads.py``), computes the expected answers with sympy and mpmath
(``oracle.py``), runs the round in a fresh worker process (``worker.py``)
until ``--seconds`` have passed, times set-up again and checks every
output.  It prints a report line (provenance, raw wall-clock figures,
failure classes, wrong results) and, last, one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the worker adds one traced
round after the timed rounds and the metrics are the per-layer ones
(``tracer.py``), with the spans written to ``bench/out/``.  A run whose
outputs disagree with the oracle prints ``"correct": false`` and exits 1;
a run that cannot run exits 2 and prints no result.

End-to-end metrics.  Times are rescaled to nominal machine speed by the
fixed reference block of ``reference.py``; the report line gives the raw
ones too.

* ``setup_s``: median time of a fresh interpreter that imports
  ``divsum.cli`` and calls ``build_parser()``, over 16 starts, half before
  and half after the timed rounds.
* ``req_p50_ms``: median request latency, failed requests included.
* ``req_tail_ms``: p90 latency.  Every run makes at least 100 requests, so
  at least ten samples lie beyond it.
* ``throughput_rps``: requests completed per second of run time.
* ``success_ratio``: 1 - failed / attempted.  A request fails when it
  raises, prints "numeric evaluation failed", exits 2, or reports a FAIL
  comparison; a correct "not summable" verdict is a success.
* ``peak_rss_mb``: peak RSS of the worker process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from oracle import FAILURES, Oracle, classify  # noqa: E402
from reference import Speedometer  # noqa: E402

MIN_REQUESTS = 100
TAIL_PERCENTILE = 90
SETUP_STARTS = 8  # before the timed rounds, and as many again after them
SETUP_CODE = "import divsum.cli; divsum.cli.build_parser()"


class BenchError(Exception):
    """The benchmark cannot run here, e.g. divsum's sources are missing."""


def _env():
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def time_setup(starts) -> list:
    """Times, rescaled to nominal speed, of fresh interpreters up to a
    built CLI parser."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    speed = Speedometer(every_s=0)
    times, epochs = [], []
    for _ in range(starts):
        epochs.append(speed.tick())
        start = perf_counter()
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, timeout=60)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"cannot import divsum.cli: {proc.stderr.decode()[-300:]}")
    speed.tick()
    scales = speed.scales()
    return [t * scales[e] for t, e in zip(times, epochs)]


def run_worker(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")], input=json.dumps(job).encode(),
        env=_env(), cwd=ROOT, capture_output=True, timeout=170,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.decode()[-500:]}")
    return json.loads(proc.stdout)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def _git_commit():
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
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


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_loc():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def provenance(workload, seed, round_size):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
        "workload": workload,
        "requests_per_round": round_size,
        "src_loc": _src_loc(),
    }


def run_workload(workload, seed, seconds, trace, min_requests=MIN_REQUESTS, limit=None):
    """One benchmark run.

    Returns the report, the result line, and (requests, expected answers,
    first-round outputs) for the self-checks.
    """
    if not (ROOT / "src" / "divsum" / "cli.py").is_file():
        raise BenchError(f"no divsum sources under {ROOT / 'src'}")
    time_setup(1)  # writes the bytecode cache, as a first CLI call would
    setup_times = time_setup(SETUP_STARTS)
    requests = workloads.generate(workload, seed)[:limit]
    oracle = Oracle()
    expected = [oracle.expected(spec) for _, spec in requests]
    res = run_worker({
        "requests": [argv for argv, _ in requests],
        "sizes": [workloads.size_of(spec) for _, spec in requests],
        "seconds": seconds,
        "min_requests": min_requests,
        "trace": trace,
        "spans_path": str(BENCH / "out" / f"spans-{workload}-seed{seed}.jsonl") if trace else None,
    })
    setup_times += time_setup(SETUP_STARTS)
    outcomes = [classify(spec, exp, *out)
                for (_, spec), exp, out in zip(requests, expected, res["first"])]
    per_round = Counter(outcomes)
    rounds = res["rounds"]
    lat, raw = res["latencies"], res["raw_latencies"]
    attempted = len(lat)
    failed = sum(per_round[f] for f in FAILURES) * rounds
    wrong = per_round["wrong"] * rounds + res["mismatched"]
    if trace:
        metrics = dict(res["per_layer"])
        metrics.update({f"cli.fail.{f}": per_round[f] for f in FAILURES})
    else:
        metrics = {
            "setup_s": median(setup_times),
            "req_p50_ms": median(lat) * 1e3,
            "req_tail_ms": percentile(lat, TAIL_PERCENTILE) * 1e3,
            "throughput_rps": attempted / res["busy_s"],
            "success_ratio": 1 - failed / attempted,
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
        }
    report = {
        "provenance": provenance(workload, seed, len(requests)),
        "rounds": rounds,
        "tail": f"p{TAIL_PERCENTILE} of {attempted} requests",
        "raw": {
            "wall_s": res["wall_s"],
            "req_p50_ms": median(raw) * 1e3,
            "req_tail_ms": percentile(raw, TAIL_PERCENTILE) * 1e3,
            "throughput_rps": attempted / res["wall_s"],
        },
        "failed_ratio": failed / attempted,
        "failures": {f"cli.fail.{f}": per_round[f] * rounds for f in FAILURES},
        "wrong_results": wrong,
        "wrong_requests": [requests[i][0] for i, o in enumerate(outcomes) if o == "wrong"][:5],
    }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    return report, result, (requests, expected, res["first"])


_UNITS = {
    "setup_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms", "throughput_rps": "1/s",
    "success_ratio": "ratio", "peak_rss_mb": "MB", "cli.emit.bytes": "B",
    "trace.overhead_rps": "1/s",
}


def _unit(name):
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once and the benchmark's self-checks")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            from selfcheck import smoke

            return smoke(run_workload)
        if not args.workload:
            parser.error("--workload is required")
        report, result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
