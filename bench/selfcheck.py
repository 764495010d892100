"""The benchmark's own checks, run by ``python3 bench/run.py --smoke``.

* The generator gives identical argv lists for the same seed, and
  different ones for another seed.
* The oracle checker flags wrong answers fed to it: each correct output is
  replaced by another request's output with a different expected answer,
  and by its own first half.  divsum is not patched for this.
* A smoke run: every workload once, on the first requests of its round,
  with tracing on, through the same path as a timed run.
"""

from __future__ import annotations

import json

import workloads
from oracle import classify

SMOKE_REQUESTS = 15


def generation_problems() -> list:
    problems = []
    for workload in workloads.WORKLOADS:
        for seed in (0, 1, 12345):
            first = [argv for argv, _ in workloads.generate(workload, seed)]
            again = [argv for argv, _ in workloads.generate(workload, seed)]
            other = [argv for argv, _ in workloads.generate(workload, seed + 1)]
            if first != again:
                problems.append(f"{workload} seed {seed}: argv lists differ between two calls")
            if first == other:
                problems.append(f"{workload} seed {seed}: same argv lists as seed {seed + 1}")
    return problems


def checker_problems(requests, expected, outputs) -> tuple[int, list]:
    """Feed wrong answers for every correctly answered request."""
    fed, problems = 0, []
    good = [i for i, ((_, spec), exp, out) in enumerate(zip(requests, expected, outputs))
            if classify(spec, exp, *out) == "ok"]
    for i in good:
        argv, spec = requests[i]
        rc, out, err = outputs[i]
        wrong = [(rc, out[: len(out) // 2], err)]
        wrong += [outputs[j] for j in good
                  if requests[j][0][0] == argv[0] and requests[j][1]["format"] == spec["format"]
                  and requests[j][1]["kind"] == spec["kind"] and expected[j] != expected[i]][:2]
        for candidate in wrong:
            fed += 1
            if classify(spec, expected[i], *candidate) == "ok":
                problems.append(f"checker accepted a wrong answer for {argv}")
    return fed, problems


def smoke(run_workload) -> int:
    problems = generation_problems()
    for workload in workloads.WORKLOADS:
        report, result, (requests, expected, outputs) = run_workload(
            workload, seed=0, seconds=0, trace=True, min_requests=0, limit=SMOKE_REQUESTS)
        fed, found = checker_problems(requests, expected, outputs)
        problems += found
        if not result["correct"]:
            problems.append(f"{workload}: wrong results {report['wrong_requests']}")
        print(json.dumps({"workload": workload, "requests": result["attempted"],
                          "failed": result["failed"], "correct": result["correct"],
                          "wrong_answers_fed": fed}))
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0
