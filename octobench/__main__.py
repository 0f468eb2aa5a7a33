"""``python -m octobench``: the standing end-to-end benchmark of ``octopus serve``.

    python -m octobench run   [--workload W] [--seed 12] [--seconds S]
    python -m octobench trace [--workload W] [--seed 12] [--seconds S]
    python -m octobench shape  [--seed 12]      mode-rule histograms
    python -m octobench repeat [--seed 12]      two full sets, compared

``run --trace 1`` is the same as ``trace``.  With ``--workload`` the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); without it every workload runs in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from octobench import spec


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m octobench")
    parser.add_argument("command", choices=("run", "trace", "shape", "repeat"))
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-tests")
    return parser


def main(argv=None) -> int:
    arguments = _parser().parse_args(argv)
    if not os.path.isdir(os.path.join(spec.SRC, "repro")):
        print("octobench: no program to measure: src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, spec.SRC)
    from octobench import report  # imports numpy-using modules; after the check

    declared = spec.load_benchmark_json()
    scale = spec.SMOKE if arguments.smoke else spec.FULL
    seconds = arguments.seconds if arguments.seconds is not None else float(
        declared["run_seconds"])
    names = [entry["name"] for entry in declared["workloads"]]
    if arguments.workload is not None:
        if arguments.workload not in names:
            print(f"octobench: unknown workload {arguments.workload!r}; "
                  f"known: {names}", file=sys.stderr)
            return 2
        names = [arguments.workload]
    if arguments.command == "shape":
        return report.shape(names, arguments.seed, seconds, scale)
    if arguments.command == "repeat":
        return report.repeat(names, arguments.seed, seconds, scale, declared)
    traced = arguments.command == "trace" or arguments.trace == 1
    status = 0
    for name in names:
        result = report.run_one(name, arguments.seed, seconds, scale, traced, declared)
        # The contract's result line; always the last line for this workload.
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
