#!/usr/bin/env python3
"""Gates a bench_ab artifact (bench/bench_ab.cc writes it).

    tools/check_bench_ab.py BENCH_ab.json

  * plan optimizer (DESIGN.md §17): every experiment's auto / best static
    simtime ratio is finite and positive, and at most 1.05 on SSSP and
    PageRank (CC's is reported);
  * repeat: the second fullouter/sort run (`"repeat": true`) runs the same
    supersteps as the first and its simtime is within 2%;
  * time ledger (DESIGN.md §20): every arm leaves zero unattributed ns;
  * the SSSP and PageRank experiments are present.

Exit code 0 when every gate holds; 1 with one line per violation otherwise.
"""

import json
import math
import sys

AUTO_RATIO_GATE = 1.05
AUTO_GATED = ("sssp", "pagerank")
REPEAT_DELTA_GATE = 0.02
STATIC_ARMS = ("fullouter/sort", "fullouter/hashsort", "leftouter/sort",
               "leftouter/hashsort")


def check_experiment(e):
    """Returns (errors, one-line summary) for one experiment."""
    where = f"{e['algorithm']} on {e['dataset']}"
    arms = {(a["name"], a["repeat"]): a for a in e["arms"]}
    missing = [name for name in STATIC_ARMS + ("auto",)
               if (name, False) not in arms]
    if missing or ("fullouter/sort", True) not in arms:
        return [f"{where}: missing arms {missing or ['repeat']}"], ""
    errors = []
    best = min(STATIC_ARMS, key=lambda name: arms[name, False]["sim_seconds"])
    ratio = (arms["auto", False]["sim_seconds"] /
             arms[best, False]["sim_seconds"])
    if not (math.isfinite(ratio) and ratio > 0):
        errors.append(f"{where}: bad auto / best static ratio {ratio}")
    elif e["algorithm"] in AUTO_GATED and ratio > AUTO_RATIO_GATE:
        errors.append(f"{where}: auto / best static ({best}) = {ratio:.4f} "
                      f"exceeds {AUTO_RATIO_GATE}")
    first = arms["fullouter/sort", False]
    repeat = arms["fullouter/sort", True]
    if repeat["supersteps"] != first["supersteps"]:
        errors.append(f"{where}: the repeat ran {repeat['supersteps']} "
                      f"supersteps, the first run {first['supersteps']}")
    delta = abs(first["sim_seconds"] / repeat["sim_seconds"] - 1)
    if not math.isfinite(delta) or delta > REPEAT_DELTA_GATE:
        errors.append(f"{where}: repeat simtime delta {delta:.4%} "
                      f"exceeds {REPEAT_DELTA_GATE:.0%}")
    for (name, _), arm in arms.items():
        if arm["unattributed_ns"] != 0:
            errors.append(f"{where}: arm {name} left "
                          f"{arm['unattributed_ns']} unattributed ns")
    return errors, (f"{where}: auto / best static ({best}) {ratio:.4f}, "
                    f"repeat delta {delta:.4%}")


def main(path):
    with open(path) as f:
        experiments = json.load(f).get("experiments", [])
    errors = []
    for e in experiments:
        try:
            errs, summary = check_experiment(e)
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            errs, summary = [f"malformed experiment ({exc!r}): {e}"], ""
        errors += errs
        if summary:
            print(f"check_bench_ab: {summary}")
    present = {e.get("algorithm") for e in experiments}
    errors += [f"no {algo} experiment" for algo in AUTO_GATED
               if algo not in present]
    for error in errors:
        sys.stderr.write(f"check_bench_ab: {error}\n")
    if errors:
        sys.stderr.write(f"check_bench_ab: FAILED ({len(errors)} error(s))\n")
        return 1
    print(f"check_bench_ab: OK ({len(experiments)} experiments)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} <BENCH_ab.json>")
    sys.exit(main(sys.argv[1]))
