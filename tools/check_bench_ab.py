#!/usr/bin/env python3
"""Gates a bench_ab artifact (bench/bench_ab.cc writes it).

    tools/check_bench_ab.py BENCH_ab.json

  * plan optimizer (DESIGN.md §17): every experiment's auto / best static
    simtime ratio is finite and positive, and at most 1.05 on SSSP and
    PageRank (CC's is reported);
  * time ledger (DESIGN.md §20): the ledger-off fullouter/sort arm runs
    the same supersteps as the ledger-on one and its simtime is within 2%,
    and every ledger-on arm leaves zero unattributed ns;
  * the SSSP and PageRank experiments are present.

Exit code 0 when every gate holds; 1 with one line per violation otherwise.
"""

import json
import math
import sys

AUTO_RATIO_GATE = 1.05
AUTO_GATED = ("sssp", "pagerank")
LEDGER_DELTA_GATE = 0.02
STATIC_ARMS = ("fullouter/sort", "fullouter/hashsort", "leftouter/sort",
               "leftouter/hashsort")


def check_experiment(e):
    """Returns (errors, one-line summary) for one experiment."""
    where = f"{e['algorithm']} on {e['dataset']}"
    arms = {(a["name"], a["ledger"]): a for a in e["arms"]}
    missing = [name for name in STATIC_ARMS + ("auto",)
               if (name, True) not in arms]
    if missing or ("fullouter/sort", False) not in arms:
        return [f"{where}: missing arms {missing or ['ledger-off']}"], ""
    errors = []
    best = min(STATIC_ARMS, key=lambda name: arms[name, True]["sim_seconds"])
    ratio = (arms["auto", True]["sim_seconds"] /
             arms[best, True]["sim_seconds"])
    if not (math.isfinite(ratio) and ratio > 0):
        errors.append(f"{where}: bad auto / best static ratio {ratio}")
    elif e["algorithm"] in AUTO_GATED and ratio > AUTO_RATIO_GATE:
        errors.append(f"{where}: auto / best static ({best}) = {ratio:.4f} "
                      f"exceeds {AUTO_RATIO_GATE}")
    off, on = arms["fullouter/sort", False], arms["fullouter/sort", True]
    if off["supersteps"] != on["supersteps"]:
        errors.append(f"{where}: ledger off ran {off['supersteps']} "
                      f"supersteps, ledger on {on['supersteps']}")
    delta = abs(on["sim_seconds"] / off["sim_seconds"] - 1)
    if not math.isfinite(delta) or delta > LEDGER_DELTA_GATE:
        errors.append(f"{where}: ledger on/off simtime delta {delta:.4%} "
                      f"exceeds {LEDGER_DELTA_GATE:.0%}")
    for (name, ledger), arm in arms.items():
        if ledger and arm["unattributed_ns"] != 0:
            errors.append(f"{where}: arm {name} left "
                          f"{arm['unattributed_ns']} unattributed ns")
    return errors, (f"{where}: auto / best static ({best}) {ratio:.4f}, "
                    f"ledger delta {delta:.4%}")


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
