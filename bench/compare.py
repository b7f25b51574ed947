"""Compare two ledgers, or run one against another in alternating pairs.

``python3 bench/compare.py A.json B.json`` prints one row per workload
and end-to-end metric: base, new, new/base, the metric's bound and a
verdict.  ``worse`` and ``better`` mean the change exceeds the bound in
that direction; ``unresolved`` means a side's own repeats leave its value
looser than the bound, so the files cannot tell; everything else is
``same``.

``python3 bench/compare.py --pairs N --base-src PARENT/src`` measures the
parent's ``src`` and this tree's with this tree's benchmark code, N times
each, alternating which side goes first, and reports each side's median
and quartiles, the share of pairs the new side won (ties count for
neither) and a verdict.  A gain is ``better`` only when the new side wins
nine pairs in ten and the medians differ by more than the distance
between the base side's quartiles.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import catalog  # noqa: E402
from bench.stats import quartiles, spread  # noqa: E402


def _worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if base == 0:
        if new == 0:
            return 0.0
        return math.inf if (new > 0) == (better == "lower") else -math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _own_spread(entry: dict) -> float:
    """How loosely a run's own samples pin its reported value down.  A
    median sits inside its samples' quartiles, and their distance says how
    wide the samples ran.  A quietest-stretch value (lowest group median,
    highest rate) sits outside them, and what matters is how far: a value
    far from the nearest quartile rests on one lucky stretch."""
    value = entry["value"]
    if "quartiles" not in entry or not value:
        return 0.0
    q1, q2, q3 = entry["quartiles"]
    if q1 <= value <= q3:
        return (q3 - q1) / abs(q2) if q2 else 0.0
    return min(abs(q1 - value), abs(q3 - value)) / abs(value)


def verdict(base: dict, new: dict, bound: float, better: str) -> str:
    """``base`` and ``new`` are metric entries of two result files."""
    if max(_own_spread(base), _own_spread(new)) > bound > 0:
        return "unresolved"
    worse = _worse_by(base["value"], new["value"], better)
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "same"


def compare_files(base_doc: dict, new_doc: dict) -> list[dict]:
    bounds, directions = catalog.bounds(), catalog.directions()
    rows = []
    for workload, base in base_doc["workloads"].items():
        new = new_doc["workloads"].get(workload)
        if new is None:
            continue
        for metric, entry in base["end_to_end"].items():
            other = new["end_to_end"].get(metric)
            if other is None or entry.get("supported") is False:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "base": entry["value"],
                    "new": other["value"],
                    "ratio": other["value"] / entry["value"] if entry["value"] else float("nan"),
                    "bound": bounds[metric],
                    "verdict": verdict(entry, other, bounds[metric], directions[metric]),
                }
            )
    return rows


def run_once(src: Path, workloads: list[str], seed: int, seconds: float | None) -> dict:
    """One full-ledger invocation of this tree's benchmark against ``src``."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "result.json"
        command = [sys.executable, "-m", "bench", "--src", str(src), "--seed", str(seed), "--out", str(out)]
        for name in workloads:
            command += ["--workload", name]
        if seconds is not None:
            command += ["--seconds", str(seconds)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"bench failed on {src}:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
        return json.loads(out.read_text(encoding="utf-8"))


def compare_pairs(base_src: Path, new_src: Path, pairs: int, workloads: list[str],
                  seed: int, seconds: float | None) -> list[dict]:
    samples: dict[tuple[str, str], tuple[list[float], list[float]]] = {}
    for pair in range(pairs):
        order = [("base", base_src), ("new", new_src)]
        if pair % 2:
            order.reverse()
        docs = {side: run_once(src, workloads, seed, seconds) for side, src in order}
        for workload, result in docs["base"]["workloads"].items():
            for metric, entry in result["end_to_end"].items():
                if entry.get("supported") is False:
                    continue
                other = docs["new"]["workloads"][workload]["end_to_end"][metric]
                base_values, new_values = samples.setdefault((workload, metric), ([], []))
                base_values.append(entry["value"])
                new_values.append(other["value"])
    bounds, directions = catalog.bounds(), catalog.directions()
    rows = []
    for (workload, metric), (base_values, new_values) in samples.items():
        better, bound = directions[metric], bounds[metric]
        base_q, new_q = quartiles(base_values), quartiles(new_values)
        wins = sum(1 for a, b in zip(base_values, new_values) if _worse_by(a, b, better) < 0)
        worse = _worse_by(base_q[1], new_q[1], better)
        if spread(base_values) > bound > 0:
            call = "unresolved"
        elif worse > bound:
            call = "worse"
        elif wins >= 0.9 * pairs and abs(new_q[1] - base_q[1]) > base_q[2] - base_q[0]:
            call = "better"
        else:
            call = "same"
        rows.append(
            {
                "workload": workload, "metric": metric, "base": base_q[1], "new": new_q[1],
                "ratio": new_q[1] / base_q[1] if base_q[1] else float("nan"), "bound": bound,
                "base_quartiles": base_q, "new_quartiles": new_q,
                "win_share": wins / pairs, "verdict": call,
            }
        )
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':<16} {'metric':<22} {'base':>12} {'new':>12} {'new/base':>9} {'bound':>7}  verdict")
    for row in rows:
        line = (f"{row['workload']:<16} {row['metric']:<22} {row['base']:>12.6g} {row['new']:>12.6g} "
                f"{row['ratio']:>9.4f} {row['bound']:>7.2g}  {row['verdict']}")
        if "win_share" in row:
            q1, _, q3 = row["base_quartiles"]
            n1, _, n3 = row["new_quartiles"]
            line += f"  wins {row['win_share']:.2f}  base [{q1:.6g}, {q3:.6g}]  new [{n1:.6g}, {n3:.6g}]"
        print(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", type=Path, help="A.json B.json")
    parser.add_argument("--pairs", type=int, help="run this many alternating base/new pairs")
    parser.add_argument("--base-src", type=Path, help="the parent commit's src directory")
    parser.add_argument("--new-src", type=Path, default=ROOT / "src")
    parser.add_argument("--workload", action="append", choices=list(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.pairs:
        if args.base_src is None:
            parser.error("--pairs needs --base-src")
        rows = compare_pairs(args.base_src, args.new_src, args.pairs,
                             args.workload or list(catalog.WORKLOADS), args.seed, args.seconds)
    elif len(args.files) == 2:
        base, new = (json.loads(path.read_text(encoding="utf-8")) for path in args.files)
        rows = compare_files(base, new)
    else:
        parser.error("give two result files, or --pairs N --base-src DIR")
    print_rows(rows)
    bad = [row for row in rows if row["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
