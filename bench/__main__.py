"""``python3 -m bench`` — the ledger's one command.

With ``--workload NAME --trace 0|1`` (how the driver calls it) one
workload runs in one mode and the last line of standard output is the
contract's JSON object.  Without ``--trace`` it is the full ledger: every
selected workload untraced, plus traced with ``--traced``, every metric
printed by name with its unit, a result file with ``--out``, and a
non-zero exit when any call failed or any answer disagreed with the
oracle.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench import catalog

ROOT = Path(__file__).resolve().parent.parent


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=list(catalog.WORKLOADS))
    parser.add_argument("--seconds", type=float, help=f"default {catalog.RUN_SECONDS}, or 0 with --smoke")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="driver mode: one workload, one mode")
    parser.add_argument("--traced", action="store_true", help="also run each workload traced")
    parser.add_argument("--smoke", action="store_true", help="tiny federations, one repeat")
    parser.add_argument("--out", type=Path, help="write the result file here")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree to measure (bench/compare.py points it at a parent commit)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(catalog.RUN_SECONDS)
    return args


def contract_line(result: dict, traced: bool) -> str:
    """The driver's result object for one run."""
    if traced:
        metrics = {
            name: {"value": entry["value"] if entry["value"] is not None else 0.0, "unit": entry["unit"]}
            for name, entry in result["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name]["value"], "unit": unit}
            for name, unit, _, _ in catalog.END_TO_END
        }
    return json.dumps(
        {
            "correct": result["mismatched"] == 0 and result["checked"] > 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_end_to_end(result: dict) -> None:
    print(f"\n== {result['workload']} (seed {result['seed']}, {result['repeats']} repeats, "
          f"{result['wall_s']:.1f} s wall) ==")
    for name, entry in result["end_to_end"].items():
        note = f"n={entry.get('pooled_samples', entry['samples'])}" if "samples" in entry else ""
        if entry.get("supported") is False:
            note += " (fewer than 200 samples: diagnostic only)"
        print(f"  {name:<24} {entry['value']:>14.6g} {entry['unit']:<10} {note}")


def print_per_layer(result: dict) -> None:
    print(f"\n-- {result['workload']}: per-layer (traced, {result['spans']} spans -> {result['span_file']}) --")
    for name, entry in result["per_layer"].items():
        value = "skipped" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"  {name:<32} {value:>14} {entry['unit']}")
    print(f"  {'span':<32} {'count':>8} {'self ms':>12} {'share of call':>14}")
    for row in result["layer_table"]:
        print(f"  {row['name']:<32} {row['count']:>8} {row['self_ms']:>12.3f} {row['share_of_call']:>14.3f}")
    for skipped in result["skipped_layers"]:
        print(f"  skipped {skipped['probe']}: {skipped['reason']}")


def one_workload(name: str, args: argparse.Namespace) -> dict:
    """Measure one workload in this process, printing as it goes."""
    from bench import harness

    result = harness.measure(name, args.seed, args.seconds, smoke=args.smoke)
    print_end_to_end(result)
    if args.traced:
        traced = harness.trace_run(name, args.seed, args.seconds, smoke=args.smoke)
        print_per_layer(traced)
        result.update({key: traced[key] for key in ("per_layer", "skipped_layers", "layer_table")})
        result["traced_wall_s"] = traced["wall_s"]
    return result


def in_child(name: str, args: argparse.Namespace) -> dict:
    """Measure one workload in a process of its own, as the driver does:
    no workload then inherits another's heap, and peak memory is its own."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "one.json"
        command = [sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--src", str(args.src), "--out", str(out)]
        command += ["--traced"] * args.traced
        subprocess.run(command, cwd=ROOT)
        if not out.exists():
            sys.exit(f"bench: workload {name} did not finish")
        return json.loads(out.read_text(encoding="utf-8"))["workloads"][name]


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (args.src / "repro").is_dir():
        sys.exit(f"bench: no repro package under {args.src} — nothing to measure here")
    sys.path.insert(0, str(args.src))
    from bench import harness

    names = args.workload or list(catalog.WORKLOADS)
    if args.trace is not None:
        if len(names) != 1:
            sys.exit("bench: --trace needs exactly one --workload")
        run = harness.trace_run if args.trace else harness.measure
        result = run(names[0], args.seed, args.seconds, smoke=args.smoke)
        for skipped in result.get("skipped_layers", ()):
            print(f"skipped {skipped['probe']}: {skipped['reason']}", file=sys.stderr)
        print(contract_line(result, traced=bool(args.trace)))
        return 0
    document = {"envelope": harness.envelope(args.seed), "workloads": {}}
    alone = len(names) == 1 or args.smoke  # a smoke run is about names, not numbers
    for name in names:
        document["workloads"][name] = one_workload(name, args) if alone else in_child(name, args)
    clean = all(
        result["end_to_end"]["failed_frac"]["value"] == 0
        and result["end_to_end"]["oracle_mismatch_frac"]["value"] == 0
        and result["checked"] > 0
        for result in document["workloads"].values()
    )
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1), encoding="utf-8")
    if not clean:
        print("\nFAILED: a call failed or an answer disagreed with the oracle", file=sys.stderr)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
