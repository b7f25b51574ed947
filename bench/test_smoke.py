"""The ledger at ``--smoke`` scale: every metric present under its name
and unit, the manifest in step with the catalog, the oracle able to tell
a wrong answer, the open loop timing from due times.

Run with ``python3 -m pytest bench -q`` (not part of the tier-1 suite).
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from bench import catalog, compare, oracle  # noqa: E402
from bench.workloads import Repeat, open_loop  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=ROOT, capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module")
def ledger(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = bench("--smoke", "--traced", "--seed", "3", "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text(encoding="utf-8"))


def test_every_workload_reports_every_metric_with_its_unit(ledger):
    units = catalog.units()
    assert list(ledger["workloads"]) == list(catalog.WORKLOADS)
    everywhere = [name for name, *_ in catalog.END_TO_END + catalog.GATES] + ["latency_p95_ms"]
    extra = {
        "paper_methods": ["delta_p50_ms"] + [
            f"{method}_{metric}" for method in ("exs", "anns", "cts") for metric in ("latency_p50_ms", "ndcg_at_10")
        ],
        "lifecycle_rw": ["delta_p50_ms", "ttfq_eager_ms", "ttfq_mmap_ms"],
    }
    listed = {name for name, *_ in catalog.END_TO_END + catalog.GATES + catalog.PARTIAL_END_TO_END}
    assert set(everywhere).union(*extra.values()) == listed
    for workload, result in ledger["workloads"].items():
        wanted = everywhere + extra.get(workload, [])
        assert sorted(result["end_to_end"]) == sorted(wanted), workload
        for name, entry in result["end_to_end"].items():
            assert entry["unit"] == units[name], (workload, name)
        assert result["end_to_end"]["failed_frac"]["value"] == 0
        assert result["end_to_end"]["oracle_mismatch_frac"]["value"] == 0
        assert result["checked"] > 0
        assert list(result["per_layer"]) == catalog.per_layer_names(), workload
        assert result["skipped_layers"] == [], workload
        assert result["per_layer"]["bench.trace_overhead_frac"]["value"] is not None
    for key in ("git_sha", "seed", "python", "numpy", "blas", "nproc"):
        assert key in ledger["envelope"]


def test_a_layer_is_nonzero_where_the_workload_uses_it(ledger):
    layer = {w: r["per_layer"] for w, r in ledger["workloads"].items()}
    assert layer["exs_many_small"]["exs.emit_ms"]["value"] > 0
    assert layer["exs_many_small"]["cache.lookup_ms"]["value"] == 0
    assert layer["paper_methods"]["anns.retrieve_ms"]["value"] > 0
    assert layer["paper_methods"]["cts.clusters"]["value"] > 0
    assert layer["serve_closed"]["serving.windows"]["value"] > 0
    assert layer["serve_closed"]["cache.hit_frac"]["value"] == 0
    assert layer["serve_open_zipf"]["cache.near_hit_frac"]["value"] > 0
    assert layer["lifecycle_rw"]["storage.save_ms"]["value"] > 0


def test_manifest_matches_the_catalog_and_the_contract():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert manifest == catalog.manifest()
    assert sorted(manifest) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
               for m in manifest["end_to_end"])
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_mode_prints_exactly_the_manifest_names(trace):
    done = bench("--smoke", "--workload", "exs_many_small", "--seed", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    manifest = catalog.manifest()
    wanted = manifest["per_layer"] if trace == "1" else manifest["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(line["metrics"][m["name"]]["value"], (int, float))
    if trace == "0":
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_oracle_tells_a_wrong_answer():
    from repro.core import DiscoveryEngine
    from bench import corpora

    inputs = corpora.synthetic_inputs(seed=5, n_relations=12, rows=3)
    engine = DiscoveryEngine(dim=32, executor="inline", query_cache=False, sanitize=False)
    engine.index(inputs.federation)
    answer = engine.search(inputs.queries[0], method="exs", k=5)
    scores = oracle.exs_scores(engine.embeddings, inputs.queries[0])
    assert oracle.agrees(answer, scores, k=5)
    assert [rid for rid, _ in oracle.exs_top_k(engine.embeddings, inputs.queries[0], 5)] == answer.relation_ids()
    answer.matches[0], answer.matches[-1] = answer.matches[-1], answer.matches[0]
    assert not oracle.agrees(answer, scores, k=5)
    answer.matches.pop()
    assert not oracle.agrees(answer, scores, k=5)
    engine.close()


def test_open_loop_times_from_the_due_time():
    """A 50 ms stall in one send makes the requests due during it late —
    and their latency, counted from when they were due, shows it."""

    async def send(item: int, due: float, out: Repeat) -> None:
        if item == 2:
            time.sleep(0.05)  # blocks the loop, as a slow synchronous step would
        out.latencies_ms.append((time.perf_counter() - due) * 1000.0)

    due_s = [0.002 * i for i in range(12)]
    out = asyncio.run(open_loop(send, list(range(12)), due_s))
    assert len(out.latencies_ms) == 12 and out.queries == 12
    assert max(out.latencies_ms[:2]) < 20.0
    # Requests 3..11 were due 2..18 ms after the stall began, and all waited it out.
    assert min(out.latencies_ms[3:12]) > 25.0
    assert max(out.samples["sched_lag_ms"]) > 25.0


def test_compare_verdicts():
    steady = {"value": 10.0, "quartiles": [9.9, 10.0, 10.1]}
    assert compare.verdict(steady, {"value": 10.5, "quartiles": [10.4, 10.5, 10.6]}, 0.1, "lower") == "same"
    assert compare.verdict(steady, {"value": 11.5, "quartiles": [11.4, 11.5, 11.6]}, 0.1, "lower") == "worse"
    assert compare.verdict(steady, {"value": 11.5, "quartiles": [11.4, 11.5, 11.6]}, 0.1, "higher") == "better"
    assert compare.verdict(steady, {"value": 10.0, "quartiles": [8.0, 10.0, 12.0]}, 0.1, "lower") == "unresolved"
    assert compare.verdict({"value": 0.0}, {"value": 0.01}, 0.0, "lower") == "worse"
    assert compare.verdict({"value": 0.7}, {"value": 0.7}, 1e-9, "higher") == "same"
