"""The array-native ExS result path, checked against one oracle.

Algorithm 1 as plain loops (float64, count-weighted mean, ``h`` filter,
``(-score, relation_id)``, top-k) is the only reference in this file.
Every way of *scoring* — the GEMM-bounded row-wise centroid scan on
either backend or another interpreter, any ``shards=`` value — and
every way
of *cutting* (k, h, exact ties) is compared with that oracle, never
pairwise with another engine path; the GEMM filter alone is checked
against a full row-wise scan on planted near-ties at 60 000 rows.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import DiscoveryEngine, ExhaustiveSearch
from repro.core.results import RelationMatch
from repro.datamodel.relation import Federation, Relation
from repro.linalg import rowwise_scores

from tests.crossprocess import run_elsewhere

#: Queries are quantised to float32; an oracle that scores the float64
#: query sees that quantisation.
TOL = 1e-5
#: An oracle that quantises its query as the engine does sees only the
#: reassociation of the centroid sums.
QUANTISED_TOL = 1e-9

TOPICS = [
    ["vaccine", "dose", "immunity", "booster", "trial"],
    ["league", "striker", "goal", "stadium", "referee"],
    ["gdp", "inflation", "export", "tariff", "budget"],
    ["galaxy", "nebula", "quasar", "orbit", "comet"],
    ["sonata", "violin", "tempo", "chord", "opera"],
    ["glacier", "monsoon", "drought", "humidity", "frost"],
]

QUERIES = ["vaccine booster trial", "league stadium", "gdp export tariff", "quasar orbit"]

#: Relation names in an order that is NOT their sort order, so stacked
#: block order and ``relation_id`` order disagree; ``twin_*`` duplicate
#: the rows of another relation (exact score ties under another id).
NAMES = ["r07", "r02", "zeta", "r11", "alpha", "r05", "mid", "r01", "r09", "beta", "r04", "r10"]
TWINS = {"twin_b": 0, "twin_a": 0, "twin_z": 4}


def make_relation(name: str, slot: int, version: int = 0) -> Relation:
    words = TOPICS[slot % len(TOPICS)]
    return Relation(
        name,
        ["Topic", "Measure", "Year"],
        [
            [f"{words[r % len(words)]} v{version}", str(100 * slot + r // 2), str(2018 + version)]
            for r in range(3 + slot % 3)
        ],
        caption=f"{words[0]} {words[1]} table",
    )


def qualified(name: str) -> str:
    return f"{name}/{name}"


def federation() -> Federation:
    relations = [make_relation(name, slot) for slot, name in enumerate(NAMES)]
    relations += [make_relation(name, slot) for name, slot in TWINS.items()]
    return Federation.from_relations(relations)


# -- the oracle -------------------------------------------------------------


def oracle_scores(embeddings, query, query_dtype=np.float64) -> dict[str, float]:
    """Every relation's Algorithm-1 score, one multiply-add at a time,
    the query taken at ``query_dtype`` (the engine quantises to float32)."""
    q = [float(x) for x in np.asarray(embeddings.encode_query(query), dtype=query_dtype)]
    scores: dict[str, float] = {}
    for relation in embeddings.relations:
        sims = [sum(float(v) * x for v, x in zip(row, q)) for row in relation.vectors]
        counts = [int(c) for c in relation.counts]
        scores[relation.relation_id] = sum(c * s for c, s in zip(counts, sims)) / sum(counts)
    return scores


def oracle_top_k(scores: dict[str, float], k: int, h: float) -> list[tuple[str, float]]:
    kept = [(rid, s) for rid, s in scores.items() if s >= h]
    kept.sort(key=lambda pair: (-pair[1], pair[0]))
    return kept[:k]


def assert_agrees(
    answer, truth: dict[str, float], cells: dict[str, int], k: int, h: float, tol: float = TOL
):
    """``answer`` is a correct top-``k``: in the contract's own total
    order, and position by position a relation whose oracle score is
    both what the engine reported and the oracle's i-th best (within
    ``tol``, so only near-ties may swap)."""
    matches = list(answer)
    own_order = [(-m.score, m.relation_id) for m in matches]
    assert own_order == sorted(own_order)
    assert len({m.relation_id for m in matches}) == len(matches)
    expected = [s for _, s in oracle_top_k(truth, k, h - tol)]
    n_sure = sum(1 for s in truth.values() if s >= h + tol)
    assert min(n_sure, k) <= len(matches) <= len(expected)
    for match, want in zip(matches, expected):
        assert match.score == pytest.approx(truth[match.relation_id], abs=tol)
        assert truth[match.relation_id] == pytest.approx(want, abs=tol)
        assert match.score >= h
        assert match.details == {"n_values": cells[match.relation_id]}


def check_engine(
    engine: DiscoveryEngine, quantised: bool = False
) -> list[list[tuple[str, float]]]:
    """``search`` and ``search_batch`` against the oracle over every k/h
    corner; returns every answer it checked.  A ``quantised`` oracle
    takes its query at float32, as the engine does, and must agree to
    :data:`QUANTISED_TOL`."""
    store = engine.embeddings
    cells = {r.relation_id: r.n_cells for r in store.relations}
    query_dtype, tol = (np.float32, QUANTISED_TOL) if quantised else (np.float64, TOL)
    truths = [oracle_scores(store, query, query_dtype) for query in QUERIES]
    n = store.n_relations
    best = max(max(truth.values()) for truth in truths)
    mid = sorted(truths[0].values())[-5] - 3 * tol  # keeps the first query's five best
    checked = []
    for k in (1, 5, n, n + 7):
        for h in (-1.0, 0.0, mid, best + 0.1):
            answers = [engine.search(query, method="exs", k=k, h=h) for query in QUERIES]
            batch = engine.search_batch(QUERIES, method="exs", k=k, h=h)
            if h > best:
                assert [len(answer) for answer in batch] == [0] * len(QUERIES)
            answers += batch
            for answer, truth in zip(answers, truths * 2):
                assert_agrees(answer, truth, cells, k, h, tol)
            checked += [[(m.relation_id, m.score) for m in answer] for answer in answers]
    return checked


def make_engine(shards=1, executor="inline") -> DiscoveryEngine:
    return DiscoveryEngine(dim=48, shards=shards, executor=executor)


def checked_answers(shards: int, executor: str, quantised: bool) -> list:
    """:func:`check_engine` on a freshly indexed engine."""
    with make_engine(shards, executor) as engine:
        engine.index(federation())
        return check_engine(engine, quantised)


def every_arm_checked() -> dict:
    return {
        (shards, quantised): checked_answers(shards, "thread", quantised)
        for shards in (1, 2, 5)
        for quantised in (True, False)
    }


@functools.cache
def checked_elsewhere() -> dict:
    """:func:`every_arm_checked` once, in another interpreter under
    ``PYTHONHASHSEED=1``: it checks the oracle there too."""
    return run_elsewhere(every_arm_checked)


# -- every fill x every cut, against the oracle --------------------------------


@pytest.mark.parametrize("aggregate", ["mean"])
@pytest.mark.parametrize("quantised", [True, False])
@pytest.mark.parametrize("executor", ["inline", "thread", "process"])
@pytest.mark.parametrize("shards", [1, 2, 5])
def test_every_path_agrees_with_oracle(shards, executor, quantised, aggregate):
    """``quantised`` picks the oracle: its query at float32 like the
    engine's, checked to 1e-9, or at float64, checked to 1e-5.
    ``aggregate`` is the paper's mean, the only one.
    ``"process"`` is a thread-backend engine in another interpreter: it
    must agree with the oracle there, and with this process bit for
    bit."""
    if executor == "process":
        assert checked_elsewhere()[shards, quantised] == checked_answers(
            shards, "inline", quantised
        )
    else:
        checked_answers(shards, executor, quantised)


@pytest.mark.parametrize("shards", [1, 2, 5])
def test_delta_sequence_agrees_with_oracle(shards):
    with make_engine(shards, "thread") as engine:
        engine.index(federation())
        engine.method("exs")  # built before the deltas, so the index patches in place
        engine.add_relations({qualified("late"): make_relation("late", 3)})
        engine.add_relations({qualified("twin_late"): make_relation("twin_late", 3)})
        check_engine(engine)
        engine.update_relations({qualified("r02"): make_relation("r02", 1, version=1)})
        engine.remove_relations([qualified("alpha"), qualified("twin_b")])
        check_engine(engine)


@pytest.mark.parametrize("shards", [1, 2, 5])
def test_exact_ties_cut_by_relation_id(shards):
    """Twins score bit-identically wherever their rows sit, so a k that
    splits a twin pair must keep the smaller relation id, as the oracle
    does."""
    with make_engine(shards) as engine:
        engine.index(federation())
        store = engine.embeddings
        split = 0
        for query in QUERIES:
            ranked = [rid for rid, _ in oracle_top_k(oracle_scores(store, query), 100, -1.0)]
            for first, second in (("twin_a", "twin_b"), ("alpha", "twin_z")):
                a, b = ranked.index(qualified(first)), ranked.index(qualified(second))
                if b != a + 1:
                    continue  # a third relation's twin sits between them
                got = engine.search(query, method="exs", k=b, h=-1.0).relation_ids()
                assert qualified(first) in got and qualified(second) not in got
                both = engine.search(query, method="exs", k=b + 1, h=-1.0).relation_ids()
                assert both[a : b + 1] == [qualified(first), qualified(second)]
                split += 1
        assert split >= len(QUERIES)


# -- the ranker alone, on exact ties -------------------------------------------


@pytest.fixture(scope="module")
def exs():
    with make_engine() as engine:
        engine.index(federation())
        yield engine.method("exs")


tie_heavy_scores = arrays(
    np.float64,
    st.tuples(st.just(len(NAMES) + len(TWINS)), st.integers(1, 4)),
    elements=st.sampled_from([-0.5, 0.0, 0.25, 0.5, float("nan")]),
)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_scores, st.integers(0, 20), st.sampled_from([-1.0, 0.0, 0.25, 0.6]))
def test_rank_scores_is_exactly_the_sorted_reference(exs, scores, k, h):
    """Ties straddling the k-th place, NaN scores and thresholds equal
    to a score, on a block order that is not the id order: the survivor
    ranker, handed every pair, is the sorted reference."""
    ids = list(exs._block_ids)
    assert ids != sorted(ids)
    query_idx, row_idx = np.nonzero(np.ones(scores.T.shape, dtype=bool))
    ranked = exs.rank_survivors(
        query_idx, row_idx, scores[row_idx, query_idx], scores.shape[1], k, h
    )
    for column, got in zip(scores.T, ranked):
        truth = {rid: float(s) for rid, s in zip(ids, column) if not math.isnan(s)}
        assert [(m.relation_id, m.score) for m in got] == oracle_top_k(truth, k, h)


def test_replay_hook_emits_every_row(exs):
    """``matches_from_scores`` is the ledger's one-argument replay hook:
    all rows, block order, scores bit-identical to the matrix."""
    scores = np.random.default_rng(0).normal(size=(len(exs._block_ids), 3))
    emitted = exs.matches_from_scores(scores)
    assert [[m.relation_id for m in column] for column in emitted] == [exs._block_ids] * 3
    assert [[m.score for m in column] for column in emitted] == scores.T.tolist()


# -- allocation regression -----------------------------------------------------


@pytest.mark.parametrize("shards", [1, 4])
def test_only_winners_become_match_objects(monkeypatch, shards):
    """A k=20 batch of 16 queries over 600 relations used to build
    9 600 ``RelationMatch`` objects to return 320."""
    words = [word for topic in TOPICS for word in topic]
    relations = [
        Relation(
            f"rel{slot}",
            ["Topic", "Measure"],
            [[f"{words[(slot + r) % len(words)]} {slot} {r}", str(100 * slot + r)] for r in range(3)],
            caption=f"{words[slot % len(words)]} table {slot}",
        )
        for slot in range(600)
    ]
    queries = [f"{words[i]} {words[(i + 7) % len(words)]}" for i in range(16)]
    built = 0

    def counting(*args, **kwargs):
        nonlocal built
        built += 1
        return RelationMatch(*args, **kwargs)

    with make_engine(shards, "thread") as engine:
        engine.index(Federation.from_relations(relations))
        engine.method("exs")
        monkeypatch.setattr("repro.core.exhaustive.RelationMatch", counting)
        batch = engine.search_batch(queries, method="exs", k=20)
    assert [len(answer) for answer in batch] == [20] * 16
    assert built == 20 * 16


# -- the GEMM bound, at the paper's second scale ---------------------------------

PLANTED_R = 60_000


@pytest.fixture(scope="module")
def planted():
    """A 60 000-row centroid matrix at d = 8 whose queries each own a
    cluster of 48 near-tied rows at the top and another at the bottom:
    exact twins, 1-ulp neighbours and rows a few ulps apart, scattered
    over the matrix, so GEMM and row-wise scores of one row disagree in
    the last bits and order the cluster differently.  Relation ids are
    not in row order.  Yields the method, the query block and each
    query's exact reference ranking by ``(-score, relation_id)``."""
    rng = np.random.default_rng(28)
    dim, n_queries, cluster = 8, 4, 48
    queries = rng.standard_normal((n_queries, dim))
    matrix = 0.25 * rng.standard_normal((PLANTED_R, dim))
    slots = rng.permutation(PLANTED_R)[: 2 * n_queries * cluster].reshape(2, n_queries, cluster)
    for j, query in enumerate(queries):
        for sign, rows in zip((1.0, -1.0), slots[:, j]):
            block = sign * 3.0 * query / np.linalg.norm(query)
            block = block + 1e-15 * rng.standard_normal((cluster, dim))
            block[1::4] = block[0::4]  # exact twins
            block[2::4, 0] = np.nextafter(block[0::4, 0], np.inf)  # 1-ulp neighbours
            matrix[rows] = block
    gemm, exact = (queries @ matrix.T).T, rowwise_scores(matrix, queries)
    assert np.any(gemm[slots[0]] != exact[slots[0]]), "the plant must split the kernels"
    exs = ExhaustiveSearch()
    exs._matrix = matrix
    exs._block_ids = [f"r{i:05d}" for i in rng.permutation(PLANTED_R)]
    exs._block_cells = dict.fromkeys(exs._block_ids, 1)
    exs._refresh_bound()
    ordered = [
        sorted(zip(exs._block_ids, column.tolist()), key=lambda pair: (-pair[1], pair[0]))
        for column in exact.T
    ]
    return exs, queries, ordered


@pytest.mark.parametrize("k", [1, PLANTED_R - 1, PLANTED_R, PLANTED_R + 3])
@pytest.mark.parametrize("h_at", ["below_all", "top_cluster"])
def test_gemm_filter_keeps_every_true_winner(planted, k, h_at):
    """Bound → filter → verify → rank equals a full row-wise scan and a
    sorted cut, bit for bit, with the k-th place inside a near-tie
    cluster and ``h`` equal to a planted score."""
    exs, queries, ordered = planted
    h = -100.0 if h_at == "below_all" else ordered[0][30][1]
    got = exs.rank_survivors(*exs._scan(queries, k, h), len(queries), k, h)
    for ranked, reference in zip(got, ordered):
        want = [pair for pair in reference if pair[1] >= h][:k]
        assert [(m.relation_id, m.score) for m in ranked] == want
