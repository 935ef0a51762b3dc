"""Tests of the benchmark's tracing and bookkeeping.

Run from the repository root:

    python -m pytest bench/tests -q

Each traced run below executes one operation (the first, smallest instance
of the workload's corpus), untraced and traced.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import OP_SPAN, Tracer  # noqa: E402

WORKLOADS = ("gs_banded", "cubic_exact")


def traced_run(workload: str):
    wl, corpus, _ = run.setup(workload, run.DEFAULT_SEED)
    wl = dataclasses.replace(wl, pass_length=1)
    tracer = Tracer()
    plain, traced, _, _ = run.closed_loop(wl, corpus[:1], 0.0, tracer)
    run.check(wl, plain)
    run.check(wl, traced)
    return tracer, plain, traced


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    return traced_run(request.param)


def bindings() -> dict[tuple[str, str], int]:
    return {
        (name, attr): id(value)
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "matchcolor" or name.startswith("matchcolor."))
        for attr, value in vars(mod).items()
    }


def test_wrappers_restore_every_binding():
    run.setup("gs_banded", run.DEFAULT_SEED)
    import matchcolor
    from matchcolor import colorer, fractional, listcolor

    before = bindings()
    original = fractional.chi_star
    tracer = Tracer()
    with tracer:
        # chi_star is bound in four modules; each binding is wrapped.
        for mod in (matchcolor, fractional, colorer, listcolor):
            assert mod.chi_star is not original
        assert bindings() != before
    assert bindings() == before
    assert fractional.chi_star is original


def test_traced_run_is_correct_and_matches_untraced(traced):
    tracer, plain, traced_records = traced
    assert len(plain) == len(traced_records) == 1
    assert not plain[0].problems and not traced_records[0].problems
    assert run.same_output(plain[0].output, traced_records[0].output)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    def counts():
        tracer, plain, traced = traced_run(workload)
        metrics = run.per_layer(tracer, plain, traced)
        return {k: v for k, (v, unit) in metrics.items() if unit in ("1/op", "count")}

    first = counts()
    assert any(v > 0 for k, v in first.items() if k.endswith(".calls"))
    assert counts() == first


def test_child_spans_nest_inside_parents(traced):
    tracer = traced[0]
    assert tracer.names.count(OP_SPAN) == 1
    for idx, par in enumerate(tracer.parent):
        assert tracer.start[idx] <= tracer.end[idx]
        if par < 0:
            assert tracer.names[idx] == OP_SPAN
            continue
        assert tracer.start[par] <= tracer.start[idx] <= tracer.end[idx] <= tracer.end[par]
        assert tracer.op[idx] == tracer.op[par]


def test_self_times_sum_to_operation_wall(traced):
    tracer = traced[0]
    selfs = tracer.self_times()
    assert all(s >= -1e-9 for s in selfs)
    root = tracer.names.index(OP_SPAN)
    wall = tracer.end[root] - tracer.start[root]
    # Layer self times plus the root's own (unattributed) time.
    assert sum(selfs) == pytest.approx(wall, rel=1e-9, abs=1e-9)
    metrics = run.per_layer(tracer, traced[1], traced[2])
    layer_self = sum(v for k, (v, _) in metrics.items() if k.endswith("self_s"))
    assert layer_self + metrics["bench.unattributed_s"][0] == pytest.approx(wall, rel=1e-6)


def list_case(kind: str, seed: int, index: int, n: int, list_floor: int):
    """A banded multigraph (Delta <= 25, multiplicities 4-11) with lists of
    size ceil(1.2 chi*), run at criterion 9's settings but for list_floor."""
    import math
    import random
    from fractions import Fraction

    import workloads
    from matchcolor import ListConfig, Multigraph, chi_star

    run.setup("gs_banded", run.DEFAULT_SEED)
    edges = workloads.banded_edges(random.Random(f"list_banded:{seed}:{index}"), n, 25, 4, 11)
    graph = Multigraph(n, edges)
    q = math.ceil(chi_star(graph).value * Fraction(6, 5))
    if kind == "uniform":
        lists = {e: list(range(q)) for e in range(graph.m)}
    else:
        # Windows of q colors into a palette of q + q//2, offset by endpoints.
        span = max(1, q // 2)
        lists = {}
        for e, (u, v) in enumerate(edges):
            offset = (3 * u + 5 * v + e) % (span + 1)
            lists[e] = list(range(offset, offset + q))
    cfg = ListConfig(master_seed=seed * 1000 + index, t_override=2, edge_threshold=None,
                     mass_floor=0.05, step_cap=1500, list_floor=list_floor)
    return graph, lists, cfg


@pytest.mark.parametrize(
    "kind, seed, index, n, list_floor, error",
    [
        ("uniform", 12, 3, 11, 4, "GreedyBlockedError"),
        ("staggered", 102, 83, 12, 4, "GreedyBlockedError"),
        ("staggered", 103, 16, 10, 0, "LocalSearchError"),
    ],
)
def test_known_defect_list_pipeline_fails(kind, seed, index, n, list_floor, error):
    """Known defect, and the reason the benchmark has no list workload.

    At criterion 9's settings (list_floor=4), the list pipeline's greedy tail
    raises GreedyBlockedError on these graphs: on about one run in twelve
    with uniform lists and one in sixty with staggered lists.  With the
    default list_floor=0, the search instead exhausts its step cap on about
    one run in thirty.  Once the defect is fixed, this test fails: remove it
    and add the list workload back.
    """
    import matchcolor
    from matchcolor import list_edge_color

    graph, lists, cfg = list_case(kind, seed, index, n, list_floor)
    with pytest.raises(getattr(matchcolor, error)):
        list_edge_color(graph, lists, cfg)
