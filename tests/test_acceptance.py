"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each check prints a single ``CRITERION k PASS/FAIL`` line on the real stdout
(bypassing capture) so a full run reads as a checklist.  The checks are
ordered and self-contained; the final one re-executes the two pipeline
sweeps with identical seeds and insists on byte-identical canonical output.
"""

import json
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from matchcolor import (
    GsConfig,
    ListConfig,
    chi_star,
    color_multigraph,
    estimate_charges_exact,
    list_edge_color,
    plan_round,
    stream,
    verify_lopsidependency,
)
from matchcolor.colorer import round_flaw_specs, round_measure
from matchcolor.graphs import distances_from, validate_coloring
from matchcolor.hardcore import (
    ChainConfig,
    HardCoreModel,
    calibrate_activities,
    exact_marginals,
    log_partition_function,
    measure_correlation_decay,
    sample_matching,
)
from matchcolor.localsearch import causality_from_footprints, check_commutativity
from matchcolor.oracle import (
    brute_force_chromatic_index,
    brute_force_gamma,
    enumerate_matchings,
    exact_distribution,
    tv_distance,
)

from support import (
    cycle_graph,
    double_edge,
    gs_instance,
    list_instance,
    list_size_for,
    path_graph,
    staggered_lists,
    sweep_corpus,
    uniform_lists,
)

_RUNS: dict[str, dict] = {}


@contextmanager
def criterion(num: int, name: str, cap=None):
    """Print one PASS/FAIL line per check, past pytest's output capture."""

    def emit(status: str) -> None:
        line = f"CRITERION {num:2d} {status}: {name}"
        if cap is not None:
            with cap.disabled():
                print(line, file=sys.stderr, flush=True)
        else:
            print(line, file=sys.stderr, flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def connected(g) -> bool:
    return g.m >= 1 and all(d >= 0 for d in distances_from(g, [0]))


# ---------------------------------------------------------------------------


def test_criterion_01_fractional_index_exact(capsys):
    """chi* equals max(brute-force density bound, max degree) on 500 small
    connected multigraphs, with the chromatic-index sandwich."""
    with criterion(1, "fractional index matches brute force on 500 graphs", capsys):
        start = time.perf_counter()
        graphs = [g for g in sweep_corpus(101, 900, n_max=8, m_max=14) if connected(g)]
        assert len(graphs) >= 500
        graphs = graphs[:500]
        for g in graphs:
            value = chi_star(g).value
            gamma = brute_force_gamma(g)
            assert isinstance(value, Fraction) and isinstance(gamma, Fraction)
            assert value == max(gamma, Fraction(g.max_degree()))
            index = brute_force_chromatic_index(g)
            assert math.ceil(value) <= index <= 2 * g.max_degree() - 1
        assert time.perf_counter() - start < 120.0


def test_criterion_02_partition_function(capsys):
    """Log-domain partition function agrees with weighted enumeration to a
    relative 1e-10 over 200 random graphs and activities."""
    with criterion(2, "partition function vs enumeration, 200 graphs", capsys):
        start = time.perf_counter()
        graphs = [g for g in sweep_corpus(202, 260, n_max=8, m_max=12) if g.m >= 1]
        assert len(graphs) >= 200
        for i, g in enumerate(graphs[:200]):
            lam = [float(x) for x in stream(2, "lambda", i).uniform(0.1, 10.0, size=g.m)]
            z = math.exp(log_partition_function(HardCoreModel(g, lam)))
            z_brute = sum(
                math.prod(lam[e] for e in m) for m in enumerate_matchings(g)
            )
            assert abs(z - z_brute) / z_brute <= 1e-10
        assert time.perf_counter() - start < 60.0


def test_criterion_03_chain_sampling(capsys):
    """Metropolis sampling at the default step budget lands within total
    variation 0.02 of the exact law on three reference graphs."""
    with criterion(3, "chain sampling within TV 0.02 at 1e5 draws", capsys):
        start = time.perf_counter()
        cases = [
            ("triangle", cycle_graph(3)),
            ("path5", path_graph(5)),
            ("double", double_edge()),
        ]
        for name, g in cases:
            for variant in ("unit", "random"):
                if variant == "unit":
                    lam = [1.0] * g.m
                else:
                    lam = [
                        float(x)
                        for x in stream(3, "lam", name).uniform(0.5, 2.0, size=g.m)
                    ]
                model = HardCoreModel(g, lam)
                rng = stream(3, "chain", name, variant)
                counts: dict[frozenset, int] = {}
                for _ in range(100_000):
                    m = sample_matching(model, ChainConfig(steps=None), rng=rng)
                    counts[m] = counts.get(m, 0) + 1
                tv = tv_distance(exact_distribution(model), counts)
                assert tv <= 0.02, (name, variant, tv)
        assert time.perf_counter() - start < 300.0


def test_criterion_04_calibration(capsys):
    """Calibration reaches marginal targets (1 - 1/40)/chi* to 1e-6 on 50
    random graphs (exact route, independently re-derived), and hits the
    closed-form activity 1 to 1e-9 on the two solvable-by-hand graphs."""
    with criterion(4, "marginal calibration to 1e-6, closed forms to 1e-9", capsys):
        graphs = [g for g in sweep_corpus(404, 70) if g.m >= 1]
        assert len(graphs) >= 50
        for g in graphs[:50]:
            target = Fraction(39, 40) / chi_star(g).value
            result = calibrate_activities(g, target)
            assert result.method == "exact"
            assert result.max_error <= 1e-6
            # Independent re-derivation of the achieved marginals.
            model = HardCoreModel(g, [result.activities[e] for e in range(g.m)])
            recheck = exact_marginals(model)
            assert max(abs(v - float(target)) for v in recheck.values()) <= 1e-6
        # Triangle at target 1/4 and a single edge at target 1/2 both have
        # exact solution lambda = 1.
        for g, target in ((cycle_graph(3), Fraction(1, 4)), (path_graph(1), Fraction(1, 2))):
            result = calibrate_activities(g, target, tol=1e-11)
            for lam in result.activities.values():
                assert abs(lam - 1.0) <= 1e-9


def test_criterion_05_correlation_decay(capsys):
    """Conditional-marginal deviation on a 20-edge path shrinks as the
    conditioning moves away, below 0.05 at distance six."""
    with criterion(5, "correlation decay non-increasing, <= 0.05 at t = 6", capsys):
        model = HardCoreModel(path_graph(20), [1.0] * 20)
        devs = [
            measure_correlation_decay(model, 10, t, trials=300, rng=stream(5, "decay", t))
            for t in range(1, 7)
        ]
        for a, b in zip(devs, devs[1:]):
            assert b <= a + 1e-12, devs
        assert devs[-1] <= 0.05, devs


def test_criterion_06_charges_and_lopsidependency(capsys):
    """On fully enumerable instances the flaw charges factor exactly as
    distortion times flaw mass, and conditioning on any admissible set of
    distant flaws never pushes a flaw above its charge."""
    with criterion(6, "exact charge identities and lopsidependency", capsys):
        start = time.perf_counter()
        cfg = GsConfig(epsilon=0.1, chi0_override=2, t_override=1)
        instances = [path_graph(2), path_graph(3), path_graph(4), cycle_graph(4)]
        for g in instances:
            params = plan_round(g, cfg)
            assert params.n_matchings == 1
            mu = round_measure(g, params)
            assert abs(sum(mu.values()) - 1.0) <= 1e-9
            specs = round_flaw_specs(g, params)
            assert len(specs) <= 12
            report = estimate_charges_exact(specs, mu)
            assert report.identity_gap <= 1e-12
            graph = causality_from_footprints(specs)
            lop = verify_lopsidependency(specs, mu, graph)
            assert lop.holds
            assert not lop.violations
        assert time.perf_counter() - start < 60.0


def test_criterion_07_operator_commutation(capsys):
    """Repair operators of vertex flaws at graph distance beyond twice the
    repair reach commute entrywise to 1e-12; adjacent ones do not."""
    with criterion(7, "far repairs commute to 1e-12, adjacent ones fail", capsys):
        cfg = GsConfig(epsilon=0.1, chi0_override=2, t_override=1)
        far_checked = 0
        for g, cap, quota in ((path_graph(16), 16, 14), (cycle_graph(12), 12, 8)):
            params = plan_round(g, cfg)
            states = list(round_measure(g, params, cap=cap))
            by_vertex = {
                int(s.name.split(":")[1]): s
                for s in round_flaw_specs(g, params)
                if s.name.startswith("vertex:")
            }
            pairs = []
            for u in range(g.n):
                dist = distances_from(g, [u])
                for v in range(u + 1, g.n):
                    # t = 1: reads and writes stay within distance 2, so
                    # any separation beyond 2t + 2 = 4 must commute.
                    if dist[v] >= 5:
                        pairs.append((u, v))
                if len(pairs) >= quota:
                    break
            assert len(pairs) >= quota
            for u, v in pairs[:quota]:
                res = check_commutativity(by_vertex[u], by_vertex[v], states)
                assert res.commute, (g.n, u, v, res.max_diff)
                assert res.max_diff <= 1e-12
            far_checked += quota
        assert far_checked >= 20
        # Overlapping repair regions: order visibly matters.
        g = path_graph(16)
        params = plan_round(g, cfg)
        states = list(round_measure(g, params, cap=16))
        by_vertex = {
            int(s.name.split(":")[1]): s
            for s in round_flaw_specs(g, params)
            if s.name.startswith("vertex:")
        }
        for u, v in ((6, 7), (7, 8), (8, 9)):
            res = check_commutativity(by_vertex[u], by_vertex[v], states)
            assert not res.commute
            assert res.max_diff > 0.01


def test_criterion_08_matching_removal_pipeline(capsys):
    """Fifty banded multigraphs (n <= 60, max degree <= 40) through the
    matching-removal pipeline: proper and complete colorings, at most
    2 Delta - 1 colors, and every recorded round's residual chi* verified
    at or below the previous round's target level, as exact rationals."""
    with criterion(8, "round pipeline: 50 seeds proper, descending levels", capsys):
        start = time.perf_counter()
        outputs = {}
        small = 0
        for seed in range(50):
            g = gs_instance(seed)
            cfg = GsConfig(
                epsilon=0.5,
                master_seed=seed,
                chi0_override=10,
                t_override=2,
                step_cap=3000,
            )
            coloring, stats = color_multigraph(g, cfg)
            rep = validate_coloring(g, coloring)
            assert rep.ok, (seed, rep.conflicts)
            assert len(coloring) == g.m
            assert stats["colors_used"] <= 2 * g.max_degree() - 1
            rounds = stats["rounds"]
            for k in range(1, len(rounds)):
                level = Fraction(rounds[k]["chi_star"])
                target = Fraction(rounds[k - 1]["c_star"])
                assert level <= target, (seed, k, level, target)
            if g.n <= 10:
                # The round driver re-derived each flawless residual's chi*
                # exactly for these; reaching here means every check passed.
                small += 1
            outputs[seed] = json.dumps(
                {"coloring": {str(e): c for e, c in sorted(coloring.items())}, "stats": stats},
                sort_keys=True,
            )
        assert small >= 10
        _RUNS["gs"] = outputs
        assert time.perf_counter() - start < 900.0


def test_criterion_09_list_coloring_pipeline(capsys):
    """Thirty multigraphs (n <= 40, max degree <= 25) with uniform and
    staggered lists of size ceil(1.2 chi*): proper in-list colorings every
    run, per-iteration claim rate within three standard errors of alpha,
    and every repair audited to stay inside its locality ball."""
    with criterion(9, "list pipeline: 60 runs proper, claim rate near alpha", capsys):
        start = time.perf_counter()
        outputs = {}
        audits_total = 0
        for seed in range(30):
            g = list_instance(seed)
            q = list_size_for(g)
            assert q >= math.ceil(Fraction(6, 5) * chi_star(g).value)
            for kind, lists in (
                ("uniform", uniform_lists(g, q)),
                ("staggered", staggered_lists(g, q)),
            ):
                cfg = ListConfig(
                    master_seed=seed,
                    t_override=2,
                    edge_threshold=None,
                    mass_floor=0.05,
                    step_cap=1500,
                    list_floor=4,
                )
                coloring, stats = list_edge_color(g, lists, cfg)
                rep = validate_coloring(g, coloring, lists=lists)
                assert rep.ok, (seed, kind, rep.conflicts, rep.list_violations)
                assert len(coloring) == g.m
                alpha = stats["alpha"]
                for it in stats["iterations"]:
                    if it["eligible_edges"]:
                        se = math.sqrt(alpha * (1.0 - alpha) / it["eligible_edges"])
                        dev = abs(it["claim_rate"] - alpha)
                        assert dev <= 3.0 * se, (seed, kind, dev, 3.0 * se)
                    audits_total += it["locality_audits"]
                outputs[f"{seed}:{kind}"] = json.dumps(
                    {
                        "coloring": {str(e): c for e, c in sorted(coloring.items())},
                        "stats": stats,
                    },
                    sort_keys=True,
                )
        # Every repair's locality audit raises on a violation; a zero count
        # would mean no repair ran at all.
        assert audits_total > 0
        _RUNS["list"] = outputs
        assert time.perf_counter() - start < 1200.0


def test_criterion_10_reproducibility(capsys):
    """Re-running both pipeline sweeps with identical seeds reproduces the
    canonical JSON byte for byte."""
    with criterion(10, "identical seeds give byte-identical reruns", capsys):
        assert "gs" in _RUNS and "list" in _RUNS, "pipeline checks must run first"
        for seed in range(50):
            g = gs_instance(seed)
            cfg = GsConfig(
                epsilon=0.5,
                master_seed=seed,
                chi0_override=10,
                t_override=2,
                step_cap=3000,
            )
            coloring, stats = color_multigraph(g, cfg)
            text = json.dumps(
                {"coloring": {str(e): c for e, c in sorted(coloring.items())}, "stats": stats},
                sort_keys=True,
            )
            assert text == _RUNS["gs"][seed], f"seed {seed} diverged"
        for seed in range(30):
            g = list_instance(seed)
            q = list_size_for(g)
            for kind, lists in (
                ("uniform", uniform_lists(g, q)),
                ("staggered", staggered_lists(g, q)),
            ):
                cfg = ListConfig(
                    master_seed=seed,
                    t_override=2,
                    edge_threshold=None,
                    mass_floor=0.05,
                    step_cap=1500,
                    list_floor=4,
                )
                coloring, stats = list_edge_color(g, lists, cfg)
                text = json.dumps(
                    {
                        "coloring": {str(e): c for e, c in sorted(coloring.items())},
                        "stats": stats,
                    },
                    sort_keys=True,
                )
                assert text == _RUNS["list"][f"{seed}:{kind}"], f"{seed}:{kind} diverged"
