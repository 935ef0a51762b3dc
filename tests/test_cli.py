"""Command-line interface: every subcommand in-process, plus exit codes."""

import json

import pytest

from matchcolor import cli
from matchcolor.cli import main
from matchcolor.graphs import dump_multigraph, is_matching, load_multigraph, validate_coloring

from support import cycle_graph, path_graph, shannon, star_multigraph


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(dump_multigraph(g))
    return str(path)


def write_json(tmp_path, obj, name):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# chi-star


def test_chi_star_cycle(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(5))
    code, out, _ = run(capsys, ["chi-star", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["chi_star"] == "5/2"
    assert payload["value"] == 2.5
    assert payload["witness"]["ratio"] == "5/2"
    assert sorted(payload["witness"]["vertices"]) == [0, 1, 2, 3, 4]
    assert payload["exhaustive"] is True


def test_chi_star_degree_witness(tmp_path, capsys):
    path = write_graph(tmp_path, star_multigraph(6))
    code, out, _ = run(capsys, ["chi-star", path])
    assert code == 0
    assert json.loads(out)["witness"] == "degree"


def write_text(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


EDGELESS = ["p 0 0\n", "p 3 0\n"]


@pytest.mark.parametrize("text", EDGELESS, ids=["n0", "n3"])
def test_chi_star_of_an_edgeless_graph_exits_two(tmp_path, capsys, text):
    code, out, err = run(capsys, ["chi-star", write_text(tmp_path, text)])
    assert code == 2
    assert out == ""
    assert "edgeless" in err


@pytest.mark.parametrize("text", EDGELESS, ids=["n0", "n3"])
def test_edgeless_graphs_give_empty_outputs(tmp_path, capsys, text):
    path = write_text(tmp_path, text)
    lists = write_json(tmp_path, {}, "lists.json")
    code, out, _ = run(capsys, ["color", path])
    assert code == 0
    assert json.loads(out)["coloring"] == {}
    code, out, _ = run(capsys, ["list-color", path, lists])
    assert code == 0
    assert json.loads(out)["coloring"] == {}
    code, out, _ = run(capsys, ["calibrate", path, "--target", "1/3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["activities"] == {} and payload["achieved"] == {}
    code, out, _ = run(capsys, ["sample", path])
    assert code == 0
    assert json.loads(out)["matchings"] == [[]]


def test_disconnected_graph_runs_through_chi_star_and_color(tmp_path, capsys):
    text = "p 5 2\ne 0 1\ne 3 4\n"
    path = write_text(tmp_path, text)
    code, out, _ = run(capsys, ["chi-star", path])
    assert code == 0
    assert json.loads(out)["chi_star"] == "1"
    code, out, _ = run(capsys, ["color", path])
    assert code == 0
    coloring = {int(e): c for e, c in json.loads(out)["coloring"].items()}
    assert validate_coloring(load_multigraph(text), coloring).ok
    assert sorted(coloring) == [0, 1]


# ---------------------------------------------------------------------------
# color


def test_color_runs_and_validates(tmp_path, capsys):
    g = shannon(2)
    path = write_graph(tmp_path, g)
    code, out, _ = run(capsys, ["color", path, "--seed", "0"])
    assert code == 0
    payload = json.loads(out)
    coloring = {int(e): c for e, c in payload["coloring"].items()}
    assert validate_coloring(g, coloring).ok
    assert len(coloring) == g.m
    # chi* = 6 sits far below the default greedy threshold: no rounds.
    assert payload["stats"]["rounds"] == []
    assert payload["stats"]["chi_star"] == "6"


def test_color_out_file_is_byte_deterministic(tmp_path, capsys):
    path = write_graph(tmp_path, shannon(2))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["color", path, "--seed", "7", "--out", str(out1)]) == 0
    assert main(["color", path, "--seed", "7", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def _pipeline_must_not_run(*args, **kwargs):
    raise AssertionError("the pipeline ran")


@pytest.mark.parametrize(
    "argv",
    [
        ["color", "--step-cap", "0"],
        ["color", "--step-cap", "-4"],
        ["color", "--chain-steps", "-3"],
        ["color", "--chain-steps", "-3", "--sampler", "chain"],
        ["list-color", "--chain-steps", "-3"],
    ],
)
def test_bad_search_settings_exit_two_before_any_work(tmp_path, capsys, monkeypatch, argv):
    # A step cap below 1 or a negative chain step count is a usage error,
    # caught when the config is built: chi*, calibration and the search
    # never start.
    monkeypatch.setattr(cli, "color_multigraph", _pipeline_must_not_run)
    monkeypatch.setattr(cli, "list_edge_color", _pipeline_must_not_run)
    g = cycle_graph(5)
    path = write_graph(tmp_path, g)
    files = [path]
    if argv[0] == "list-color":
        files.append(write_json(tmp_path, {str(e): [0, 1, 2] for e in range(g.m)}, "lists.json"))
    code, out, err = run(capsys, [argv[0], *files, *argv[1:]])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# list-color


def test_list_color(tmp_path, capsys):
    g = cycle_graph(5)
    path = write_graph(tmp_path, g)
    lists = {e: [0, 1, 2] for e in range(g.m)}
    lists_path = write_json(tmp_path, {str(e): v for e, v in lists.items()}, "lists.json")
    code, out, _ = run(capsys, ["list-color", path, lists_path, "--radius", "1", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    coloring = {int(e): c for e, c in payload["coloring"].items()}
    assert validate_coloring(g, coloring, lists=lists).ok
    assert len(coloring) == g.m
    assert payload["stats"]["chi_star"] == "5/2"


def test_list_color_rejects_short_lists(tmp_path, capsys):
    g = cycle_graph(5)
    path = write_graph(tmp_path, g)
    lists_path = write_json(tmp_path, {str(e): [0, 1] for e in range(g.m)}, "lists.json")
    code, _, err = run(capsys, ["list-color", path, lists_path])
    assert code == 2
    assert "list sizes" in err


@pytest.mark.parametrize("entries", [[0, 0, 0, 0], [0, 1, 1, 1]])
def test_list_color_counts_distinct_colors(tmp_path, capsys, entries):
    # A triangle needs lists of ceil(1.1 * 3) = 4 colors; repeats count once.
    path = write_graph(tmp_path, cycle_graph(3))
    lists_path = write_json(tmp_path, {str(e): entries for e in range(3)}, "lists.json")
    code, out, err = run(capsys, ["list-color", path, lists_path])
    assert code == 2
    assert out == ""
    assert "list sizes must reach" in err


def test_list_color_rejects_a_list_that_is_not_an_array(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    lists_path = write_json(tmp_path, {"0": 5, "1": [0, 1, 2, 3], "2": [0, 1, 2, 3]}, "lists.json")
    code, _, err = run(capsys, ["list-color", path, lists_path])
    assert code == 2
    assert "edge 0" in err


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_closed_form(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    code, out, _ = run(capsys, ["calibrate", path, "--target", "1/4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "exact"
    assert payload["max_error"] <= 1e-6
    for lam in payload["activities"].values():
        assert lam == pytest.approx(1.0, abs=1e-6)


def test_calibrate_infeasible_target(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    code, _, err = run(capsys, ["calibrate", path, "--target", "1/2"])
    assert code == 1
    assert "error:" in err


def test_calibrate_bad_target(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    code, _, err = run(capsys, ["calibrate", path, "--target", "3/2"])
    assert code == 2


def test_calibrate_zero_denominator_exits_two(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    code, _, err = run(capsys, ["calibrate", path, "--target", "1/0"])
    assert code == 2
    assert err.startswith("error:") and "zero denominator" in err


# ---------------------------------------------------------------------------
# sample


def test_sample_exact_deterministic(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(3))
    argv = ["sample", path, "--exact", "--count", "4", "--seed", "5"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    code, out2, _ = run(capsys, argv)
    assert code == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload["matchings"]) == 4
    for m in payload["matchings"]:
        assert m == sorted(m)
        assert set(m) <= {0, 1, 2}


def test_sample_exact_beyond_the_auto_cap(tmp_path, capsys):
    """``--exact`` is exact at any size, like ``sampler="exact"`` in the
    pipelines: a 70-edge path, past the 64-edge cap "auto" once had."""
    g = path_graph(70)
    path = write_graph(tmp_path, g)
    code, out, err = run(capsys, ["sample", path, "--exact", "--count", "3"])
    assert code == 0, err
    matchings = json.loads(out)["matchings"]
    assert len(matchings) == 3
    for m in matchings:
        assert m == sorted(m)
        assert is_matching(g, m)


def test_sample_chain(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(1))
    code, out, _ = run(capsys, ["sample", path, "--count", "2"])
    assert code == 0
    assert len(json.loads(out)["matchings"]) == 2


def test_sample_activities_file(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(2))
    acts = write_json(tmp_path, {"0": 2.0, "1": 0.5}, "acts.json")
    code, out, _ = run(capsys, ["sample", path, "--exact", "--activities", acts])
    assert code == 0


def test_sample_activities_not_numbers(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(2))
    acts = write_json(tmp_path, {"0": [2.0], "1": 0.5}, "acts.json")
    code, _, err = run(capsys, ["sample", path, "--exact", "--activities", acts])
    assert code == 2
    assert "edge 0" in err


def test_sample_activities_missing_edge(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(2))
    acts = write_json(tmp_path, {"0": 2.0}, "acts.json")
    code, _, err = run(capsys, ["sample", path, "--exact", "--activities", acts])
    assert code == 2
    assert "misses edge ids" in err


def test_sample_rejects_negative_count(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(2))
    code, out, err = run(capsys, ["sample", path, "--count", "-1"])
    assert code == 2
    assert out == ""
    assert "count must be non-negative" in err


# ---------------------------------------------------------------------------
# verify chi-e


def test_verify_accepts_proper_coloring(tmp_path, capsys):
    g = cycle_graph(4)
    path = write_graph(tmp_path, g)
    col = write_json(tmp_path, {"0": 0, "1": 1, "2": 0, "3": 1}, "col.json")
    code, out, _ = run(capsys, ["verify", "chi-e", path, col])
    assert code == 0
    payload = json.loads(out)
    assert payload["proper"] is True
    assert payload["colors_used"] == 2


def test_verify_rejects_conflict(tmp_path, capsys):
    g = cycle_graph(4)
    path = write_graph(tmp_path, g)
    col = write_json(tmp_path, {"0": 0, "1": 0, "2": 1, "3": 1}, "col.json")
    code, out, _ = run(capsys, ["verify", "chi-e", path, col])
    assert code == 1
    payload = json.loads(out)
    assert payload["proper"] is False
    assert payload["conflicts"]


def test_verify_rejects_incomplete(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4))
    col = write_json(tmp_path, {"0": 0, "1": 1}, "col.json")
    code, out, _ = run(capsys, ["verify", "chi-e", path, col])
    assert code == 1
    assert json.loads(out)["uncolored"] == [2, 3]


def test_verify_list_violation(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4))
    col = write_json(tmp_path, {"0": 0, "1": 1, "2": 0, "3": 1}, "col.json")
    lists = write_json(tmp_path, {str(e): [1, 2] for e in range(4)}, "lists.json")
    code, out, _ = run(capsys, ["verify", "chi-e", path, col, "--lists", lists])
    assert code == 1
    assert 0 in json.loads(out)["list_violations"]


def test_verify_rejects_a_color_that_is_an_array(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4))
    col = write_json(tmp_path, {"0": 0, "1": [1], "2": 0, "3": 1}, "col.json")
    code, out, err = run(capsys, ["verify", "chi-e", path, col])
    assert code == 2
    assert out == ""
    assert "edge 1" in err


def test_verify_rejects_a_list_that_is_not_an_array(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4))
    col = write_json(tmp_path, {"0": 0, "1": 1, "2": 0, "3": 1}, "col.json")
    lists = write_json(tmp_path, {"0": [0, 1], "1": [0, 1], "2": 5, "3": [0, 1]}, "lists.json")
    code, out, err = run(capsys, ["verify", "chi-e", path, col, "--lists", lists])
    assert code == 2
    assert out == ""
    assert "edge 2" in err


def test_verify_rejects_a_list_key_outside_the_graph(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    col = write_json(tmp_path, {"0": 0, "1": 1, "2": 2}, "col.json")
    lists = write_json(tmp_path, {"0": [0], "1": [1], "2": [2], "9": [1]}, "lists.json")
    code, out, err = run(capsys, ["verify", "chi-e", path, col, "--lists", lists])
    assert code == 2
    assert out == ""
    assert "9" in err


def test_verify_optimality_flag(tmp_path, capsys):
    g = path_graph(3)  # chromatic index 2
    path = write_graph(tmp_path, g)
    best = write_json(tmp_path, {"0": 0, "1": 1, "2": 0}, "best.json")
    waste = write_json(tmp_path, {"0": 0, "1": 1, "2": 2}, "waste.json")
    code, out, _ = run(capsys, ["verify", "chi-e", path, best, "--optimal"])
    assert code == 0
    assert json.loads(out)["chromatic_index"] == 2
    code, out, _ = run(capsys, ["verify", "chi-e", path, waste, "--optimal"])
    assert code == 1
    assert json.loads(out)["optimal"] is False


# ---------------------------------------------------------------------------
# verify dist


def test_verify_dist_chain_close(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    code, out, _ = run(capsys, ["verify", "dist", path, "--samples", "2000"])
    assert code == 0
    assert json.loads(out)["tv_distance"] <= 0.05


def test_verify_dist_detects_undersampling(tmp_path, capsys):
    # 50 draws cannot hit four probability-1/4 atoms within TV 0.001:
    # the granularity of empirical frequencies alone forces TV >= 0.01.
    path = write_graph(tmp_path, cycle_graph(3))
    code, out, _ = run(
        capsys, ["verify", "dist", path, "--samples", "50", "--tol", "0.001"]
    )
    assert code == 1


def test_verify_dist_rejects_zero_samples(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    code, out, err = run(capsys, ["verify", "dist", path, "--samples", "0"])
    assert code == 2
    assert out == ""
    assert "samples must be positive" in err


# ---------------------------------------------------------------------------
# Usage errors


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    capsys.readouterr()


def test_malformed_graph_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("p 3\n")
    code, _, err = run(capsys, ["chi-star", str(path)])
    assert code == 2
    assert "error:" in err


def test_missing_graph_file(tmp_path, capsys):
    code, _, err = run(capsys, ["chi-star", str(tmp_path / "nope.txt")])
    assert code == 2


def test_malformed_lists_json(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["list-color", path, str(bad)])
    assert code == 2


def test_lists_wrong_shape(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4))
    bad = write_json(tmp_path, [1, 2, 3], "bad.json")
    code, _, err = run(capsys, ["list-color", path, str(bad)])
    assert code == 2
    assert "keyed by edge id" in err
