import json

import numpy as np
import pytest

from pathweights import Model, SymMatrix, load_model, save_covariance_csv, save_model
from pathweights.cli import main
from pathweights.datasets import dataset_path

from conftest import random_model

WOMEN = str(dataset_path("women"))
MEN = str(dataset_path("men"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_model(tmp_path, vertices, edges) -> str:
    """A model file of ``vertices`` and ``(u, v, pcor)`` edges (pcor None: a graph only)."""
    path = tmp_path / "input.model"
    path.write_text(json.dumps({
        "vertices": vertices,
        "edges": [{"u": u, "v": v} | ({} if pcor is None else {"pcor": pcor}) for u, v, pcor in edges],
    }))
    return str(path)


def fit_inputs(tmp_path, edges) -> tuple[str, str]:
    """A sample covariance CSV of a, b and c, and a graph file with ``edges``."""
    cov = tmp_path / "cov.csv"
    sample = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]])
    save_covariance_csv(SymMatrix(["a", "b", "c"], sample), cov)
    return str(cov), write_model(tmp_path, ["a", "b", "c"], [(u, v, None) for u, v in edges])


# -- check ------------------------------------------------------------------------


def test_check_ok(capsys):
    code, out, _ = run(capsys, "check", WOMEN)
    assert code == 0
    assert "model ok" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", WOMEN, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["detail"]["vertices"] == 13


def test_check_fails_on_non_adapted(tmp_path, capsys):
    doc = {
        "vertices": ["1", "2", "3"],
        "edges": [{"u": "1", "v": "2"}, {"u": "2", "v": "3"}],
        "sigma": {
            "labels": ["1", "2", "3"],
            "rows": [[1.0, 0.5, 0.4], [0.5, 1.0, 0.5], [0.4, 0.5, 1.0]],
        },
    }
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "not adapted" in out


def test_check_fails_on_non_pd(tmp_path, capsys):
    doc = {
        "vertices": ["1", "2"],
        "edges": [{"u": "1", "v": "2"}],
        "sigma": {"labels": ["1", "2"], "rows": [[1.0, 2.0], [2.0, 1.0]]},
    }
    path = tmp_path / "npd.model"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "not positive definite" in out


# -- matrices -----------------------------------------------------------------------


def test_matrices_single_kind(capsys):
    code, out, _ = run(capsys, "matrices", WOMEN, "--kind", "r", "--precision", "2")
    assert code == 0
    assert out.startswith("[r]")
    assert "0.31" in out


def test_matrices_builds_only_the_kind_it_prints(capsys, monkeypatch):
    def unbuilt(self):
        raise AssertionError("a matrix that is not printed was built")
    for name in ("omega", "inflated"):
        monkeypatch.setattr(Model, name, property(unbuilt))
    code, out, _ = run(capsys, "matrices", WOMEN, "--kind", "r")
    assert code == 0
    assert out.startswith("[r]")


def test_matrices_json_all_kinds(capsys):
    code, out, _ = run(capsys, "matrices", WOMEN, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"omega", "r", "varrho"}
    assert doc["r"]["labels"][0] == "cooked_vegetables"


# -- decompose ------------------------------------------------------------------------


def test_decompose_table(capsys):
    code, out, _ = run(capsys, "decompose", WOMEN, "soup", "cooked_vegetables",
                       "--measure", "inf")
    assert code == 0
    assert "paths 9" in out
    assert "same-signed yes" in out


def test_decompose_json_share(capsys):
    code, out, _ = run(capsys, "decompose", WOMEN, "soup", "cooked_vegetables",
                       "--measure", "inf", "--format", "json")
    doc = json.loads(out)
    assert len(doc["paths"]) == 9
    top = max(doc["paths"], key=lambda e: e["share"])
    assert top["path"] == ["cooked_vegetables", "legumes", "soup"]
    assert top["share"] == pytest.approx(0.814, abs=0.01)


def test_decompose_restrict_and_cap(capsys):
    code, out, _ = run(capsys, "decompose", WOMEN, "soup", "legumes",
                       "--restrict", "soup,legumes", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["paths"]) == 1
    code, _, err = run(capsys, "decompose", WOMEN, "soup", "cooked_vegetables", "--cap", "3")
    assert code == 1
    assert "cap" in err


def test_decompose_unknown_vertex(capsys):
    code, _, err = run(capsys, "decompose", WOMEN, "soup", "pizza")
    assert code == 1
    assert "pizza" in err


def test_unknown_vertex_message_is_not_quoted(capsys):
    code, _, err = run(capsys, "decompose", WOMEN, "soup", "nosuch")
    assert code == 1
    assert err == "error: unknown vertex label(s): 'nosuch'\n"


# -- centrality --------------------------------------------------------------------------


def test_centrality_table_sorted(capsys):
    code, out, _ = run(capsys, "centrality", WOMEN)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split()[0] == "red_meat"


def test_centrality_json(capsys):
    code, out, _ = run(capsys, "centrality", WOMEN, "--format", "json")
    doc = json.loads(out)
    by_vertex = {row["vertex"]: row for row in doc["vertices"]}
    assert by_vertex["red_meat"]["normalized"] == 1.0
    assert by_vertex["mushrooms"]["betweenness"] == 0.0


def test_centrality_shortest_mode(capsys):
    code, out, _ = run(capsys, "centrality", WOMEN, "--mode", "shortest", "--format", "json")
    assert code == 0
    assert json.loads(out)["mode"] == "shortest-paths"


@pytest.mark.parametrize("mode", ["all", "shortest"])
def test_centrality_of_two_disjoint_edges(mode, tmp_path, capsys):
    # the four pairs across the edges have no path; no vertex lies inside a path
    path = write_model(tmp_path, ["a", "b", "c", "d"], [("a", "b", 0.3), ("c", "d", 0.4)])
    code, out, _ = run(capsys, "centrality", path, "--mode", mode)
    assert code == 0
    assert out.splitlines()[-2:] == [
        "skipped pairs (disconnected or zero weight): 4",
        "warning: all betweenness values equal; normalized column set to 0",
    ]


# -- rank-paths ----------------------------------------------------------------------------


def test_rank_paths_top(capsys):
    code, out, _ = run(capsys, "rank-paths", WOMEN, "--vertices", "3", "--top", "1",
                       "--format", "json")
    doc = json.loads(out)
    assert len(doc["paths"]) == 1
    assert set(doc["paths"][0]["path"]) == {"poultry", "red_meat", "processed_meat"}


def test_rank_paths_top_must_not_be_negative(capsys):
    # a negative --top would slice paths off the end of the ranking
    with pytest.raises(SystemExit) as exc:
        main(["rank-paths", WOMEN, "--vertices", "3", "--top", "-1"])
    assert exc.value.code == 2
    assert "--top" in capsys.readouterr().err
    code, out, _ = run(capsys, "rank-paths", WOMEN, "--vertices", "3", "--top", "0",
                       "--format", "json")
    assert code == 0 and json.loads(out) == {"paths": []}


@pytest.mark.parametrize("argv", [
    ["check", WOMEN], ["matrices", WOMEN], ["decompose", WOMEN, "soup", "pizza"],
    ["centrality", WOMEN], ["rank-paths", WOMEN, "--vertices", "3"], ["edges", WOMEN],
    ["fit", "sample.csv", WOMEN, "fitted.model"], ["mtp2", WOMEN],
], ids=lambda argv: argv[0])
def test_precision_must_not_be_negative(capsys, argv):
    # a negative precision used to print part of the output, then fail formatting
    for value in ("-1", "two"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--precision", value])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"argument --precision: must be a non-negative integer, got {value}" in out.err


# -- edges -----------------------------------------------------------------------------------


def test_edges_table(capsys):
    code, out, _ = run(capsys, "edges", WOMEN)
    assert code == 0
    assert out.splitlines()[0].split()[:3] == ["u", "v", "pc"]
    assert len(out.strip().splitlines()) == 18


def test_edges_json_nipc(capsys):
    code, out, _ = run(capsys, "edges", WOMEN, "--format", "json")
    doc = json.loads(out)
    record = next(
        e for e in doc["edges"]
        if {e["u"], e["v"]} == {"processed_meat", "red_meat"}
    )
    assert record["nipc"] == pytest.approx(0.46, abs=0.02)


@pytest.mark.parametrize("fmt, expected", [
    ("table", "u  v  pc  npc  nipc  inflation\n"),
    ("json", '{\n  "edges": []\n}\n'),
], ids=["table", "json"])
def test_edges_on_a_model_without_edges(fmt, expected, tmp_path, capsys):
    path = tmp_path / "edgeless.model"
    path.write_text(json.dumps({"vertices": ["a", "b"], "edges": []}))
    code, out, err = run(capsys, "edges", str(path), "--format", fmt)
    assert (code, out, err) == (0, expected, "")


# -- usage errors -----------------------------------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    (["decompose", WOMEN, "soup", "legumes", "--cap", "0"],
     "argument --cap: must be a positive integer, got 0"),
    (["rank-paths", WOMEN, "--vertices", "3", "--cap", "-2"],
     "argument --cap: must be a positive integer, got -2"),
    (["rank-paths", WOMEN, "--vertices", "1"],
     "argument --vertices: must be an integer of at least 2, got 1"),
    (["rank-paths", WOMEN, "--vertices", "three"],
     "argument --vertices: must be an integer of at least 2, got three"),
], ids=["decompose-cap", "rank-paths-cap", "vertices-1", "vertices-text"])
def test_bad_cap_and_vertex_count_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


# -- fit ----------------------------------------------------------------------------------------


def test_fit_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(601)
    m = random_model(rng, 5, 0.5)
    cov = tmp_path / "cov.csv"
    save_covariance_csv(m.sigma, cov)
    graph_file = tmp_path / "graph.model"
    save_model(m, graph_file)
    out_file = tmp_path / "fitted.model"
    code, out, _ = run(capsys, "fit", str(cov), str(graph_file), str(out_file))
    assert code == 0
    fitted = load_model(out_file)
    # the input already satisfies the constraints, so the fit reproduces it
    assert np.abs(fitted.sigma.values - m.sigma.values).max() < 1e-7


def test_fit_json(tmp_path, capsys):
    cov, graph_file = fit_inputs(tmp_path, [("a", "b"), ("b", "c")])
    out_file = tmp_path / "fitted.model"
    code, out, _ = run(capsys, "fit", cov, graph_file, str(out_file), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "output": str(out_file), "vertices": 3, "edges": 2}
    assert load_model(out_file).graph.edges == {("a", "b"), ("b", "c")}


def test_fit_that_does_not_converge_writes_nothing(tmp_path, capsys):
    # one sweep over the three edges of a cycle does not reach the tolerance
    cov, graph_file = fit_inputs(tmp_path, [("a", "b"), ("b", "c"), ("a", "c")])
    out_file = tmp_path / "fitted.model"
    code, out, err = run(capsys, "fit", cov, graph_file, str(out_file), "--max-iter", "1")
    assert (code, out) == (1, "")
    assert err.startswith("fit failed: not converged after 1 sweeps: ")
    assert not out_file.exists()


# -- mtp2 ------------------------------------------------------------------------------------------


def test_mtp2_women(capsys):
    code, out, _ = run(capsys, "mtp2", WOMEN)
    assert code == 0
    assert "signable" in out
    assert "whole_bread" in out or "refined_bread" in out


def test_mtp2_json_not_signable(tmp_path, capsys):
    doc = {
        "vertices": ["1", "2", "3"],
        "edges": [
            {"u": "1", "v": "2", "pcor": 0.3},
            {"u": "1", "v": "3", "pcor": 0.3},
            {"u": "2", "v": "3", "pcor": -0.3},
        ],
    }
    path = tmp_path / "odd.model"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "mtp2", str(path), "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["signable"] is False
    assert parsed["delta"] is None


@pytest.mark.parametrize("edges, verdict", [
    ([("a", "b", 0.3), ("b", "c", 0.2)], "already nonnegative: "),
    ([("a", "b", 0.3), ("a", "c", 0.3), ("b", "c", -0.3)], "not signable: "),
], ids=["nonnegative", "not-signable"])
def test_mtp2_table_verdicts(edges, verdict, tmp_path, capsys):
    code, out, _ = run(capsys, "mtp2", write_model(tmp_path, ["a", "b", "c"], edges))
    assert code == 0
    assert out.startswith(verdict)


# -- global behaviour -------------------------------------------------------------------------------


def test_output_is_byte_identical_between_runs(capsys):
    _, first, _ = run(capsys, "centrality", WOMEN, "--format", "json")
    _, second, _ = run(capsys, "centrality", WOMEN, "--format", "json")
    assert first == second


def test_missing_file_is_a_clean_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/file.model")
    assert code == 1
    assert "error:" in err
