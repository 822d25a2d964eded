import json

import numpy as np
import pytest

from pathweights import load_model, save_covariance_csv, save_model
from pathweights.cli import main
from pathweights.datasets import dataset_path

from conftest import random_model

WOMEN = str(dataset_path("women"))
MEN = str(dataset_path("men"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


# -- global behaviour -------------------------------------------------------------------------------


def test_output_is_byte_identical_between_runs(capsys):
    _, first, _ = run(capsys, "centrality", WOMEN, "--format", "json")
    _, second, _ = run(capsys, "centrality", WOMEN, "--format", "json")
    assert first == second


def test_missing_file_is_a_clean_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/file.model")
    assert code == 1
    assert "error:" in err
