import json
import re

import numpy as np
import pytest

from pathweights import (
    Measure,
    ModelFileError,
    betweenness,
    decompose,
    load_covariance_csv,
    load_graph,
    load_model,
    save_covariance_csv,
    save_model,
    save_report,
)
from pathweights.datasets import dataset_path
from pathweights.cli import main
from pathweights.modelio import format_report, report_dict, report_rows
from pathweights.weights import edge_measures

from conftest import random_model


# -- bundled data -----------------------------------------------------------------


def test_bundled_women_file(women):
    assert len(women.vertices) == 13
    assert len(women.graph.edges) == 17
    assert women.source_kind == "pcor"


def test_bundled_men_file(men):
    assert len(men.vertices) == 12
    assert len(men.graph.edges) == 14
    assert "fried_potatoes" not in men.vertices


def test_dataset_path_unknown_name():
    with pytest.raises(KeyError):
        dataset_path("children")


# -- model files --------------------------------------------------------------------


def test_pcor_model_roundtrip(tmp_path, women):
    out = tmp_path / "copy.model"
    save_model(women, out, metadata={"name": "copy"})
    again = load_model(out)
    assert again.vertices == women.vertices
    assert again.graph.edges == women.graph.edges
    np.testing.assert_array_equal(again.partial_corr.values, women.partial_corr.values)
    np.testing.assert_array_equal(again.sigma.values, women.sigma.values)


def test_sigma_model_roundtrip(tmp_path):
    rng = np.random.default_rng(501)
    m = random_model(rng, 5, 0.5)
    out = tmp_path / "m.model"
    save_model(m, out)
    again = load_model(out)
    assert again.source_kind == "sigma"
    np.testing.assert_array_equal(again.sigma.values, m.sigma.values)
    assert again.graph.edges == m.graph.edges


def test_load_graph_ignores_numeric_sections(tmp_path):
    doc = {"vertices": ["a", "b", "c"], "edges": [{"u": "a", "v": "b"}]}
    path = tmp_path / "g.model"
    path.write_text(json.dumps(doc))
    g = load_graph(path)
    assert g.vertices == ("a", "b", "c")
    assert g.edges == frozenset({("a", "b")})
    with pytest.raises(ModelFileError):
        load_model(path)  # no pcor, no sigma


def test_unknown_vertex_in_edge_is_named(tmp_path):
    doc = {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "ghost", "pcor": 0.1}]}
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFileError, match="ghost"):
        load_model(path)


@pytest.mark.parametrize("doc", [
    {"vertices": ["a", "b"], "edges": [{"u": ["a"], "v": "b", "pcor": 0.3}]},
    {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}],
     "sigma": {"labels": [["a"], "b"], "rows": [[1.0, 0.1], [0.1, 1.0]]}},
], ids=["list-endpoint", "list-sigma-label"])
def test_unhashable_labels_are_model_file_errors(doc, tmp_path, capsys):
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFileError, match=re.escape(f"{path}: ")):
        load_model(path)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_ambiguous_model_file(tmp_path):
    doc = {
        "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "pcor": 0.2}],
        "sigma": {"labels": ["a", "b"], "rows": [[1.0, 0.1], [0.1, 1.0]]},
    }
    path = tmp_path / "both.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFileError, match="ambiguous"):
        load_model(path)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.model"
    path.write_text('{"vertices": [}')
    with pytest.raises(ModelFileError, match="line"):
        load_model(path)


def test_edgeless_pcor_model(tmp_path):
    path = tmp_path / "empty.model"
    path.write_text(json.dumps({"vertices": ["a", "b"], "edges": []}))
    m = load_model(path)
    np.testing.assert_array_equal(m.sigma.values, np.eye(2))


def malformed(name, load, text, message, error=ModelFileError):
    return pytest.param(load, text, message, error, id=name)


@pytest.mark.parametrize("load, text, message, error", [
    malformed("top-level", load_model, "[1, 2]", "{path}: top level must be a JSON object"),
    malformed("vertices-type", load_model, '{"vertices": ["a", 1]}',
              "{path}: 'vertices' must be a list of strings"),
    malformed("vertices-duplicate", load_model, '{"vertices": ["a", "a"]}',
              "{path}: duplicate vertex names"),
    malformed("edges-type", load_model, '{"vertices": ["a"], "edges": {}}', "{path}: 'edges' must be a list"),
    malformed("edge-without-v", load_model, '{"vertices": ["a", "b"], "edges": [{"u": "a"}]}',
              "{path}: edge #0 must be an object with 'u' and 'v'"),
    malformed("pcor-type", load_model, '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "pcor": "0.3"}]}',
              "{path}: edge #0 has a non-numeric 'pcor'"),
    malformed("pcor-bool", load_model, '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "pcor": false}]}',
              "{path}: edge #0 has a non-numeric 'pcor': false"),
    malformed("sigma-type", load_model, '{"vertices": ["a"], "sigma": [1.0]}', "{path}: 'sigma' must be an object"),
    malformed("sigma-labels", load_model, '{"vertices": ["a", "b"], "sigma": {"labels": ["a", "c"], "rows": []}}',
              "{path}: 'sigma' labels do not match 'vertices'"),
    malformed("sigma-matrix", load_model,
              '{"vertices": ["a", "b"], "sigma": {"labels": ["a", "b"], "rows": [[1.0, 0.5], [0.2, 1.0]]}}',
              "{path}: invalid 'sigma' block: "),
    malformed("csv-no-data", load_covariance_csv, ",a,b\n", "{path}: expected a header row and at least one data row"),
    malformed("csv-row-count", load_covariance_csv, ",a,b\na,1,0\n",
              "{path}: header names 2 columns but file has 1 data rows"),
    malformed("csv-short-row", load_covariance_csv, ",a,b\na,1\nb,0,1\n", "{path}: row 2 has 2 fields, expected 3"),
    malformed("csv-non-numeric", load_covariance_csv, ",a,b\na,1,x\nb,0,1\n",
              "{path}: row 2 has a non-numeric entry: "),
    malformed("report-rows", lambda path: report_rows(object()), "", "no tabular form for object", TypeError),
    malformed("report-dict", lambda path: report_dict(object()), "", "no dictionary form for object", TypeError),
    malformed("report-format", lambda path: format_report([], "xml"), "", "unknown report format 'xml'", ValueError),
])
def test_malformed_inputs_raise_typed_errors(load, text, message, error, tmp_path):
    path = tmp_path / "bad.input"
    path.write_text(text)
    with pytest.raises(error, match=re.escape(message.format(path=path))):
        load(path)


# -- covariance CSV --------------------------------------------------------------------


def test_covariance_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(503)
    m = random_model(rng, 4, 0.5)
    path = tmp_path / "cov.csv"
    save_covariance_csv(m.sigma, path)
    again = load_covariance_csv(path)
    assert again.labels == m.sigma.labels
    np.testing.assert_array_equal(again.values, m.sigma.values)


def test_covariance_csv_rejects_asymmetry(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",a,b\na,1.0,0.2\nb,0.3,1.0\n")
    with pytest.raises(ModelFileError, match="symmetric"):
        load_covariance_csv(path)


def test_covariance_csv_label_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",a,b\nb,1.0,0.2\na,0.2,1.0\n")
    with pytest.raises(ModelFileError, match="labelled"):
        load_covariance_csv(path)


@pytest.mark.parametrize("entry", ["inf", "nan"])
def test_covariance_csv_rejects_a_non_finite_entry_naming_the_file(entry, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f",a,b\na,1.0,{entry}\nb,0.2,1.0\n")
    with pytest.raises(ModelFileError, match=re.escape(f"{path}: matrix entries must be finite")):
        load_covariance_csv(path)


def test_covariance_csv_keeps_a_symmetric_entry_near_the_float_limit(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(",a,b\na,1.5e308,1.0\nb,1.0,1.5e308\n")
    m = load_covariance_csv(path)
    np.testing.assert_array_equal(m.values, [[1.5e308, 1.0], [1.0, 1.5e308]])


def test_covariance_csv_averages_rounding_noise(tmp_path):
    path = tmp_path / "noisy.csv"
    path.write_text(",a,b\na,1.0,0.2000000000000001\nb,0.2,1.0\n")
    m = load_covariance_csv(path)
    assert m.values[0, 1] == m.values[1, 0]


# -- report serialization ------------------------------------------------------------------


def test_json_report_has_12_significant_digits(women):
    report = decompose(women, "soup", "cooked_vegetables", kind=Measure.INFLATED_CORRELATION)
    text = format_report(report, "json")
    doc = json.loads(text)
    target = doc["target"]
    assert target == float(f"{report.target:.12g}")
    assert len(doc["paths"]) == 9


def test_csv_and_tsv_reports(tmp_path, women):
    table = betweenness(women)
    for fmt, sep in (("csv", ","), ("tsv", "\t")):
        out = tmp_path / f"centrality.{fmt}"
        save_report(table, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(sep) == ["vertex", "betweenness", "normalized", "degree"]
        assert len(lines) == 1 + len(women.vertices)


def test_edge_measures_report(women):
    edges = [edge_measures(women, e) for e in women.graph.sorted_edges()]
    text = format_report(edges, "json")
    doc = json.loads(text)
    assert len(doc["edges"]) == 17
    header, rows = report_rows(edges)
    assert header[:3] == ["u", "v", "pc"]
    assert len(rows) == 17


def test_matrix_report(triangle):
    text = format_report(triangle.omega, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == ",1,2,3"


def test_report_output_is_deterministic(women):
    a = format_report(betweenness(women), "json")
    b = format_report(betweenness(women), "json")
    assert a == b


def test_check_rejects_a_boolean_pcor(tmp_path, capsys):
    path = tmp_path / "bool.model"
    path.write_text(json.dumps({"vertices": ["a", "b", "c"],
                                "edges": [{"u": "a", "v": "b", "pcor": 0.3}, {"u": "b", "v": "c", "pcor": True}]}))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: edge #1 has a non-numeric 'pcor': true\n"
