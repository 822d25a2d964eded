"""File formats: model files, covariance CSV, and report serialization.

A model file is a JSON document with the following sections:

- ``vertices``: list of vertex names (required);
- ``edges``: list of ``{"u": ..., "v": ..., "pcor": ...}`` objects, the
  ``pcor`` field optional per edge;
- ``sigma``: optional covariance block ``{"labels": [...], "rows": [[...]]}``;
- ``metadata``: optional ``{"name": ..., "source": ...}``.

To construct a model, exactly one of two conditions must hold: every edge
carries a ``pcor`` (the model is built from partial correlations), or a
``sigma`` block is present (the model is built from the covariance). Loading
a graph alone ignores that requirement. Saving a model writes back whichever
representation it was built from, so a save/load round trip reproduces the
stored fields bit for bit (JSON serializes floats at full precision).

Reports are written as JSON (numbers at 12 significant digits) or as
csv/tsv tables.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path as FilePath
from typing import Any

import numpy as np

from .centrality import CentralityTable
from .decomposition import DecompositionReport
from .errors import InvalidMatrixError, ModelFileError
from .graphs import Graph
from .model import Model
from .symmetric import SymMatrix
from .weights import EdgeMeasures


# -- model files ---------------------------------------------------------------

def _read_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ModelFileError(f"{path}: top level must be a JSON object")
    return doc


def _parse_vertices(doc: dict, path) -> list[str]:
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ModelFileError(f"{path}: 'vertices' must be a list of strings")
    if len(set(vertices)) != len(vertices):
        raise ModelFileError(f"{path}: duplicate vertex names in 'vertices'")
    return vertices


def _parse_edges(doc: dict, vertices: list[str], path) -> list[dict]:
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise ModelFileError(f"{path}: 'edges' must be a list")
    vset = set(vertices)
    for i, edge in enumerate(edges):
        if not isinstance(edge, dict) or "u" not in edge or "v" not in edge:
            raise ModelFileError(f"{path}: edge #{i} must be an object with 'u' and 'v'")
        for key in ("u", "v"):
            if not isinstance(edge[key], str) or edge[key] not in vset:
                raise ModelFileError(
                    f"{path}: edge #{i} references unknown vertex {edge[key]!r}"
                )
        # a JSON boolean loads as a bool, which is an int to isinstance
        if "pcor" in edge and (isinstance(edge["pcor"], bool) or not isinstance(edge["pcor"], (int, float))):
            raise ModelFileError(f"{path}: edge #{i} has a non-numeric 'pcor': {json.dumps(edge['pcor'])}")
    return edges


def _read_graph(path) -> tuple[dict, list[dict], Graph]:
    """A model file's document, its edge objects and its graph."""
    doc = _read_document(path)
    vertices = _parse_vertices(doc, path)
    edges = _parse_edges(doc, vertices, path)
    return doc, edges, Graph(vertices, [(e["u"], e["v"]) for e in edges])


def load_graph(path) -> Graph:
    """Graph (vertices and edges) from a model file, ignoring numeric fields."""
    return _read_graph(path)[2]


def load_model(path) -> Model:
    """Model from a model file.

    Exactly one of the two representations must be present: a ``pcor`` on
    every edge, or a ``sigma`` block.
    """
    doc, edges, graph = _read_graph(path)

    has_sigma = "sigma" in doc
    pcor_complete = all("pcor" in e for e in edges)  # vacuously true with no edges
    if has_sigma and pcor_complete and edges:
        raise ModelFileError(
            f"{path}: ambiguous model: both full edge pcor values and a sigma block present"
        )
    if not has_sigma and not pcor_complete:
        raise ModelFileError(
            f"{path}: cannot build a model: need either a 'pcor' on every edge or a 'sigma' block"
        )

    if has_sigma:
        block = doc["sigma"]
        if not isinstance(block, dict) or "labels" not in block or "rows" not in block:
            raise ModelFileError(f"{path}: 'sigma' must be an object with 'labels' and 'rows'")
        labels = block["labels"]
        if not (isinstance(labels, list) and all(isinstance(v, str) for v in labels)
                and set(labels) == set(graph.vertices)):
            raise ModelFileError(f"{path}: 'sigma' labels do not match 'vertices'")
        try:
            sigma = SymMatrix(labels, np.array(block["rows"], dtype=float))
        except Exception as exc:
            raise ModelFileError(f"{path}: invalid 'sigma' block: {exc}") from exc
        return Model.from_sigma(graph, sigma)

    pcor = {(e["u"], e["v"]): float(e["pcor"]) for e in edges}
    return Model.from_partial_correlations(graph, pcor)


def save_model(model: Model, path, metadata: dict | None = None) -> None:
    """Write a model file reproducing the representation the model was built from."""
    doc: dict[str, Any] = {}
    if metadata:
        doc["metadata"] = metadata
    doc["vertices"] = list(model.vertices)
    if model.source_kind == "pcor":
        doc["edges"] = [
            {"u": u, "v": v, "pcor": model.edge_partial_correlation(u, v)}
            for u, v in model.graph.sorted_edges()
        ]
    else:
        doc["edges"] = [{"u": u, "v": v} for u, v in model.graph.sorted_edges()]
        doc["sigma"] = {
            "labels": list(model.sigma.labels),
            "rows": [list(row) for row in model.sigma.values],
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# -- covariance CSV --------------------------------------------------------------

def load_covariance_csv(path) -> SymMatrix:
    """Labelled covariance matrix from CSV with a label header row and column.

    The matrix must be finite and symmetric within a relative tolerance of
    1e-12; after validation it is symmetrized by averaging, as
    :class:`SymMatrix` does.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if len(rows) < 2:
        raise ModelFileError(f"{path}: expected a header row and at least one data row")
    header = [cell.strip() for cell in rows[0][1:]]
    n = len(header)
    if len(rows) - 1 != n:
        raise ModelFileError(f"{path}: header names {n} columns but file has {len(rows) - 1} data rows")
    values = np.empty((n, n))
    for i, row in enumerate(rows[1:]):
        if len(row) != n + 1:
            raise ModelFileError(f"{path}: row {i + 2} has {len(row)} fields, expected {n + 1}")
        label = row[0].strip()
        if label != header[i]:
            raise ModelFileError(
                f"{path}: row {i + 2} is labelled {label!r} but the header says {header[i]!r}"
            )
        try:
            values[i] = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise ModelFileError(f"{path}: row {i + 2} has a non-numeric entry: {exc}") from exc
    try:
        return SymMatrix(header, values)
    except InvalidMatrixError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc


def save_covariance_csv(matrix: SymMatrix, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(matrix.labels))
        for label, row in zip(matrix.labels, matrix.values):
            writer.writerow([label] + [repr(float(x)) for x in row])


# -- reports ------------------------------------------------------------------

def _round_floats(obj, digits: int = 12):
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}") if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _is_edge_report(report) -> bool:
    """Whether ``report`` is a list of :class:`EdgeMeasures`, the empty one included."""
    return isinstance(report, (list, tuple)) and all(isinstance(e, EdgeMeasures) for e in report)


def report_rows(report) -> tuple[list[str], list[list]]:
    """Header and rows for the tabular (csv/tsv) rendering of a report."""
    if isinstance(report, DecompositionReport):
        header = ["path", "weight", "share"]
        rows = [[str(e.path), e.weight, e.share] for e in report.entries]
        return header, rows
    if isinstance(report, CentralityTable):
        header = ["vertex", "betweenness", "normalized", "degree"]
        rows = [[r.vertex, r.betweenness, r.normalized, r.degree] for r in report.rows]
        return header, rows
    if isinstance(report, SymMatrix):
        header = [""] + list(report.labels)
        rows = [[lab] + list(map(float, row)) for lab, row in zip(report.labels, report.values)]
        return header, rows
    if _is_edge_report(report):
        header = ["u", "v", "pc", "npc", "nipc", "inflation"]
        rows = [[e.edge[0], e.edge[1], e.pc, e.npc, e.nipc, e.inflation] for e in report]
        return header, rows
    raise TypeError(f"no tabular form for {type(report).__name__}")


def report_dict(report) -> dict:
    """JSON-ready dictionary form of a report, floats at 12 significant digits."""
    if isinstance(report, (DecompositionReport, CentralityTable)):
        return _round_floats(report.to_dict())
    if isinstance(report, SymMatrix):
        return _round_floats(
            {"labels": list(report.labels), "rows": [list(map(float, r)) for r in report.values]}
        )
    if _is_edge_report(report):
        return _round_floats(
            {
                "edges": [
                    {
                        "u": e.edge[0],
                        "v": e.edge[1],
                        "pc": e.pc,
                        "npc": e.npc,
                        "nipc": e.nipc,
                        "inflation": e.inflation,
                    }
                    for e in report
                ]
            }
        )
    raise TypeError(f"no dictionary form for {type(report).__name__}")


def format_report(report, fmt: str = "json") -> str:
    """Render a report as a 'json', 'csv' or 'tsv' string."""
    if fmt == "json":
        return json.dumps(report_dict(report), indent=2) + "\n"
    if fmt in ("csv", "tsv"):
        header, rows = report_rows(report)
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter="," if fmt == "csv" else "\t", lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.12g}" if isinstance(x, float) else x for x in row])
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")


def save_report(report, path, fmt: str | None = None) -> None:
    """Write a report to ``path``; format inferred from the suffix if omitted."""
    if fmt is None:
        suffix = FilePath(path).suffix.lower().lstrip(".")
        fmt = suffix if suffix in ("json", "csv", "tsv") else "json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report, fmt))
