"""Inflation factors between variable blocks, and global collinearity.

The inflation factor of a block A on a disjoint block B measures the linear
association between X_A and X_B as a ratio of generalized variances. It is 1
exactly when the blocks are uncorrelated, grows without bound as they approach
collinearity, and equals the classical variance inflation factor when A is a
single variable and B is everything else. Several equivalent determinant
formulas exist. The canonical computation divides |Sigma_AA| by the
determinant of the partial covariance |Sigma_AA.B|. When B is the complement
of A (the default, and every edge measure), |Sigma_AA.B| = 1 / |K_AA|, so the
factor is |Sigma_AA| |K_AA|: two |A| x |A| determinants and no Schur
complement. Any other B takes the Schur complement of B. The other forms are
kept as a diagnostic record for identity testing. Every value here is one
:func:`~pathweights.symmetric.det_product`, which falls back to
log-determinants where the direct value is not finite or is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import Model
from .symmetric import det_product


def inflation_factor(m: Model, a: Iterable[str], b: Iterable[str] | None = None) -> float:
    """Inflation factor of block ``a`` on block ``b`` (default: complement of a).

    Returns exactly 1.0 when either block is empty. Raises ValueError when the
    blocks overlap. The value is >= 1 up to factorization round-off for any
    positive-definite covariance; it is reported raw, never clamped.
    """
    a = m.graph.require_vertices(a)
    if b is not None:
        b = m.graph.require_vertices(b)
        if set(a) & set(b):
            raise ValueError(f"blocks must be disjoint; both contain {sorted(set(a) & set(b))}")
        if not a or not b:
            return 1.0
        if len(a) + len(b) < m.sigma.dim:
            return det_product(((m.sigma, a, 1), (m.sigma.schur_complement(a, b), None, -1)))
    # B is the complement: |Sigma_AA.B| = 1 / |K_AA|
    return det_product(((m.sigma, a, 1), (m.kappa, a, 1))) if 0 < len(a) < m.sigma.dim else 1.0


@dataclass(frozen=True)
class InflationIdentities:
    """The same inflation factor computed along each determinant route.

    ``determinant_ratio``     |S_AA| |S_BB| / |S_{A u B}|
    ``partial_ratio``         |S_AA| / |S_AA.B|
    ``symmetric_ratio``       |S_{A u B}| / (|S_AA.B| |S_BB.A|)
    ``concentration_ratio``   |K_AA| |K_{comp}| / |K|, defined only when B is
                              the complement of A (None otherwise)
    """

    determinant_ratio: float
    partial_ratio: float
    symmetric_ratio: float
    concentration_ratio: float | None

    def values(self) -> tuple[float, ...]:
        out = (self.determinant_ratio, self.partial_ratio, self.symmetric_ratio)
        if self.concentration_ratio is not None:
            out = out + (self.concentration_ratio,)
        return out


def inflation_factor_identities(
    m: Model, a: Iterable[str], b: Iterable[str] | None = None
) -> InflationIdentities:
    """Evaluate every equivalent formula for the inflation factor of A on B.

    All routes agree in exact arithmetic; the record exists so tests (and
    suspicious users) can measure how far floating point lets them drift.
    """
    a = m.graph.require_vertices(a)
    b = m.graph.complement(a) if b is None else m.graph.require_vertices(b)
    if set(a) & set(b):
        raise ValueError(f"blocks must be disjoint; both contain {sorted(set(a) & set(b))}")
    complement_case = set(b) == set(m.graph.complement(a))
    if not a or not b:
        one = 1.0
        return InflationIdentities(one, one, one, one if complement_case else None)
    union = m.graph.require_vertices(set(a) | set(b))
    sigma = m.sigma
    blocks = {"a": (sigma, a), "b": (sigma, b), "union": (sigma, union),
              "a.b": (sigma.schur_complement(a, b), None), "b.a": (sigma.schur_complement(b, a), None)}
    dets = {name: mat.det(labels) for name, (mat, labels) in blocks.items()}

    def ratio(*terms: tuple[str, int]) -> float:
        return det_product([(*blocks[name], e) for name, e in terms], [dets[name] for name, _ in terms])

    return InflationIdentities(
        determinant_ratio=ratio(("a", 1), ("b", 1), ("union", -1)),
        partial_ratio=ratio(("a", 1), ("a.b", -1)),
        symmetric_ratio=ratio(("union", 1), ("a.b", -1), ("b.a", -1)),
        concentration_ratio=det_product(((m.kappa, a, 1), (m.kappa, b, 1), (m.kappa, None, -1)))
        if complement_case else None,
    )


def global_collinearity(
    m: Model,
    kind: str = "variance",
    partition: Sequence[Iterable[str]] | None = None,
) -> float:
    """Global measure of linear association in [1, inf).

    ``kind="variance"`` scales the generalized variance |Sigma| by its upper
    bound, the product of block variances: prod |S_BB| / |Sigma|. With the
    default singleton partition this equals 1 / |Omega|.

    ``kind="partial-variance"`` scales |Sigma| by its lower bound, the product
    of block partial variances: |Sigma| / prod |S_BB.rest|, where
    |S_BB.rest| = 1 / |K_BB|. With singletons this equals the determinant of
    the inflated correlation matrix.

    Both reduce to 1 for a diagonal covariance, and to 1 for the trivial
    partition {V}. Where the direct ratio overflows or underflows (|Sigma| of a
    long chain does), it is taken from log-determinants.
    """
    if kind not in ("variance", "partial-variance"):
        raise ValueError(f"kind must be 'variance' or 'partial-variance', got {kind!r}")
    if partition is None:
        blocks = [(v,) for v in m.graph.vertices]
    else:
        blocks = [m.graph.require_vertices(block) for block in partition]
        flat = [v for block in blocks for v in block]
        if len(flat) != len(set(flat)):
            raise ValueError("partition blocks must be disjoint")
        if set(flat) != set(m.graph.vertices):
            raise ValueError("partition must cover every vertex")
    if kind == "variance":
        return det_product([(m.sigma, block, 1) for block in blocks] + [(m.sigma, None, -1)])
    return det_product([(m.kappa, block, 1) for block in blocks] + [(m.sigma, None, 1)])
