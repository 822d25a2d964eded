"""Exception types shared across the package."""

from __future__ import annotations


class PathWeightsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrixError(PathWeightsError, ValueError):
    """Matrix input is malformed: wrong shape, asymmetric, or non-finite."""


class NotPositiveDefiniteError(PathWeightsError):
    """A positive-definite matrix was required and the input is not."""


class UnknownVertexError(PathWeightsError, KeyError):
    """A vertex label does not belong to the graph or matrix index."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__(f"unknown vertex label(s): {', '.join(map(repr, self.missing))}")

    def __str__(self) -> str:
        # the plain message: KeyError's own __str__ would repr it in quotes
        return self.args[0]


class NotAdaptedError(PathWeightsError):
    """Concentration matrix has a non-negligible entry on a non-edge.

    ``violations`` lists (u, v, magnitude) for every offending non-edge,
    where magnitude is |k_uv| / sqrt(k_uu * k_vv).
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        worst = max(v[2] for v in self.violations)
        pairs = ", ".join(f"{u}--{v}" for u, v, _ in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(
            f"concentration matrix not adapted to graph: nonzero on non-edges "
            f"{pairs}{more}; worst relative magnitude {worst:.3e}"
        )


class InvalidPathError(PathWeightsError, ValueError):
    """A vertex sequence is not a valid path of the host graph."""


class PathExplosionError(PathWeightsError):
    """Path enumeration exceeded the configured cap.

    ``found`` is the number of paths of one vertex pair when enumeration
    aborted (always cap + 1); enumeration never silently truncates.
    """

    def __init__(self, cap, found):
        self.cap = cap
        self.found = found
        super().__init__(f"path enumeration exceeded cap={cap} (found {found} paths before aborting)")


class NotConvergedError(PathWeightsError):
    """Iterative fit did not reach its tolerance within the iteration budget."""

    def __init__(self, iterations, residual, tol):
        self.iterations = iterations
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"not converged after {iterations} sweeps: residual {residual:.3e} > tol {tol:.3e}"
        )


class UndefinedShareError(PathWeightsError):
    """Path shares are undefined because every weight is zero (or no paths exist)."""


class ModelFileError(PathWeightsError, ValueError):
    """A model or covariance file failed to parse or validate."""
