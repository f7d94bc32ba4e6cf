"""Exception types shared across the package."""

from __future__ import annotations


class LandauLabError(Exception):
    """Base class for all package errors."""


class GridError(LandauLabError, ValueError):
    """Invalid grid construction parameters."""


class MemoryCapError(GridError):
    """Requested lattice exceeds the node cap, or its kernel spectra the plan cache byte budget."""


class EmptyRegionError(LandauLabError, ValueError):
    """Integration region contains no lattice nodes."""


class MisalignedCubeError(LandauLabError, ValueError):
    """Cube family does not align with the lattice."""


class GammaRangeError(LandauLabError, ValueError):
    """Interaction exponent outside the supported range [-d, 0]."""


class NonNegativityError(LandauLabError, ValueError):
    """A field that must be a density has negative values."""


class WeightPositivityError(LandauLabError, ValueError):
    """Weight is nonpositive on too large a node fraction."""


class EigenSolveError(LandauLabError, RuntimeError):
    """Per-node eigenvalue extraction failed; carries the node index."""

    def __init__(self, message: str, node=None):
        super().__init__(message)
        self.node = node


class IterationError(LandauLabError, RuntimeError):
    """
    Iterative solver did not converge; carries the last residual and iterate (the solution
    of a linear solve, the Ritz pair (value, vector) of an eigensolve).
    """

    def __init__(self, message: str, residual: float | None = None, iterate=None):
        super().__init__(message)
        self.residual = residual
        self.iterate = iterate


class SnapshotFormatError(LandauLabError, ValueError):
    """Field snapshot file has a bad magic string or size."""


class ConfigError(LandauLabError, ValueError):
    """Run configuration is invalid; carries the offending field names."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid configuration: " + "; ".join(problems))
        self.problems = list(problems)
