"""Exception types shared across the package."""


class HalfwaveError(Exception):
    """Base class for all package errors."""


class InvalidField(HalfwaveError):
    """Field values are not finite or otherwise unusable."""


class GridMismatch(HalfwaveError):
    """Binary operation between fields living on different grids."""


class OverflowGuard(HalfwaveError):
    """Exponential integrand would overflow double precision.

    Carries the grid location of the worst sample in ``where``.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class UnknownFamily(HalfwaveError):
    """Requested nonlinearity family name is not registered."""


class NoAscent(HalfwaveError):
    """Ray maximization degenerates (direction has no diagonal part)."""


class UnderResolved(HalfwaveError):
    """Grid spacing too coarse for the requested feature scale."""


class ConfigError(HalfwaveError):
    """Invalid or unknown configuration entry."""
