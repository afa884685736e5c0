"""Periodic grid, the package's one spectral kernel, and inner products.

Conventions fixed once for the whole package:

* domain is ``[-L/2, L/2)`` sampled at ``x_j = -L/2 + j*h`` with ``h = L/N``;
* wavenumbers ``k_j = 2*pi*j/L``; ``Grid.abs_k`` is ``|k|`` on the ``rfft``
  half-spectrum ``j = 0..N/2``, cached and read-only;
* forward FFT unnormalized, inverse carries ``1/N`` (numpy default);
* every linear operator of the system is a real Fourier multiplier ``m(k)``
  applied to real samples as ``irfft(m * rfft(u), N)`` (:func:`multiply`);
  :func:`halflap`, :func:`inv_multiplier` and :func:`translate` are the
  multipliers ``|k|``, ``1/(|k| + c)`` and ``exp(-i k s)``.  The Nyquist bin
  of ``irfft`` is real, so a translation scales the mode ``(-1)^j`` by
  ``cos(pi s / h)``, exactly as the real part of the full complex transform;
* integrals are the uniform-weight sum ``h * sum(...)``, which is the
  trapezoid rule on a periodic grid (spectrally accurate for smooth data);
* ``(-Delta)^s`` is the Fourier multiplier ``|k|^(2s)`` with the zero mode
  mapped to exactly 0;
* the seminorm pairing ``integral((-Delta)^{1/4}u * (-Delta)^{1/4}v)`` is
  ``(h/N) * (2 * sum_j |k_j| Re(uhat_j conj(vhat_j)) - Nyquist term)`` on the
  ``rfft`` half-spectrum (:func:`half_pairing`, on sample arrays); the
  H^{1/2}_V inner product, ``energy.weighted_inner``, adds
  ``integral(V*u*v)``.

This module is the only place in the package that calls an FFT or builds a
wavenumber array; every other module goes through the functions above.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, InvalidField

MIN_POINTS = 16


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2), equal and hashed by (length,
    n_points).  InvalidField unless the length is positive and finite and
    n_points is an even integer >= MIN_POINTS."""

    length: float
    n_points: int

    def __post_init__(self):
        if not (self.length > 0 and np.isfinite(self.length)):
            raise InvalidField(f"grid length must be positive, got {self.length}")
        n = self.n_points
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < MIN_POINTS or n % 2:
            raise InvalidField(
                f"n_points must be an even integer >= {MIN_POINTS}, got {self.n_points}"
            )

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    @property
    def x(self) -> np.ndarray:
        xs = -0.5 * self.length + self.spacing * np.arange(self.n_points)
        xs.flags.writeable = False
        return xs

    @cached_property
    def abs_k(self) -> np.ndarray:
        """|k| on the rfft half-spectrum (N/2 + 1 entries)."""
        k = 2.0 * np.pi * np.fft.rfftfreq(self.n_points, d=self.spacing)
        k.flags.writeable = False
        return k

    def index_of(self, x0: float) -> int:
        """Nearest grid index to the physical point x0 (periodic wrap)."""
        j = int(round((x0 + 0.5 * self.length) / self.spacing))
        return j % self.n_points


class Field:
    """Real sample vector living on a Grid, validated at the API boundary.

    Values are checked finite, copied and frozen at construction; all
    operations return new fields, so instances are safe to share across
    threads.  Solver loops work on plain arrays instead.
    """

    __slots__ = ("grid", "_values")

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (grid.n_points,):
            raise InvalidField(
                f"expected {grid.n_points} samples, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidField("field contains NaN/Inf samples")
        values = values.copy()
        values.flags.writeable = False
        self.grid = grid
        self._values = values

    @property
    def values(self) -> np.ndarray:
        return self._values

    # -- algebra ------------------------------------------------------------

    def _check_same_grid(self, other: "Field"):
        if self.grid != other.grid:
            raise GridMismatch(
                f"grids differ: (L={self.grid.length}, N={self.grid.n_points}) vs "
                f"(L={other.grid.length}, N={other.grid.n_points})"
            )

    def __add__(self, other):
        self._check_same_grid(other)
        return Field(self.grid, self._values + other._values)

    def __sub__(self, other):
        self._check_same_grid(other)
        return Field(self.grid, self._values - other._values)

    def __mul__(self, c):
        return Field(self.grid, self._values * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self._values)

    def shift(self, n_cells: int) -> "Field":
        """Circular shift by an integer number of cells."""
        return Field(self.grid, np.roll(self._values, n_cells))

    def __repr__(self):
        return (
            f"Field(L={self.grid.length}, N={self.grid.n_points}, "
            f"linf={np.max(np.abs(self._values)):.3e})"
        )


@dataclass(frozen=True)
class SpectralExponent:
    """Order s of the fractional Laplacian (-Delta)^s, s in (0,1)."""

    s: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise InvalidField(f"spectral exponent must lie in (0,1), got {self.s}")


HALF = SpectralExponent(0.5)
QUARTER = SpectralExponent(0.25)


def multiply(vals: np.ndarray, grid: Grid, mult) -> np.ndarray:
    """Apply the Fourier multiplier ``mult`` (on the rfft half-spectrum) to
    real samples along the last axis."""
    return np.fft.irfft(mult * np.fft.rfft(vals), grid.n_points)


def halflap(vals: np.ndarray, grid: Grid) -> np.ndarray:
    """(-Delta)^{1/2}: the multiplier |k|."""
    return multiply(vals, grid, grid.abs_k)


def inv_multiplier(vals: np.ndarray, grid: Grid, shift: float) -> np.ndarray:
    """((-Delta)^{1/2} + shift)^{-1}: the multiplier 1/(|k| + shift)."""
    return multiply(vals, grid, 1.0 / (grid.abs_k + shift))


def translate(vals: np.ndarray, grid: Grid, s: float) -> np.ndarray:
    """Continuous translation u(x) -> u(x - s): the phase twist exp(-i k s)."""
    return multiply(vals, grid, np.exp(-1j * grid.abs_k * s))


def apply_fractional_laplacian(u: Field, s: SpectralExponent = HALF) -> Field:
    """Apply (-Delta)^s as the Fourier multiplier |k|^(2s); zero mode -> 0."""
    return Field(u.grid, multiply(u.values, u.grid, u.grid.abs_k ** (2.0 * s.s)))


def half_pairing(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """integral((-Delta)^{1/4}a * (-Delta)^{1/4}b): modes j and N - j are
    conjugate, so twice the rfft half-spectrum sum less the Nyquist term."""
    ahat = np.fft.rfft(a)
    bhat = ahat if b is a else np.fft.rfft(b)
    terms = grid.abs_k * (ahat.real * bhat.real + ahat.imag * bhat.imag)
    return float((2.0 * np.sum(terms) - terms[-1]) * grid.spacing / grid.n_points)


def l2_norm(u: Field) -> float:
    return float(np.sqrt(u.grid.spacing) * np.linalg.norm(u.values))


def linf_norm(u: Field) -> float:
    return float(np.max(np.abs(u.values)))


def integrate(u: Field) -> float:
    return u.grid.spacing * float(np.sum(u.values))


def seminorm_sq(u: Field) -> float:
    """Squared Gagliardo seminorm ||(-Delta)^{1/4} u||_{L2}^2, spectrally."""
    return half_pairing(u.values, u.values, u.grid)


# -- serialization ----------------------------------------------------------

_HEADER = struct.Struct("<dQ")


def write_field_binary(u: Field, path) -> None:
    """Little-endian dump: header (L as f64, N as u64) + N f64 samples."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(u.grid.length, u.grid.n_points))
        fh.write(u.values.astype("<f8").tobytes())


def read_field_binary(path) -> Field:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise InvalidField(f"truncated field file: {path}")
        length, n = _HEADER.unpack(raw)
        body = fh.read()
    values = np.frombuffer(body, dtype="<f8")
    if values.size != n:
        raise InvalidField(
            f"field file {path} declares {n} samples but contains {values.size}"
        )
    return Field(Grid(length, int(n)), values.astype(np.float64))


def write_field_csv(u: Field, path) -> None:
    """Two-column CSV (x, value) for plotting."""
    with open(path, "w") as fh:
        fh.write("x,value\n")
        for x, val in zip(u.grid.x, u.values):
            fh.write(f"{float(x)!r},{float(val)!r}\n")
