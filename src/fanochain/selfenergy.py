"""Branch-cut-aware self-energy of the impurity level, on both Riemann sheets.

The continuum produces a level-shift function with a square-root branch
cut on the band [-1, 1].  All formulas below are written in terms of

    s(z) = sqrt(z - 1) * sqrt(z + 1)      (principal square roots)

which is analytic off the cut and behaves like z at infinity; this is the
first-sheet branch.  The second sheet, reached by continuing downward
through the cut from the upper half plane, simply negates s.  Writing the
factor as sqrt(z*z - 1) with a single principal root would put spurious
sign flips on the imaginary axis, so it is deliberately avoided.

Real energies inside the band are always understood as E + i0 limits on
the requested sheet; the limit is finite there, so no broadening epsilon
is ever needed or exposed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import BranchPointError
from .model import ChainModel


class Sheet(enum.Enum):
    """Riemann sheet of sqrt(z^2 - 1) over the cut [-1, 1]."""

    I = 1
    II = 2


@dataclass(frozen=True)
class SheetedEnergy:
    """A complex energy tagged with its Riemann sheet."""

    value: complex
    sheet: Sheet = Sheet.I


def _point(z: SheetedEnergy) -> complex:
    """z.value with real-axis inputs forced onto the +i0 side of the cut.

    complex(x, -0.0) would otherwise select the lower lip of the principal
    branch cut and silently break the E + i0 convention.

    Raises
    ------
    BranchPointError
        If z is exactly +1 or -1.
    """
    value = complex(z.value)
    if value.imag == 0.0:
        value = complex(value.real, 0.0)
    if value == 1.0 or value == -1.0:
        raise BranchPointError(f"z = {value} is a branch point")
    return value


def sqrt_branch(z: SheetedEnergy) -> complex:
    """Branch-resolved square-root factor s(z).

    On sheet I, ``s(z) ~ z`` as ``|z| -> infinity`` and ``s(E + i0) =
    i*sqrt(1 - E^2)`` inside the band; sheet II negates the value, which
    makes s continuous when passing from the upper half of sheet I down
    through the cut.

    Raises
    ------
    BranchPointError
        If z is exactly +1 or -1.
    """
    return complex(_sheeted_s(_point(z), z.sheet))


def band_energy(k: float) -> float:
    """Continuum dispersion E_k = -cos k for k in [0, pi]."""
    if not 0.0 <= k <= np.pi:
        raise ValueError(f"k must lie in [0, pi], got {k}")
    return -float(np.cos(k))


def coupling(model: ChainModel, k: float) -> float:
    """Impurity-continuum coupling V_k at wavenumber k.

    For the semi-infinite chain the hard wall imprints sin(n_d k); at the
    wavenumbers where that vanishes the impurity decouples, which is the
    origin of the bound states in the continuum.  The infinite chain has a
    flat coupling.
    """
    if not 0.0 <= k <= np.pi:
        raise ValueError(f"k must lie in [0, pi], got {k}")
    if model.is_semi_infinite:
        return float(np.sqrt(2.0 / np.pi) * model.v * np.sin(model.n_d * k))
    return float(model.v / np.sqrt(2.0 * np.pi))


def _sheeted_s(z, sheet):
    """s(z) on a Sheet, or per element on sheet II where the bool array sheet is true."""
    s = np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
    if isinstance(sheet, Sheet):
        return -s if sheet is Sheet.II else s
    return np.where(sheet, -s, s)


def _sigma(z, sheet, n_d: int | None, v: float, order: int = 0) -> list:
    """Self-energy and its z-derivatives up to order, vectorized over z.

    z is already canonicalized; sheet is a Sheet, or a bool array
    (broadcast with z) true on sheet II.  Returns [Sigma, Sigma', ...].

    With w = z - s, Sigma = (v^2/s) [1 - w^(2 n_d)], and the derivatives
    follow from s' = z/s and w' = -w/s, which hold on both sheets with s
    carrying the sheet sign.  The infinite chain is the same formula with
    w^(2 n_d) = 0.
    """
    s = _sheeted_s(z, sheet)
    n = n_d or 0
    w2n = 0.0 if n_d is None else (z - s) ** (2 * n)
    u = 1.0 - w2n
    v2 = v * v
    out = [v2 / s * u]
    if order >= 1:
        out.append(v2 * (2 * n * w2n / s**2 - z * u / s**3))
    if order >= 2:
        wall = -2.0 * n * w2n * (2.0 * n * s + 3.0 * z) / s**4
        out.append(v2 * (wall + u * (2.0 * z * z + 1.0) / s**5))
    return out


def _band_point(omega: np.ndarray):
    """(1/r, w) at the real Omega: r = sqrt(1 - Omega) sqrt(1 + Omega) and w = Omega - i r,
    both nan outside the band.  They depend on the grid alone, so a fixed grid keeps them."""
    r = np.sqrt(1.0 - omega) * np.sqrt(1.0 + omega)
    return 1.0 / r, omega - 1j * r


def _band_sigma(inv_r: np.ndarray, w: np.ndarray, n_d: int | None, v: float) -> np.ndarray:
    """Sigma at the real Omega + i0 on sheet I, for Omega inside the band, from _band_point.

    There s = i r with r = sqrt(1 - Omega) sqrt(1 + Omega) and w = Omega - i r,
    so Sigma = -i (v^2/r) [1 - w^(2 n_d)], with w^(2 n_d) = 0 on the infinite
    chain: real square roots, then one complex power and one complex product.
    Bit for bit, signed zeros included, the Sigma of _sigma at Omega + 0j:
    numpy's complex sqrt of (Omega - 1, +0) is exactly i sqrt(1 - Omega),
    and its division v^2/(i r) forms -i v^2 (1/r), not -i v^2/r.  Outside
    the band r is nan.
    """
    w2n = 0.0 if n_d is None else w ** (2 * n_d)
    return (-1j * ((v * v) * inv_r)) * (1.0 - w2n)


def _sigma_at(model: ChainModel, z: SheetedEnergy, order: int = 0) -> list[complex]:
    """Sigma and its derivatives up to order at one tagged energy."""
    return [complex(x) for x in _sigma(_point(z), z.sheet, model.n_d, model.v, order)]


def self_energy(model: ChainModel, z: SheetedEnergy) -> complex:
    """Self-energy on the tagged sheet.

    Semi-infinite chain:  (v^2/s) * [1 - (z - s)^(2 n_d)];
    infinite chain:        v^2 / s.
    """
    return _sigma_at(model, z)[0]


def self_energy_deriv(model: ChainModel, z: SheetedEnergy, order: int = 1) -> complex:
    """First or second derivative of the self-energy, closed form.

    Finite differences are never used here, so full precision is kept.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    return _sigma_at(model, z, order)[order]
