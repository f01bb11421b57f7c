"""Physical parameter set shared by every solver in the package.

Units and conventions are fixed once and for all here: the band center is
at zero energy, the half-bandwidth is the energy unit, so the continuum
occupies the real interval [-1, 1].  Photon energy enters only through
Omega = omega + e_c; every spectral routine is parametrized by Omega
directly and the core level e_c merely relabels the axis.

A ChainModel is checked once, when it is built: validate runs in
__post_init__, so the constructors, from_dict, with_params and
dataclasses.replace all refuse an invalid model with a ModelError, and
no solver checks its model again.  Besides the per-field constraints,
a coupled model (g > 0) needs g^2 v^2, the coupling strength in every
dispersion polynomial, to be a finite normal double, with g^2 and v^2
each finite: past that range the coupling overflows, or underflows
and the census comes back short.  At every g, g = 0 included, 4 v^2,
the g^2 row of every dispersion polynomial, must be finite.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

from .errors import ModelError

SEMI_INFINITE = "semi-infinite"
INFINITE = "infinite"


@dataclass(frozen=True)
class ChainModel:
    """One problem instance: chain variant plus impurity parameters.

    Parameters
    ----------
    variant : str
        ``"semi-infinite"`` (impurity at site ``n_d`` from the hard wall)
        or ``"infinite"`` (translation-invariant chain).
    n_d : int or None
        Impurity site index, >= 1.  Required for the semi-infinite chain,
        forbidden for the infinite one.
    e_d : float
        Bare impurity level, in units of the half-bandwidth.
    g : float
        Dimensionless coupling constant, >= 0.
    v : float
        Potential amplitude, > 0.
    transition_weight : float
        Overall spectrum scale mu^2 T_dc^2, > 0.  With the default 1 all
        spectra come out already divided by that factor.
    e_c : float
        Core level; only shifts the Omega <-> omega relation.
    """

    variant: str
    e_d: float
    g: float
    n_d: int | None = None
    v: float = 1.0
    transition_weight: float = 1.0
    e_c: float = 0.0

    def __post_init__(self):
        validate(self)

    @staticmethod
    def semi_infinite(n_d: int, e_d: float, g: float, **kwargs) -> "ChainModel":
        return ChainModel(SEMI_INFINITE, e_d, g, n_d=n_d, **kwargs)

    @staticmethod
    def infinite(e_d: float, g: float, **kwargs) -> "ChainModel":
        return ChainModel(INFINITE, e_d, g, **kwargs)

    @property
    def is_semi_infinite(self) -> bool:
        return self.variant == SEMI_INFINITE

    def with_params(self, **kwargs) -> "ChainModel":
        """Copy of the model with some fields replaced (and so validated)."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        d = {
            "variant": self.variant,
            "e_d": self.e_d,
            "g": self.g,
            "v": self.v,
            "transition_weight": self.transition_weight,
            "e_c": self.e_c,
        }
        if self.n_d is not None:
            d["n_d"] = self.n_d
        return d

    @staticmethod
    def from_dict(d: dict) -> "ChainModel":
        if not isinstance(d, dict):
            raise ModelError(f"a model descriptor must be a JSON object, got {type(d).__name__}")
        known = {"variant", "n_d", "e_d", "g", "v", "transition_weight", "e_c"}
        unknown = set(d) - known
        if unknown:
            raise ModelError(f"unknown model fields: {sorted(unknown)}")
        for req in ("variant", "e_d", "g"):
            if req not in d:
                raise ModelError(f"missing model field: {req}")
        return ChainModel(**d)

    @staticmethod
    def from_json(path) -> "ChainModel":
        with open(path, "r", encoding="utf-8") as fh:
            return ChainModel.from_dict(json.load(fh))


def validate(model: ChainModel) -> ChainModel:
    """Check every field constraint; return the model unchanged if valid.

    ChainModel.__post_init__ runs this on every model built, so a
    ChainModel that exists has passed it.

    Raises
    ------
    ModelError
        On the first violated constraint.
    """
    if model.variant not in (SEMI_INFINITE, INFINITE):
        raise ModelError(
            f"variant must be {SEMI_INFINITE!r} or {INFINITE!r}, got {model.variant!r}"
        )
    if model.is_semi_infinite:
        if model.n_d is None:
            raise ModelError("semi-infinite chain requires n_d")
        if not isinstance(model.n_d, int) or isinstance(model.n_d, bool):
            raise ModelError(f"n_d must be an integer, got {model.n_d!r}")
        if model.n_d < 1:
            raise ModelError(f"n_d must be >= 1, got {model.n_d}")
    elif model.n_d is not None:
        raise ModelError("infinite chain takes no n_d")
    for name in ("e_d", "g", "v", "transition_weight", "e_c"):
        value = getattr(model, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ModelError(f"{name} must be a real number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # nan, inf or an int past every double
            raise ModelError(f"{name} must be finite, got {value!r}")
    if model.g < 0:
        raise ModelError(f"g must be >= 0, got {model.g}")
    if model.v <= 0:
        raise ModelError(f"v must be > 0, got {model.v}")
    g, v = float(model.g), float(model.v)
    if g > 0 and not sys.float_info.min <= (g * g) * (v * v) <= sys.float_info.max:
        raise ModelError(
            f"g^2 v^2 must be a finite normal double, got g = {model.g!r}, v = {model.v!r}"
        )
    if not 4.0 * (v * v) <= sys.float_info.max:
        raise ModelError(f"4 v^2 must be finite, got v = {model.v!r}")
    if model.transition_weight <= 0:
        raise ModelError(f"transition_weight must be > 0, got {model.transition_weight}")
    return model
