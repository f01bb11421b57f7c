import dataclasses
import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanochain import ChainModel, ModelError, validate
from fanochain.model import INFINITE, SEMI_INFINITE


def test_valid_semi_infinite():
    m = ChainModel.semi_infinite(4, -0.5, 0.2)
    assert m.variant == SEMI_INFINITE
    assert validate(m) is m


def test_valid_infinite():
    m = ChainModel.infinite(-0.9, 0.2)
    assert m.variant == INFINITE
    assert m.n_d is None


def test_nd_zero_rejected():
    with pytest.raises(ModelError, match="n_d"):
        ChainModel.semi_infinite(0, -0.5, 0.2)


def test_nd_on_infinite_rejected():
    with pytest.raises(ModelError):
        validate(ChainModel(INFINITE, -0.5, 0.2, n_d=3))


def test_missing_nd_rejected():
    with pytest.raises(ModelError):
        validate(ChainModel(SEMI_INFINITE, -0.5, 0.2))


BAD_SCALARS = [
    ("g", -0.1), ("v", 0.0), ("v", -1.0), ("transition_weight", 0.0), ("e_d", float("nan"))
]


@pytest.mark.parametrize("field,value", BAD_SCALARS)
def test_bad_scalars_rejected(field, value):
    kwargs = {"variant": SEMI_INFINITE, "n_d": 4, "e_d": -0.5, "g": 0.2}
    kwargs[field] = value
    with pytest.raises(ModelError, match=field.split("_")[0]):
        validate(ChainModel(**kwargs))


def test_validation_idempotent():
    m = ChainModel.semi_infinite(2, 0.1, 0.05)
    assert validate(validate(m)) == validate(m)


@given(
    n_d=st.integers(min_value=1, max_value=12),
    e_d=st.floats(min_value=-2, max_value=2, allow_nan=False),
    g=st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_validation_idempotent_property(n_d, e_d, g):
    if g > 0 and g * g < sys.float_info.min:  # g^2 v^2 (v = 1) underflows
        with pytest.raises(ModelError, match=r"g\^2 v\^2"):
            ChainModel(SEMI_INFINITE, e_d, g, n_d=n_d)
        return
    m = validate(ChainModel(SEMI_INFINITE, e_d, g, n_d=n_d))
    assert validate(m) == m


def test_dict_round_trip():
    m = ChainModel.semi_infinite(4, -0.5, 0.2, v=1.5, transition_weight=2.0, e_c=0.3)
    assert ChainModel.from_dict(m.to_dict()) == m


def test_from_json(tmp_path):
    m = ChainModel.infinite(-0.9, 0.2)
    p = tmp_path / "model.json"
    p.write_text(json.dumps(m.to_dict()))
    assert ChainModel.from_json(p) == m


def test_unknown_field_rejected():
    with pytest.raises(ModelError, match="unknown"):
        ChainModel.from_dict({"variant": INFINITE, "e_d": 0.0, "g": 0.1, "bandwidth": 3})


def test_with_params_revalidates():
    m = ChainModel.semi_infinite(4, -0.5, 0.2)
    assert m.with_params(g=0.3).g == 0.3
    with pytest.raises(ModelError):
        m.with_params(g=-1.0)


@pytest.mark.parametrize("field,value", [*BAD_SCALARS, ("n_d", 3)])
@pytest.mark.parametrize("way", ["init", "replace", "with_params", "from_dict"])
def test_invalid_model_is_refused_when_built(field, value, way):
    # no solver runs: the model itself cannot be built (n_d is bad on the infinite chain)
    if field == "n_d":
        base = ChainModel.infinite(-0.5, 0.2)
    else:
        base = ChainModel.semi_infinite(4, -0.5, 0.2)
    fields = {**base.to_dict(), field: value}
    build = {
        "init": lambda: ChainModel(**fields),
        "replace": lambda: dataclasses.replace(base, **{field: value}),
        "with_params": lambda: base.with_params(**{field: value}),
        "from_dict": lambda: ChainModel.from_dict(fields),
    }[way]
    with pytest.raises(ModelError, match=field.split("_")[0]):
        build()


@pytest.mark.parametrize("g,v", [(0.0, 1e150), (0.0, 1e-300), (1e-150, 1.0), (1e150, 1e-150)])
def test_coupling_inside_the_double_range_is_accepted(g, v):
    # (g g)(v v) must be a finite normal double only where g > 0
    assert ChainModel.semi_infinite(4, 0.3, g, v=v).g == g


@pytest.mark.parametrize("g,v", [(0.0, 1e200), (0.0, 1e154), (1e-154, 1e154)])
def test_v_squared_past_the_double_range_is_refused(g, v):
    # the g^2 row -4 v^2 of p(w) must be finite even where g = 0; at v = 1e154,
    # v^2 and g^2 v^2 are finite but 4 v^2 is not
    with pytest.raises(ModelError, match=r"4 v\^2 must be finite"):
        ChainModel.semi_infinite(4, 0.3, g, v=v)


def test_integer_past_every_double_rejected():
    with pytest.raises(ModelError, match="e_d must be finite"):
        ChainModel.semi_infinite(4, 10**400, 0.2)
