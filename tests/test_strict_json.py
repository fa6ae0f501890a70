"""``emden.strict_json`` and ``verify.ResidualTable.to_json``: ``strict_json``
writes ``json.dumps(indent=...)``'s bytes, the residual table's template
writer the bytes ``json.dumps(indent=2)`` gives its records, and a
non-finite number is refused, on every path, with its path in the record
named."""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerexact.emden import strict_json

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)


class Kind(enum.IntEnum):
    A = 1
    B = -7


keys = st.text(max_size=5) | st.sampled_from(
    ["", '"', "\\", "\n\t", "\x00\x1f", "café", "☃", "\U0001d11e", "a.b", "[0]"])
finite = st.floats(allow_nan=False, allow_infinity=False)
floats = finite | finite.map(np.float64) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308])
leaves = st.one_of(
    st.none(), st.booleans(), floats, keys, st.sampled_from(list(Kind)),
    st.integers() | st.integers(-10**40, 10**40))


def containers(children):
    return st.one_of(st.lists(children, max_size=3), st.lists(children, max_size=3).map(tuple),
                     st.dictionaries(keys, children, max_size=3))


# nested up to about 5 containers deep, empty ones included
trees = st.recursive(leaves, containers, max_leaves=25)


@st.composite
def one_non_finite(draw):
    """A tree holding one NaN or infinity, at most 5 containers deep, and the
    steps to that value from the root, ``.key`` or ``[index]`` each."""
    obj = draw(st.sampled_from([math.nan, math.inf, -math.inf, np.float64("-inf")]))
    steps = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            items = draw(st.lists(leaves | containers(leaves), max_size=3))
            at = draw(st.integers(0, len(items)))
            items.insert(at, obj)
            obj = items if draw(st.booleans()) else tuple(items)
            steps.append(f"[{at}]")
        else:
            key = draw(keys)
            items = list(draw(st.dictionaries(keys.filter(lambda k: k != key),
                                              leaves | containers(leaves), max_size=3)).items())
            items.insert(draw(st.integers(0, len(items))), (key, obj))
            obj = dict(items)
            steps.append(f".{key}")
    return obj, "".join(reversed(steps))


@SETTINGS
@given(trees, st.sampled_from([0, 1, 2, 4]))
def test_indented_writer_is_json_dumps_byte_for_byte(obj, indent):
    assert strict_json(obj, indent=indent) == json.dumps(obj, allow_nan=False, indent=indent)


@SETTINGS
@given(one_non_finite(), st.sampled_from([None, 2]))
def test_non_finite_value_is_refused_with_its_path(case, indent):
    obj, steps = case
    # a leading key has no dot
    where = steps.removeprefix(".") if steps else "the top level"
    with pytest.raises(ValueError):
        json.dumps(obj, allow_nan=False, indent=indent)
    with pytest.raises(ValueError, match="non-finite") as exc:
        strict_json(obj, indent=indent)
    assert str(exc.value).startswith(
        "non-finite number in an output record (strict JSON has no NaN or Infinity) at "
        f"{where}: ")


@pytest.mark.parametrize("indent", [None, 2])
def test_residual_point_is_named(indent):
    points = [{"mass_residual": 1e-7, "momentum_residual": [0.0, 1.0, 2.0]} for _ in range(20)]
    points[17] = {**points[17], "mass_residual": math.nan}
    points[19] = {**points[19], "mass_residual": math.inf}
    with pytest.raises(ValueError, match=r"at points\[17\]\.mass_residual: "):
        strict_json({"summary": {"points": 20}, "points": points}, indent=indent)


@pytest.mark.parametrize("indent", [None, 2])
@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), object(), {1, 2}, b"x"])
def test_other_types_raise_type_error_as_json_does(value, indent):
    for obj in (value, {"a": [1.0, {"b": value}]}):
        with pytest.raises(TypeError):
            json.dumps(obj, allow_nan=False, indent=indent)
        with pytest.raises(TypeError):
            strict_json(obj, indent=indent)


# ------------------------------------------- the residual table's records

def residual_dicts(table):
    return [r.to_dict() for r in table.reports()]


def as_document(points_text):
    """The ``points`` array text at the depth the ``verify`` document holds it."""
    return '{\n  "points": ' + points_text + "\n}"


@st.composite
def residual_tables(draw):
    """A ResidualTable of 1 to 4 points, with edge floats in any cell and, as
    the library gives them, a viscous row exactly when mu is set."""
    from eulerexact.verify import ResidualTable

    n = draw(st.integers(1, 4))
    cell = finite | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                     1e308, -1e308, 1.7976931348623157e308])

    def column():
        return np.array(draw(st.lists(cell, min_size=n, max_size=n)))

    mu = draw(st.none() | cell)
    orders = draw(st.none() | st.lists(st.none() | cell, min_size=n, max_size=n))
    return ResidualTable(
        draw(cell), draw(cell), mu, (n,), column(), column(), column(), column(),
        np.array([column() for _ in range(3)]),
        None if mu is None else np.array([column() for _ in range(3)]),
        np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool), orders)


@SETTINGS
@given(residual_tables())
def test_residual_table_writes_the_dicts_json_bytes(table):
    dicts = residual_dicts(table)
    assert as_document(table.to_json()) == json.dumps(
        {"points": dicts}, allow_nan=False, indent=2)


@SETTINGS
@given(residual_tables(), st.data())
def test_residual_table_refuses_a_non_finite_cell_by_its_path(table, data):
    # one to three cells are poisoned, so two can share a record
    from eulerexact.emden import _nonfinite_path

    n = table.x.size
    names = ["t", "x", "y", "z", "stencil_h", "mass_residual", "momentum_residual",
             "ns_momentum_residual", "mu", "observed_order"]
    for _ in range(data.draw(st.integers(1, 3))):
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        name = data.draw(st.sampled_from(names))
        i = data.draw(st.integers(0, n - 1))
        if name in ("t", "stencil_h", "mu"):
            setattr(table, name, bad)
        elif name == "observed_order":
            table.observed_order = list(table.observed_order or [None] * n)
            table.observed_order[i] = bad
        elif name in ("momentum_residual", "ns_momentum_residual"):
            if getattr(table, name) is None:
                table.ns_momentum_residual = np.zeros((3, n))
            getattr(table, name)[data.draw(st.integers(0, 2)), i] = bad
        else:
            getattr(table, name)[i] = bad
    path = _nonfinite_path(residual_dicts(table))
    assert path is not None
    with pytest.raises(ValueError, match="non-finite") as exc:
        table.to_json()
    assert str(exc.value).endswith(f" at {path}")


def test_residual_table_from_a_library_call():
    # without mu there is no viscous row; a step of 0.05 takes the outer
    # points' stencils across the support boundary
    from eulerexact import EmdenState3D, Field3D, PhysParams
    from eulerexact.verify import SnapshotFieldSource, _refined_table

    source = SnapshotFieldSource(Field3D.from_params(
        PhysParams(K=1.0, gamma=1.5, lam=1.0, alpha=1.0, xi=0.0),
        EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0)))
    near = math.sqrt(0.999 * source.cutoff_s)
    xs = np.array([near, 0.1, -near, 0.0])
    table = _refined_table(source, 0.0, xs, 0.0, -0.0, 0.05)
    dicts = residual_dicts(table)
    assert [d["kink_crossing"] for d in dicts] == [True, False, True, False]
    assert {d["ns_momentum_residual"] for d in dicts} == {d["mu"] for d in dicts} == {None}
    assert as_document(table.to_json()) == json.dumps(
        {"points": dicts}, allow_nan=False, indent=2)
