"""Rule files are parsed with orjson; these properties check that it reads
every float token to the same double as the standard library's json, which
serves only as the reference here, and that loading leaves the caller's
garbage-collector setting as it found it."""

import decimal
import gc
import json
import struct

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from seqforms.cli import _load_sequence, main
from seqforms.sequences import spec_from_json

finite = st.floats(allow_nan=False, allow_infinity=False)

shortest_repr = finite.map(repr)

# 17-40 significant digits, one before the point; exponents keep the value
# below the largest double and reach past the subnormals.
long_mantissa = st.tuples(
    st.sampled_from(["", "-"]),
    st.integers(10**16, 10**40 - 1).map(str),
    st.integers(-360, 268),
).map(lambda t: f"{t[0]}{t[1][0]}.{t[1][1:]}e{t[2]}")


def _midpoint(x):
    """The exact decimal halfway between |x| and the next larger double."""
    x = abs(x)
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        mid = (decimal.Decimal(x) + decimal.Decimal(np.nextafter(x, np.inf))) / 2
    return str(mid)


midpoints = finite.filter(lambda x: abs(x) < np.finfo(float).max).map(_midpoint)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(shortest_repr, long_mantissa, midpoints), min_size=1, max_size=40))
def test_orjson_reads_floats_as_json_does(tokens):
    text = "[" + ", ".join(tokens) + "]"
    assert _bits(orjson.loads(text.encode())) == _bits(json.loads(text))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda rows: st.lists(
            st.lists(st.tuples(finite, finite).map(list), min_size=rows, max_size=rows),
            min_size=1,
            max_size=5,
        )
    ),
    st.sampled_from(["explicit", "operator_image"]),
)
def test_load_sequence_matches_json_reference(tmp_path_factory, pairs, tag):
    path = tmp_path_factory.mktemp("rules") / "rule.json"
    path.write_text(json.dumps({"rule": tag, "params": {"matrix": pairs}}))
    with open(path) as fh:
        reference = spec_from_json(json.load(fh))
    assert _load_sequence(str(path)).matrix.tobytes() == reference.matrix.tobytes()


@pytest.mark.parametrize("caller_enabled", [True, False])
def test_loading_restores_the_callers_gc_setting(tmp_path, capsys, caller_enabled):
    rng = np.random.default_rng(5)
    pairs = rng.standard_normal((6, 6, 2)).tolist()
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"rule": "explicit", "params": {"matrix": pairs}}))
    bad = tmp_path / "bad.json"
    bad.write_text('{"rule": "explicit", "params": {"matrix": [[1, 2], [3')
    with open(good) as fh:
        reference = spec_from_json(json.load(fh)).matrix.tobytes()
    was_enabled = gc.isenabled()
    (gc.enable if caller_enabled else gc.disable)()
    try:
        assert _load_sequence(str(good)).matrix.tobytes() == reference
        assert gc.isenabled() == caller_enabled
        code = main(["classify", "--spec", str(bad), "--dim", "2"])
        assert code == 2 and capsys.readouterr().err.startswith("error: cannot load")
        assert gc.isenabled() == caller_enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("matrix", [
    [["2", 0.0], [0.0, 1.0]],
    [[["2", "1"], [0, 0]], [[0, 0], [1, 0]]],
], ids=["real", "pairs"])
def test_a_numeric_string_in_a_uniform_matrix_is_a_usage_error(
    tmp_path, capsys, matrix
):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"rule": "explicit", "params": {"matrix": matrix}}))
    code = main(["classify", "--spec", str(path), "--dim", "2"])
    assert code == 2 and capsys.readouterr().err.startswith("error: cannot load")
