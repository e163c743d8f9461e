"""Byte-exact output of every CSV writer, with signed zeros, tiny values and
nan, and of the JSON writer against ``json.dumps(indent=2)``."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ramphop import io as rio
from ramphop.analysis import WindingTrace, classify

NAN = math.nan
LEVELS = np.array(
    [complex(0.5, -1e-17), complex(-0.0, 0.6864), complex(0.25, 0.25), complex(-0.0, 0.0)]
)


def _spectrum(path):
    rio.write_spectrum_csv(path, classify(LEVELS), np.array([1e-17, NAN, 0.0, -0.0]))


def _spectrum_without_residuals(path):
    rio.write_spectrum_csv(path, classify(LEVELS), None)


def _blocks(path):
    rio.write_blocks_csv(
        path,
        np.array([complex(-0.0, 0.0), 0.5]),
        np.array([complex(1e-17, -2.0)]),
        np.array([True, False, True]),
    )


def _states(path):
    rio.write_states_csv(
        path,
        np.array([complex(0.5, -1e-17), complex(-0.0, 0.6864)]),
        np.array([[1.0, 0.25], [0.1, 1.0], [1.0 / 3.0, 0.0]]),
    )


def _summary(path):
    rio.write_states_summary_csv(
        path,
        {
            "state_id": np.arange(2),
            "eigen_re": np.array([-0.0, 0.0]),
            "eigen_im": np.array([1e-17, 0.6864]),
            "class": np.array(["real", "imaginary"]),
            "centroid": (12.5, 1.0),
            "ipr": (0.1, 1.0),
            "argmax_site": (3, 1),
            "env_center": (NAN, 1.0),
            "env_width": (NAN, 0.005),
            "env_rms": (NAN, 1e-17),
        },
    )


def _envelope(path):
    rio.write_envelope_csv(path, np.array([1.0, -0.0, 1e-17, NAN]))


def _sweep(path):
    rio.write_sweep_csv(
        path,
        {
            "gamma": np.array([0.005, 0.005, 0.01]),
            "eigen_index": np.array([0, 0, -1]),
            "re": np.array([-0.0, 0.0, NAN]),
            "im": np.array([1e-17, -2.5, NAN]),
            "class": np.array(["real", "imaginary", "failed"]),
            "n_real": np.array([1, 1, -1]),
            "n_imaginary": np.array([1, 1, -1]),
        },
    )


def _winding(path):
    trace = WindingTrace(
        np.array([0.0, math.pi]), np.array([-0.0, 1e-17]), np.array([NAN, -3.0]), -1, 2
    )
    rio.write_winding_csv(path, trace, complex(-0.0, 1e-17))


CASES = {
    "spectrum": (
        _spectrum,
        """\
index,re,im,class,residual
0,0.5,-1e-17,real,1e-17
1,-0.0,0.6864,imaginary,nan
2,0.25,0.25,complex,0.0
3,-0.0,0.0,real,-0.0
""",
    ),
    "spectrum-no-residuals": (
        _spectrum_without_residuals,
        """\
index,re,im,class,residual
0,0.5,-1e-17,real,0.0
1,-0.0,0.6864,imaginary,0.0
2,0.25,0.25,complex,0.0
3,-0.0,0.0,real,0.0
""",
    ),
    "blocks": (
        _blocks,
        """\
block,index,re,im,matched
a,0,-0.0,0.0,1
a,1,0.5,0.0,0
b,0,1e-17,-2.0,1
""",
    ),
    "states": (
        _states,
        """\
state_id,eigen_re,eigen_im,site,amplitude
0,0.5,-1e-17,1,1.0
0,0.5,-1e-17,2,0.1
0,0.5,-1e-17,3,0.3333333333333333
1,-0.0,0.6864,1,0.25
1,-0.0,0.6864,2,1.0
1,-0.0,0.6864,3,0.0
""",
    ),
    "summary": (
        _summary,
        """\
state_id,eigen_re,eigen_im,class,centroid,ipr,argmax_site,env_center,env_width,env_rms
0,-0.0,1e-17,real,12.5,0.1,3,nan,nan,nan
1,0.0,0.6864,imaginary,1.0,1.0,1,1.0,0.005,1e-17
""",
    ),
    "envelope": (
        _envelope,
        """\
site,amplitude
1,1.0
2,-0.0
3,1e-17
4,nan
""",
    ),
    "sweep": (
        _sweep,
        """\
gamma,eigen_index,re,im,class,n_real,n_imaginary
0.005,0,-0.0,1e-17,real,1,1
0.005,0,0.0,-2.5,imaginary,1,1
0.01,-1,nan,nan,failed,-1,-1
""",
    ),
    "winding": (
        _winding,
        """\
theta,det_log_abs,det_phase
0.0,-0.0,nan
3.141592653589793,1e-17,-3.0
# winding=-1 point_gap=true base_re=-0.0 base_im=1e-17 theta_steps=2
""",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_csv_writer_bytes(tmp_path, name):
    write, expected = CASES[name]
    path = tmp_path / f"{name}.csv"
    write(path)
    assert path.read_bytes() == expected.encode()


def test_json_rows_come_from_the_same_columns(tmp_path):
    rows = rio.RowTable(
        {"re": np.array([-0.0, NAN]), "class": np.array(["real", "failed"]), "n": np.array([1, -1])}
    )
    assert len(rows) == 2 and list(rows.columns) == ["re", "class", "n"]
    # the columns are the only storage: the table has no rows to read
    assert not hasattr(rows, "__getitem__") and not hasattr(rows, "__iter__")
    # rendered from its columns, the table reads as the list of its rows
    path = tmp_path / "rows.json"
    rio.write_json(path, {"rows": rows})
    expected = [{"re": -0.0, "class": "real", "n": 1}, {"re": NAN, "class": "failed", "n": -1}]
    assert path.read_text() == json.dumps({"rows": expected}, indent=2) + "\n"


@pytest.mark.parametrize(
    "column",
    [np.array([True, False]), np.array([None, "a"], dtype=object), np.zeros((2, 1, 1))],
    ids=["bool", "object", "3-D"],
)
def test_row_tables_take_only_the_column_kinds_they_render(tmp_path, column):
    # no table the CLI writes holds these; they are refused before a file is opened
    path = tmp_path / "doc.json"
    rio.write_json(path, {"ok": [1.0]})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        rio.write_json(path, {"rows": rio.RowTable({"re": np.arange(2.0), "bad": column})})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_csv_columns_of_unequal_length_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        rio.write_sweep_csv(tmp_path / "t.csv", {"a": np.arange(2), "b": np.arange(3)})
    with pytest.raises(ValueError):
        rio.RowTable({"a": np.arange(2), "b": np.arange(3)})


def test_a_json_write_that_fails_midway_leaves_the_old_file(tmp_path):
    path = tmp_path / "doc.json"
    rio.write_json(path, {"ok": [1.0, 2.0]})
    before = path.read_bytes()
    cycle: list = [1.0]
    cycle.append(cycle)
    # the writer rejects a cycle as json.dumps does
    with pytest.raises(ValueError, match="Circular reference detected"):
        rio.write_json(path, {"ok": [1.0, 2.0], "cycle": cycle})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
    # a row table goes to the file in full before the set after it is rejected
    table = rio.RowTable({"re": np.arange(3.0)})
    with pytest.raises(TypeError):
        rio.write_json(path, {"rows": table, "set": {1, 2}})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


# Floats at the edges of repr, each often repeated, as the amplitudes of a
# +-lambda pair are.
_EDGE_FLOATS = st.one_of(
    st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 9999999999999998.0, 1e16, 1.0000000000000002e16,
         9.999999999999999e-05, 1e-4, 1.0000000000000002e-4, NAN, math.inf, -math.inf, 1.0]
    ),
    st.floats(),
)


@st.composite
def _float_matrices(draw):
    pool = draw(st.lists(_EDGE_FLOATS, min_size=1, max_size=12))
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows * cols, max_size=rows * cols))
    return np.array([pool[i] for i in picks], dtype=float).reshape(rows, cols)


@given(_float_matrices())
@settings(max_examples=200, deadline=None)
def test_matrix_text_spells_each_float_as_repr(matrix):
    text = rio._matrix_text(matrix)
    assert text.shape == matrix.shape
    assert text.ravel().tolist() == list(map(repr, matrix.ravel().tolist()))
    json_text = rio._matrix_text(matrix, rio._json_float)
    assert json_text.ravel().tolist() == [json.dumps(x) for x in matrix.ravel().tolist()]


@st.composite
def _row_tables(draw):
    """Column tables of every kind a row table renders."""
    rows = draw(st.integers(0, 5))
    width = draw(st.integers(0, 4))
    floats = st.lists(_EDGE_FLOATS, min_size=rows, max_size=rows)
    kinds = {
        "re": floats.map(lambda xs: np.array(xs, dtype=float)),
        "n": st.lists(st.integers(-(2**62), 2**62), min_size=rows, max_size=rows).map(
            lambda xs: np.array(xs, dtype=np.int64)
        ),
        "class": st.lists(st.text(), min_size=rows, max_size=rows).map(
            lambda xs: np.array(xs, dtype=str)
        ),
        "amplitudes": st.lists(
            st.lists(_EDGE_FLOATS, min_size=width, max_size=width), min_size=rows, max_size=rows
        ).map(lambda xs: np.array(xs, dtype=float).reshape(rows, width)),
    }
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=4, unique=True))
    return {name: draw(kinds[name]) for name in names}


@given(_row_tables())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_row_tables_render_as_json_dumps_of_their_rows(tmp_path, columns):
    table = rio.RowTable(columns)
    document = {"rows": table, "nested": [{"rows": table}], "empty": rio.RowTable({"x": []})}
    path = tmp_path / "doc.json"
    rio.write_json(path, document)
    # each row is a dict of its cells, a 2-D column's cell the list of its row
    length = len(next(iter(columns.values())))
    rows = [{name: col[i].tolist() for name, col in columns.items()} for i in range(length)]
    expanded = {"rows": rows, "nested": [{"rows": rows}], "empty": []}
    assert path.read_text() == json.dumps(expanded, indent=2) + "\n"


# Floats at the edges of repr (signed zero, the smallest subnormal, the switch
# to exponent notation either side), the non-finite spellings, ints past 64
# bits, bools, None, and strings with non-ASCII and control characters.
_JSON_SCALARS = st.one_of(
    st.sampled_from(
        [-0.0, 0.0, 5e-324, 1e16, 1e-17, 1e-4, NAN, math.inf, -math.inf,
         2**64, -(2**70), True, False, None, "", "\u00e9\u4e2d\U0001f600", "\x00\x1f\n\t\"\\/"]
    ),
    st.floats(),
    st.floats().map(np.float64),
    st.integers(),
    st.text(),
)
_JSON_KEYS = st.one_of(st.text(), st.sampled_from([1.5, -0.0, NAN, 7, True, False, None]))
_JSON_DOCUMENTS = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_JSON_KEYS, children, max_size=5),
        st.lists(st.floats(), max_size=8),
    ),
    max_leaves=40,
)


@given(_JSON_DOCUMENTS)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_json_writer_matches_json_dumps_byte_for_byte(tmp_path, document):
    path = tmp_path / "doc.json"
    rio.write_json(path, document)
    assert path.read_bytes() == (json.dumps(document, indent=2) + "\n").encode()


@pytest.mark.parametrize(
    "document",
    [np.int64(3), np.bool_(True), {1, 2}, {"rows": [1.0, np.int64(2)]}, {(1, 2): 0.5}],
    ids=["int64", "bool_", "set", "nested-int64", "tuple-key"],
)
def test_json_writer_rejects_what_json_dumps_rejects(tmp_path, document):
    with pytest.raises(TypeError):
        json.dumps(document, indent=2)
    with pytest.raises(TypeError):
        rio.write_json(tmp_path / "doc.json", document)
    assert not (tmp_path / "doc.json").exists()
    # a file already at the path is left as it was, and nothing partial remains
    (tmp_path / "doc.json").write_text("{}\n")
    with pytest.raises(TypeError):
        rio.write_json(tmp_path / "doc.json", document)
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
    assert (tmp_path / "doc.json").read_text() == "{}\n"
