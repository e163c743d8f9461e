"""Byte-exact output of every CSV writer, with signed zeros, tiny values and nan."""

import math

import numpy as np
import pytest

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


def test_json_rows_come_from_the_same_columns():
    rows = rio.table_rows(
        {"re": np.array([-0.0, NAN]), "class": np.array(["real", "failed"]), "n": np.array([1, -1])}
    )
    assert repr(rows) == (
        "[{'re': -0.0, 'class': 'real', 'n': 1}, {'re': nan, 'class': 'failed', 'n': -1}]"
    )
    assert [type(v) for v in rows[0].values()] == [float, str, int]
