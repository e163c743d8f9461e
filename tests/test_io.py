import numpy as np

from ramphop.io import write_states_csv

EXPECTED_STATES = """\
state_id,eigen_re,eigen_im,site,amplitude
0,0.5,-1e-17,1,1.0
0,0.5,-1e-17,2,0.1
0,0.5,-1e-17,3,0.3333333333333333
1,-0.0,0.6864,1,0.25
1,-0.0,0.6864,2,1.0
1,-0.0,0.6864,3,0.0
"""


def test_states_csv_bytes(tmp_path):
    eigenvalues = np.array([complex(0.5, -1e-17), complex(-0.0, 0.6864)])
    profiles = np.array([[1.0, 0.25], [0.1, 1.0], [1.0 / 3.0, 0.0]])
    path = tmp_path / "s_states.csv"
    write_states_csv(path, eigenvalues, profiles)
    assert path.read_bytes() == EXPECTED_STATES.encode()
