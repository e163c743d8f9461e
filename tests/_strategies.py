"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

# Hopping amplitudes of either sign, and exactly zero.
amplitudes = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=-2.0, max_value=-1e-3),
)


@st.composite
def open_ramps(draw):
    """(t, gamma, L): either sign, t = 0, and exact integer splits t = +-gamma m."""
    length = draw(st.integers(min_value=2, max_value=60))
    gamma = draw(amplitudes)
    if draw(st.booleans()):
        # gamma * m - gamma * j is exactly 0 at j = m, so one bond product vanishes
        t = draw(st.sampled_from([1.0, -1.0])) * gamma * draw(st.integers(1, length - 1))
    else:
        t = draw(amplitudes)
    return t, gamma, length
