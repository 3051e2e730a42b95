"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from voltage_tower import DirectedMultigraph


@st.composite
def connected_multigraphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    tree = [
        (draw(st.integers(min_value=0, max_value=v - 1)), v)
        for v in range(1, n)
    ]
    extra_count = draw(st.integers(min_value=0, max_value=5))
    extra = [
        (
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
        )
        for _ in range(extra_count)
    ]
    return DirectedMultigraph(n, tuple(tree + extra))
