"""Property-based tests: the STR-tree agrees with brute force."""

from hypothesis import given, settings, strategies as st

from repro.geometry.envelope import Envelope
from repro.index import STRtree

coordinate = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def envelopes(draw):
    x = draw(coordinate)
    y = draw(coordinate)
    w = draw(st.floats(min_value=0.0, max_value=20.0))
    h = draw(st.floats(min_value=0.0, max_value=20.0))
    return Envelope(x, y, x + w, y + h)


entry_lists = st.lists(envelopes(), min_size=0, max_size=60)


class TestTreesMatchBruteForce:
    @given(entry_lists, envelopes())
    @settings(max_examples=150, deadline=None)
    def test_strtree(self, envs, query):
        entries = list(enumerate(envs))
        tree = STRtree(entries, node_capacity=4)
        expected = sorted(i for i, e in entries if e.intersects(query))
        assert sorted(tree.query(query)) == expected
