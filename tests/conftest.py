import hypothesis.strategies as st
from hypothesis import settings

from bipcon.bigraph import BipartiteGraph

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


@st.composite
def graphs(draw, min_r=1, max_r=4, min_s=1, max_s=4, min_n=2):
    """Random labeled bipartite graphs with small parts."""
    r = draw(st.integers(min_r, max_r))
    s = draw(st.integers(max(min_s, min_n - r), max_s))
    mask = draw(st.integers(0, (1 << (r * s)) - 1))
    return BipartiteGraph.from_mask(r, s, mask)


def fail_if_reached(*args, **kwargs):
    """A stand-in for a graph builder that a refused input must never reach."""
    raise AssertionError("a graph was built past the part-size cap")
