"""Hypothesis strategies for JSON values as an outside source may send them."""

from hypothesis import strategies as st

# Any JSON value: null, true/false, a number, a string, or a small list or object of them.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def or_any(valid):
    """A value drawn from `valid`, or any JSON value in its place: a list, an object, a number, null."""
    return st.one_of(valid, ANY_JSON)
