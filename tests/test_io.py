"""CSV rows against ``fmt``, the per-value rendering they must reproduce."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadelab.io import fmt, write_csv

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan]

values = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans(),
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.sampled_from(EDGE_FLOATS),
    st.sampled_from(EDGE_FLOATS).map(np.float64),
    st.text(alphabet="ab%,.-+e0", max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(values, min_size=1, max_size=6), max_size=8), as_tuples=st.booleans())
def test_rows_match_per_value_fmt(tmp_path_factory, rows, as_tuples):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_csv(str(path), ["note"], ["a", "b"], [tuple(r) if as_tuples else r for r in rows])
    expected = "# note\na,b\n" + "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)
    assert path.read_text(encoding="utf-8") == expected
