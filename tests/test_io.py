"""CSV column tables against ``fmt``, the per-value rendering each cell must reproduce."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadelab.io import fmt, write_csv

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan]

#: One kind of value per column: how a column of that kind is drawn and built.
COLUMN_KINDS = {
    "python_int": (st.integers(min_value=-(2**63), max_value=2**63 - 1), list),
    "int64": (st.integers(min_value=-(2**63), max_value=2**63 - 1), np.int64),
    "bool": (st.booleans(), np.bool_),
    "python_float": (st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)), list),
    "float64": (st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)), np.float64),
    "float32": (st.one_of(st.floats(width=32), st.sampled_from(EDGE_FLOATS)), np.float32),
}


@st.composite
def column_tables(draw):
    """A ``{name: column}`` map of 1 to 5 columns of one length, each of one kind,
    as a list of Python values or as a numpy array of its dtype."""
    length = draw(st.integers(min_value=0, max_value=8))
    columns = {}
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        values, build = COLUMN_KINDS[draw(st.sampled_from(sorted(COLUMN_KINDS)))]
        cells = draw(st.lists(values, min_size=length, max_size=length))
        columns[f"c{i}"] = cells if build is list else np.array(cells, dtype=build)
    return length, columns


@settings(max_examples=200, deadline=None)
@given(table=column_tables())
def test_columns_match_per_value_fmt(tmp_path_factory, table):
    length, columns = table
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(str(path), ["note"], columns)
    rows = [",".join(fmt(column[i]) for column in columns.values()) + "\n" for i in range(length)]
    expected = "# note\n" + ",".join(columns) + "\n" + "".join(rows)
    assert path.read_text(encoding="utf-8") == expected


def test_columns_of_unequal_length_raise(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="unequal length"):
        write_csv(str(path), [], {"a": np.zeros(3), "b": np.arange(2)})
