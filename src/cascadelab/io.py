"""Deterministic file output.

A CSV is a column table, each column rendered by the one %-spec of its
dtype: integers and booleans as %d, floats with 17 significant digits in
scientific notation.  Rows and keys are in fixed order, LF line endings,
UTF-8; repeated runs of the same configuration produce byte-identical files.  The one
caller of these writers is ``cli._write``, which runs only once a command
has finished and stamps every file with the config hash, package version
and convention flags.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ValidationError


def _spec(dtype: np.dtype) -> str:
    """The %-format of a ``dtype`` column: 17 significant digits for a float, %d for an
    integer or a boolean."""
    return "%.16e" if dtype.kind == "f" else "%d"


def fmt(value) -> str:
    """Render one number by the %-spec of its dtype, as a CSV column of that dtype does."""
    return _spec(np.asarray(value).dtype) % value


def to_jsonable(obj):
    """Recursively convert numpy containers to plain Python."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def write_json(path: str, obj) -> None:
    text = json.dumps(to_jsonable(obj), sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")


def write_csv(path: str, comments: list[str], columns: dict) -> None:
    """A column table: comment lines, the column names, then one row per index.

    Each column is rendered by the one %-spec of its dtype, so every cell
    reads as ``fmt`` renders it; columns of unequal length are a ValueError.
    """
    arrays = [np.asarray(column) for column in columns.values()]
    if len({len(array) for array in arrays}) > 1:
        lengths = {name: len(array) for name, array in zip(columns, arrays)}
        raise ValueError(f"CSV columns of unequal length: {lengths}")
    template = ",".join(_spec(array.dtype) for array in arrays) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in comments:
            handle.write(f"# {line}\n")
        handle.write(",".join(columns) + "\n")
        handle.writelines(template % row for row in zip(*(array.tolist() for array in arrays)))


def ensure_dir(path: str) -> None:
    """Create the output directory; an unusable path is a validation error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {path}: {exc}") from exc
