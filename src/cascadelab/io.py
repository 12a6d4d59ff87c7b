"""Deterministic file output.

All floats are rendered with 17 significant digits in scientific
notation, rows and keys in fixed order, LF line endings, UTF-8; repeated
runs of the same configuration produce byte-identical files.  Every file
carries the config hash, package version, and convention flags.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ValidationError


def fmt(value) -> str:
    """Render a number for CSV output (17 significant digits)."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f"{float(value):.16e}"


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


def write_csv(path: str, comments: list[str], header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in comments:
            handle.write(f"# {line}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(fmt(v) for v in row) + "\n")


def ensure_dir(path: str) -> str:
    """Create the output directory; an unusable path is a validation error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {path}: {exc}") from exc
    return path
