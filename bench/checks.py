"""Correctness checks on the result tables a benchmark batch produces.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
from dataclasses import astuple, replace

FIXED_BASELINES = ("fixed-eta", "fixed-beta", "fixed-both")


def _key(row) -> tuple:
    """Row as a tuple without the wall-time column; NaN made comparable."""
    values = astuple(replace(row, wall_time_s=0.0))
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in values)


def same_table(a: list, b: list, what: str) -> list[str]:
    """Tables equal in every column except ``wall_time_s``."""
    if len(a) != len(b):
        return [f"{what}: {len(b)} rows, expected {len(a)}"]
    for ra, rb in zip(a, b):
        if _key(ra) != _key(rb):
            return [f"{what}: row differs: {rb} != {ra}"]
    return []


def round_trip(rows: list, read_back: list, what: str) -> list[str]:
    """An emitted table read back equal, wall-time column included."""
    problems = same_table(rows, read_back, what)
    if not problems and [r.wall_time_s for r in rows] != [r.wall_time_s for r in read_back]:
        problems.append(f"{what}: wall_time_s column changed")
    return problems


def row_count(rows: list, cells: int) -> list[str]:
    if len(rows) != cells:
        return [f"table has {len(rows)} rows for {cells} cells"]
    return []


def es_beats_fixed(rows: list, tol: float = 1e-12) -> list[str]:
    """Exhaustive search rates at least each fixed-split baseline, cell by cell."""
    es = {(r.sweep_value, r.seed): r.sr_bits for r in rows if r.method == "nsp-mrr-pa/ES"}
    problems = []
    for r in rows:
        if r.method not in FIXED_BASELINES:
            continue
        best = es.get((r.sweep_value, r.seed))
        if best is None:
            problems.append(f"no ES row for {r.method} at {r.sweep_value}, seed {r.seed}")
        elif not best >= r.sr_bits - tol:
            problems.append(f"ES {best} < {r.method} {r.sr_bits} at "
                            f"{r.sweep_value}, seed {r.seed}")
    return problems


def failed(row) -> bool:
    """A row whose run raised or produced a non-finite rate."""
    return (any(f.startswith("error:") for f in row.flags)
            or not math.isfinite(row.sr_bits))
