"""Run reports: deterministic JSON/CSV emission with exactness flags."""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from . import __version__


def exact(value, tolerance: float | None = None) -> dict:
    """An exactly computed (or certified-tolerance) numeric result."""
    out = {"value": _plain(value), "kind": "exact"}
    if tolerance is not None:
        out["tolerance"] = tolerance
    return out


def estimate(value, lo, hi, **diagnostics) -> dict:
    """A finite-data estimate; always carries its bracket."""
    out = {
        "value": _plain(value),
        "kind": "estimate",
        "bracket": [_plain(lo), _plain(hi)],
    }
    out.update({k: _plain(v) for k, v in diagnostics.items()})
    return out


def _plain(x):
    """Recursively convert numpy scalars/arrays for JSON emission."""
    if isinstance(x, (numpy.floating, numpy.integer)):
        return x.item()
    if isinstance(x, numpy.ndarray):
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, float) and x != x:  # NaN is not valid strict JSON
        return None
    return x


@dataclass
class RunReport:
    """One command's full output: config echo, results, versions, timing.

    Payloads are byte-identical across reruns of the same config except for
    the wall-time field, which consumers strip before comparing.
    """

    command: str
    config: dict
    results: dict = field(default_factory=dict)
    started: float = field(default_factory=time.perf_counter)

    def finalize(self) -> dict:
        return {
            "command": self.command,
            "config": _plain(self.config),
            "results": _plain(self.results),
            "versions": {
                "gdms": __version__,
                "numpy": numpy.__version__,
                "python": platform.python_version(),
            },
            "wall_time_s": time.perf_counter() - self.started,
        }

    def write(self, outdir: Path) -> Path:
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / "report.json"
        path.write_text(
            json.dumps(self.finalize(), indent=2, sort_keys=True) + "\n"
        )
        return path


# Rows per block.  ``write_csv`` formats and writes this many rows at a time,
# and ``render`` builds a cloud level and rasterizes its points in blocks of
# this many, so no stage holds a whole column's text or temporaries.
BLOCK_ROWS = 1 << 11


def write_csv(path: Path, header: list[str], columns) -> None:
    """Minimal deterministic CSV, written in blocks of ``BLOCK_ROWS`` rows.

    Every column is sliced once per block, so a column may be any sequence
    that slices, such as the lazy word names of a point cloud.  A column of
    strings is written as is; any other column is converted once by
    ``numpy.asarray`` and each block is listed as Python numbers
    (``.tolist()``) and written as their ``repr``, so floats round-trip and
    ints and bools keep their type.  Rows stop at the shortest column.  No
    quoting is needed.  Beyond its columns, the writer holds one block's
    numbers and text: 0.6 MB traced for the 708,588 rows of a depth-12
    ``points.csv``.
    """
    strings = [bool(len(col)) and isinstance(col[0], str) for col in columns]
    columns = [col if text else numpy.asarray(col) for col, text in zip(columns, strings)]
    rows = min(map(len, columns))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, rows)
            texts = [
                col[start:stop] if text else map(repr, col[start:stop].tolist())
                for col, text in zip(columns, strings)
            ]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")
