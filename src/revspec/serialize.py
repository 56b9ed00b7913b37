"""Deterministic output formatting shared by the CLI and tests.

Every file the toolkit writes is byte-identical across runs for the same
inputs on the same machine, installation and BLAS thread count: floats go
through ``%.17g`` (shortest-exact round-trip is repr-dependent; 17
significant digits is fixed), JSON is sorted-key with two-space indent and
a ``schema`` version, and all text is written with LF endings regardless
of platform.  JSON holds no nan or infinity: since schema 3, a validation
check's value, target or tolerance that is not finite is written as
``null``.  Since schema 4, ``analyze``'s even-multiplicity test has no
``reduction_holds`` key: parity is one decision, and an undecided one is
named in its ``explanation``.

Across CPUs, BLAS builds, BLAS thread counts and numpy versions,
float fields may differ in their last digits: a few ULPs for mesh vertices,
somewhat more for eigenvalues, which come from BLAS and LAPACK.  The thread
count alone moves ``paper-example`` eigenvalues by up to about 6e-14
relative (the default pool against ``OPENBLAS_NUM_THREADS=1`` on a 2-core
x86-64 host).  Layout, face lines, key order and number format are exact
everywhere.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

__all__ = ["SCHEMA_VERSION", "fmt17", "json_text", "write_text", "write_blocks"]

SCHEMA_VERSION = 4


def fmt17(x: float) -> str:
    return f"{float(x):.17g}"


def json_text(payload: dict) -> str:
    """Schema-stamped, key-sorted JSON document ending in a newline."""
    doc = {"schema": SCHEMA_VERSION, **payload}
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_bytes(text.encode("utf-8"))


def write_blocks(path: str | Path, blocks: Iterable[bytes]) -> None:
    """Write ``blocks`` to ``path`` one after another, never joined."""
    with Path(path).open("wb") as fh:
        fh.writelines(blocks)
