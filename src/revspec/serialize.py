"""Deterministic output formatting shared by the CLI and tests.

Every file the toolkit writes is byte-identical across runs for the same
inputs on one machine, installation, BLAS kernel and thread count: floats go
through ``%.17g`` (shortest-exact round-trip is repr-dependent; 17
significant digits is fixed), JSON is sorted-key with two-space indent and
a ``schema`` version, and all text is written with LF endings regardless
of platform.  A result's JSON is its fields (:func:`plain`), and every
float that is not finite is ``null``: schema 3's rule for validation
values, now for all, which changes no document any version could write
(such a float made ``json_text`` raise), so the schema stays 4.  Since
schema 4, ``analyze``'s even-multiplicity test has no ``reduction_holds``
key: parity is one decision, and an undecided one is in ``explanation``.

Across CPUs, numpy versions and BLAS builds, kernels and thread counts,
float fields may differ in their last digits: a few ULPs for mesh vertices,
somewhat more for eigenvalues, which come from BLAS and LAPACK.  The thread
count alone moves ``paper-example`` eigenvalues by up to about 6e-14
relative (the default pool against ``OPENBLAS_NUM_THREADS=1`` on a 2-core
x86-64 host), the kernel (``OPENBLAS_CORETYPE``) alone by up to 2.7e-14.
Layout, face lines, key order and number format are exact everywhere.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import fields, is_dataclass
from pathlib import Path

__all__ = ["SCHEMA_VERSION", "fmt17", "plain", "json_text", "write_text", "write_blocks"]

SCHEMA_VERSION = 4


def fmt17(x: float) -> str:
    return f"{float(x):.17g}"


def plain(value):
    """``value`` as JSON data: a dataclass is the dict of its fields but those
    marked ``field(metadata={"json": False})``, a tuple or list is a list, a
    float that is not finite is ``None``, and anything else is itself."""
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)
                if f.metadata.get("json", True)}
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


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
