"""Checkpoint files.

Layout: a UTF-8 text header starting with the magic line ``SAMCKPT v1``,
followed by ``hyper <key> <value>`` lines, one ``param <name> <shape> <offset>``
line per parameter (offset in bytes into the data section), a terminating
``data <total_bytes>`` line, then raw little-endian IEEE-754 float32 values,
row-major, in manifest order. Files are written to a temp path and renamed,
so a crash mid-write never leaves a corrupt checkpoint behind.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile

import numpy as np

MAGIC = "SAMCKPT v1"
_F32 = np.dtype("<f4")


class CheckpointError(RuntimeError):
    pass


def _shape_str(shape) -> str:
    return "x".join(str(int(e)) for e in shape)


def _count(text: str) -> int:
    """A header integer: plain ASCII decimal digits, no sign or spacing."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a non-negative integer")
    return int(text)


def _parse_shape(s: str):
    return tuple(_count(e) for e in s.split("x"))


def save_checkpoint(path, arrays: dict[str, np.ndarray], hypers: dict[str, str]) -> None:
    """Write parameters and hyperparameter key-values atomically. Raises
    CheckpointError, naming the path and the parameter, on a 0-d array,
    whose shape the header cannot hold, and on a NaN or infinite float32
    value."""
    lines = [MAGIC]
    for key in hypers:
        value = str(hypers[key])
        if "\n" in key or "\n" in value or " " in key:
            raise ValueError(f"invalid hyper entry {key!r}")
        lines.append(f"hyper {key} {value}")
    offset = 0
    blobs = []
    for name, a in arrays.items():
        if " " in name:
            raise ValueError(f"invalid parameter name {name!r}")
        if np.ndim(a) == 0:
            raise CheckpointError(f"{path}: parameter {name} is 0-d")
        blob = np.ascontiguousarray(a, dtype=_F32)
        if not np.isfinite(blob).all():
            raise CheckpointError(f"{path}: parameter {name} holds a non-finite value")
        lines.append(f"param {name} {_shape_str(a.shape)} {offset}")
        offset += blob.nbytes
        blobs.append(blob)
    lines.append(f"data {offset}")
    header = ("\n".join(lines) + "\n").encode("utf-8")

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Read a checkpoint; returns (arrays, hypers, manifest_text). Raises
    CheckpointError, naming the path, on any malformed header line, on a
    parameter listed twice or sharing data bytes with another, on a data
    section that does not hold every parameter, and on a NaN or infinite
    value, which training never saves."""
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n")
    if nl < 0 or raw[:nl].decode("utf-8", "replace") != MAGIC:
        raise CheckpointError(f"{path}: not a {MAGIC} file")
    hypers: dict[str, str] = {}
    entries = []
    pos = nl + 1
    data_bytes = None
    while data_bytes is None:
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise CheckpointError(f"{path}: truncated header")
        try:
            kind, _, rest = raw[pos:nl].decode("utf-8").partition(" ")
            if kind == "hyper":
                key, value = rest.split(" ", 1)
                hypers[key] = value
            elif kind == "param":
                name, shape_s, off_s = rest.split(" ")
                entries.append((name, _parse_shape(shape_s), _count(off_s)))
            elif kind == "data":
                data_bytes = _count(rest)
            else:
                raise ValueError("unknown line kind")
        except ValueError as exc:  # UnicodeDecodeError is a ValueError too
            raise CheckpointError(
                f"{path}: bad manifest line {raw[pos:nl]!r} ({exc})"
            ) from exc
        pos = nl + 1
    data_start = pos
    if len(raw) - data_start != data_bytes:
        raise CheckpointError(
            f"{path}: data section is {len(raw) - data_start} bytes, "
            f"manifest says {data_bytes}"
        )
    arrays: dict[str, np.ndarray] = {}
    spans = []
    for name, shape, off in entries:
        if name in arrays:
            raise CheckpointError(f"{path}: parameter {name} listed twice")
        count = math.prod(shape)
        end = off + count * _F32.itemsize
        if end > data_bytes:
            raise CheckpointError(
                f"{path}: parameter {name} {shape} at offset {off} runs past "
                f"the {data_bytes}-byte data section"
            )
        if count:
            spans.append((off, end, name))
        a = np.frombuffer(raw, dtype=_F32, count=count, offset=data_start + off)
        if not np.isfinite(a).all():
            raise CheckpointError(f"{path}: parameter {name} holds a non-finite value")
        arrays[name] = a.reshape(shape).copy()
    spans.sort()
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        if start < end:
            raise CheckpointError(
                f"{path}: parameters {first} and {second} share data bytes "
                f"{start}..{end - 1}"
            )
    manifest_text = raw[:data_start].decode("utf-8")
    return arrays, hypers, manifest_text


def manifest_hash(path) -> str:
    """SHA-256 over the architecture manifest: model hypers and parameter
    names/shapes. Run-specific keys (cfg.* lines) are excluded so the hash
    identifies the model, not the output directory it was trained in."""
    _, _, manifest = load_checkpoint(path)
    lines = [
        line for line in manifest.splitlines()
        if not line.startswith("hyper cfg.")
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
