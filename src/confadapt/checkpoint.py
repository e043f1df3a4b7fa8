"""Versioned binary checkpoints with bit-exact round trips.

Layout (all integers little-endian):

    magic   8 bytes  ``CFADCKPT``
    u32     format version (currently 1)
    u32     section count
    table   per section: u16 name length, name utf8, u64 offset, u64 size
    payloads

Each section payload is a JSON part plus an array blob:

    u64     JSON length, then JSON utf8
    u32     array count
    per array: u16 name length, name utf8, u8 ndim, u64 per-dim extents,
               then float64 values, row-major

Sections, in file order: ``meta`` (kind), ``space``, ``weights``, then
``logits`` (+ temperature in its JSON part) in a supernet checkpoint or
``arch`` in a model checkpoint, then ``lineage`` (ordered stage history
with configs). Older files may also hold ``optimizer`` (Adam moments)
and ``rng`` (generator state) sections; they still load, and those two
sections are ignored.

Writes are atomic (temp file then rename). Loading a truncated or
corrupt file, one without the ``meta``, ``space``, ``weights`` and
``lineage`` sections, one whose kind is neither ``supernet`` nor
``model``, a supernet file without ``logits``, a model file without
``arch``, or one whose sections hold malformed contents (such as an
``arch`` that does not fit its ``space``, or a logits group that is
missing or whose length differs from its number of choices) raises
``IncompatibleCheckpointError`` naming the path.
"""

from __future__ import annotations

import json
import os
import struct

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .space import ArchSpace, DerivedArch, _key_str

MAGIC = b"CFADCKPT"
VERSION = 1
REQUIRED_SECTIONS = ("meta", "space", "weights", "lineage")
# the section each kind's loader reads besides the required ones
KIND_SECTIONS = {"supernet": "logits", "model": "arch"}


class IncompatibleCheckpointError(ValueError):
    """Checkpoint contents do not match what the caller requires."""


def _pack_section(json_obj, arrays):
    j = json.dumps(json_obj, sort_keys=True).encode("utf-8")
    parts = [struct.pack("<Q", len(j)), j, struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        nb = name.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            parts.append(struct.pack("<Q", d))
        parts.append(arr.tobytes())
    return b"".join(parts)


def _unpack_section(buf):
    (jlen,) = struct.unpack_from("<Q", buf, 0)
    ofs = 8
    json_obj = json.loads(buf[ofs:ofs + jlen].decode("utf-8"))
    ofs += jlen
    (count,) = struct.unpack_from("<I", buf, ofs)
    ofs += 4
    arrays = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", buf, ofs)
        ofs += 2
        name = buf[ofs:ofs + nlen].decode("utf-8")
        ofs += nlen
        (ndim,) = struct.unpack_from("<B", buf, ofs)
        ofs += 1
        shape = struct.unpack_from(f"<{ndim}Q", buf, ofs) if ndim else ()
        ofs += 8 * ndim
        n = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(buf, dtype="<f8", count=n, offset=ofs).reshape(shape)
        ofs += 8 * n
        arrays[name] = arr.astype(np.float64)
    return json_obj, arrays


def _read_sections(buf, path):
    """Decode every section of a checkpoint file: name -> (json, arrays)."""
    if buf[: len(MAGIC)] != MAGIC:
        raise IncompatibleCheckpointError(f"{path}: not a checkpoint file")
    version, count = struct.unpack_from("<II", buf, len(MAGIC))
    if version != VERSION:
        raise IncompatibleCheckpointError(f"{path}: unsupported checkpoint version {version}")
    ofs = len(MAGIC) + 8
    table = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", buf, ofs)
        ofs += 2
        name = buf[ofs:ofs + nlen].decode("utf-8")
        ofs += nlen
        start, size = struct.unpack_from("<QQ", buf, ofs)
        ofs += 16
        if start + size > len(buf):
            raise IncompatibleCheckpointError(
                f"{path}: section {name!r} ends at byte {start + size}, "
                f"past the end of the {len(buf)}-byte file (truncated?)"
            )
        table[name] = (start, size)
    missing = [n for n in REQUIRED_SECTIONS if n not in table]
    if missing:
        raise IncompatibleCheckpointError(f"{path}: missing sections {missing}")
    return {name: _unpack_section(buf[start:start + size])
            for name, (start, size) in table.items()}


def _from_sections(sections):
    meta, _ = sections["meta"]
    space_js, _ = sections["space"]
    _, weights = sections["weights"]
    ck = Checkpoint(kind=meta["kind"], space=ArchSpace.from_json(space_js), weights=weights)
    if ck.kind not in KIND_SECTIONS:
        raise ValueError(f"unknown checkpoint kind {ck.kind!r}")
    if KIND_SECTIONS[ck.kind] not in sections:
        raise ValueError(f"{ck.kind} checkpoint has no {KIND_SECTIONS[ck.kind]!r} section")
    if "arch" in sections:
        ck.arch = DerivedArch.from_json(sections["arch"][0])
        ck.arch.validate(ck.space)
    if "logits" in sections:
        ck.logits_meta, ck.logits = sections["logits"]
        for key, choices in ck.space.groups():
            name = _key_str(key)
            if name not in ck.logits:
                raise ValueError(f"logits group {name} is missing")
            if ck.logits[name].shape != (len(choices),):
                raise ValueError(
                    f"logits group {name} has shape {ck.logits[name].shape}, "
                    f"expected {(len(choices),)}"
                )
    ck.lineage, _ = sections["lineage"]
    return ck


@dataclass
class Checkpoint:
    kind: str
    space: ArchSpace
    weights: dict
    arch: DerivedArch | None = None
    logits: dict | None = None
    logits_meta: dict | None = None
    lineage: list = field(default_factory=list)

    def save(self, path):
        sections = [("meta", {"kind": self.kind}, {})]
        sections.append(("space", self.space.to_json(), {}))
        sections.append(("weights", {}, self.weights))
        if self.arch is not None:
            sections.append(("arch", self.arch.to_json(), {}))
        if self.logits is not None:
            sections.append(("logits", self.logits_meta or {}, self.logits))
        sections.append(("lineage", self.lineage, {}))

        payloads = [(name, _pack_section(js, arrays)) for name, js, arrays in sections]
        table_size = sum(2 + len(n.encode()) + 16 for n, _ in payloads)
        ofs = len(MAGIC) + 8 + table_size
        head = [MAGIC, struct.pack("<II", VERSION, len(payloads))]
        for name, payload in payloads:
            nb = name.encode("utf-8")
            head.append(struct.pack("<H", len(nb)))
            head.append(nb)
            head.append(struct.pack("<QQ", ofs, len(payload)))
            ofs += len(payload)
        blob = b"".join(head) + b"".join(p for _, p in payloads)

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, path)

    @staticmethod
    def load(path):
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"checkpoint not found: {path}")
        try:
            return _from_sections(_read_sections(path.read_bytes(), path))
        except IncompatibleCheckpointError:
            raise
        # ValueError covers JSON, UTF-8, space and arch validation errors
        except (struct.error, KeyError, TypeError, ValueError) as exc:
            raise IncompatibleCheckpointError(
                f"{path}: truncated, corrupt or malformed checkpoint "
                f"({type(exc).__name__}: {exc})"
            ) from exc

    def require_kind(self, kind, what):
        if self.kind != kind:
            raise IncompatibleCheckpointError(
                f"{what} requires a {kind} checkpoint, got kind {self.kind!r} "
                f"(lineage: {[e.get('stage') for e in self.lineage]})"
            )
        return self
