"""Deterministic, platform-stable hashing used to seed the simulation.

Python's builtin ``hash`` is salted per process, so every random decision in
the simulated models flows through :func:`stable_hash` instead.  The whole
reproduction must be a pure function of its configuration; this module is the
root of that guarantee.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any

_MASK_64 = (1 << 64) - 1


def _encode(part: Any) -> bytes:
    """Encode one hashable part into a canonical byte string.

    The byte layout is frozen: every simulated decision in the repo derives
    from these hashes, so changing the encoding changes every output.  The
    exact-type checks up front are hot-path shortcuts only — they produce
    the same bytes as the ``isinstance`` chain below (``type(True) is int``
    is False, so bools never take the int fast path).
    """
    kind = type(part)
    if kind is int:
        return b"i%d" % part
    if kind is str:
        return b"s" + part.encode("utf-8")
    if kind is tuple or kind is list:
        return b"t(" + b"".join([_encode(p) + b"," for p in part]) + b")"
    if isinstance(part, bytes):
        return b"b" + part
    if isinstance(part, bool):
        # bool must be checked before int: True would otherwise encode as 1.
        return b"o" + (b"1" if part else b"0")
    if isinstance(part, int):
        return b"i" + str(part).encode("ascii")
    if isinstance(part, float):
        return b"f" + struct.pack("<d", part)
    if isinstance(part, str):
        return b"s" + part.encode("utf-8")
    if isinstance(part, (tuple, list)):
        inner = b"".join(_encode(p) + b"," for p in part)
        return b"t(" + inner + b")"
    if part is None:
        return b"n"
    raise TypeError(f"stable_hash cannot encode {type(part).__name__}: {part!r}")


def stable_hash(*parts: Any) -> int:
    """Hash ``parts`` into a 64-bit integer, stable across processes.

    Accepts ints, floats, strings, bytes, bools, ``None`` and (nested)
    tuples/lists of those.
    """
    payload = b"|".join([_encode(p) for p in parts])
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little") & _MASK_64


def hash_prefix(*parts: Any) -> bytes:
    """Precompute the payload prefix of ``stable_hash(*parts, ...)``.

    Hot loops that hash a fixed scope plus a varying tail (e.g. a seed, a
    tag string, then a position) can encode the fixed scope once and finish
    each hash with :func:`stable_hash_ints`.
    """
    return b"|".join([_encode(p) for p in parts])


def stable_hash_ints(prefix: bytes, *parts: int) -> int:
    """``stable_hash(*prefix_parts, *parts)`` given the encoded prefix of
    one or more parts and one or more ``int`` parts.

    Bit-identical to calling :func:`stable_hash` with the full argument
    list: the payload bytes are assembled identically.  The emission hot
    path finishes tens of thousands of hashes per corpus decode with one to
    three integer parts (position, perturb level, context digest);
    formatting the tail directly skips the generic per-part encode/join
    machinery.  Callers must pass real ints — a bool would encode
    differently under :func:`_encode`.
    """
    count = len(parts)
    if count == 1:
        payload = prefix + b"|i%d" % parts
    elif count == 3:
        payload = prefix + b"|i%d|i%d|i%d" % parts
    else:
        payload = prefix + b"|" + b"|".join([b"i%d" % (p,) for p in parts])
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little") & _MASK_64


def stable_uniform(*parts: Any) -> float:
    """Map ``parts`` to a deterministic float in ``[0, 1)``."""
    return stable_hash(*parts) / float(1 << 64)
