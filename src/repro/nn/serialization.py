"""The one byte format: versioned, sealed payloads.

Everything the program persists or ships between processes goes
through this codec: trainer and annealer checkpoints, the run store's
results and checkpoints, the thermal-table cache and the policy
weights the distributed collector broadcasts to its workers.

* :func:`save_payload` / :func:`load_payload` — a payload to/from a
  file (atomic write).
* :func:`dumps_payload` / :func:`loads_payload` — the same bytes,
  round-tripped through ``bytes`` instead of a file.

A payload is an arbitrarily nested dict whose leaves may be numpy
arrays, JSON scalars (int/float/bool/str/None — including the
arbitrary-precision integers inside ``bit_generator.state``), or any
picklable object (reward breakdowns, placements).  Arrays land natively
in an ``.npz`` archive; everything else is described by a JSON
``__meta__`` tree, so floats and big ints round-trip **bitwise**
(Python's JSON float repr is shortest-exact, and its ints are
unbounded).  The tree also records the schema version
(``CHECKPOINT_SCHEMA_VERSION``) and a ``kind`` tag, and
:func:`loads_payload` refuses a payload of another version or kind.

**Member layout.**  A payload archive is a plain ``.npz`` (one
``.npy`` member per slot) whose compression is chosen per member from
the payload's own schema: numeric arrays — weights, Adam moments, RNG
state — are written **stored** (``ZIP_STORED``), because trained
float32 weights barely deflate (a ``multi_gpu`` grid-32 policy payload:
8.46 MB stored, 7.83 MB deflated) and deflating takes 0.41 s against
0.01 s; the members holding pickled objects (episodes, placements,
breakdowns) and the JSON ``__meta__`` tree are **deflated**
(``ZIP_DEFLATED``), because pickled episodes shrink about 45x.
``np.load`` reads stored and deflated members alike.

Every payload (bytes or file) is sealed with a SHA-256 **integrity
footer**, and bytes without a valid footer never decode: truncated,
bit-flipped or unsealed payloads fail loudly as
:class:`PayloadIntegrityError` — an ``OSError`` subclass, so the retry
policy classifies corruption-in-transit as transient (re-broadcast /
re-read) while the store's corrupt-quarantine path still catches it as
a :class:`CheckpointSchemaError`.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import zipfile
from pathlib import Path

import numpy as np

from repro.parallel.cache import atomic_replace

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointSchemaError",
    "PayloadIntegrityError",
    "save_payload",
    "load_payload",
    "dumps_payload",
    "loads_payload",
]

#: Bump on any incompatible change to the payload layout or to what the
#: trainer/annealer pack into their checkpoints.  Old files then fail
#: loudly (``CheckpointSchemaError``) instead of resuming wrong.
#: v2: trainer checkpoints gained the distributed-collection state
#: (``collect_jobs`` and the explicit ``best_episode`` selection index).
#: v3: payloads carry a SHA-256 integrity footer, so corruption fails
#: as ``PayloadIntegrityError`` instead of a confusing unpickle error.
CHECKPOINT_SCHEMA_VERSION = 3

_META_KEY = "__meta__"
_FORMAT = "repro-checkpoint"

#: Trailing integrity footer: 8-byte magic + SHA-256 of everything
#: before it.  Appended *outside* the npz archive so verification needs
#: no zip parsing — a truncated file fails before np.load ever runs.
_FOOTER_MAGIC = b"RPRSHA2\x00"
_DIGEST_BYTES = 32
_FOOTER_BYTES = len(_FOOTER_MAGIC) + _DIGEST_BYTES

class CheckpointSchemaError(RuntimeError):
    """The checkpoint's schema version or kind does not match."""


class PayloadIntegrityError(CheckpointSchemaError, OSError):
    """The payload bytes fail their SHA-256 integrity footer.

    Deliberately double-classified: as a :class:`CheckpointSchemaError`
    the run store quarantines a corrupted artifact to ``*.corrupt``
    like any other schema failure, and as an ``OSError`` the fault
    layer (:data:`repro.parallel.faults.TRANSIENT_EXCEPTIONS`)
    classifies corruption-in-transit as *transient* — a re-broadcast or
    re-read of the same source bytes is expected to succeed.
    """


def _seal(data: bytes) -> bytes:
    """Append the integrity footer to serialized payload bytes."""
    return data + _FOOTER_MAGIC + hashlib.sha256(data).digest()


def _unseal(data: bytes, source: str) -> bytes:
    """Verify and strip the integrity footer; raise on any mismatch."""
    body, footer = data[:-_FOOTER_BYTES], data[-_FOOTER_BYTES:]
    if (
        len(data) < _FOOTER_BYTES
        or footer[: len(_FOOTER_MAGIC)] != _FOOTER_MAGIC
        or hashlib.sha256(body).digest() != footer[len(_FOOTER_MAGIC) :]
    ):
        raise PayloadIntegrityError(
            f"{source}: payload bytes fail their SHA-256 integrity "
            "footer — the archive was truncated or corrupted in transit "
            "or on disk"
        )
    return body


# ----------------------------------------------------------------------
# versioned nested payloads
# ----------------------------------------------------------------------

_JSON_SCALARS = (bool, int, float, str, type(None))


def _encode(value, arrays: dict, pickled: set):
    """Encode ``value`` into a JSON-able tree, hoisting arrays out.

    Slots holding pickled objects are also added to ``pickled``: they
    are the archive members worth deflating.
    """
    if isinstance(value, np.ndarray):
        slot = f"a{len(arrays)}"
        arrays[slot] = value
        return {"t": "array", "slot": slot}
    if isinstance(value, np.generic):  # numpy scalar: keep dtype exactly
        slot = f"a{len(arrays)}"
        arrays[slot] = np.asarray(value)
        return {"t": "scalar", "slot": slot}
    if isinstance(value, _JSON_SCALARS):
        return {"t": "json", "v": value}
    if isinstance(value, dict):
        items = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"payload dict keys must be str, got {type(key).__name__}"
                )
            items[key] = _encode(item, arrays, pickled)
        return {"t": "dict", "items": items}
    if isinstance(value, (list, tuple)):
        return {
            "t": "tuple" if isinstance(value, tuple) else "list",
            "items": [_encode(item, arrays, pickled) for item in value],
        }
    # Anything else (placements, breakdowns, ...) rides along pickled.
    slot = f"a{len(arrays)}"
    arrays[slot] = np.frombuffer(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
    )
    pickled.add(slot)
    return {"t": "pickle", "slot": slot}


def _decode(node, arrays: dict):
    kind = node["t"]
    if kind == "array":
        # A copy, not the loaded array itself: np.load hands back a
        # Fortran-ordered member as a transposed view, and the copy is
        # C-ordered whatever layout the array was written in.
        return arrays[node["slot"]].copy()
    if kind == "scalar":
        return arrays[node["slot"]][()]
    if kind == "json":
        return node["v"]
    if kind == "dict":
        return {key: _decode(item, arrays) for key, item in node["items"].items()}
    if kind == "list":
        return [_decode(item, arrays) for item in node["items"]]
    if kind == "tuple":
        return tuple(_decode(item, arrays) for item in node["items"])
    if kind == "pickle":
        return pickle.loads(arrays[node["slot"]].tobytes())
    raise CheckpointSchemaError(f"unknown payload node type {kind!r}")


def _pack(payload: dict, kind: str) -> tuple:
    """Encode a payload into the flat ``{slot: array}`` npz mapping.

    Returns ``(arrays, deflated)``: ``deflated`` names the slots that
    hold serialized objects (pickles and the ``__meta__`` JSON), the
    only members :func:`_write_npz` compresses.
    """
    arrays: dict = {}
    pickled: set = set()
    tree = _encode(payload, arrays, pickled)
    meta = {
        "format": _FORMAT,
        "version": CHECKPOINT_SCHEMA_VERSION,
        "kind": kind,
        "tree": tree,
    }
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    return arrays, pickled | {_META_KEY}


def _write_npz(buffer, arrays: dict, deflated: set) -> None:
    """``np.savez`` with a per-member choice of compression.

    Members named in ``deflated`` are ``ZIP_DEFLATED``, all others
    ``ZIP_STORED``.  Each member is the same ``.npy`` record (same
    default timestamp) that ``np.savez`` writes, so ``np.load`` reads
    the archive like any other.
    """
    with zipfile.ZipFile(buffer, mode="w", allowZip64=True) as archive:
        for slot, array in arrays.items():
            member = zipfile.ZipInfo(f"{slot}.npy")
            member.compress_type = (
                zipfile.ZIP_DEFLATED if slot in deflated else zipfile.ZIP_STORED
            )
            with archive.open(member, mode="w", force_zip64=True) as out:
                np.lib.format.write_array(out, np.asanyarray(array))


def _unpack(arrays: dict, kind: str | None, source: str) -> dict:
    """Decode a ``{slot: array}`` mapping back into the payload."""
    if _META_KEY not in arrays:
        raise CheckpointSchemaError(
            f"{source}: archive has no {_META_KEY!r} schema marker"
        )
    meta = json.loads(arrays.pop(_META_KEY).tobytes().decode("utf-8"))
    if meta.get("format") != _FORMAT:
        raise CheckpointSchemaError(
            f"{source}: unrecognized checkpoint format {meta.get('format')!r}"
        )
    version = meta.get("version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointSchemaError(
            f"{source}: checkpoint schema version {version} != supported "
            f"{CHECKPOINT_SCHEMA_VERSION}; regenerate the checkpoint "
            "(there is no in-place upgrade path)"
        )
    if kind is not None and meta.get("kind") != kind:
        raise CheckpointSchemaError(
            f"{source}: checkpoint kind {meta.get('kind')!r} != expected "
            f"{kind!r}"
        )
    return _decode(meta["tree"], arrays)


def save_payload(payload: dict, path, kind: str) -> None:
    """Write a nested checkpoint payload to ``path`` (.npz).

    ``kind`` names what the payload is (``"rlplanner-trainer"``,
    ``"sa-engine"``, ...); :func:`load_payload` refuses to hand a
    payload of one kind to a consumer expecting another.

    The write is atomic (temp file + ``os.replace``): checkpoints are
    typically overwritten in place, and a kill mid-write must corrupt
    the *new* file, never the last good one.  The written bytes are
    exactly :func:`dumps_payload`'s (integrity footer included), so the
    two forms are interchangeable byte-for-byte.
    """
    data = dumps_payload(payload, kind)
    path = Path(path)
    if not path.suffix:
        path = path.with_suffix(".npz")  # historical np.savez convention
    with atomic_replace(path) as tmp:
        tmp.write_bytes(data)


def load_payload(path, kind: str | None = None) -> dict:
    """Read a payload written by :func:`save_payload`.

    Raises
    ------
    PayloadIntegrityError
        The file fails its integrity footer (corrupted, truncated or
        never sealed).
    CheckpointSchemaError
        Schema version or ``kind`` mismatch.
    """
    path = Path(path)
    return loads_payload(path.read_bytes(), kind, source=str(path))


def dumps_payload(payload: dict, kind: str) -> bytes:
    """Serialize a payload to ``bytes`` (same schema as the ``.npz``).

    Used where the payload crosses a process boundary instead of a
    filesystem: the collector broadcasts policy weights to its workers
    as one opaque byte string per epoch.  Numeric arrays are stored
    uncompressed and only pickled members are deflated (see the module
    docstring), so encoding a policy costs about what copying its bytes
    does.  The bytes end in a SHA-256 integrity footer so corruption in
    transit fails loudly (and transiently) at :func:`loads_payload`.
    """
    buffer = io.BytesIO()
    _write_npz(buffer, *_pack(payload, kind))
    return _seal(buffer.getvalue())


def loads_payload(
    data: bytes, kind: str | None = None, *, source: str = "<payload bytes>"
) -> dict:
    """Decode a payload produced by :func:`dumps_payload`.

    Verifies the integrity footer first; sealed bytes that then fail to
    parse at all raise :class:`PayloadIntegrityError` rather than a raw
    zip error.
    """
    body = _unseal(data, source)
    try:
        with np.load(io.BytesIO(body)) as npz:
            # Each access reads a fresh, writable array out of the zip.
            arrays = {key: npz[key] for key in npz.files}
    except Exception as error:
        raise PayloadIntegrityError(
            f"{source}: payload bytes are not a readable archive "
            f"({error!r}) — truncated or corrupted"
        ) from error
    return _unpack(arrays, kind, source)
