"""The OCTOSNAP on-disk snapshot format: save/load a built system.

A snapshot serializes everything needed to reconstruct a built
:class:`~repro.core.Octopus` **without re-running dataset ingestion**: the
packed CSR/CSC graph arrays, the per-edge topic probability matrix, the
topic model (vocabulary, ``p(w|z)``, prior, smoothing), the user keyword
profiles, the topic/node names, and the full :class:`OctopusConfig`
(including the seed).  Restore rebuilds the constructor inputs from the raw
bytes and re-runs ``Octopus.__init__`` — index construction is deterministic
in those inputs plus the seed, so a snapshot-booted system answers with
byte-identical ``deterministic_form()`` output, while skipping the expensive
parse/generate/learn pipeline that produced the inputs in the first place.

Deliberately **not** serialized: the built index state (sketches, RR-set
pools, tries).  The influencer index materializes sketches lazily and
mutates as queries arrive; persisting a moving target would tie the format
to internal layouts and make the byte-identity bar unverifiable.  Rebuilding
from constructor inputs keeps the format stable across index refactors and
still removes the dominant cold-start cost (ingestion) — benchmark E21
tracks the ratio.

Layout (all integers little-endian)::

    offset 0   magic           8 bytes  b"OCTOSNAP"
    offset 8   format version  u32
    offset 12  header length   u32      (JSON byte count)
    offset 16  header sha256   32 bytes
    offset 48  header JSON     canonical (sorted keys, compact separators)
    ...        zero padding to the next 64-byte boundary
    ...        array payloads, each starting on a 64-byte boundary

The header carries every non-array field plus one descriptor per array
(name, dtype, shape, byte offset, byte count, sha256).  Readers verify the
magic, the version, the header digest, and every array digest **before**
constructing anything — a corrupted or truncated file produces a structured
:class:`SnapshotIntegrityError` / :class:`SnapshotFormatError`, never a
partially loaded system.  Version checks are exact: the format is young
enough that cross-version reads are refused outright
(:class:`SnapshotVersionError`) rather than risking a silent semantic skew.

Writes are atomic (temp file + ``os.replace`` in the destination
directory), so a crash mid-save cannot leave a half-written snapshot at the
target path.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import BinaryIO, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotIntegrityError",
    "SnapshotVersionError",
    "load_snapshot",
    "read_snapshot_header",
    "save_snapshot",
]

MAGIC = b"OCTOSNAP"
FORMAT_VERSION = 1

#: Array payloads start on this alignment (a cache line).
_ALIGN = 64

_HEADER_DIGEST_BYTES = 32
_PREAMBLE_BYTES = len(MAGIC) + 4 + 4 + _HEADER_DIGEST_BYTES


class SnapshotError(Exception):
    """Base class for snapshot save/load failures."""


class SnapshotFormatError(SnapshotError):
    """The file is not a snapshot (bad magic, truncation, malformed header)."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an incompatible format version."""


class SnapshotIntegrityError(SnapshotError):
    """A checksum does not match: the snapshot is corrupted."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _canonical_json(header: Dict[str, object]) -> bytes:
    return json.dumps(
        header, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def _collect_arrays(octopus) -> List[Tuple[str, np.ndarray]]:
    """The raw array payloads, in fixed declaration order."""
    graph = octopus.graph
    model = octopus.topic_model
    return [
        ("out_offsets", np.ascontiguousarray(graph.out_offsets, dtype=np.int64)),
        ("out_targets", np.ascontiguousarray(graph.out_targets, dtype=np.int64)),
        ("in_offsets", np.ascontiguousarray(graph.in_offsets, dtype=np.int64)),
        ("in_sources", np.ascontiguousarray(graph.in_sources, dtype=np.int64)),
        ("in_edge_ids", np.ascontiguousarray(graph.in_edge_ids, dtype=np.int64)),
        (
            "edge_weights",
            np.ascontiguousarray(octopus.edge_weights.weights, dtype=np.float64),
        ),
        (
            "word_given_topic",
            np.ascontiguousarray(model.word_given_topic, dtype=np.float64),
        ),
        ("topic_prior", np.ascontiguousarray(model.topic_prior, dtype=np.float64)),
    ]


def _config_dict(config) -> Dict[str, object]:
    """The config as a JSON-clean dict; rejects non-serializable seeds."""
    from dataclasses import asdict

    payload = asdict(config)
    seed = payload.get("seed")
    if seed is not None and not isinstance(seed, (int, np.integer)):
        raise SnapshotError(
            "only int or None seeds can be snapshotted; the config carries "
            f"a {type(config.seed).__name__} — rebuild with an integer seed"
        )
    if seed is not None:
        payload["seed"] = int(seed)
    return payload


def save_snapshot(octopus, path: str, *, source: Optional[str] = None) -> Dict[str, object]:
    """Write *octopus* to *path* in OCTOSNAP format; returns the header.

    The write is atomic: the bytes land in a temp file next to *path* and
    are moved into place with ``os.replace`` only once fully flushed.
    *source* is a free-form provenance string (e.g. the dataset directory)
    recorded in the header for ``octopus stats``-style introspection.
    """
    arrays = _collect_arrays(octopus)
    descriptors: List[Dict[str, object]] = []
    # Lay out payload offsets relative to the payload base (start of the
    # first array); the absolute base depends on the header length, which
    # depends on the descriptors, so relative offsets keep it one pass.
    cursor = 0
    for name, array in arrays:
        cursor = _align(cursor)
        descriptors.append(
            {
                "name": name,
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "offset": cursor,
                "nbytes": int(array.nbytes),
                "sha256": hashlib.sha256(array.tobytes()).hexdigest(),
            }
        )
        cursor += int(array.nbytes)

    header: Dict[str, object] = {
        "format": "octopus-snapshot",
        "version": FORMAT_VERSION,
        "config": _config_dict(octopus.config),
        "topic_names": list(octopus.topic_names),
        "labels": octopus.graph.labels,
        "vocabulary": {
            "words": octopus.topic_model.vocabulary.words(),
            "counts": octopus.topic_model.vocabulary.counts(),
        },
        "user_keywords": {
            str(user): [int(word) for word in words]
            for user, words in octopus.user_keywords.items()
        },
        "smoothing": float(octopus.topic_model.smoothing),
        "num_nodes": int(octopus.graph.num_nodes),
        "num_edges": int(octopus.graph.num_edges),
        "source": source,
        "arrays": descriptors,
    }
    header_bytes = _canonical_json(header)

    directory = os.path.dirname(os.path.abspath(path)) or "."
    descriptor, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(MAGIC)
            handle.write(FORMAT_VERSION.to_bytes(4, "little"))
            handle.write(len(header_bytes).to_bytes(4, "little"))
            handle.write(hashlib.sha256(header_bytes).digest())
            handle.write(header_bytes)
            base = _align(_PREAMBLE_BYTES + len(header_bytes))
            handle.write(b"\0" * (base - _PREAMBLE_BYTES - len(header_bytes)))
            cursor = 0
            for (name, array), info in zip(arrays, descriptors):
                padded = _align(cursor)
                handle.write(b"\0" * (padded - cursor))
                handle.write(array.tobytes())
                cursor = padded + int(array.nbytes)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return header


def _read_exact(handle: BinaryIO, count: int, what: str) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise SnapshotFormatError(
            f"truncated snapshot: expected {count} bytes of {what}, "
            f"got {len(data)}"
        )
    return data


def read_snapshot_header(path: str) -> Dict[str, object]:
    """Parse and verify the header of the snapshot at *path*.

    Verifies magic, version, and the header checksum — but not the array
    payloads — so it is cheap enough for CLI introspection of large files.
    """
    header, _ = _read_header(path)
    return header


def _read_header(path: str) -> Tuple[Dict[str, object], int]:
    """``(header, header_byte_length)`` — the length fixes the payload base."""
    with open(path, "rb") as handle:
        magic = _read_exact(handle, len(MAGIC), "magic")
        if magic != MAGIC:
            raise SnapshotFormatError(
                f"{path!r} is not an OCTOSNAP snapshot (bad magic {magic!r})"
            )
        version = int.from_bytes(_read_exact(handle, 4, "version"), "little")
        if version != FORMAT_VERSION:
            raise SnapshotVersionError(
                f"snapshot format version {version} is not supported "
                f"(this build reads version {FORMAT_VERSION}); re-create the "
                "snapshot with `octopus snapshot`"
            )
        header_length = int.from_bytes(
            _read_exact(handle, 4, "header length"), "little"
        )
        digest = _read_exact(handle, _HEADER_DIGEST_BYTES, "header digest")
        header_bytes = _read_exact(handle, header_length, "header")
        if hashlib.sha256(header_bytes).digest() != digest:
            raise SnapshotIntegrityError(
                "snapshot header checksum mismatch: the file is corrupted"
            )
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SnapshotFormatError(
                f"snapshot header is not valid JSON: {error}"
            ) from None
    if not isinstance(header, dict) or header.get("format") != "octopus-snapshot":
        raise SnapshotFormatError("snapshot header has an unexpected structure")
    return header, header_length


def _read_arrays(
    path: str, header: Dict[str, object], header_length: int
) -> Dict[str, np.ndarray]:
    """Read and digest-verify every array payload described by *header*."""
    base = _align(_PREAMBLE_BYTES + header_length)
    arrays: Dict[str, np.ndarray] = {}
    with open(path, "rb") as handle:
        for info in header["arrays"]:
            handle.seek(base + int(info["offset"]))
            payload = _read_exact(
                handle, int(info["nbytes"]), f"array {info['name']!r}"
            )
            if hashlib.sha256(payload).hexdigest() != info["sha256"]:
                raise SnapshotIntegrityError(
                    f"array {info['name']!r} checksum mismatch: the "
                    "snapshot is corrupted"
                )
            array = np.frombuffer(payload, dtype=np.dtype(info["dtype"]))
            arrays[info["name"]] = array.reshape(tuple(info["shape"]))
    return arrays


#: ``OctopusConfig`` fields retired without a format bump, mapped to the one
#: value an older snapshot may still carry for them: the retired default,
#: which is what every build does now, so the key is dropped on load.
_RETIRED_CONFIG_FIELDS = {
    "sketch_expansion": "frontier",
    "bound_estimator": "precomputation",
    "precomputation_grid": 4,
    "local_radius": 2,
    "oracle": "mc",
    "oracle_rr_sets": 2000,
    "rr_kernel": "vectorized",
    "oracle_samples": 100,
}


def _restore_config(payload: Dict[str, object]):
    """The :class:`OctopusConfig` a snapshot header describes.

    Anything this build cannot honour — an unknown field, a retired field
    that would have changed answers (``rr_kernel="native"``), or a value a
    field no longer accepts — is a structured
    :class:`SnapshotVersionError`, never a ``TypeError`` from the
    dataclass constructor or a silently different system.
    """
    from dataclasses import fields

    from repro.core import OctopusConfig
    from repro.utils.validation import ValidationError

    retired_defaults = _RETIRED_CONFIG_FIELDS.items()
    config = {
        key: value
        for key, value in payload.items()
        if (key, value) not in retired_defaults
    }
    known = {field.name for field in fields(OctopusConfig)}
    unknown = sorted(set(config) - known)
    try:
        if unknown:
            named = ", ".join(f"{key}={config[key]!r}" for key in unknown)
            raise ValidationError(f"unknown or retired fields: {named}")
        return OctopusConfig(**config)
    except ValidationError as error:
        raise SnapshotVersionError(
            f"snapshot config is not supported by this build ({error}); "
            "re-create the snapshot with `octopus snapshot`"
        ) from None


def load_snapshot(path: str, *, config_overrides: Optional[Dict[str, object]] = None):
    """Reconstruct the :class:`~repro.core.Octopus` stored at *path*.

    Every checksum is verified before any object is constructed, so a
    corrupted file raises a structured :class:`SnapshotError` subclass and
    never yields a partially loaded system.  *config_overrides* replaces
    individual :class:`OctopusConfig` fields (e.g. ``execution_backend``
    for a differently provisioned serving host); fields that shape the
    built indexes — notably ``seed`` — should be left alone when
    byte-identity with the snapshotted system matters.
    """
    from dataclasses import replace

    from repro.core import Octopus
    from repro.graph.digraph import SocialGraph
    from repro.topics.edges import TopicEdgeWeights
    from repro.topics.model import TopicModel
    from repro.topics.vocabulary import Vocabulary

    header, header_length = _read_header(path)
    arrays = _read_arrays(path, header, header_length)
    missing = [
        name
        for name in (
            "out_offsets",
            "out_targets",
            "in_offsets",
            "in_sources",
            "in_edge_ids",
            "edge_weights",
            "word_given_topic",
            "topic_prior",
        )
        if name not in arrays
    ]
    if missing:
        raise SnapshotFormatError(f"snapshot is missing arrays {missing}")

    labels = header.get("labels")
    graph = SocialGraph(
        arrays["out_offsets"],
        arrays["out_targets"],
        arrays["in_offsets"],
        arrays["in_sources"],
        arrays["in_edge_ids"],
        labels=list(labels) if labels is not None else None,
    )
    vocabulary = Vocabulary()
    vocabulary_spec = header["vocabulary"]
    for word, count in zip(vocabulary_spec["words"], vocabulary_spec["counts"]):
        vocabulary.add(word, count)
    vocabulary.freeze()
    topic_model = TopicModel(
        vocabulary,
        arrays["word_given_topic"],
        topic_prior=arrays["topic_prior"],
        smoothing=float(header["smoothing"]),
    )
    edge_weights = TopicEdgeWeights(graph, arrays["edge_weights"])
    user_keywords = {
        int(user): list(words)
        for user, words in header["user_keywords"].items()
    }
    config = _restore_config(header["config"])
    if config_overrides:
        config = replace(config, **config_overrides)
    return Octopus(
        graph,
        topic_model,
        edge_weights,
        user_keywords,
        topic_names=header["topic_names"],
        config=config,
    )
