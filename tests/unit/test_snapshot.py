"""OCTOSNAP format tests: roundtrip identity, corruption, versioning.

The contract under test (see :mod:`repro.snapshot.format`):

- a snapshot-booted system answers the same queries with **byte-identical**
  ``deterministic_form`` output as the freshly built system it was saved
  from;
- every failure mode — bad magic, unsupported version, truncation, a
  flipped bit anywhere in header or payload — raises a structured
  :class:`SnapshotError` subclass and never yields a partially loaded
  system.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.octopus import Octopus, OctopusConfig
from repro.service import (
    CompleteRequest,
    FindInfluencersRequest,
    OctopusService,
    SuggestKeywordsRequest,
)
from repro.service.responses import deterministic_form
from repro.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotVersionError,
    load_snapshot,
    read_snapshot_header,
    save_snapshot,
)

CONFIG = OctopusConfig(
    num_sketches=40,
    num_topic_samples=3,
    topic_sample_rr_sets=150,
    oracle_samples=15,
    seed=29,
)

#: A small query mix covering keyword routing, RR-set sampling, and the
#: completion trie — enough surface to catch a mis-restored array.
WORKLOAD = (
    CompleteRequest(prefix="da"),
    FindInfluencersRequest(keywords="data mining", k=3),
    SuggestKeywordsRequest(user=0, k=2),
)


@pytest.fixture(scope="module")
def system(citation_dataset):
    return Octopus.from_dataset(citation_dataset, config=CONFIG)


@pytest.fixture(scope="module")
def snapshot_path(system, tmp_path_factory):
    path = tmp_path_factory.mktemp("octosnap") / "system.octosnap"
    save_snapshot(system, str(path), source="unit-test dataset")
    return str(path)


def _golden_bytes(octopus):
    service = OctopusService(octopus)
    return [deterministic_form(service.execute(request)) for request in WORKLOAD]


def _corrupt(path, tmp_path, mutate):
    """Copy *path* into *tmp_path*, apply *mutate* to its bytes, return it."""
    data = bytearray(open(path, "rb").read())
    mutate(data)
    target = tmp_path / "corrupted.octosnap"
    target.write_bytes(bytes(data))
    return str(target)


def _rewrite_header(path, tmp_path, mutate):
    """Copy *path* with *mutate* applied to its header dict.

    The header checksum is recomputed and the payload base re-aligned for
    the new header length, so the file is structurally sound and only the
    header's meaning changed.
    """
    import hashlib

    from repro.snapshot.format import _align, _canonical_json

    raw = open(path, "rb").read()
    preamble = len(MAGIC) + 4 + 4 + 32
    header_length = int.from_bytes(raw[len(MAGIC) + 4: len(MAGIC) + 8], "little")
    header = json.loads(raw[preamble: preamble + header_length])
    mutate(header)
    new_header = _canonical_json(header)
    old_base = _align(preamble + header_length)
    new_base = _align(preamble + len(new_header))
    target = tmp_path / "rewritten.octosnap"
    target.write_bytes(
        MAGIC
        + FORMAT_VERSION.to_bytes(4, "little")
        + len(new_header).to_bytes(4, "little")
        + hashlib.sha256(new_header).digest()
        + new_header
        + b"\0" * (new_base - preamble - len(new_header))
        + raw[old_base:]
    )
    return str(target)


class TestRoundtrip:
    def test_loaded_system_is_byte_identical(self, system, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        assert _golden_bytes(loaded) == _golden_bytes(system)

    @pytest.mark.parametrize(
        "key, default",
        [
            ("sketch_expansion", "frontier"),
            ("bound_estimator", "precomputation"),
            ("precomputation_grid", 4),
            ("local_radius", 2),
            ("oracle", "mc"),
            ("oracle_rr_sets", 2000),
        ],
    )
    def test_retired_key_still_loads(
        self, system, snapshot_path, tmp_path, key, default
    ):
        """Snapshots written before a config field was retired embed its
        default; they describe exactly the system this build builds."""
        older = _rewrite_header(
            snapshot_path,
            tmp_path,
            lambda header: header["config"].update({key: default}),
        )
        loaded = load_snapshot(older)
        assert loaded.config == system.config
        assert _golden_bytes(loaded) == _golden_bytes(system)

    def test_structure_survives(self, system, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        assert loaded.graph.num_nodes == system.graph.num_nodes
        assert loaded.graph.num_edges == system.graph.num_edges
        assert loaded.graph.labels == system.graph.labels
        assert loaded.topic_names == system.topic_names
        assert loaded.config == system.config
        assert loaded.user_keywords == system.user_keywords

    def test_header_introspection(self, snapshot_path):
        header = read_snapshot_header(snapshot_path)
        assert header["format"] == "octopus-snapshot"
        assert header["version"] == FORMAT_VERSION
        assert header["source"] == "unit-test dataset"
        assert header["config"]["seed"] == 29
        names = {info["name"] for info in header["arrays"]}
        assert "edge_weights" in names and "out_offsets" in names

    def test_config_overrides_apply(self, snapshot_path):
        loaded = load_snapshot(
            snapshot_path, config_overrides={"execution_backend": "serial"}
        )
        assert loaded.config.execution_backend == "serial"
        assert loaded.config.seed == 29  # untouched fields survive

    def test_atomic_write_leaves_no_temp_files(self, system, tmp_path):
        path = tmp_path / "fresh.octosnap"
        save_snapshot(system, str(path))
        assert sorted(os.listdir(tmp_path)) == ["fresh.octosnap"]


class TestRejection:
    def test_bad_magic_is_format_error(self, snapshot_path, tmp_path):
        bad = _corrupt(snapshot_path, tmp_path, lambda d: d.__setitem__(0, 0x58))
        with pytest.raises(SnapshotFormatError, match="bad magic"):
            load_snapshot(bad)

    def test_unsupported_version_is_version_error(self, snapshot_path, tmp_path):
        def bump(data):
            data[len(MAGIC)] = FORMAT_VERSION + 1

        bad = _corrupt(snapshot_path, tmp_path, bump)
        with pytest.raises(SnapshotVersionError, match="not supported"):
            load_snapshot(bad)

    def test_flipped_header_byte_is_integrity_error(self, snapshot_path, tmp_path):
        # One bit inside the JSON header (past magic+version+length+digest).
        preamble = len(MAGIC) + 4 + 4 + 32
        bad = _corrupt(
            snapshot_path,
            tmp_path,
            lambda d: d.__setitem__(preamble + 5, d[preamble + 5] ^ 0x01),
        )
        with pytest.raises(SnapshotIntegrityError, match="header checksum"):
            load_snapshot(bad)

    def test_flipped_payload_byte_is_integrity_error(self, snapshot_path, tmp_path):
        # Flip the last byte of the file — inside the final array payload.
        bad = _corrupt(
            snapshot_path, tmp_path, lambda d: d.__setitem__(-1, d[-1] ^ 0x01)
        )
        with pytest.raises(SnapshotIntegrityError, match="checksum mismatch"):
            load_snapshot(bad)

    def test_truncated_file_is_format_error(self, snapshot_path, tmp_path):
        data = open(snapshot_path, "rb").read()
        target = tmp_path / "truncated.octosnap"
        target.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_snapshot(str(target))

    def test_empty_file_is_format_error(self, tmp_path):
        target = tmp_path / "empty.octosnap"
        target.write_bytes(b"")
        with pytest.raises(SnapshotFormatError):
            load_snapshot(str(target))

    def test_not_a_snapshot_at_all(self, tmp_path):
        target = tmp_path / "noise.octosnap"
        target.write_bytes(b"this is not a snapshot, just some text padding")
        with pytest.raises(SnapshotFormatError, match="bad magic"):
            load_snapshot(target.as_posix())

    def test_missing_array_is_format_error(self, snapshot_path, tmp_path):
        # One array descriptor dropped but a valid header checksum:
        # structurally sound, semantically incomplete.
        def drop_edge_weights(header):
            header["arrays"] = [
                info for info in header["arrays"] if info["name"] != "edge_weights"
            ]

        target = _rewrite_header(snapshot_path, tmp_path, drop_edge_weights)
        with pytest.raises(SnapshotFormatError, match="missing arrays"):
            load_snapshot(target)

    @pytest.mark.parametrize(
        "key, value, named",
        [
            # retired fields, answer-changing values
            ("sketch_expansion", "node", "sketch_expansion"),
            ("bound_estimator", "local", "bound_estimator"),
            ("oracle", "ris", "oracle"),
            # retired value of a live field
            ("rr_kernel", "legacy", "legacy"),
            # a field this build has never heard of
            ("warp_drive", True, "warp_drive"),
        ],
    )
    def test_unsupported_config_is_version_error(
        self, snapshot_path, tmp_path, key, value, named
    ):
        target = _rewrite_header(
            snapshot_path,
            tmp_path,
            lambda header: header["config"].update({key: value}),
        )
        with pytest.raises(
            SnapshotVersionError, match=f"{named}.*re-create the snapshot"
        ):
            load_snapshot(target)


class TestSaveGuards:
    def test_generator_seed_is_rejected(self, citation_dataset, tmp_path):
        import numpy as np

        config = OctopusConfig(
            num_sketches=40,
            num_topic_samples=3,
            topic_sample_rr_sets=150,
            oracle_samples=15,
            seed=29,
        )
        system = Octopus.from_dataset(citation_dataset, config=config)
        # A live Generator cannot be serialized reproducibly.
        object.__setattr__(system.config, "seed", np.random.default_rng(1))
        with pytest.raises(SnapshotError, match="integer seed"):
            save_snapshot(system, str(tmp_path / "bad.octosnap"))
