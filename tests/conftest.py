"""Fixtures shared by several test modules."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from mambamoe.network import CHECKPOINT_MAGIC


def write_old_checkpoint(path, version, spec, entries):
    """An f4 checkpoint container of an older ``version``: its meta line,
    the manifest of ``entries`` ((name, array) pairs) and their payloads."""
    meta = {"version": version, **asdict(spec)}
    lines = [json.dumps(meta, sort_keys=True), str(len(entries))]
    lines += [f"{name} f4 {','.join(str(s) for s in a.shape)}" for name, a in entries]
    payload = b"".join(a.astype("<f4").tobytes() for _, a in entries)
    path.write_bytes(CHECKPOINT_MAGIC + "\n".join(lines).encode("ascii") + b"\n" + payload)


@pytest.fixture
def bundled_scene_sha256():
    """The sha256 of the bundled scene's .hsc file (``default_synthetic_spec()``,
    seed 11): the generator and the writer together must keep every byte."""
    return "20f5cdd12561e4330895944f30322a6d8b0ad5f4cac0fe28e1ec28c5807b5398"


@pytest.fixture
def write_v1_checkpoint():
    """Writer of the version-1 checkpoint layout: the same container, with a
    dense (D, D) ``a_bar`` in place of each ``a_log`` (here diag(lam))."""

    def write(path, params):
        entries = [
            (name[: -len("a_log")] + "a_bar", np.diag(np.exp(-np.exp(t.data)))) if name.endswith(".a_log") else (name, t.data)
            for name, t in params.named_params()
        ]
        write_old_checkpoint(path, 1, params.spec, entries)

    return write


@pytest.fixture
def write_v2_checkpoint():
    """Writer of the version-2 checkpoint layout: the same container, with a
    (C, bands, 3, 3) ``stem.conv1.w`` (here the 1x1 kernel at its centre tap)."""

    def write(path, params):
        entries = [
            (name, np.pad(t.data, ((0, 0), (0, 0), (1, 1), (1, 1))) if name == "stem.conv1.w" else t.data)
            for name, t in params.named_params()
        ]
        write_old_checkpoint(path, 2, params.spec, entries)

    return write
