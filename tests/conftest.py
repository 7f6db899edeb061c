"""Fixtures shared by several test modules."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from mambamoe.network import CHECKPOINT_MAGIC


@pytest.fixture
def write_v1_checkpoint():
    """Writer of the version-1 checkpoint layout: the same container, with a
    dense (D, D) ``a_bar`` in place of each ``a_log`` (here diag(lam))."""

    def write(path, params):
        entries = [
            (name[: -len("a_log")] + "a_bar", np.diag(np.exp(-np.exp(t.data)))) if name.endswith(".a_log") else (name, t.data)
            for name, t in params.named_params()
        ]
        meta = {"version": 1, **asdict(params.spec)}
        lines = [json.dumps(meta, sort_keys=True), str(len(entries))]
        lines += [f"{name} f4 {','.join(str(s) for s in a.shape)}" for name, a in entries]
        payload = b"".join(a.astype("<f4").tobytes() for _, a in entries)
        path.write_bytes(CHECKPOINT_MAGIC + "\n".join(lines).encode("ascii") + b"\n" + payload)

    return write
