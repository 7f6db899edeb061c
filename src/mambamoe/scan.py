"""Directional sequence construction and the shared linear state-space scan.

Spatial feature maps are flattened along one of four frozen scan orders,
pushed through the recurrence

    h_t = A_bar h_{t-1} + B_bar f_t,    y_t = C_out h_t + f_t,    h_0 = 0,

and folded back onto the grid.  Spectral experts apply the same map along
the band axis with scalar tokens (E = 1), sharing one parameter set across
the scene.  With scalar tokens the recurrence is a causal convolution with
kernel k_j = C_out A_bar^j B_bar, so the two spectral directions together
are one (T, T) Toeplitz matrix applied to all pixels in one product; they
never run the recurrence step by step.

One in-place kernel, ``_linear_scan``, carries every pass of the spatial
``ssm_recurrence`` through time: the states in the forward pass and the
adjoint (the reversed scan with A_bar^T) in the backward pass.  It cuts the
h*w tokens into chunks of about sqrt(T) steps, so a scan takes about
2 sqrt(T) Python-level steps.  Everything outside the recurrence is one
product over all steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .tensor import ShapeError, Tensor, custom_op, parameter


class ScanDirection(Enum):
    """Frozen scan orders.

    TL_BR sweeps row-major (left-to-right along each row, rows top-down);
    TR_BL sweeps column-major (top-to-bottom along each column, columns
    right-to-left).  BR_TL and BL_TR are their exact sequence reversals.
    The row-major pair therefore traverses the grid horizontally and the
    column-major pair vertically, which is what lets stripe-like structure
    excite one pair more than the other.
    """

    TL_BR = "tl_br"
    BR_TL = "br_tl"
    TR_BL = "tr_bl"
    BL_TR = "bl_tr"

    @property
    def orientation(self) -> str:
        if self in (ScanDirection.TL_BR, ScanDirection.BR_TL):
            return "horizontal"
        return "vertical"


SPATIAL_DIRECTIONS = tuple(ScanDirection)


@lru_cache(maxsize=None)
def scan_order(direction: ScanDirection, h: int, w: int) -> np.ndarray:
    """Flat row-major grid indices in visit order; a bijection on h*w."""
    if direction is ScanDirection.TL_BR:
        return np.arange(h * w, dtype=np.int64)
    if direction is ScanDirection.BR_TL:
        return np.arange(h * w, dtype=np.int64)[::-1].copy()
    if direction is ScanDirection.TR_BL:
        cols = np.arange(w - 1, -1, -1, dtype=np.int64)
        return (np.arange(h, dtype=np.int64)[None, :] * w + cols[:, None]).reshape(-1)
    return scan_order(ScanDirection.TR_BL, h, w)[::-1].copy()


def flatten_spatial(x: Tensor, direction: ScanDirection) -> Tensor:
    """Reorder a (E,h,w) map into a (h*w, E) token sequence."""
    if x.ndim != 3:
        raise ShapeError(f"flatten_spatial: expects (E,h,w), got {x.shape}")
    e, h, w = x.shape
    order = scan_order(direction, h, w)
    out = np.ascontiguousarray(x.data.reshape(e, h * w)[:, order].T)

    def bwd(g):
        dflat = np.empty((e, h * w), dtype=g.dtype)
        dflat[:, order] = g.T
        return (dflat.reshape(e, h, w),)

    return custom_op("flatten_spatial", (x,), out, bwd)


def unflatten_spatial(seq: Tensor, direction: ScanDirection, h: int, w: int) -> Tensor:
    """Exact inverse of flatten_spatial."""
    if seq.ndim != 2 or seq.shape[0] != h * w:
        raise ShapeError(f"unflatten_spatial: sequence {seq.shape} does not cover a {h}x{w} grid")
    t, e = seq.shape
    order = scan_order(direction, h, w)
    flat = np.empty((e, h * w), dtype=seq.data.dtype)
    flat[:, order] = seq.data.T

    def bwd(g):
        return (np.ascontiguousarray(g.reshape(e, h * w)[:, order].T),)

    return custom_op("unflatten_spatial", (seq,), flat.reshape(e, h, w), bwd)


@dataclass
class SsmParams:
    """Trainable matrices of one scan expert."""

    a_bar: Tensor  # (D, D) state transition
    b_bar: Tensor  # (D, E) input projection
    c_out: Tensor  # (E, D) output projection

    def __post_init__(self):
        d = self.a_bar.shape[0]
        if self.a_bar.shape != (d, d):
            raise ShapeError(f"SsmParams: a_bar must be square, got {self.a_bar.shape}")
        if self.b_bar.shape[0] != d or self.c_out.shape[1] != d:
            raise ShapeError(
                f"SsmParams: inconsistent state dim across a_bar {self.a_bar.shape}, "
                f"b_bar {self.b_bar.shape}, c_out {self.c_out.shape}"
            )
        if self.b_bar.shape[1] != self.c_out.shape[0]:
            raise ShapeError(
                f"SsmParams: token width differs between b_bar {self.b_bar.shape} and c_out {self.c_out.shape}"
            )
        if not self.a_bar.dtype == self.b_bar.dtype == self.c_out.dtype:
            raise ShapeError(
                f"SsmParams: dtypes must match, got a_bar {self.a_bar.dtype}, "
                f"b_bar {self.b_bar.dtype}, c_out {self.c_out.dtype}"
            )

    @property
    def state_dim(self) -> int:
        return self.a_bar.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.b_bar.shape[1]

    def named(self, prefix: str):
        return [(f"{prefix}.a_bar", self.a_bar), (f"{prefix}.b_bar", self.b_bar), (f"{prefix}.c_out", self.c_out)]


def init_ssm_params(state_dim: int, embed_dim: int, rng: np.random.Generator, dtype=np.float32) -> SsmParams:
    """A_bar = 0.9 I + N(0, 0.01^2); B_bar, C_out ~ N(0, (1/sqrt(D))^2).

    Keeps the spectral radius of A_bar below 1 at initialization so long
    scans stay stable.
    """
    a = 0.9 * np.eye(state_dim) + rng.normal(0.0, 0.01, (state_dim, state_dim))
    b = rng.normal(0.0, 1.0 / np.sqrt(state_dim), (state_dim, embed_dim))
    c = rng.normal(0.0, 1.0 / np.sqrt(state_dim), (embed_dim, state_dim))
    return SsmParams(parameter(a, dtype=dtype), parameter(b, dtype=dtype), parameter(c, dtype=dtype))


def spectral_radius_estimate(a_bar: Tensor | np.ndarray, iters: int = 100, seed: int = 0) -> float:
    """Power-iteration estimate of the spectral radius (diagnostic only)."""
    a = np.asarray(a_bar.data if isinstance(a_bar, Tensor) else a_bar, dtype=np.float64)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=a.shape[0])
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(iters):
        av = a @ v
        norm = np.linalg.norm(av)
        if norm == 0.0:
            return 0.0
        rho = norm
        v = av / norm
    return float(rho)


def _chunk_length(t_len: int) -> int:
    """Steps per chunk of ``_linear_scan``: ceil(sqrt(T)), so a scan takes
    about 2 sqrt(T) Python-level steps instead of T."""
    return math.isqrt(t_len - 1) + 1


def _powers(m: np.ndarray, count: int) -> np.ndarray:
    """(count, D, D) stack of m^1 .. m^count, by doubling."""
    p = np.empty((count,) + m.shape, dtype=m.dtype)
    p[0] = m
    have = 1
    while have < count:
        take = min(have, count - have)
        np.matmul(p[:take], p[have - 1], out=p[have : have + take])
        have += take
    return p


def _linear_scan(a: np.ndarray, u: np.ndarray) -> None:
    """In place over time: u[t] <- a @ u[t-1] + u[t] for a (T, D) stack.

    Two-level chunked scan (in the style of Mamba-2's SSD chunking): with
    tokens as rows, step 1 runs the recurrence inside every chunk at once,
    step 2 carries the chunk-final states across chunk boundaries with
    A^L, and step 3 adds the carried-in state to every position of each
    chunk with the powers A^1..A^(L-1) in one batched product.
    """
    t_len, d = u.shape
    step = _chunk_length(t_len)
    k = -(-t_len // step)
    rows = np.zeros((k * step, d), dtype=u.dtype)
    rows[:t_len] = u
    # w[j, c] is step j of chunk c; w[j] is one (K, D) block of rows
    w = np.ascontiguousarray(rows.reshape(k, step, d).transpose(1, 0, 2))
    at = a.T
    tmp = np.empty((k, d), dtype=u.dtype)
    for j in range(1, step):
        np.matmul(w[j - 1], at, out=tmp)
        w[j] += tmp
    powers = _powers(at, step)
    ends = w[step - 1]
    for c in range(1, k):
        ends[c] += ends[c - 1] @ powers[-1]
    w[: step - 1, 1:] += np.matmul(ends[:-1], powers[:-1])
    u[...] = w.transpose(1, 0, 2).reshape(k * step, d)[:t_len]


def ssm_recurrence(params: SsmParams, seq: Tensor) -> Tensor:
    """Run the linear recurrence over a (T, E) token sequence.

    Only the state recurrence runs through time, in ``_linear_scan``: the
    forward pass scans B_bar f into the states, and the backward pass scans
    the reversed C_out^T g with A_bar^T into the adjoint dh.  Every other
    term (B_bar f, C_out h + f, and the gradients of A_bar, B_bar, C_out and
    the sequence) is one product over all steps.  This is the same maths as
    the step-by-step loop; the chunked order of the sums rounds differently,
    by about 1e-6 relative in float32.
    """
    if seq.ndim != 2:
        raise ShapeError(f"ssm_recurrence: sequence must be (T,E), got {seq.shape}")
    if seq.shape[1] != params.embed_dim:
        raise ShapeError(f"ssm_recurrence: token width {seq.shape[1]} != params embed dim {params.embed_dim}")
    if seq.dtype != params.a_bar.dtype:
        raise ShapeError("ssm_recurrence: sequence/parameter dtypes must match")
    a, b, c = params.a_bar, params.b_bar, params.c_out
    f = seq.data
    t_len, e = f.shape
    d = params.state_dim

    states = f @ b.data.T
    _linear_scan(a.data, states)
    out = states @ c.data.T
    out += f

    def bwd(g):
        dh = g @ c.data
        _linear_scan(a.data.T, dh[::-1])
        df = dh @ b.data
        df += g
        return dh[1:].T @ states[:-1], dh.T @ f, g.T @ states, df

    n_flops = t_len * (2 * d * d + d + 4 * d * e + e)
    return custom_op("ssm_recurrence", (a, b, c, seq), out, bwd, flops=n_flops)


def spatial_expert_forward(params: SsmParams, x: Tensor, direction: ScanDirection) -> Tensor:
    """Flatten along the expert's scan order, run the SSM, fold back."""
    if x.ndim != 3 or x.shape[0] != params.embed_dim:
        raise ShapeError(f"spatial_expert_forward: input {x.shape} incompatible with token width {params.embed_dim}")
    _, h, w = x.shape
    seq = flatten_spatial(x, direction)
    return unflatten_spatial(ssm_recurrence(params, seq), direction, h, w)


def spectral_bidirectional(fwd: SsmParams, bwd: SsmParams, x: Tensor) -> Tensor:
    """Sum of forward and backward band-axis scans, shared across pixels.

    Tokens are per-pixel scalars (E = 1), so parameter count is independent
    of the spatial extent; the forward scan visits bands first-to-last and
    the backward scan last-to-first.  With scalar tokens each scan is a
    causal convolution along the bands with kernel k_j = C A^j B (the
    convolution view of S4), and the backward scan is the forward one
    conjugated by band reversal.  Both scans together are therefore one
    (T, T) matrix, M = lower-Toeplitz(k_fwd) + upper-Toeplitz(k_bwd), and
    out = (M + 2 I) f is one product over all pixels; nothing runs through
    ``_linear_scan``.  The backward pass sums the diagonals of g f^T into
    dk; with v_j = A^j B and w_j = (C A^j)^T, dC = sum_j dk_j v_j^T,
    dB = sum_j dk_j w_j and dA = W^T H V with the Hankel matrix
    H[i, m] = dk_{i+m+1}.  Both directions run as one stack of two.
    """
    if fwd.embed_dim != 1 or bwd.embed_dim != 1:
        raise ShapeError("spectral_bidirectional: spectral experts use scalar tokens (E = 1)")
    if fwd.state_dim != bwd.state_dim:
        raise ShapeError(f"spectral_bidirectional: state dims {fwd.state_dim} and {bwd.state_dim} differ")
    if x.ndim != 3:
        raise ShapeError(f"spectral_bidirectional: expects (Cs,h,w), got {x.shape}")
    if not x.dtype == fwd.a_bar.dtype == bwd.a_bar.dtype:
        raise ShapeError("spectral_bidirectional: input/parameter dtypes must match")
    t_len, h, w = x.shape
    f = x.data.reshape(t_len, h * w)
    # rows v_j = A^j B of both directions, then rows w_j = (C A^j)^T, by
    # doubling: rows m..2m-1 are rows 0..m-1 times the m-th power
    a = np.array([fwd.a_bar.data, bwd.a_bar.data])
    power = np.concatenate([a.transpose(0, 2, 1), a])  # (4, D, D)
    rows = np.empty((4, t_len, fwd.state_dim), dtype=x.dtype)
    rows[:, 0] = [fwd.b_bar.data[:, 0], bwd.b_bar.data[:, 0], fwd.c_out.data[0], bwd.c_out.data[0]]
    have = 1
    while have < t_len:
        take = min(have, t_len - have)
        np.matmul(rows[:, :take], power, out=rows[:, have : have + take])
        have += take
        if have < t_len:
            power = power @ power
    v, wr = rows[:2], rows[2:]
    k = np.matmul(v, wr[:, 0, :, None])[:, :, 0]  # (2, T): k_fwd, k_bwd
    # (M + 2 I)[t, s] = q[t - s + T - 1], q = (k_bwd[T-1], .., k_bwd[1], k_fwd[0] + k_bwd[0] + 2, k_fwd[1], ..)
    steps = np.arange(t_len)
    diagonal = np.subtract.outer(steps, steps) + (t_len - 1)
    q = np.concatenate([k[1, :0:-1], k[0]])
    q[t_len - 1] += k[1, 0] + 2
    m = q[diagonal]
    out = m @ f

    def backward(g):
        g2 = g.reshape(t_len, h * w)
        dq = np.bincount(diagonal.ravel(), weights=(g2 @ f.T).ravel()).astype(x.dtype)
        dk = np.array([dq[t_len - 1 :], dq[t_len - 1 :: -1]])  # (2, T)
        hankel = np.concatenate([dk[:, 1:], np.zeros_like(dk)], axis=1)[:, np.add.outer(steps, steps)]
        da = wr.transpose(0, 2, 1) @ hankel @ v
        db = np.matmul(dk[:, None, :], wr)  # (2, 1, D)
        dc = np.matmul(dk[:, None, :], v)
        dx = m.T @ g2
        return da[0], db[0].T, dc[0], da[1], db[1].T, dc[1], dx.reshape(t_len, h, w)

    d = fwd.state_dim
    return custom_op(
        "spectral_bidirectional",
        (fwd.a_bar, fwd.b_bar, fwd.c_out, bwd.a_bar, bwd.b_bar, bwd.c_out, x),
        out.reshape(t_len, h, w),
        backward,
        flops=2 * t_len * h * w * (2 * d * d + 5 * d + 1) + t_len * h * w,
    )
