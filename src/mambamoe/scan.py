"""Directional sequence construction and the shared linear state-space scan.

A spatial expert reads its (E, h, w) feature map as h*w tokens in one of
four frozen visit orders, pushes them through the recurrence

    h_t = lam ⊙ h_{t-1} + B_bar f_t,    y_t = C_out h_t,    h_0 = 0,

and puts the outputs back on the grid, all in one tape op
(``spatial_expert_forward``).  A spatial expert adds no skip term: every
expert of a block reads the same map, so the block adds it once
(``moe.sre_forward``).  The four orders are two strided layouts of the
map, each read forwards or backwards: row-major is a reshape, and
column-major with the columns taken right to left is a column flip plus a
transpose.  The state transition is diagonal, as in S4D and Mamba: state
d decays by lam_d = exp(-exp(a_log_d)), which lies in [0, 1] for every
a_log, so a scan of bounded inputs stays bounded however long it runs.  A
scan over T tokens of width E with D states costs T (2D + 4DE) FLOPs.

Spectral experts apply the same map along the band axis with scalar
tokens (E = 1), sharing one parameter set across the scene; each
direction adds its own skip term f_t.  With scalar tokens the recurrence
is a causal convolution with kernel k_j = sum_d c_d b_d lam_d^j, one
Vandermonde product, so the two spectral directions together are one
(T, T) Toeplitz matrix applied to all pixels in one product; they never
run the recurrence step by step.

One in-place kernel, ``_linear_scan``, carries every pass of a spatial
expert through time: the states in the forward pass and the adjoint (the
same scan over the reversed stack) in the backward pass.  It runs the
T = h*w steps as h chunks of w steps in every direction, so the four
experts' stacks share one layout; T = h*w needs no padding, and the
chunks are a view of the stack, not a copy.  A scan
takes about h + w Python-level steps (2 sqrt(T) on a square map); a map
of one row or one column takes about T, and only scenes under 16 pixels
on a side pool to such a map.  Everything outside the recurrence is one
product over all steps.  Each expert also scales its outputs by its
router gate.  For its backward pass a spatial expert keeps its input map,
which the tape keeps anyway, and the (h*w, D) states; the tokens are
copied from the map again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tensor import ShapeError, Tensor, custom_op


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


def _visit(x: np.ndarray, direction: ScanDirection) -> np.ndarray:
    """View of an (E, h, w) map as (rows, cols, E) in ``direction``'s visit
    order: row-major for TL_BR, columns right to left for TR_BL, and both
    read backwards for BR_TL and BL_TR."""
    v = x.transpose(1, 2, 0) if direction.orientation == "horizontal" else x[:, :, ::-1].transpose(2, 1, 0)
    return v[::-1, ::-1] if direction in (ScanDirection.BR_TL, ScanDirection.BL_TR) else v


def _tokens(x: np.ndarray, direction: ScanDirection) -> np.ndarray:
    """The (E, h, w) map as (h*w, E) tokens in visit order: a new
    contiguous array, which the caller may write."""
    e, h, w = x.shape
    return np.array(_visit(x, direction), order="C").reshape(h * w, e)


def _grid(seq: np.ndarray, direction: ScanDirection, h: int, w: int) -> np.ndarray:
    """Inverse of ``_tokens``: (h*w, E) tokens back onto an (E, h, w) grid."""
    out = np.empty((seq.shape[1], h, w), dtype=seq.dtype)
    view = _visit(out, direction)
    view[...] = seq.reshape(view.shape)
    return out


@dataclass
class SsmParams:
    """Trainable arrays of one scan expert; no value of a_log can make a
    scan unstable."""

    a_log: Tensor  # (D,) decay parameter: state d decays by exp(-exp(a_log[d])) per step
    b_bar: Tensor  # (D, E) input projection
    c_out: Tensor  # (E, D) output projection

    def __post_init__(self):
        if self.a_log.ndim != 1:
            raise ShapeError(f"SsmParams: a_log must be a (D,) vector, got {self.a_log.shape}")
        d = self.a_log.shape[0]
        if self.b_bar.shape[0] != d or self.c_out.shape[1] != d:
            raise ShapeError(
                f"SsmParams: inconsistent state dim across a_log {self.a_log.shape}, "
                f"b_bar {self.b_bar.shape}, c_out {self.c_out.shape}"
            )
        if self.b_bar.shape[1] != self.c_out.shape[0]:
            raise ShapeError(
                f"SsmParams: token width differs between b_bar {self.b_bar.shape} and c_out {self.c_out.shape}"
            )
        if not self.a_log.dtype == self.b_bar.dtype == self.c_out.dtype:
            raise ShapeError(
                f"SsmParams: dtypes must match, got a_log {self.a_log.dtype}, "
                f"b_bar {self.b_bar.dtype}, c_out {self.c_out.dtype}"
            )

    @property
    def state_dim(self) -> int:
        return self.a_log.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.b_bar.shape[1]

    @property
    def decay(self) -> np.ndarray:
        """Per-state decay lam = exp(-exp(a_log)), in [0, 1]."""
        return np.exp(-np.exp(self.a_log.data))


def _decay_slope(a_log: np.ndarray) -> np.ndarray:
    """d lam / d a_log = -exp(a_log) lam, as one exponential: a huge a_log
    gives 0, not 0 * inf."""
    return -np.exp(a_log - np.exp(a_log))


def _linear_scan(lam: np.ndarray, chunks: np.ndarray) -> None:
    """In place over time: u[t] <- lam * u[t-1] + u[t] for a (D,) decay,
    elementwise, where ``chunks`` is a (K, L, D) view of a (T, D) stack u,
    chunk c holding steps cL .. cL+L-1.  Any split T = K L is exact.

    Two-level chunked scan (in the style of Mamba-2's SSD chunking): step 1
    runs the recurrence inside every chunk at once, and step 2 carries each
    chunk's final state into the next chunk, adding it to every position
    with lam^1..lam^L.  Splitting the time axis needs no copy, so a
    reversed view of a stack works too, and the scan makes no (T, D)
    scratch.
    """
    k, step, d = chunks.shape
    tmp = np.empty((k, d), dtype=chunks.dtype)
    for j in range(1, step):
        np.multiply(chunks[:, j - 1], lam, out=tmp)
        chunks[:, j] += tmp
    # lam^1 .. lam^L, and each chunk, in memory order: numpy then runs over
    # a chunk of a reversed view as one contiguous block
    order = slice(None, None, -1) if chunks.strides[1] < 0 else slice(None)
    powers = lam ** np.arange(1, step + 1, dtype=chunks.dtype)[order, None]
    carry = np.empty((step, d), dtype=chunks.dtype)
    for c in range(1, k):
        np.multiply(chunks[c - 1, -1], powers, out=carry)
        chunks[c, order] += carry


def spatial_expert_forward(params: SsmParams, x: Tensor, direction: ScanDirection, gates: Tensor, i: int) -> Tensor:
    """Run the recurrence over an (E, h, w) map read in ``direction``'s
    visit order, scale the outputs by the gate ``gates[i]``, and put them
    back on the grid; one tape op.

    Only the state recurrence runs through time, in ``_linear_scan``: the
    forward pass scans B_bar f into the states, and the backward pass scans
    the reversed C_out^T g into the adjoint dh with the same decay, where g
    is the output gradient times the gate.  Every other term (B_bar f,
    C_out h, and the gradients of a_log, B_bar, C_out and the map) is
    one product over all steps.  This is the same maths as the step-by-step
    loop; the chunked order of the sums rounds differently, by about 1e-6
    relative in float32.  The gate multiplies the (h*w, E) outputs in
    place, before they go on the grid.

    The op keeps the input map and the states, not the (h*w, E) tokens f:
    the map is a view of the layer norm's output, which the spectral expert
    keeps as well.  The backward pass copies f from it again, with the
    forward's bits, for the gradient of B_bar, and reads the gate's
    gradient sum(G * C_out h) as the dot product of G C_out with the
    states.  Only ``gates[i]`` gets a gradient from this op.
    """
    if x.ndim != 3:
        raise ShapeError(f"spatial_expert_forward: map must be (E,h,w), got {x.shape}")
    if x.shape[0] != params.embed_dim:
        raise ShapeError(f"spatial_expert_forward: token width {x.shape[0]} != params embed dim {params.embed_dim}")
    if x.dtype != params.a_log.dtype or gates.dtype != x.dtype:
        raise ShapeError("spatial_expert_forward: map/parameter/gate dtypes must match")
    if gates.ndim != 1 or not 0 <= i < gates.shape[0]:
        raise ShapeError(f"spatial_expert_forward: gate {i} is not an entry of a gate vector of shape {gates.shape}")
    a_log, b, c = params.a_log, params.b_bar, params.c_out
    lam = params.decay
    e, h, w = x.shape
    d = params.state_dim
    gate = gates.data[i]

    x_map = x.data
    states = _tokens(x_map, direction) @ b.data.T
    _linear_scan(lam, states.reshape(h, w, d))
    out = states @ c.data.T
    out *= gate

    def bwd(g_grid):
        g = _tokens(g_grid, direction)
        d_gates = np.zeros_like(gates.data)
        d_gates[i] = np.vdot(g @ c.data, states)  # sum(G * C_out h), before gating
        g *= gate
        dh = g @ c.data
        _linear_scan(lam, dh[::-1].reshape(h, w, d))
        d_lam = (dh[1:] * states[:-1]).sum(axis=0)
        d_b = dh.T @ _tokens(x_map, direction)
        return d_lam * _decay_slope(a_log.data), d_b, g.T @ states, _grid(dh @ b.data, direction, h, w), d_gates

    # the scan, then one multiply per output for the gate
    n_flops = h * w * (2 * d + 4 * d * e) + e * h * w
    return custom_op("spatial_expert_forward", (a_log, b, c, x, gates), _grid(out, direction, h, w), bwd, flops=n_flops)


def spectral_bidirectional(fwd: SsmParams, bwd: SsmParams, x: Tensor) -> Tensor:
    """Sum of forward and backward band-axis scans, shared across pixels.

    Tokens are per-pixel scalars (E = 1), so parameter count is independent
    of the spatial extent; the forward scan visits bands first-to-last and
    the backward scan last-to-first.  With scalar tokens each scan is a
    causal convolution along the bands with kernel
    k_j = sum_d c_d b_d lam_d^j (the convolution view of S4D), one product
    of the (T, D) Vandermonde matrix V[j, d] = lam_d^j with c * b, and the
    backward scan is the forward one conjugated by band reversal.  Both
    scans together are therefore one (T, T) matrix,
    M = lower-Toeplitz(k_fwd) + upper-Toeplitz(k_bwd), and out = (M + 2 I) f
    is one product over all pixels; nothing runs through ``_linear_scan``.
    The backward pass sums the diagonals of g f^T into dk; then
    dc = b * (dk V), db = c * (dk V) and
    dlam_d = c_d b_d sum_j j dk_j lam_d^(j-1).  Both directions run as one
    stack of two.
    """
    if fwd.embed_dim != 1 or bwd.embed_dim != 1:
        raise ShapeError("spectral_bidirectional: spectral experts use scalar tokens (E = 1)")
    if fwd.state_dim != bwd.state_dim:
        raise ShapeError(f"spectral_bidirectional: state dims {fwd.state_dim} and {bwd.state_dim} differ")
    if x.ndim != 3:
        raise ShapeError(f"spectral_bidirectional: expects (Cs,h,w), got {x.shape}")
    if not x.dtype == fwd.a_log.dtype == bwd.a_log.dtype:
        raise ShapeError("spectral_bidirectional: input/parameter dtypes must match")
    t_len, h, w = x.shape
    f = x.data.reshape(t_len, h * w)
    a_log = np.array([fwd.a_log.data, bwd.a_log.data])  # (2, D) for both directions
    b = np.array([fwd.b_bar.data[:, 0], bwd.b_bar.data[:, 0]])
    c = np.array([fwd.c_out.data[0], bwd.c_out.data[0]])
    exponents = np.arange(t_len, dtype=x.dtype)
    vander = np.array([fwd.decay, bwd.decay])[:, None, :] ** exponents[:, None]  # (2, T, D)
    k = np.matmul(vander, (c * b)[:, :, None])[:, :, 0]  # (2, T): k_fwd, k_bwd
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
        dk_v = np.matmul(dk[:, None, :], vander)[:, 0]  # (2, D): sum_j dk_j lam_d^j
        dk_dv = np.matmul((dk[:, 1:] * exponents[1:])[:, None, :], vander[:, :-1])[:, 0]  # sum_j j dk_j lam_d^(j-1)
        da = c * b * dk_dv * _decay_slope(a_log)
        db, dc = c * dk_v, b * dk_v
        dx = m.T @ g2
        return da[0], db[0, :, None], dc[0, None], da[1], db[1, :, None], dc[1, None], dx.reshape(t_len, h, w)

    d = fwd.state_dim
    return custom_op(
        "spectral_bidirectional",
        (fwd.a_log, fwd.b_bar, fwd.c_out, bwd.a_log, bwd.b_bar, bwd.c_out, x),
        out.reshape(t_len, h, w),
        backward,
        flops=2 * t_len * h * w * (6 * d + 1) + t_len * h * w,
    )
