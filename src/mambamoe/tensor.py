"""Dense tensors on a recorded operation tape with reverse-mode gradients.

Arithmetic is strict: elementwise operands must have identical shapes and
dtypes, and there is no broadcasting.  Every forward operation checks its
output for NaN/Inf and raises ``NumericalError`` rather than letting bad
values propagate.

Training runs in float32; gradient checking requires float64 (central
finite differences are unreliable in single precision).

The tape keeps what the backward pass reads, and no more.  Each recorded
op holds its backward closure and one route per input: the parameter
tensor itself, the node key of the op that made the input, or None for a
constant.  A node key is the tape's serial number and the op's index, so
the tape holds no activation tensor: an activation lives only while a
closure reads it (``relu`` its output, which the conv2d it feeds keeps as
well, ``conv2d`` and ``layer_norm`` their input, ``conv_relu_pool`` its
input and its ReLU mask packed to one bit per pixel) or while the caller
keeps it.
Closures that need only a shape keep the shape.  During the replay each
op drops its closure and routes once it has run, so the arrays it read
are freed as soon as nothing else holds them.  A tensor made on another
tape enters as a constant.  A backward rule may build a temporary map:
``conv_relu_pool``'s builds its conv's full-resolution output gradient
once, and no measured training peak lies there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

CE_POSITION_FLOPS = 2  # bookkeeping per supervised pixel beyond the 4K softmax terms
CONV_BLOCK_PIXELS = 2048  # outputs per block of a 3x3 conv: its accumulator stays in cache


class ShapeError(ValueError):
    """Operand shapes (or dtypes) violate an operation's contract."""


class NumericalError(ArithmeticError):
    """A forward operation produced NaN or Inf."""


class TapeError(RuntimeError):
    """Invalid tape use: non-scalar loss or a second replay."""


class NonDeterministicError(RuntimeError):
    """Two forward passes of a supposedly deterministic map disagreed."""


class FlopCounter:
    """Process-wide runtime FLOP meter; enabled explicitly, cheap when off."""

    def __init__(self):
        self.enabled = False
        self.total = 0

    def reset(self) -> None:
        self.total = 0

    def __enter__(self) -> "FlopCounter":
        self.reset()
        self.enabled = True
        return self

    def __exit__(self, *exc) -> None:
        self.enabled = False


FLOPS = FlopCounter()


class Tensor:
    """A contiguous real array with an optional gradient buffer.

    Tensors are immutable after creation except for gradient accumulation;
    the training loop mutates parameter ``data`` in place only between
    tapes (an optimizer step invalidates any tape built before it).
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._node: tuple[int, int] | None = None  # (tape serial, op index) of the op that made it

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def parameter(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


# --- tape ------------------------------------------------------------------

_TAPES: list["Tape"] = []  # the innermost open tape is last
_TAPE_SERIALS = itertools.count()


@dataclass
class TapeOp:
    """One recorded operation: input routes, output node key, backward rule.

    ``routes`` holds, per input, the parameter tensor, the node key of the
    op that made the input, or None for a constant.  ``backward`` maps the
    output gradient to one gradient array (or None) per input, in input
    order.  The replay empties both once the op has run.
    """

    name: str
    routes: tuple
    out: tuple[int, int]
    backward: Callable[[np.ndarray], Sequence] | None


class Tape:
    """Ordered record of operations; append order is topological by
    construction, so a single reverse sweep propagates all gradients."""

    def __init__(self):
        self.ops: list[TapeOp] = []
        self.serial = next(_TAPE_SERIALS)
        self._replayed = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPES.pop()

    def backward(self, loss: Tensor) -> None:
        backward(self, loss)


def active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _route(t: Tensor, tape: Tape):
    """Where the replay of ``tape`` sends t's gradient: t itself for a
    parameter, the key of the op that made t on this tape, or None."""
    if t.requires_grad:
        return t
    if t._node is not None and t._node[0] == tape.serial:
        return t._node
    return None


def _wrap(name: str, inputs: tuple, out_data: np.ndarray, backward_fn, flops: int = 0) -> Tensor:
    """Finite-check, count, wrap and (if needed) record an op result."""
    if not np.all(np.isfinite(out_data)):
        raise NumericalError(f"{name}: non-finite values in output")
    if FLOPS.enabled:
        FLOPS.total += int(flops)
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None:
        routes = tuple(_route(t, tape) for t in inputs)
        if any(r is not None for r in routes):
            out._node = (tape.serial, len(tape.ops))
            tape.ops.append(TapeOp(name, routes, out._node, backward_fn))
    return out


def custom_op(name: str, inputs: Sequence[Tensor], out_data: np.ndarray, backward_fn, flops: int = 0) -> Tensor:
    """Record a fused operation with a hand-written backward rule.

    Exposed so other modules can add primitives (e.g. the state-space scan)
    without touching the tape internals.  ``backward_fn`` must not write to
    the gradient it is given: the replay may hand the same array to several
    inputs.
    """
    return _wrap(name, tuple(inputs), out_data, backward_fn, flops)


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(param) into every reachable parameter's grad.

    Visits each recorded op exactly once, in reverse order, and empties it
    after it has run.  Gradients of intermediate nodes are never written in
    place: a node's first gradient is stored as given, and later ones are
    summed into a new array.  Parameters not reachable from the loss keep
    whatever is in their grad buffer (zeros after ``zero_grad``/creation).
    A tape can be replayed only once; an optimizer step mutates parameter
    data, which would silently invalidate a second replay.
    """
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    if tape._replayed:
        raise TapeError("tape already replayed; build a fresh tape for the next step")
    tape._replayed = True
    grads: dict[tuple[int, int], np.ndarray] = {}
    root = _route(loss, tape)
    if isinstance(root, Tensor):
        root.grad += np.ones_like(loss.data)
    elif root is not None:
        grads[root] = np.ones_like(loss.data)
    for op in reversed(tape.ops):
        g = grads.pop(op.out, None)
        rule, routes = op.backward, op.routes
        op.backward, op.routes = None, ()
        if g is not None:
            _deliver(grads, routes, rule(g))


def _deliver(grads: dict, routes: tuple, in_grads: Sequence) -> None:
    """Add each input gradient to its parameter or to its node's entry.
    A function of its own, so that no local outlives the op that ran."""
    for route, ig in zip(routes, in_grads):
        if ig is None or route is None:
            continue
        if isinstance(route, Tensor):
            route.grad += ig
        elif route in grads:
            grads[route] = grads[route] + ig
        else:
            grads[route] = ig


# --- shape/dtype checks ----------------------------------------------------


def _check_same_shape(name: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} must match exactly")
    if a.dtype != b.dtype:
        raise ShapeError(f"{name}: dtypes {a.dtype} and {b.dtype} must match")


def _scalar(x: Tensor, value: float):
    return x.data.dtype.type(value)


# --- elementwise and linear primitives --------------------------------------


def add(x: Tensor, y: Tensor) -> Tensor:
    _check_same_shape("add", x, y)
    return _wrap("add", (x, y), x.data + y.data, lambda g: (g, g), flops=x.size)


def mul(x: Tensor, y: Tensor) -> Tensor:
    _check_same_shape("mul", x, y)
    return _wrap("mul", (x, y), x.data * y.data, lambda g: (g * y.data, g * x.data), flops=x.size)


def scale(x: Tensor, s: float) -> Tensor:
    sv = _scalar(x, s)
    return _wrap("scale", (x,), x.data * sv, lambda g: (g * sv,), flops=x.size)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, x.data.dtype.type(0))  # -0.0 maps to +0.0
    # backward reads out > 0 from out itself, which the next op (a conv2d,
    # wherever the network applies relu) keeps anyway
    return _wrap("relu", (x,), out, lambda g: (g * (out > 0),), flops=x.size)


def sum_all(x: Tensor) -> Tensor:
    shape, dtype = x.shape, x.dtype
    return _wrap("sum_all", (x,), x.data.sum().reshape(()), lambda g: (np.full(shape, g.reshape(()), dtype),), flops=x.size)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat: need at least one tensor")
    first = parts[0]
    for p in parts[1:]:
        if p.ndim != first.ndim or p.dtype != first.dtype:
            raise ShapeError(f"concat: mismatched operand {p.shape}/{p.dtype} vs {first.shape}/{first.dtype}")
        for ax in range(first.ndim):
            if ax != axis and p.shape[ax] != first.shape[ax]:
                raise ShapeError(f"concat: shapes {first.shape} and {p.shape} differ off-axis")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        out = []
        for i in range(len(sizes)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            out.append(np.ascontiguousarray(g[tuple(sl)]))
        return out

    return _wrap("concat", tuple(parts), np.concatenate([p.data for p in parts], axis=axis), bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    shape, dtype = x.shape, x.dtype

    def bwd(g):
        z = np.zeros(shape, dtype)
        z[sl] = g
        return (z,)

    return _wrap("narrow", (x,), np.ascontiguousarray(x.data[sl]), bwd)


def split(x: Tensor, parts: int, axis: int = 0) -> tuple[Tensor, ...]:
    extent = x.shape[axis]
    if parts < 1 or extent % parts != 0:
        raise ShapeError(f"split: axis extent {extent} not divisible into {parts} parts")
    step = extent // parts
    return tuple(narrow(x, axis, i * step, step) for i in range(parts))


# --- spatial primitives ------------------------------------------------------


def _block_rows(h: int, w: int) -> int:
    """Rows per block of a 3x3 conv over an h x w map: about
    CONV_BLOCK_PIXELS padded-row outputs.  The first block is the largest."""
    return min(h, max(1, CONV_BLOCK_PIXELS // (w + 2)))


def _row_blocks(h: int, w: int):
    """(first row, row count) of each block of a 3x3 conv over an h x w map."""
    rows = _block_rows(h, w)
    for r0 in range(0, h, rows):
        yield r0, min(rows, h - r0)


def _window(c: int, h: int, w: int, dtype) -> np.ndarray:
    """A zeroed (C, (n+2)(w+2) + 2) window for the largest block of an h x w
    map: n+2 padded rows at row stride w+2, and two trailing elements so
    that every tap's span fits."""
    return np.zeros((c, (_block_rows(h, w) + 2) * (w + 2) + 2), dtype=dtype)


def _fill_window(win: np.ndarray, src: np.ndarray, r0: int, n: int) -> None:
    """Copy rows r0-1 .. r0+n of the (C, h, w) array src into the window,
    with zero rows where they fall outside the map.  The border columns stay
    zero from the window's allocation."""
    c, h, w = src.shape
    rows = win[:, : (n + 2) * (w + 2)].reshape(c, n + 2, w + 2)
    top = r0 - 1
    lo, hi = max(top, 0), min(r0 + n + 1, h)
    rows[:, : lo - top] = 0
    rows[:, lo - top : hi - top, 1 : w + 1] = src[:, lo:hi]
    rows[:, hi - top :] = 0


def _shifted_block(taps: np.ndarray, win: np.ndarray, n: int, w: int, buf: np.ndarray) -> np.ndarray:
    """Sum of the nine products taps[di, dj] @ the window's span from
    di(w+2)+dj, over a block of n rows; returns the block's outputs as a
    contiguous (C_out, n, w+2) view of ``buf``.

    The products accumulate at row stride w+2, in which position r(w+2)+j
    holds pixel (r, j) and the columns j = w, w+1 are junk: callers crop
    them.
    """
    c_out, row = taps.shape[2], w + 2
    span = n * row
    acc = buf[: c_out * span].reshape(c_out, span)
    tmp = buf[c_out * span : 2 * c_out * span].reshape(c_out, span)
    for di in range(3):
        for dj in range(3):
            off = di * row + dj
            if di or dj:
                np.matmul(taps[di, dj], win[:, off : off + span], out=tmp)
                acc += tmp
            else:
                np.matmul(taps[0, 0], win[:, off : off + span], out=acc)
    return acc.reshape(c_out, n, row)


def _block_buffer(c_out: int, h: int, w: int, dtype) -> np.ndarray:
    """Room for ``_shifted_block``'s sum and product over the largest block."""
    return np.empty(2 * c_out * _block_rows(h, w) * (w + 2), dtype=dtype)


def _taps(weight: np.ndarray) -> np.ndarray:
    """A (C_out, C_in, 3, 3) kernel as contiguous (3, 3, C_out, C_in) taps."""
    return np.ascontiguousarray(weight.transpose(2, 3, 0, 1))


def _conv3_blocks(x: np.ndarray, taps: np.ndarray):
    """The forward pass of a 3x3 conv of the (C_in, h, w) array x, one row
    block at a time: yields (r0, n, acc), where acc is the block's sum of
    the nine tap products without the bias, at row stride w+2 with two junk
    columns (``_shifted_block``), in a buffer that the next block reuses.
    The window and the buffer are freed when the loop ends."""
    c_in, h, w = x.shape
    win, buf = _window(c_in, h, w, x.dtype), _block_buffer(taps.shape[2], h, w, x.dtype)
    for r0, n in _row_blocks(h, w):
        _fill_window(win, x, r0, n)
        yield r0, n, _shifted_block(taps, win, n, w, buf)


def _conv3_backward(x: np.ndarray, taps: np.ndarray, g: np.ndarray, need_dx: bool):
    """dx (or None), dW and db of a 3x3 conv of the (C_in, h, w) array x,
    whose (C_out, h, w) output gradient is g.

    Each block fills one window of x and one of g: dW for a tap gains g
    times that tap's span of x transposed, and the block of dx is the
    shifted sum over g with the flipped, transposed taps.  db is
    ``g.sum(axis=(1, 2))``.
    """
    c_in, h, w = x.shape
    c_out, row, dtype = taps.shape[2], w + 2, x.dtype
    xwin, gwin = _window(c_in, h, w, dtype), _window(c_out, h, w, dtype)
    dtaps = np.empty((3, 3, c_out, c_in), dtype=dtype)
    part = np.empty((c_out, c_in), dtype=dtype)
    dx = None
    if need_dx:
        dx = np.empty((c_in, h, w), dtype=dtype)
        flipped = np.ascontiguousarray(taps[::-1, ::-1].transpose(0, 1, 3, 2))
        buf = _block_buffer(c_in, h, w, dtype)
    for r0, n in _row_blocks(h, w):
        _fill_window(xwin, x, r0, n)
        _fill_window(gwin, g, r0, n)
        g_rows = gwin[:, row + 1 : row + 1 + n * row]  # g at row stride w+2, junk columns zero
        for di in range(3):
            for dj in range(3):
                off = di * row + dj
                span = xwin[:, off : off + n * row].T
                if r0:
                    np.matmul(g_rows, span, out=part)
                    dtaps[di, dj] += part
                else:
                    np.matmul(g_rows, span, out=dtaps[di, dj])
        if need_dx:
            dx[:, r0 : r0 + n] = _shifted_block(flipped, gwin, n, w, buf)[:, :, :w]
    return dx, dtaps.transpose(2, 3, 0, 1), g.sum(axis=(1, 2))


def _conv_shapes(name: str, x: Tensor, weight: Tensor, bias: Tensor) -> tuple[int, int, int]:
    """(C_out, C_in, k) of a conv's operands, after checking their ranks,
    extents and dtypes."""
    if x.ndim != 3 or weight.ndim != 4 or bias.ndim != 1:
        raise ShapeError(f"{name}: bad ranks x{x.shape} w{weight.shape} b{bias.shape}")
    c_out, c_in, k, k2 = weight.shape
    if k != k2 or k not in (1, 3):
        raise ShapeError(f"{name}: kernel must be square with k in {{1,3}}, got {k}x{k2}")
    if x.shape[0] != c_in:
        raise ShapeError(f"{name}: input channels {x.shape[0]} != weight C_in {c_in}")
    if bias.shape[0] != c_out:
        raise ShapeError(f"{name}: bias length {bias.shape[0]} != C_out {c_out}")
    if x.dtype != weight.dtype or x.dtype != bias.dtype:
        raise ShapeError(f"{name}: operand dtypes must match")
    return c_out, c_in, k


def _conv_flops(c_out: int, c_in: int, k: int, h: int, w: int) -> int:
    return h * w * c_out * (2 * c_in * k * k) + h * w * c_out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Same-size 2-D cross-correlation, stride 1, zero padding.

    x: (C_in, h, w); weight: (C_out, C_in, k, k) with k in {1, 3};
    bias: (C_out,).  The padding is (k - 1) // 2.

    A 1x1 kernel is one (C_out, C_in) x (C_in, h*w) product.  A 3x3 kernel
    is nine shifted products (the implicit-GEMM lowering), run over blocks
    of rows (``_row_blocks``) by helpers that ``conv_relu_pool`` shares.
    ``_conv3_blocks`` allocates one zeroed window for the largest block and
    copies each block's rows, with the row above and below, into it at row
    stride w+2 (``_fill_window``); ``_shifted_block`` then sums the nine
    products, each over the window's contiguous span from di(w+2)+dj, into
    a cache-sized buffer that is cropped into the output.  No padded copy
    of the whole map is made, and the closure keeps x.  The backward pass,
    ``_conv3_backward``, fills one window of x and one of g per block, and
    is also ``conv_relu_pool``'s.  dx is computed only for an input that
    requires a gradient or is a node of the open tape; otherwise it is None.
    """
    c_out, c_in, k = _conv_shapes("conv2d", x, weight, bias)
    _, h, w = x.shape
    tape = active_tape()
    need_dx = tape is not None and _route(x, tape) is not None
    if k == 1:
        w2 = weight.data.reshape(c_out, c_in)
        x2 = x.data.reshape(c_in, h * w)
        out = (w2 @ x2).reshape(c_out, h, w)
        out += bias.data[:, None, None]

        def bwd(g):
            g2 = g.reshape(c_out, h * w)
            dx = (w2.T @ g2).reshape(c_in, h, w) if need_dx else None
            return dx, (g2 @ x2.T).reshape(weight.shape), g2.sum(axis=1)

    else:
        taps = _taps(weight.data)
        out = np.empty((c_out, h, w), dtype=x.dtype)
        for r0, n, acc in _conv3_blocks(x.data, taps):
            np.add(acc[:, :, :w], bias.data[:, None, None], out=out[:, r0 : r0 + n])
        del acc  # a view of the block buffer, before the finite check's temporary

        def bwd(g):
            return _conv3_backward(x.data, taps, g, need_dx)

    return _wrap("conv2d", (x, weight, bias), out, bwd, flops=_conv_flops(c_out, c_in, k, h, w))


def conv_relu_pool(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """One stem stage: the 2x2 mean pool of relu(conv2d(x, weight, bias))
    for a 3x3 kernel, bit for bit, without the full-resolution map.

    x: (C_in, h, w) with h, w >= 2; weight: (C_out, C_in, 3, 3); bias:
    (C_out,).  The output is (C_out, h // 2, w // 2): a trailing odd row or
    column is dropped.

    Each row block of the conv (``_conv3_blocks``) gets its bias, is
    checked for non-finite values and goes through ``np.maximum`` while it
    is in cache.  Its rows are then pooled as (x00 + x01) + (x10 + x11),
    scaled by 0.25: the horizontal pair sums of each row first, then the
    sums of row pairs.  A block with an odd row count leaves its last row's
    pair sums in a staging row that pairs with the next block's first row.

    The closure keeps x and the ReLU mask packed to one bit per pixel
    (``np.packbits``).  The backward pass builds the conv's (C_out, h, w)
    output gradient once, from g * 0.25 and the unpacked mask, and hands it
    to conv2d's backward (``_conv3_backward``).  That map is the only
    full-resolution array it adds; no measured training peak lies there.
    """
    c_out, c_in, k = _conv_shapes("conv_relu_pool", x, weight, bias)
    if k != 3:
        raise ShapeError(f"conv_relu_pool: kernel must be 3x3, got {k}x{k}")
    _, h, w = x.shape
    if h < 2 or w < 2:
        raise ShapeError(f"conv_relu_pool: spatial extent must be >= 2, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    dtype = x.dtype
    quarter = dtype.type(0.25)
    tape = active_tape()
    need_dx = tape is not None and _route(x, tape) is not None
    taps = _taps(weight.data)
    out = np.empty((c_out, h2, w2), dtype=dtype)
    # the horizontal pair sums of a block's rows, after a staged row
    cols = np.empty((c_out, _block_rows(h, w) + 1, w2), dtype=dtype)
    staged = 0  # 1 when cols[:, 0] holds an unpaired row's pair sums
    # backward reads only the ReLU mask, made only when a tape may record the op
    mask = np.empty((c_out, h, (w + 7) // 8), dtype=np.uint8) if tape is not None else None
    for r0, n, padded in _conv3_blocks(x.data, taps):
        # bias and ReLU run over whole padded rows, which are contiguous;
        # the junk columns are cropped before they are checked or read
        acc = padded[:, :, :w]
        np.add(padded, bias.data[:, None, None], out=padded)
        if not np.all(np.isfinite(acc)):
            raise NumericalError("conv_relu_pool: non-finite values in the convolution")
        np.maximum(padded, dtype.type(0), out=padded)  # -0.0 maps to +0.0
        if mask is not None:
            mask[:, r0 : r0 + n] = np.packbits(acc > 0, axis=2)
        np.add(acc[:, :, 0 : 2 * w2 : 2], acc[:, :, 1 : 2 * w2 : 2], out=cols[:, staged : staged + n])
        pairs, i0 = (staged + n) // 2, (r0 - staged) // 2
        np.add(cols[:, 0 : 2 * pairs : 2], cols[:, 1 : 2 * pairs : 2], out=out[:, i0 : i0 + pairs])
        staged = (staged + n) % 2
        if staged:
            cols[:, 0] = cols[:, 2 * pairs]
    del padded, acc, cols  # before the finite check's temporary
    out *= quarter

    def bwd(g):
        # the conv's output gradient: g * 0.25 on each window pixel where the
        # ReLU passed, 0 elsewhere and on a dropped odd row or column
        g_conv = np.zeros((c_out, h, w), dtype=dtype)
        wide = np.repeat(g * quarter, 2, axis=2)
        bits = np.unpackbits(mask[:, : 2 * h2], axis=2, count=2 * w2)
        for a in (0, 1):  # the even and the odd rows of each window
            np.multiply(wide, bits[:, a::2], out=g_conv[:, a : 2 * h2 : 2, : 2 * w2])
        del wide, bits  # before the block loop allocates its windows and buffers
        return _conv3_backward(x.data, taps, g_conv, need_dx)

    n_flops = _conv_flops(c_out, c_in, 3, h, w) + c_out * h * w + 4 * c_out * h2 * w2
    return _wrap("conv_relu_pool", (x, weight, bias), out, bwd, flops=n_flops)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the channel axis at each spatial location.

    The closure keeps x and the per-pixel mu and inv_std, not the
    normalized map xhat: the backward pass recomputes xhat with the
    forward's operations, so it has the same bits.  x is usually kept by
    another op as well (a residual add or the next conv).
    """
    if x.ndim != 3:
        raise ShapeError(f"layer_norm: expects (C,h,w), got {x.shape}")
    c = x.shape[0]
    if c == 0:
        raise ShapeError("layer_norm: channel axis is empty")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} must be ({c},)")
    if x.dtype != gamma.dtype or x.dtype != beta.dtype:
        raise ShapeError("layer_norm: operand dtypes must match")
    dt = x.data.dtype.type
    x_map = x.data
    mu = x_map.mean(axis=0)
    inv_std = dt(1.0) / np.sqrt(x_map.var(axis=0) + dt(eps))

    def normalized():
        xhat = x_map - mu
        xhat *= inv_std
        return xhat

    out = normalized()
    out *= gamma.data[:, None, None]
    out += beta.data[:, None, None]

    def bwd(g):
        xhat = normalized()
        dgamma = (g * xhat).sum(axis=(1, 2))
        dbeta = g.sum(axis=(1, 2))
        # dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv_std, in place
        dx = g * gamma.data[:, None, None]
        mean_dxhat, mean_dxhat_xhat = dx.mean(axis=0), (dx * xhat).mean(axis=0)
        dx -= mean_dxhat
        xhat *= mean_dxhat_xhat
        dx -= xhat
        dx *= inv_std
        return dx, dgamma, dbeta

    _, h, w = x.shape
    return _wrap("layer_norm", (x, gamma, beta), out, bwd, flops=h * w * (7 * c + 4))


def _axis_weights(n_src: int, n_dst: int):
    """Half-pixel-center source indices and blend weights for one axis."""
    pos = (np.arange(n_dst, dtype=np.float64) + 0.5) * (n_src / n_dst) - 0.5
    pos = np.clip(pos, 0.0, float(n_src - 1))
    i0 = np.floor(pos).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_src - 1)
    return i0, i1, pos - i0


@lru_cache(maxsize=None)
def _interpolation_matrix(n_src: int, n_dst: int, dtype) -> np.ndarray:
    """(n_dst, n_src) matrix of ``_axis_weights``; cached, read-only."""
    i0, i1, t = _axis_weights(n_src, n_dst)
    r = np.zeros((n_dst, n_src))
    rows = np.arange(n_dst)
    r[rows, i0] = 1.0 - t
    r[rows, i1] += t  # i1 == i0 only where t == 0, at the clamped ends
    r = r.astype(dtype)
    r.flags.writeable = False
    return r


def bilinear_upsample(x: Tensor, target: tuple[int, int]) -> Tensor:
    """Bilinear resize to the target extents (half-pixel centers).

    Separable: out[c] = Ry x[c] Rx^T with one interpolation matrix per axis,
    and the backward pass is dx[c] = Ry^T g[c] Rx.
    """
    if x.ndim != 3:
        raise ShapeError(f"bilinear_upsample: expects (C,h,w), got {x.shape}")
    c, h, w = x.shape
    ht, wt = int(target[0]), int(target[1])
    if ht < h or wt < w:
        raise ShapeError(f"bilinear_upsample: target {ht}x{wt} smaller than source {h}x{w}")
    ry = _interpolation_matrix(h, ht, x.data.dtype)
    rx = _interpolation_matrix(w, wt, x.data.dtype)
    out = np.matmul(ry, (x.data.reshape(c * h, w) @ rx.T).reshape(c, h, wt))

    def bwd(g):
        return (np.matmul(ry.T, (g.reshape(c * ht, wt) @ rx).reshape(c, ht, w)),)

    return _wrap("bilinear_upsample", (x,), out, bwd, flops=7 * c * ht * wt)


def masked_cross_entropy(logits: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-probability of the true class over supervised pixels.

    labels: (h, w) integers with 0 = unlabeled, 1..K = classes.  Supervised
    positions are those with mask nonzero AND label > 0; with no such
    positions the loss is exactly 0.  Positions outside the supervised set
    never influence the value or the gradient.
    """
    labels = np.asarray(labels)
    mask = np.asarray(mask)
    if logits.ndim != 3:
        raise ShapeError(f"masked_cross_entropy: logits must be (K,h,w), got {logits.shape}")
    k = logits.shape[0]
    if labels.shape != logits.shape[1:] or mask.shape != logits.shape[1:]:
        raise ShapeError(
            f"masked_cross_entropy: labels {labels.shape} / mask {mask.shape} must match spatial {logits.shape[1:]}"
        )
    low, high = labels.min(), labels.max()
    if low < 0 or high > k:
        raise ValueError(f"masked_cross_entropy: label id {int(low if low < 0 else high)} outside [0, {k}]")
    pos = (mask != 0) & (labels > 0)
    n = int(pos.sum())
    if n == 0:
        return Tensor(np.zeros((), dtype=logits.data.dtype))
    ll = logits.data[:, pos]  # (K, n)
    m = ll.max(axis=0)
    lse = m + np.log(np.exp(ll - m).sum(axis=0))
    true = labels[pos].astype(np.int64) - 1
    picked = ll[true, np.arange(n)]
    out = ((lse - picked).sum() / logits.data.dtype.type(n)).reshape(())
    shape, dtype = logits.shape, logits.dtype

    def bwd(g):
        p = np.exp(ll - lse)
        p[true, np.arange(n)] -= 1
        dl = np.zeros(shape, dtype)
        dl[:, pos] = p * (g.reshape(()) / n)
        return (dl,)

    return _wrap("masked_cross_entropy", (logits,), out, bwd, flops=n * (4 * k + CE_POSITION_FLOPS))


# --- gradient checking -------------------------------------------------------

FD_STEP = 1e-5  # central-difference step of grad_check


@dataclass
class GradCheckReport:
    """Per-parameter max relative error between analytic and numeric grads."""

    per_param: dict[str, float]
    threshold: float

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.threshold


def grad_check(
    fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    threshold: float = 1e-4,
    names: Sequence[str] | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of a scalar map against central differences.

    ``fn`` must be deterministic: it is run twice up front and any bitwise
    disagreement raises ``NonDeterministicError`` (this rejects blocks with
    live Bernoulli sampling; draw it from a generator seeded anew on every
    call).  Parameters must be float64; each entry is moved by ``FD_STEP``.
    """
    params = list(params)
    if names is None:
        names = [f"param{i}" for i in range(len(params))]
    for p in params:
        if p.dtype != np.float64:
            raise ValueError("grad_check requires float64 parameters (32-bit differences are unreliable)")
        if not p.requires_grad:
            raise ValueError("grad_check parameters must have requires_grad=True")

    probe_a = fn().data.copy()
    probe_b = fn().data.copy()
    if probe_a.tobytes() != probe_b.tobytes():
        raise NonDeterministicError("two forward passes disagree; sampling must be seeded anew on every call")

    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = fn()
        backward(tape, loss)
    analytic = [p.grad.copy() for p in params]

    per_param: dict[str, float] = {}
    for name, p, a in zip(names, params, analytic):
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            f_plus = fn().item()
            flat[i] = orig - FD_STEP
            f_minus = fn().item()
            flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
        num = numeric.reshape(p.shape)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(num)), 1e-3)
        per_param[name] = float((np.abs(a - num) / denom).max()) if p.size else 0.0
    return GradCheckReport(per_param=per_param, threshold=threshold)
