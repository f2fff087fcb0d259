"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a C-contiguous float64 ndarray. Operations record a
dynamic tape (parent links plus a VJP closure) whenever any input requires
gradients and grad mode is enabled; ``Tensor.backward()`` walks the tape in
reverse topological order, accumulates gradients additively into leaves, and
frees the tape. The op set is the minimum the fusion network and its losses
need; image tensors use NCHW layout and kernels OIHW.

Buffers: an op may fill arrays it allocated itself in place, but never an
operand's array or the gradient its VJP receives (one upstream gradient may
reach several parents). ``matmul``'s optional ``bias`` is added in the
product's own buffer, so ``Linear`` is one node with one finite check.

``attention`` is one fused node for ``softmax(q @ kt) @ v`` over operands
of one lead shape. Every call runs the queries in row chunks, and each lead
slice (one stream and head) of a chunk runs as its own 2-D problem, with or
without a tape. The score tile of one slice's chunk fits in
``_SCORE_BUDGET_BYTES``, so the rows do not depend on the lead shape and the
tile stays in the core's cache (the row tiling of FlashAttention, Dao et
al., arXiv 2205.14135); its GEMMs keep the batched product's shapes, and so
its bits. The tape keeps q, kt, v, the output and one log-sum-exp L per row
(N_q values per lead slice), no N_q x N_kv array. The backward walks each
lead slice in chunks of half as many rows and recomputes each chunk's
probabilities as exp(q @ kt - L) (the FlashAttention backward). It takes
the softmax's row term from the output (sum over d_v of dO * O) instead of
from the probabilities, so gradients differ from the unfused chain's by
rounding only. Each chunk takes one of two kernels, chosen once per call
from an O(N d) bound on the operands:

- shift-free, when the Cauchy-Schwarz bound max|q_i| * max|k_j| on every
  score is at most ``_SHIFT_FREE_BOUND`` and N_kv e^bound max|v| stays far
  below the float64 maximum: ``exp`` of the raw scores cannot overflow, so
  each chunk makes three passes over its scores: GEMM, ``exp`` in place, and
  a GEMM against ``[v | 1]`` that returns E @ V and the row sums s together;
  the divide falls on the N x d_v result, and L = log s. Output and
  gradients are within rounding (1e-12 relative) of the unfused matmul ->
  softmax -> matmul chain.
- otherwise (large, NaN or infinite operands) the chain's own kernel: a
  finite check on the scores (``NonFiniteError`` naming ``attention``), the
  max-shifted softmax, then P @ V; L = m + log s for the row maximum m and
  the shifted row sums s. A call that fits in one chunk is bitwise equal to
  the chain. Over several chunks it is within rounding: BLAS may round a
  chunk's P @ V differently from the whole product, as OpenBLAS does for a
  tail chunk of a few rows.

Concurrency: tensors are treated as immutable once built, so inference over
a frozen parameter set is safe from many workers; anything that mutates
parameters (optimizer steps, grad zeroing) needs exclusive access. No
interior locking is provided. Grad mode is per thread (``no_grad``).
One rule: ``two(first, second)`` runs ``first`` on the helper of the
calling thread's ``blas.one_blas_thread`` hold (``fuse`` and ``train``
take it), in the caller's grad mode, beside ``second`` on the caller; a
thread without a hold runs both in turn. A ``lanes`` node runs two
sub-graphs that share no leaf needing a gradient through ``two``, forward
and backward, so each leaf's gradient is written from one thread only: the
two encoders (``mgca.encode_streams``), then MGCA's two directions. In
``fuse``'s decoder each block runs its rows below ``row_split``'s row (on
``attention``'s chunk grid) as the first lane and the rest as the second.
Each attention backward allocates its own two scratch arrays.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import wait
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from . import blas

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327
_LAYER_NORM_EPS = 1e-5

# Score tile bytes one lead slice of an ``attention`` chunk may build (8 MiB over
# an encoder call's 12 slices). A constant, not a setting: it bounds memory only.
_SCORE_BUDGET_BYTES = 2**23 // 12

# Largest bound on |q_i . k_j| for which ``attention`` skips the softmax's max
# shift: e^64 lies deep inside float64. A constant, not a setting: the two
# branches differ by rounding only.
_SHIFT_FREE_BOUND = 64.0
# It also needs N_kv e^bound max|v|, which bounds every entry of E @ V, to stay
# at most this, far below float64's 1.8e308.
_SHIFT_FREE_LIMIT = 1e300


class ShapeError(ValueError):
    """Operands have shapes the op cannot accept."""


class NonFiniteError(FloatingPointError):
    """A value became NaN or infinite."""


class GraphError(RuntimeError):
    """Backward called on an unsuitable tensor or a freed graph."""


_state = threading.local()


def grad_enabled() -> bool:
    """Whether this thread records tapes: each thread starts in grad mode."""
    return getattr(_state, "grad_enabled", True)


@contextmanager
def _grad_mode(enabled: bool):
    prev = grad_enabled()
    _state.grad_enabled = enabled
    try:
        yield
    finally:
        _state.grad_enabled = prev


def no_grad():
    """Disable tape recording inside the block (inference mode)."""
    return _grad_mode(False)


def _tracks(parents) -> bool:
    """Whether an op on ``parents`` records a tape node."""
    return grad_enabled() and any(p.requires_grad for p in parents)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{op}: produced or received non-finite values")


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None
        self._op = "leaf"

    # -- construction of op results ------------------------------------

    @staticmethod
    def _result(op: str, data: np.ndarray, parents, vjp, check: bool = True,
                track: bool | None = None):
        if check:
            _check_finite(data, op)
        if track is None:
            track = _tracks(parents)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = track
        out.grad = None
        out._parents = tuple(parents) if track else ()
        out._vjp = vjp if track else None
        out._op = op
        return out

    # -- introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        """The value of a one-element tensor; any other size raises ``ShapeError``."""
        if self.data.size != 1:
            raise ShapeError(f"item: tensor of shape {self.shape} has {self.data.size} "
                             "elements, expected one")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- backward --------------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every reachable leaf that requires grad.

        The loss must be a scalar with a retained graph. Gradients
        accumulate additively across backward calls on different graphs;
        this graph is freed afterwards and cannot be replayed.
        """
        if self.data.size != 1:
            raise GraphError(f"backward: tensor has {self.data.size} elements, expected a scalar")
        if not self.requires_grad:
            raise GraphError("backward: no retained computation graph")
        _walk(self, np.ones_like(self.data))

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __getitem__(self, key):
        return slice_(self, key)


def _walk(root: Tensor, seed: np.ndarray) -> None:
    """``backward`` from ``root`` with gradient ``seed``, which has its shape."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._op == "freed":
            raise GraphError("backward: graph already freed by a previous backward")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(root): seed}
    while topo:
        # popping drops the walk's reference, so a node's output is freed
        # once the VJPs of its children have run
        node = topo.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is not None:
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
            node._vjp = None
            node._parents = ()
            node._op = "freed"
        else:
            node.grad = g if node.grad is None else node.grad + g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise arithmetic -------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor._result("add", out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor._result("sub", out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor._result("mul", out, (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data / b.data

    def vjp(g):
        ga = g / b.data
        gb = -g * a.data / (b.data * b.data)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return Tensor._result("div", out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return Tensor._result("neg", -a.data, (a,), lambda g: (-g,), check=False)


def pow_(a: Tensor, p: float) -> Tensor:
    a = _as_tensor(a)
    p = float(p)
    out = a.data ** p

    def vjp(g):
        return (g * p * a.data ** (p - 1.0),)

    return Tensor._result("pow", out, (a,), vjp)


def abs_(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        return (g * np.sign(a.data),)

    return Tensor._result("abs", np.abs(a.data), (a,), vjp, check=False)


def max_elementwise(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum. Exact ties split the gradient evenly."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = np.maximum(a.data, b.data)

    def vjp(g):
        wa = np.where(a.data > b.data, 1.0, np.where(a.data == b.data, 0.5, 0.0))
        return _unbroadcast(g * wa, a.shape), _unbroadcast(g * (1.0 - wa), b.shape)

    return Tensor._result("max_elementwise", out, (a, b), vjp, check=False)


# -- activations / normalization --------------------------------------------


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        return (g * (a.data > 0.0),)

    return Tensor._result("relu", np.maximum(a.data, 0.0), (a,), vjp, check=False)


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return Tensor._result("sigmoid", out, (a,), vjp, check=False)


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x), Phi the standard normal CDF 0.5 (1 + erf(x / sqrt 2)).

    Phi is built in one fresh buffer, which without a tape becomes the
    output; the VJP builds g (Phi + x phi) in one more.
    """
    a = _as_tensor(a)
    x = a.data
    cdf = np.multiply(x, _INV_SQRT2)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    if not _tracks((a,)):
        cdf *= x
        return Tensor._result("gelu", cdf, (a,), None, check=False)

    def vjp(g):
        dx = np.multiply(x, -0.5)
        dx *= x
        np.exp(dx, out=dx)
        dx *= _INV_SQRT_2PI
        dx *= x
        dx += cdf
        dx *= g
        return (dx,)

    return Tensor._result("gelu", x * cdf, (a,), vjp, check=False)


def _softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None,
             log_z: np.ndarray | None = None) -> np.ndarray:
    """Softmax of ``x`` along ``axis`` into ``out`` (``out=x`` works in place);
    ``log_z``, when given, receives the log-sum-exp of ``x`` along ``axis``."""
    m = x.max(axis=axis, keepdims=True)
    out = np.subtract(x, m, out=out)
    np.exp(out, out=out)
    s = out.sum(axis=axis, keepdims=True)
    out /= s
    if log_z is not None:
        np.add(m, np.log(s), out=log_z)
    return out


def _softmax_vjp(g: np.ndarray, p: np.ndarray, axis: int = -1) -> np.ndarray:
    tmp = g * p
    inner = tmp.sum(axis=axis, keepdims=True)
    np.subtract(g, inner, out=tmp)
    tmp *= p
    return tmp


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    out = _softmax(a.data, axis)
    return Tensor._result("softmax", out, (a,), lambda g: (_softmax_vjp(g, out, axis),),
                          check=False)


def layer_norm(x: Tensor, scale: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Two full-size arrays: the centred input, scaled in place into the xhat
    the VJP keeps, and the squares, overwritten by the output.
    """
    x, scale, bias = _as_tensor(x), _as_tensor(scale), _as_tensor(bias)
    d = x.shape[-1]
    if scale.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: scale/bias must have shape ({d},), got {scale.shape} and {bias.shape}"
        )
    # mean and variance as numpy's mean and var compute them, bit for bit
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    out = np.square(xhat)
    inv = 1.0 / np.sqrt(np.add.reduce(out, axis=-1, keepdims=True) / d + _LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, scale.data, out=out)
    out += bias.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        t = g * xhat
        gscale = t.sum(axis=lead)
        gbias = g.sum(axis=lead)
        # inv * (gh - mean(gh) - xhat * mean(gh * xhat)), in gh's buffer and t's
        gh = g * scale.data
        np.multiply(gh, xhat, out=t)
        np.multiply(xhat, t.mean(axis=-1, keepdims=True), out=t)
        gh -= gh.mean(axis=-1, keepdims=True)
        gh -= t
        gh *= inv
        return gh, gscale, gbias

    return Tensor._result("layer_norm", out, (x, scale, bias), vjp)


# -- shape manipulation ------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(shape)}") from e

    def vjp(g):
        return (g.reshape(a.shape),)

    return Tensor._result("reshape", np.ascontiguousarray(out), (a,), vjp, check=False)


def transpose(a: Tensor, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for ndim {a.ndim}")
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return Tensor._result(
        "transpose", np.ascontiguousarray(a.data.transpose(axes)), (a,), vjp, check=False
    )


def slice_(a: Tensor, key) -> Tensor:
    """Basic (non-fancy) indexing with ints, slices, and tuples thereof."""
    a = _as_tensor(a)
    out = a.data[key]

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return Tensor._result("slice", np.ascontiguousarray(out), (a,), vjp, check=False)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    ref = tensors[0].shape
    for t in tensors[1:]:
        same = list(t.shape)
        want = list(ref)
        if len(same) != len(want):
            raise ShapeError(f"concat: rank mismatch {ref} vs {t.shape}")
        same[axis] = want[axis] = 0
        if same != want:
            raise ShapeError(f"concat: non-axis dims differ, {ref} vs {t.shape} on axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return Tensor._result("concat", out, tensors, vjp, check=False)


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _axis_tuple(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor._result("reduce_sum", np.asarray(out), (a,), vjp)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _axis_tuple(axis, a.ndim)
    count = float(np.prod([a.shape[ax] for ax in axes])) if a.ndim else 1.0
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape) / count,)

    return Tensor._result("reduce_mean", np.asarray(out), (a,), vjp)


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product with numpy stacking rules on leading batch dims.

    ``bias``, when given, must broadcast to the product's shape and is added
    in the product's own buffer: ``a @ b + bias`` as one node with one finite
    check, bitwise equal to ``add(matmul(a, b), bias)`` in value and
    gradients, without keeping the pre-bias product alive.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = a.data @ b.data
    parents = (a, b)
    if bias is not None:
        bias = _as_tensor(bias)
        try:
            out += bias.data
        except ValueError as e:
            raise ShapeError(f"matmul: bias {bias.shape} does not broadcast to the product "
                             f"{out.shape}") from e
        parents = (a, b, bias)

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        grads = (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))
        return grads if bias is None else grads + (_unbroadcast(g, bias.shape),)

    return Tensor._result("matmul", out, parents, vjp)


def _shift_free_values(q: np.ndarray, kt: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """``v`` with a column of ones appended when ``exp(q @ kt) @ v`` provably
    stays finite without a max shift, else None.

    |q_i . k_j| <= |q_i| |k_j| bounds every score; NaN or inf operands make
    the bound NaN or inf, which fails both comparisons.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        qq = (q * q).sum(axis=-1).max(initial=0.0)
        kk = (kt * kt).sum(axis=-2).max(initial=0.0)
        bound = math.sqrt(qq * kk)
        vmax = float(np.abs(v).max(initial=0.0))
    if (bound <= _SHIFT_FREE_BOUND
            and kt.shape[-1] * math.exp(bound) * vmax <= _SHIFT_FREE_LIMIT):
        return np.concatenate((v, np.ones(v.shape[:-1] + (1,))), axis=-1)
    return None


def _attend(q: np.ndarray, kt: np.ndarray, v: np.ndarray, out: np.ndarray,
            v1: np.ndarray | None, log_z: np.ndarray | None = None) -> None:
    """One row chunk of ``attention``: ``softmax(q @ kt) @ v`` into ``out``.

    The operands share the lead shape of ``out``; ``v1`` is
    ``_shift_free_values`` of the whole call. ``log_z`` (N x 1 per lead
    slice), given with a tape, receives each row's log-sum-exp for the
    backward. Each lead slice runs as its own 2-D problem. On the shift-free
    branch the ones column of ``v1`` makes the second GEMM return the row
    sums s too, and the divide falls on the N x d_v output; otherwise the
    chain's max-shifted softmax runs after a finite check.
    """
    for i in np.ndindex(out.shape[:-2]):
        p = q[i] @ kt[i]
        if v1 is None:
            _check_finite(p, "attention")
            np.matmul(_softmax(p, out=p, log_z=None if log_z is None else log_z[i]), v[i],
                      out=out[i])
            continue
        np.exp(p, out=p)
        ev = p @ v1[i]
        s = ev[:, -1:]
        np.divide(ev[:, :-1], s, out=out[i])
        if log_z is not None:
            np.log(s, out=log_z[i])


def _chunked_attention_vjp(g: np.ndarray, q: np.ndarray, kt: np.ndarray, v: np.ndarray,
                           out: np.ndarray, log_z: np.ndarray, rows: int):
    """Gradients of ``attention`` for the output gradient ``g``, either branch.

    The FlashAttention backward, per lead slice over chunks of ``rows`` query
    rows: each chunk's probabilities are recomputed from the rows'
    log-sum-exp L as P = exp([q | -L] @ [kt ; 1]), and dS = ([g | -D] @
    [v^T ; 1]) * P with D = rowsum(g * out), the softmax VJP's row term
    (sum_j dP_ij P_ij = sum_d dO_id O_id). Both the -L and the -D ride
    inside a GEMM, so the two chunk buffers, made once per call, see only
    GEMM writes, one ``exp`` and one multiply.
    """
    lead = out.shape[:-2]
    nq, nkv = q.shape[-2], kt.shape[-1]
    qs = np.concatenate((q, -log_z), axis=-1)
    gd = np.concatenate((g, -(g * out).sum(axis=-1, keepdims=True)), axis=-1)
    ones = np.ones(lead + (1, nkv))
    kt1 = np.concatenate((kt, ones), axis=-2)
    vt1 = np.concatenate((np.swapaxes(v, -1, -2), ones), axis=-2)
    gq, gkt, gv = np.empty_like(q), np.zeros_like(kt), np.zeros_like(v)
    size = min(rows, nq) * nkv
    p_buf, ds_buf = np.empty(size), np.empty(size)
    for i in np.ndindex(lead):
        for r in range(0, nq, rows):
            n = min(rows, nq - r)
            p = np.matmul(qs[i][r:r + n], kt1[i], out=p_buf[:n * nkv].reshape(n, nkv))
            np.exp(p, out=p)
            gv[i] += p.T @ g[i][r:r + n]
            ds = np.matmul(gd[i][r:r + n], vt1[i], out=ds_buf[:n * nkv].reshape(n, nkv))
            ds *= p
            np.matmul(ds, kt[i].T, out=gq[i][r:r + n])
            gkt[i] += q[i][r:r + n].T @ ds
    return gq, gkt, gv


def chunk_rows(n_kv: int) -> int:
    """Query rows in each chunk of an ``attention`` call over ``n_kv`` keys:
    as many as fit one lead slice's score tile in ``_SCORE_BUDGET_BYTES``,
    and at least one."""
    return max(1, _SCORE_BUDGET_BYTES // (8 * n_kv))


def attention(q: Tensor, kt: Tensor, v: Tensor) -> Tensor:
    """``softmax(q @ kt) @ v`` as one tape node; q (..., N_q, d), kt (..., d, N_kv)
    and v (..., N_kv, d_v) of one lead shape.

    Queries run in chunks of ``chunk_rows(N_kv)`` rows; every row takes its
    softmax over all keys. A NaN or infinite score raises ``NonFiniteError``
    naming ``attention``; zero keys, or operands that do not chain or differ
    in lead shape, ``ShapeError``.
    """
    q, kt, v = _as_tensor(q), _as_tensor(kt), _as_tensor(v)
    if (min(q.ndim, kt.ndim, v.ndim) < 2 or q.shape[-1] != kt.shape[-2]
            or kt.shape[-1] != v.shape[-2] or kt.shape[-1] == 0
            or not q.shape[:-2] == kt.shape[:-2] == v.shape[:-2]):
        raise ShapeError(f"attention: shapes {q.shape}, {kt.shape}, {v.shape} do not chain "
                         "over at least one key with one lead shape")
    lead = q.shape[:-2]
    nq, nkv = q.shape[-2], kt.shape[-1]
    v1 = _shift_free_values(q.data, kt.data, v.data)
    out = np.empty(lead + (nq, v.shape[-1]))
    rows = chunk_rows(nkv)
    log_z = np.empty(lead + (nq, 1)) if _tracks((q, kt, v)) else None
    for r in range(0, nq, rows):
        _attend(q.data[..., r:r + rows, :], kt.data, v.data, out[..., r:r + rows, :], v1,
                None if log_z is None else log_z[..., r:r + rows, :])

    def vjp(g):
        return _chunked_attention_vjp(g, q.data, kt.data, v.data, out, log_z,
                                      max(1, rows // 2))

    return Tensor._result("attention", out, (q, kt, v), vjp)


# -- two lanes ----------------------------------------------------------------


def two(first, second):
    """``(first(), second())``. Where the calling thread holds OpenBLAS at
    one thread, ``first`` runs on its hold's helper (``blas.helper()``) in
    this thread's grad mode beside ``second`` here, and the call returns
    only once both have stopped, so an error in either lane surfaces after
    the other is done; otherwise both run here in turn, ``first`` first."""
    pool = blas.helper()
    if pool is None:
        return first(), second()
    grad = grad_enabled()

    def run_first():
        with _grad_mode(grad):
            return first()

    ahead = pool.submit(run_first)
    try:
        behind = second()
    finally:
        wait((ahead,))
    return ahead.result(), behind


def row_split(n: int) -> int | None:
    """The row at which a run of blocks over n tokens, whose rows couple
    only through self-attention, splits into the two lanes of ``two``:
    the multiple of ``chunk_rows(n)`` nearest n / 2 (ties go up), so each
    side runs the chunks, and so the bits, of one call over all n rows.
    None under a tape, where the calling thread has no helper, or where
    the n rows fit in one ``attention`` chunk."""
    rows = chunk_rows(n)
    if grad_enabled() or blas.helper() is None or n <= rows:
        return None
    return rows * ((n + rows) // (2 * rows))


def lanes(fa, a: Tensor, fb, b: Tensor) -> Tensor:
    """``stack((fa(a), fb(b)))`` as one tape node, for two sub-graphs that
    share no leaf that requires grad; ``fa(a)`` and ``fb(b)`` must have one
    shape.

    The forward runs ``fa`` and ``fb`` as the lanes of ``two``, and so does
    the node's VJP with the walks of their sub-graphs: each goes side by
    side where the thread running it, building or walking, holds OpenBLAS
    at one thread, and in turn elsewhere. The bits are the same either way.
    Each lane starts from a fresh leaf holding its input, so its walk stops
    there, and that leaf's gradient is the one the node passes on; ``a``
    and ``b`` may be one tensor, which then gets the sum of the two.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    a_in, b_in = (Tensor._result("leaf", x.data, (), None, check=False, track=x.requires_grad)
                  for x in (a, b))
    out_a, out_b = two(lambda: fa(a_in), lambda: fb(b_in))
    if out_a.shape != out_b.shape:
        raise ShapeError(f"lanes: outputs {out_a.shape} and {out_b.shape} differ")

    def walk(out, seed):
        if out.requires_grad:
            _walk(out, seed)

    def vjp(g):
        two(lambda: walk(out_a, g[0]), lambda: walk(out_b, g[1]))
        return a_in.grad, b_in.grad

    return Tensor._result("lanes", np.stack((out_a.data, out_b.data)), (a, b), vjp,
                          check=False, track=out_a.requires_grad or out_b.requires_grad)


# -- padding and convolution --------------------------------------------------


def pad2d(a: Tensor, pad: int) -> Tensor:
    """Reflect the last two axes by ``pad`` per side, as numpy's "reflect"
    mode (the edge row is not repeated); a pad of 0 returns ``a`` itself.
    ``conv2d`` does its own zero padding."""
    a = _as_tensor(a)
    if pad == 0:
        return a
    h, w = a.shape[-2], a.shape[-1]
    if pad >= min(h, w):
        raise ShapeError(f"pad2d: reflect pad {pad} too large for ({h},{w})")
    iy = np.concatenate([np.arange(pad, 0, -1), np.arange(h), np.arange(h - 2, h - 2 - pad, -1)])
    ix = np.concatenate([np.arange(pad, 0, -1), np.arange(w), np.arange(w - 2, w - 2 - pad, -1)])
    out = a.data[..., iy[:, None], ix[None, :]]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (Ellipsis, iy[:, None], ix[None, :]), g)
        return (ga,)

    return Tensor._result("pad2d", np.ascontiguousarray(out), (a,), vjp, check=False)


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None, padding: int = 0) -> Tensor:
    """2-D cross-correlation at stride 1: NCHW input, OIHW kernel, ``padding``
    zeros on each side of both spatial axes."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: need NCHW input and OIHW kernel, got {x.shape} and {w.shape}")
    n, c, h, wd = x.shape
    o, ci, kh, kw = w.shape
    if ci != c:
        raise ShapeError(f"conv2d: input channels {c} != kernel channels {ci}")
    hp, wp = h + 2 * padding, wd + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(f"conv2d: kernel ({kh},{kw}) larger than padded input ({hp},{wp})")
    ho, wo = hp - kh + 1, wp - kw + 1
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (o,):
            raise ShapeError(f"conv2d: bias shape {bias.shape} != ({o},)")

    xp = np.pad(x.data, [(0, 0), (0, 0), (padding,) * 2, (padding,) * 2]) if padding else x.data
    acc = np.zeros((n, ho, wo, o))
    for i in range(kh):
        for j in range(kw):
            view = xp[:, :, i:i + ho, j:j + wo]
            acc += np.tensordot(view, w.data[:, :, i, j], axes=([1], [1]))
    out = np.ascontiguousarray(np.moveaxis(acc, -1, 1))
    if bias is not None:
        out += bias.data[None, :, None, None]

    parents = (x, w) if bias is None else (x, w, bias)

    def vjp(g):
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(w.data)
        for i in range(kh):
            for j in range(kw):
                view = xp[:, :, i:i + ho, j:j + wo]
                gw[:, :, i, j] = np.tensordot(g, view, axes=([0, 2, 3], [0, 2, 3]))
                spread = np.tensordot(g, w.data[:, :, i, j], axes=([1], [0]))
                gxp[:, :, i:i + ho, j:j + wo] += np.moveaxis(spread, -1, 1)
        gx = gxp[:, :, padding:padding + h, padding:padding + wd]
        if bias is None:
            return np.ascontiguousarray(gx), gw
        return np.ascontiguousarray(gx), gw, g.sum(axis=(0, 2, 3))

    return Tensor._result("conv2d", out, parents, vjp)
