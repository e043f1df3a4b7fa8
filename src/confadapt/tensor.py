"""Float64 tensors with reverse-mode automatic differentiation.

The operation set is what the searchable Conformer stack and its sequence
losses need, plus ``transpose``, ``concat``, ``logsumexp`` and
``sigmoid``, which only tests call (the tape attention and CTC oracles,
op tests, criterion 1). Attention and every affine projection are one
structured op each, ``attention`` and ``linear``, with a closed-form
backward, like ``layer_norm``, ``depthwise_conv1d`` and the CTC loss;
so is a weighted sum of branch outputs, ``mix``.
Constraints that keep the gradient rules small and testable:

- all values are 64-bit floats,
- broadcasting is limited to leading-dim expansion: a tensor of shape
  ``(d,)`` may combine elementwise with ``(..., d)``; anything else
  requires an explicit reshape,
- an op result joins the autodiff graph iff some operand has
  ``requires_grad`` and recording is enabled; it keeps only those
  differentiable operands as its graph edges, so masks, constants and
  frozen weights are never visited by ``backward``. Each gradient rule
  checks ``requires_grad`` when it runs, so clearing the flag on a
  weight until after ``backward`` freezes it,
- ``backward`` consumes the recorded graph, so each recorded forward
  supports one backward pass. It releases each op node once the node's
  gradient rule has run: a node nobody else holds is freed then, with
  its output, its grad and the arrays its rule saved, so one backward
  never holds the whole tape and all its gradients at once. A node the
  caller holds (the loss, or an intermediate) keeps its ``grad`` and
  stays consumed,
- forwards and gradient rules compute in place where they can, but a
  rule writes only into arrays it allocated itself. It never writes into
  its incoming gradient, an operand or the op's output, which other
  nodes read, nor into an array its forward saved. ``layer_norm`` takes
  its row means as matrix-vector products with a ``1/d`` vector.

Leaf tensors created with ``requires_grad=True`` hold a zero ``grad``
buffer from the start, so a leaf that never contributes to a loss reads
as all-zero gradient after backward. Op results start with ``grad`` None;
their buffer is allocated when backward first accumulates into it.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


_GRAD_ENABLED = True

# attention score of a masked query-key pair: exp underflows to exactly 0
NEG_FILL = -1.0e30


class no_grad:
    """Context manager that disables graph recording (for evaluation)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = ()
        self._backward = None
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        if self.data.size != 1:
            raise ValueError(f"item: tensor of shape {self.data.shape} is not scalar")
        return float(self.data.reshape(())[()])

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return tensor_slice(self, key)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)


def as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _from_op(data, parents, backward_fn):
    out = Tensor(data)
    if _GRAD_ENABLED:
        parents = tuple(p for p in parents if p.requires_grad)
        if parents:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward_fn
    return out


def _accumulate(x, g):
    """Add ``g`` into ``x.grad``, allocating the buffer on first use.

    The new buffer takes the memory layout of ``x.data``, not that of
    ``g`` (which may be a transposed view), so the products later
    computed from it sum in an order that does not depend on how ``g``
    was produced.
    """
    if x.grad is None:
        x.grad = np.empty_like(x.data)
        x.grad[...] = g
    else:
        x.grad += g


def _grad_buffer(x):
    """``x.grad`` for writers that add into part of it, zero-filled on first use."""
    if x.grad is None:
        x.grad = np.zeros_like(x.data)
    return x.grad


def backward(loss):
    """Populate ``grad`` for every contributing tensor of a scalar loss.

    Consumes the recorded graph: each op node is released as soon as its
    rule has run, so a node the caller does not hold is freed before the
    rules below it run. A node the caller holds keeps its ``grad``, and a
    second backward through it raises ``RuntimeError``.
    """
    if not isinstance(loss, Tensor):
        raise TypeError(f"backward expects a Tensor, got {type(loss).__name__}")
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise RuntimeError("backward: loss is not on a live tape (no recorded operations)")

    # iterative post-order topological sort
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        if node._consumed:
            raise RuntimeError("backward: tape already consumed by a previous backward pass")
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    _accumulate(loss, 1.0)

    # popping drops the walk's own reference: its children have already cut
    # their edges to it, so once its rule has run an unheld node is freed
    while topo:
        node = topo.pop()
        fn = node._backward
        if fn is not None:
            fn(node.grad if node.grad is not None else np.zeros_like(node.data))
            node._backward = None
            node._parents = ()
            node._consumed = True


# ---------------------------------------------------------------------
# elementwise ops with leading-dim broadcasting
# ---------------------------------------------------------------------


def _check_elementwise(opname, a, b):
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return
    if len(sb) < len(sa) and sa[len(sa) - len(sb):] == sb:
        return
    if len(sa) < len(sb) and sb[len(sb) - len(sa):] == sa:
        return
    raise ShapeError(f"{opname}: shapes {sa} and {sb} do not conform")


def _reduce_to(g, shape):
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("add", a, b)
    data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _reduce_to(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _reduce_to(g, b.data.shape))

    return _from_op(data, (a, b), bw)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("mul", a, b)
    data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _reduce_to(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _reduce_to(g * a.data, b.data.shape))

    return _from_op(data, (a, b), bw)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    ok = False
    if b.data.ndim == 2 and a.data.ndim >= 1:
        ok = sa[-1] == sb[0]
    elif a.data.ndim == b.data.ndim and a.data.ndim >= 3:
        ok = sa[:-2] == sb[:-2] and sa[-1] == sb[-2]
    if not ok:
        raise ShapeError(f"matmul: shapes {sa} and {sb} do not conform")
    data = a.data @ b.data

    def bw(g):
        if b.data.ndim == 2:
            if a.requires_grad:
                _accumulate(a, g @ b.data.T)
            if b.requires_grad:
                _accumulate(b, a.data.reshape(-1, sa[-1]).T @ g.reshape(-1, sb[-1]))
        else:
            if a.requires_grad:
                _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
            if b.requires_grad:
                _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    return _from_op(data, (a, b), bw)


# ---------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------

_BASIC_KEY_TYPES = (int, np.integer, slice, type(Ellipsis))


def _check_basic_key(key):
    parts = key if isinstance(key, tuple) else (key,)
    for p in parts:
        if not isinstance(p, _BASIC_KEY_TYPES):
            raise TypeError(f"slice: only basic indexing is supported, got {type(p).__name__}")


def tensor_slice(x, key):
    x = as_tensor(x)
    _check_basic_key(key)
    data = np.asarray(x.data[key])

    def bw(g):
        if x.requires_grad:
            _grad_buffer(x)[key] += g

    return _from_op(data, (x,), bw)


def reshape(x, shape):
    x = as_tensor(x)
    data = x.data.reshape(shape)
    old = x.data.shape

    def bw(g):
        if x.requires_grad:
            _accumulate(x, g.reshape(old))

    return _from_op(data, (x,), bw)


def transpose(x, axes):
    x = as_tensor(x)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for shape {x.data.shape}")
    data = np.transpose(x.data, axes)
    inv = tuple(np.argsort(axes))

    def bw(g):
        if x.requires_grad:
            _accumulate(x, np.transpose(g, inv))

    return _from_op(data, (x,), bw)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    ref = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(ref) or any(i != axis and s[i] != ref[i] for i in range(len(ref))):
            raise ShapeError(f"concat: shapes {ref} and {s} do not conform along axis {axis}")
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def bw(g):
        ofs = 0
        for t in tensors:
            n = t.data.shape[axis]
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(ofs, ofs + n)
            if t.requires_grad:
                _accumulate(t, g[tuple(sl)])
            ofs += n

    return _from_op(data, tensors, bw)


def tensor_sum(x, axis=None, keepdims=False):
    x = as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if x.requires_grad:
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            _accumulate(x, np.broadcast_to(gg, x.data.shape))

    return _from_op(data, (x,), bw)


def tensor_mean(x, axis=None, keepdims=False):
    x = as_tensor(x)
    data = x.data.mean(axis=axis, keepdims=keepdims)
    scale = x.data.size / max(data.size, 1)

    def bw(g):
        if x.requires_grad:
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            _accumulate(x, np.broadcast_to(gg, x.data.shape) / scale)

    return _from_op(data, (x,), bw)


# ---------------------------------------------------------------------
# nonlinearities and normalizations
# ---------------------------------------------------------------------


def sigmoid(x):
    x = as_tensor(x)
    data = 1.0 / (1.0 + np.exp(-x.data))

    def bw(g):
        if x.requires_grad:
            _accumulate(x, g * data * (1.0 - data))

    return _from_op(data, (x,), bw)


def _logistic(z):
    """``1 / (1 + exp(-z))`` built in one new array."""
    s = np.negative(z)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def swish(x):
    x = as_tensor(x)
    s = _logistic(x.data)
    data = x.data * s

    def bw(g):
        if x.requires_grad:
            t = np.subtract(1.0, s)  # g * (s + data * (1 - s))
            t *= data
            t += s
            t *= g
            _accumulate(x, t)

    return _from_op(data, (x,), bw)


def glu(x):
    """Gated linear unit: split the last axis in half, first * sigmoid(second)."""
    x = as_tensor(x)
    n = x.data.shape[-1]
    if n % 2 != 0:
        raise ShapeError(f"glu: last axis of shape {x.data.shape} has odd extent {n}")
    h = n // 2
    a = x.data[..., :h]
    s = _logistic(x.data[..., h:])
    data = a * s

    def bw(g):
        if x.requires_grad:
            gx = _grad_buffer(x)
            t = g * s
            gx[..., :h] += t
            u = g * a  # g * a * s * (1 - s)
            u *= s
            np.subtract(1.0, s, out=t)
            u *= t
            gx[..., h:] += u

    return _from_op(data, (x,), bw)


def softmax(x, axis=-1):
    x = as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        if x.requires_grad:
            _accumulate(x, (g - (g * data).sum(axis=axis, keepdims=True)) * data)

    return _from_op(data, (x,), bw)


def log_softmax(x, axis=-1):
    x = as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    data = x.data - m - np.log(e.sum(axis=axis, keepdims=True))

    def bw(g):
        if x.requires_grad:
            _accumulate(x, g - np.exp(data) * g.sum(axis=axis, keepdims=True))

    return _from_op(data, (x,), bw)


def logsumexp(x, axis=-1):
    x = as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    data = (m + np.log(np.exp(x.data - m).sum(axis=axis, keepdims=True))).squeeze(axis)

    def bw(g):
        if x.requires_grad:
            ge = np.expand_dims(g, axis)
            _accumulate(x, np.exp(x.data - np.expand_dims(data, axis)) * ge)

    return _from_op(data, (x,), bw)


def layer_norm(x, gain, bias, eps=1e-6):
    """Normalize the last axis to zero mean, unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.data.shape}/{bias.data.shape} "
            f"do not match feature dim {(d,)}"
        )
    w = np.full(d, 1.0 / d)

    def row_mean(a):
        # a matrix-vector product is several times faster than numpy's
        # reduce over a short last axis
        return (a @ w)[..., None]

    xhat = x.data - row_mean(x.data)  # xc, normalized in place below
    data = xhat * xhat
    inv = 1.0 / np.sqrt(row_mean(data) + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=data)
    data += bias.data

    def bw(g):
        t = g * xhat
        if gain.requires_grad:
            _accumulate(gain, t.reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            # (dxh - mean(dxh) - xhat * mean(dxh * xhat)) * inv
            dxh = g * gain.data
            np.multiply(dxh, xhat, out=t)
            np.multiply(xhat, row_mean(t), out=t)
            dxh -= row_mean(dxh)
            dxh -= t
            dxh *= inv
            _accumulate(x, dxh)

    return _from_op(data, (x, gain, bias), bw)


# ---------------------------------------------------------------------
# structured ops
# ---------------------------------------------------------------------


def depthwise_conv1d(x, kernel, bias):
    """Per-channel 1-D convolution with same padding, center aligned, plus bias.

    ``x`` is (batch, time, channels), ``kernel`` is (width, channels) with
    odd width, so every width yields the input's sequence length; ``bias``
    is (channels,).
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if x.data.ndim != 3 or kernel.data.ndim != 2:
        raise ShapeError(
            f"depthwise_conv1d: expected input (B,T,C) and kernel (K,C), "
            f"got {x.data.shape} and {kernel.data.shape}"
        )
    k, c = kernel.data.shape
    if k % 2 == 0:
        raise ValueError(f"depthwise_conv1d: kernel width must be odd, got {k}")
    if x.data.shape[-1] != c:
        raise ShapeError(
            f"depthwise_conv1d: shapes {x.data.shape} and {kernel.data.shape} do not conform"
        )
    if bias.data.shape != (c,):
        raise ShapeError(f"depthwise_conv1d: bias shape {bias.data.shape} != {(c,)}")
    b, t, _ = x.data.shape
    p = k // 2
    xp = np.zeros((b, t + 2 * p, c))
    xp[:, p:p + t, :] = x.data
    data = np.zeros((b, t, c))
    tap = np.empty((b, t, c))
    for j in range(k):
        data += np.multiply(xp[:, j:j + t, :], kernel.data[j], out=tap)
    data += bias.data

    def bw(g):
        tap = np.empty((b, t, c))
        if kernel.requires_grad:
            gk = _grad_buffer(kernel)
            for j in range(k):
                gk[j] += np.multiply(xp[:, j:j + t, :], g, out=tap).sum(axis=(0, 1))
        if x.requires_grad:
            gp = np.zeros_like(xp)
            for j in range(k):
                gp[:, j:j + t, :] += np.multiply(g, kernel.data[j], out=tap)
            _accumulate(x, gp[:, p:p + t, :])
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 1)))

    return _from_op(data, (x, kernel, bias), bw)


def embedding(table, ids):
    """Row lookup: ``table`` is (vocab, dim), ``ids`` an integer array."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-D, got {table.data.shape}")
    if ids.dtype.kind not in "iu":
        raise TypeError(f"embedding: ids must be integers, got dtype {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(
            f"embedding: id out of range for table with {table.data.shape[0]} rows"
        )
    data = table.data[ids]

    def bw(g):
        if table.requires_grad:
            np.add.at(_grad_buffer(table), ids, g)

    return _from_op(data, (table,), bw)


def linear(x, w, b):
    """Affine projection ``x @ w + b``: ``w`` is (in, out), ``b`` is (out,)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.data.ndim != 2 or x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear: shapes {x.data.shape} and {w.data.shape} do not conform")
    n_in, n_out = w.data.shape
    if b.data.shape != (n_out,):
        raise ShapeError(f"linear: bias shape {b.data.shape} != {(n_out,)}")
    data = x.data @ w.data
    data += b.data

    def bw(g):
        if b.requires_grad:
            _accumulate(b, _reduce_to(g, b.data.shape))
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        if w.requires_grad:
            _accumulate(w, x.data.reshape(-1, n_in).T @ g.reshape(-1, n_out))

    return _from_op(data, (x, w, b), bw)


def attention(q, k, v, mask, scale):
    """Scaled dot-product attention over (batch, time, heads, dim) operands.

    ``q`` is (B, Tq, H, d), ``k`` is (B, Tk, H, d) and ``v`` is
    (B, Tk, H, dv); the result is (B, Tq, H, dv). ``mask`` is None or a
    bool array broadcastable to (B, H, Tq, Tk), True where a query must
    not see a key; those scores are set to ``NEG_FILL`` before the softmax.
    Backward keeps only the probabilities P and applies the closed-form
    softmax rule dS = P * (dP - rowsum(dP * P)), zero where masked.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    sq, sk, sv = q.data.shape, k.data.shape, v.data.shape
    if (q.data.ndim != 4 or k.data.ndim != 4 or v.data.ndim != 4
            or sq[0] != sk[0] or sq[2:] != sk[2:] or sk[:3] != sv[:3]):
        raise ShapeError(f"attention: shapes {sq}, {sk} and {sv} do not conform")
    qt = np.transpose(q.data, (0, 2, 1, 3))
    kt = np.transpose(k.data, (0, 2, 3, 1))
    vt = np.transpose(v.data, (0, 2, 1, 3))
    p = qt @ kt  # the scores, turned into probabilities in place
    p *= scale
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), p.shape)
        np.copyto(p, NEG_FILL, where=mask)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    data = np.transpose(p @ vt, (0, 2, 1, 3))

    def bw(g):
        # products sum in an order that may depend on operand layout, so
        # fix the layout of the upstream gradient
        dc = np.ascontiguousarray(np.transpose(g, (0, 2, 1, 3)))
        if q.requires_grad or k.requires_grad:
            ds = dc @ np.swapaxes(vt, -1, -2)  # dP, turned into dS in place
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            if mask is not None:
                np.copyto(ds, 0.0, where=mask)
            ds *= scale
            if q.requires_grad:
                _accumulate(q, np.transpose(ds @ np.swapaxes(kt, -1, -2), (0, 2, 1, 3)))
            if k.requires_grad:
                _accumulate(k, np.transpose(np.swapaxes(qt, -1, -2) @ ds, (0, 3, 1, 2)))
        if v.requires_grad:
            _accumulate(v, np.transpose(np.swapaxes(p, -1, -2) @ dc, (0, 2, 1, 3)))

    return _from_op(data, (q, k, v), bw)


def mix(terms, weights):
    """Weighted sum ``sum_i terms[i] * weights[i]``, recorded as one op.

    The terms share one shape; ``weights`` is (len(terms), *tail), where
    ``tail`` is a trailing part of that shape (empty for one scalar per
    term), so row i broadcasts over the leading dims of term i. Values and
    gradients are those of the chain of ``mul`` and ``add`` nodes it
    replaces, bit for bit.
    """
    terms = [as_tensor(t) for t in terms]
    weights = as_tensor(weights)
    shape = terms[0].data.shape if terms else None
    tail = weights.data.shape[1:]
    if (not terms or weights.data.ndim < 1 or weights.data.shape[0] != len(terms)
            or any(t.data.shape != shape for t in terms)
            or len(tail) > len(shape) or shape[len(shape) - len(tail):] != tail):
        raise ShapeError(
            f"mix: weights {weights.data.shape} do not conform to "
            f"{len(terms)} terms of shapes {[t.data.shape for t in terms]}")
    data = terms[0].data * weights.data[0]
    tmp = np.empty_like(data)
    for t, w in zip(terms[1:], weights.data[1:]):
        data += np.multiply(t.data, w, out=tmp)

    def bw(g):
        gw = np.empty_like(weights.data) if weights.requires_grad else None
        for i, (t, w) in enumerate(zip(terms, weights.data)):
            if t.requires_grad:
                _accumulate(t, g * w)
            if gw is not None:
                gw[i] = _reduce_to(g * t.data, tail)
        if gw is not None:
            _accumulate(weights, gw)

    return _from_op(data, terms + [weights], bw)


def masked_fill(x, mask, value):
    """Replace entries where ``mask`` (bool array, broadcastable) is True."""
    x = as_tensor(x)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.data.shape)
    data = np.where(mask, float(value), x.data)

    def bw(g):
        if x.requires_grad:
            _accumulate(x, np.where(mask, 0.0, g))

    return _from_op(data, (x,), bw)
