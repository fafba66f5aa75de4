"""Forward-mode differentiation engine.

Coordinate expressions (metrics, maps, structure fields) are plain Python
callables that receive a list of coordinate values and return a (nested)
list of entries built from numpy ufuncs and arithmetic.  Evaluating the
same callable on `Dual` coordinates yields exact first derivatives for a
whole batch of points in one pass; `Jet2` coordinates propagate values,
gradients and Hessians (the flattened form of nested dual numbers).

Supported ufuncs: sin, cos, tan, exp, log, sqrt, sinh, cosh, tanh, arctan,
arcsin, arccos and floor, each differentiated by its row of the one
derivative table both types read; square, negative, positive, add,
subtract, multiply, divide and power (constant exponent) through
arithmetic.

A coordinate expression is differentiated one way: exactly, by forward
mode (Griewank & Walther, *Evaluating Derivatives*).  `tensor_jet` seeds
`Dual` coordinates, `tensor_second` seeds `Jet2` coordinates; neither takes
a step.  Central differences are for black-box batch fields only
(`field_partials`): the FD oracles, the direct sides of the identity suites
and a structure given without an expression.  They read their step from
`FD_STEP` at call time; no check of a run differentiates by a step.

An expression returns a (nested) list or tuple of one common shape per
level; every entry is a scalar, a (1,) array or an (N,) array over the N
points, and Dual or Jet2 entries carry values of those shapes.  Anything
else, including an empty output, raises DifferentiationFailure naming the
entry.

A `field_partials` stencil is one batched evaluation: the 2m shifted
copies of the N points are stacked shift-major into one (2m*N, m) batch, the
field runs once on it, and the differences come from the reshaped result.

Expressions must be pure functions of their coordinates: `tensor_value`,
`tensor_jet` and `tensor_second` evaluate each (expression, point set) once
and hand out the kept, read-only result again (see `_memo`, which the metric
inverse, the Christoffel symbols, the horizontal projector and the induced
f-structure share).  The memo lives as long as a scenario and holds at most
`_MEMO_BYTES`.
"""

from __future__ import annotations

import numpy as np

from .errors import DifferentiationFailure

__all__ = [
    "Dual",
    "Jet2",
    "tensor_value",
    "tensor_jet",
    "tensor_second",
    "field_partials",
]


# The step of the central differences of black-box fields; callers pass it to
# ``field_partials`` as ``autodiff.FD_STEP``, read at call time.
FD_STEP = 1e-5


def _pay(c, b):
    """Broadcast a value against a derivative payload (one extra trailing axis)."""
    c = np.asarray(c)
    if c.ndim == 0:
        return c * b
    return c[..., None] * b


# The elemental derivatives (Griewank & Walther): ufunc -> (d1, d2) with
# d1(x, y) = f'(x) and d2(x, y, d) = f''(x), given y = f(x) and d = f'(x).
# Dual reads d1; Jet2 reads both.
_DERIVATIVES = {
    np.sin: (lambda x, y: np.cos(x), lambda x, y, d: -y),
    np.cos: (lambda x, y: -np.sin(x), lambda x, y, d: -y),
    np.tan: (lambda x, y: 1.0 + y * y, lambda x, y, d: 2.0 * y * d),
    np.exp: (lambda x, y: y, lambda x, y, d: y),
    np.log: (lambda x, y: 1.0 / x, lambda x, y, d: -d * d),
    np.sqrt: (lambda x, y: 0.5 / y, lambda x, y, d: -0.25 / (y * x)),
    np.sinh: (lambda x, y: np.cosh(x), lambda x, y, d: y),
    np.cosh: (lambda x, y: np.sinh(x), lambda x, y, d: y),
    np.tanh: (lambda x, y: 1.0 - y * y, lambda x, y, d: -2.0 * y * d),
    np.arctan: (lambda x, y: 1.0 / (1.0 + x * x), lambda x, y, d: -2.0 * x * d * d),
    np.arcsin: (lambda x, y: 1.0 / np.sqrt(1.0 - x * x), lambda x, y, d: x * d**3),
    np.arccos: (lambda x, y: -1.0 / np.sqrt(1.0 - x * x), lambda x, y, d: x * d**3),
    # zero almost everywhere (used by periodic wraps)
    np.floor: (lambda x, y: np.zeros_like(x), lambda x, y, d: d),
}

# The other ufuncs an expression may apply go through arithmetic.  With a
# plain first operand a binary one calls the reflected method of the second,
# as an operator on a numpy first operand would call back here.
_ARITHMETIC = {
    np.square: lambda x: x * x,
    np.negative: lambda x: -x,
    np.positive: lambda x: x,
    np.add: lambda x, y: x + y if isinstance(x, _Forward) else y.__radd__(x),
    np.subtract: lambda x, y: x - y if isinstance(x, _Forward) else y.__rsub__(x),
    np.multiply: lambda x, y: x * y if isinstance(x, _Forward) else y.__rmul__(x),
    np.true_divide: lambda x, y: x / y if isinstance(x, _Forward) else y.__rtruediv__(x),
    np.power: lambda x, y: x**y if isinstance(x, _Forward) else NotImplemented,
}


class _Forward:
    """The numpy ufunc entry point that Dual and Jet2 share."""

    __slots__ = ()

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs.get("out") is not None:
            return NotImplemented
        rule = _DERIVATIVES.get(ufunc)
        if rule is not None:
            (x,) = inputs
            return x._unary(ufunc, *rule)
        op = _ARITHMETIC.get(ufunc)
        return NotImplemented if op is None else op(*inputs)


class Dual(_Forward):
    """First-order forward dual: value ``a`` (batch,) plus payload ``b`` (batch, k)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def _parts(self):
        return self.a, self.b

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.a + o.a, self.b + o.b)
        return Dual(self.a + o, self.b)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __sub__(self, o):
        if isinstance(o, Dual):
            return Dual(self.a - o.a, self.b - o.b)
        return Dual(self.a - o, self.b)

    def __rsub__(self, o):
        return Dual(o - self.a, -self.b)

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.a * o.a, _pay(self.a, o.b) + _pay(o.a, self.b))
        return Dual(self.a * o, _pay(o, self.b))

    __rmul__ = __mul__

    def _recip(self):
        inv = 1.0 / self.a
        return Dual(inv, _pay(-inv * inv, self.b))

    def __truediv__(self, o):
        if isinstance(o, Dual):
            return self * o._recip()
        return self * (1.0 / np.asarray(o, dtype=float))

    def __rtruediv__(self, o):
        return self._recip() * o

    def __pow__(self, p):
        if isinstance(p, Dual):
            raise TypeError("dual ** dual is not supported; use exp/log explicitly")
        p = float(p)
        return Dual(self.a**p, _pay(p * self.a ** (p - 1.0), self.b))

    def _unary(self, f, d1, d2):
        y = f(self.a)
        return Dual(y, _pay(d1(self.a, y), self.b))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Dual(a={self.a!r})"


class Jet2(_Forward):
    """Second-order forward jet: value ``v``, gradient ``g`` (...,k), Hessian ``h`` (...,k,k)."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v = np.asarray(v, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.h = np.asarray(h, dtype=float)

    def _parts(self):
        return self.v, self.g, self.h

    @staticmethod
    def _outer(g1, g2):
        return g1[..., :, None] * g2[..., None, :]

    def __add__(self, o):
        if isinstance(o, Jet2):
            return Jet2(self.v + o.v, self.g + o.g, self.h + o.h)
        return Jet2(self.v + o, self.g, self.h)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.v, -self.g, -self.h)

    def __sub__(self, o):
        if isinstance(o, Jet2):
            return Jet2(self.v - o.v, self.g - o.g, self.h - o.h)
        return Jet2(self.v - o, self.g, self.h)

    def __rsub__(self, o):
        return Jet2(o - self.v, -self.g, -self.h)

    @staticmethod
    def _pay2(c, h):
        c = np.asarray(c)
        if c.ndim == 0:
            return c * h
        return c[..., None, None] * h

    def __mul__(self, o):
        if isinstance(o, Jet2):
            cross = self._outer(self.g, o.g)
            return Jet2(
                self.v * o.v,
                _pay(self.v, o.g) + _pay(o.v, self.g),
                self._pay2(self.v, o.h)
                + self._pay2(o.v, self.h)
                + cross
                + np.swapaxes(cross, -1, -2),
            )
        o = np.asarray(o, dtype=float)
        if o.ndim == 0:
            return Jet2(self.v * o, self.g * o, self.h * o)
        return Jet2(self.v * o, self.g * o[..., None], self.h * o[..., None, None])

    __rmul__ = __mul__

    def _chain(self, u, du, d2u):
        g = _pay(du, self.g)
        h = self._pay2(du, self.h) + self._pay2(d2u, self._outer(self.g, self.g))
        return Jet2(u, g, h)

    def _recip(self):
        inv = 1.0 / self.v
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def __truediv__(self, o):
        if isinstance(o, Jet2):
            return self * o._recip()
        return self * (1.0 / np.asarray(o, dtype=float))

    def __rtruediv__(self, o):
        return self._recip() * o

    def __pow__(self, p):
        if isinstance(p, Jet2):
            raise TypeError("jet ** jet is not supported; use exp/log explicitly")
        p = float(p)
        return self._chain(
            self.v**p, p * self.v ** (p - 1.0), p * (p - 1.0) * self.v ** (p - 2.0)
        )

    def _unary(self, f, d1, d2):
        y = f(self.v)
        d = d1(self.v, y)
        return self._chain(y, d, d2(self.v, y, d))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet2(v={self.v!r})"


# ---------------------------------------------------------------------------
# expression evaluation


def _flatten(out):
    """Flatten a (possibly nested) list/tuple expression result: (shape, entries).

    Level by level: the items of a level are either all lists/tuples of one
    common length or all entries; anything else is a ragged output.
    """
    shape = ()
    level = [out]
    while True:
        nested = [isinstance(item, (list, tuple)) for item in level]
        if not any(nested):
            break
        if not all(nested) or len({len(item) for item in level}) != 1:
            raise DifferentiationFailure("ragged expression output")
        shape += (len(level[0]),)
        level = [entry for item in level for entry in item]
    if not level:
        raise DifferentiationFailure(f"expression output of shape {shape} has no entries")
    return shape, level


def _put(arr, j, value, n):
    """Write entry j of an expression output into column j of arr (n, k).

    The entry is a scalar, (1,) or (n,); any other shape raises
    DifferentiationFailure naming the entry.
    """
    if getattr(value, "ndim", 0) <= 1:
        try:
            arr[:, j] = value
            return
        except ValueError:
            pass
    raise DifferentiationFailure(
        f"expression entry {j} has shape {np.shape(value)}; "
        f"an entry must have shape (), (1,) or ({n},)"
    )


def _points(x):
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    return x, squeeze


def _check_finite(*arrays):
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise DifferentiationFailure("non-finite derivative or value")


# ---------------------------------------------------------------------------
# evaluations by point set

# The memo lives as long as its scenario: ``scenarios.build_scenario`` empties
# it whenever it builds one.  Within a scenario it keeps every value, until a
# store would take it past _MEMO_BYTES; then it empties itself first (a flush).
# A value above _MEMO_BYTES on its own is handed out and not kept.
_MEMO_BYTES = 32 << 20

_MEMO = {}  # key -> (value, bytes of value and points)
_MEMO_COUNTS = {"hits": 0, "misses": 0, "held_bytes": 0, "flushes": 0}


def _freeze(value):
    """Make the arrays of a value (an array, or a tuple) read-only; return their bytes."""
    if isinstance(value, tuple):
        return sum(_freeze(v) for v in value)
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value.nbytes
    return 0


def _memo(kind, owner, x, compute):
    """compute(x), once per (kind, owner, shape and bytes of the points x).

    ``owner`` is the object, or tuple of objects, whose value it is (an
    expression, a chart's metric, a map): the key holds it, so it is
    compared by identity and stays alive while its values do.  The points
    are keyed by their bytes, not their identity, because every stencil is a
    fresh batch.
    The value (an array, or a tuple of arrays and plain values) is returned
    read-only, kept or not; a compute that raises keeps nothing.  The memo
    takes no lock: the library evaluates in one thread.
    """
    x = np.asarray(x, dtype=float)
    key = (kind, owner, x.shape, x.tobytes())
    entry = _MEMO.get(key)
    if entry is not None:
        _MEMO_COUNTS["hits"] += 1
        return entry[0]
    _MEMO_COUNTS["misses"] += 1
    value = compute(x)
    size = _freeze(value) + x.nbytes
    if size <= _MEMO_BYTES:
        if _MEMO_COUNTS["held_bytes"] + size > _MEMO_BYTES:
            _memo_empty()
            _MEMO_COUNTS["flushes"] += 1
        _MEMO[key] = (value, size)
        _MEMO_COUNTS["held_bytes"] += size
    return value


def _memo_stats():
    """Hits, misses and flushes since the process started or the memo was
    cleared, and the bytes held."""
    return dict(_MEMO_COUNTS)


def _memo_empty():
    """Drop every entry; the counts stay."""
    _MEMO.clear()
    _MEMO_COUNTS["held_bytes"] = 0


def _memo_clear():
    _memo_empty()
    _MEMO_COUNTS.update(hits=0, misses=0, flushes=0)


def tensor_value(fn, x):
    """Evaluate a coordinate expression on points x (m,) or (N, m) -> (N, *shape).

    Read-only; one evaluation per point set (``_memo``).
    """
    x, squeeze = _points(x)
    out = _memo("value", fn, x, lambda p: _value(fn, p))
    return out[0] if squeeze else out


def _value(fn, x):
    """tensor_value on a batch, evaluated."""
    n = x.shape[0]
    shape, flats = _flatten(fn([x[:, i] for i in range(x.shape[1])]))
    out = np.empty((n, len(flats)))
    for j, entry in enumerate(flats):
        _put(out, j, entry, n)
    return out.reshape((n,) + shape)


def _forward_eval(fn, x, cls):
    """Evaluate fn once on coordinates seeded as ``cls`` (Dual or Jet2).

    Returns the output shape, the values (N, k) and the derivatives (N, k, m),
    then for Jet2 the second derivatives (N, k, m, m).
    """
    n, m = x.shape
    second = cls is Jet2
    hessian = np.zeros((n, m, m)) if second else None
    coords = []
    for i in range(m):
        seed = np.zeros((n, m))
        seed[:, i] = 1.0
        coords.append(Jet2(x[:, i], seed, hessian) if second else Dual(x[:, i], seed))
    shape, flats = _flatten(fn(coords))
    k = len(flats)
    val = np.empty((n, k))
    der = np.zeros((n, k, m))
    sec = np.zeros((n, k, m, m)) if second else None
    for j, entry in enumerate(flats):
        if isinstance(entry, cls):
            parts = entry._parts()
            _put(val, j, parts[0], n)
            der[:, j] = parts[1]
            if second:
                sec[:, j] = parts[2]
        else:
            _put(val, j, entry, n)
    return (shape, val, der, sec) if second else (shape, val, der)


def tensor_jet(fn, x):
    """Value and exact first derivatives (dual numbers): (N, *shape), (N, *shape, m).

    Derivative index is last.  Accepts a single point (m,) and then drops the
    batch axis.  Read-only; one evaluation per point set (``_memo``).
    """
    x, squeeze = _points(x)
    val, der = _memo("jet", fn, x, lambda p: _jet(fn, p))
    return (val[0], der[0]) if squeeze else (val, der)


def _jet(fn, x):
    """tensor_jet on a batch, evaluated."""
    n, m = x.shape
    shape, val, der = _forward_eval(fn, x, Dual)
    _check_finite(val, der)
    return val.reshape((n,) + shape), der.reshape((n,) + shape + (m,))


def tensor_second(fn, x):
    """Value, exact first and second derivatives (Jet2): the last two axes of
    the second are (i, j).

    Read-only; one evaluation per point set (``_memo``).
    """
    x, squeeze = _points(x)
    out = _memo("second", fn, x, lambda p: _second(fn, p))
    return tuple(a[0] for a in out) if squeeze else out


def _second(fn, x):
    """tensor_second on a batch, evaluated."""
    n, m = x.shape
    shape, val, der, sec = _forward_eval(fn, x, Jet2)
    _check_finite(val, der, sec)
    return (
        val.reshape((n,) + shape),
        der.reshape((n,) + shape + (m,)),
        sec.reshape((n,) + shape + (m, m)),
    )


def _stencil(field, x, h):
    """Central differences of a batch field at x (N, m) from one field call: (N, *s, m).

    The field receives the 2m shifted copies of x stacked shift-major, (2m*N, m):
    x + h e_0, ..., x + h e_(m-1), then x - h e_0, ..., x - h e_(m-1).  It must
    return one row per point; any other first axis raises DifferentiationFailure.
    """
    n, m = x.shape
    shifts = (h * np.eye(m))[:, None, :]
    rows = 2 * m * n
    vals = np.asarray(field(np.concatenate([x + shifts, x - shifts]).reshape(rows, m)), dtype=float)
    if vals.shape[:1] != (rows,):
        raise DifferentiationFailure(
            f"stencil field returned shape {vals.shape}; expected {rows} = 2m*N rows "
            f"(m = {m}, N = {n}), one per shifted point: per-point data must repeat "
            "for every shift"
        )
    vals = vals.reshape((2, m, n) + vals.shape[1:])
    out = np.empty(vals.shape[2:] + (m,))
    diff = np.moveaxis(out, -1, 0)  # (m, N, *s) view of the result
    np.subtract(vals[0], vals[1], out=diff)
    diff /= 2.0 * h
    return out


def field_partials(field, x, h):
    """Central-difference partial derivatives of a black-box batch field.

    field maps (K, m) points to an array (K, *s), row by row; returns (N, *s, m)
    for x (N, m).  The stencil calls it once, on the 2m shifted copies of x
    stacked shift-major (K = 2m*N), so a field that carries per-point data
    must repeat that data for every shift.  Its callers pass ``FD_STEP``: the
    FD oracles, the direct sides of the identity suites, and a structure or
    field that comes without a coordinate expression.
    """
    x, squeeze = _points(x)
    out = _stencil(field, x, h)
    _check_finite(out)
    return out[0] if squeeze else out
