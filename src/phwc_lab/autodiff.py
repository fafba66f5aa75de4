"""Forward-mode differentiation engine.

Coordinate expressions (metrics, maps, structure fields) are plain Python
callables that receive a list of coordinate values and return a (nested)
list of entries built from numpy ufuncs and arithmetic.  Evaluating the
same callable on `Dual` coordinates yields exact first derivatives for a
whole batch of points in one pass; `Jet2` coordinates propagate values,
gradients and Hessians (the flattened form of nested dual numbers).

First derivatives default to dual numbers; second derivatives default to
central differences of dual-computed first derivatives, which keeps the
roundoff error near eps/h instead of eps/h^2.

An expression returns a (nested) list or tuple of one common shape per
level; every entry is a scalar, a (1,) array or an (N,) array over the N
points, and Dual or Jet2 entries carry values of those shapes.  Anything
else, including an empty output, raises DifferentiationFailure naming the
entry.

A central-difference stencil is one batched evaluation: the 2m shifted
copies of the N points are stacked shift-major into one (2m*N, m) batch, the
field or expression runs once on it, and the differences come from the
reshaped result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DifferentiationFailure

__all__ = [
    "DiffConfig",
    "Dual",
    "Jet2",
    "tensor_value",
    "tensor_jet",
    "tensor_second",
    "field_partials",
]


@dataclass(frozen=True)
class DiffConfig:
    """How derivatives of coordinate expressions are taken.

    mode: "dual_number_forward" or "central_difference" (first derivatives).
    fd_step: step for every central difference, clamped to [1e-8, 1e-2].
    second_derivative_mode: "nested_dual" or "central_difference".
    """

    mode: str = "dual_number_forward"
    fd_step: float = 1e-5
    second_derivative_mode: str = "central_difference"

    def __post_init__(self):
        if self.mode not in ("dual_number_forward", "central_difference"):
            raise ConfigError(f"unknown differentiation mode {self.mode!r}")
        if self.second_derivative_mode not in ("nested_dual", "central_difference"):
            raise ConfigError(
                f"unknown second_derivative_mode {self.second_derivative_mode!r}"
            )
        if not (1e-8 <= self.fd_step <= 1e-2):
            raise ConfigError(f"fd_step {self.fd_step} outside [1e-8, 1e-2]")


def _pay(c, b):
    """Broadcast a value against a derivative payload (one extra trailing axis)."""
    c = np.asarray(c)
    if c.ndim == 0:
        return c * b
    return c[..., None] * b


class Dual:
    """First-order forward dual: value ``a`` (batch,) plus payload ``b`` (batch, k)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)

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

    # -- smooth primitives --------------------------------------------------
    def _lift(self, v, dv):
        return Dual(v, _pay(dv, self.b))

    def sin(self):
        return self._lift(np.sin(self.a), np.cos(self.a))

    def cos(self):
        return self._lift(np.cos(self.a), -np.sin(self.a))

    def tan(self):
        c = np.cos(self.a)
        return self._lift(np.tan(self.a), 1.0 / (c * c))

    def exp(self):
        e = np.exp(self.a)
        return self._lift(e, e)

    def log(self):
        return self._lift(np.log(self.a), 1.0 / self.a)

    def sqrt(self):
        r = np.sqrt(self.a)
        return self._lift(r, 0.5 / r)

    def sinh(self):
        return self._lift(np.sinh(self.a), np.cosh(self.a))

    def cosh(self):
        return self._lift(np.cosh(self.a), np.sinh(self.a))

    def tanh(self):
        t = np.tanh(self.a)
        return self._lift(t, 1.0 - t * t)

    def arctan(self):
        return self._lift(np.arctan(self.a), 1.0 / (1.0 + self.a * self.a))

    def arcsin(self):
        return self._lift(np.arcsin(self.a), 1.0 / np.sqrt(1.0 - self.a * self.a))

    def arccos(self):
        return self._lift(np.arccos(self.a), -1.0 / np.sqrt(1.0 - self.a * self.a))

    def floor(self):
        # derivative of floor is 0 almost everywhere (used by periodic wraps)
        return Dual(np.floor(self.a), np.zeros_like(self.b))

    def square(self):
        return self * self

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs.get("out") is not None:
            return NotImplemented
        return _dispatch(Dual, ufunc, inputs)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Dual(a={self.a!r})"


class Jet2:
    """Second-order forward jet: value ``v``, gradient ``g`` (...,k), Hessian ``h`` (...,k,k)."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v = np.asarray(v, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.h = np.asarray(h, dtype=float)

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

    def sin(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return self._chain(c, -s, -c)

    def tan(self):
        t = np.tan(self.v)
        sec2 = 1.0 + t * t
        return self._chain(t, sec2, 2.0 * t * sec2)

    def exp(self):
        e = np.exp(self.v)
        return self._chain(e, e, e)

    def log(self):
        inv = 1.0 / self.v
        return self._chain(np.log(self.v), inv, -inv * inv)

    def sqrt(self):
        r = np.sqrt(self.v)
        return self._chain(r, 0.5 / r, -0.25 / (r * self.v))

    def sinh(self):
        s, c = np.sinh(self.v), np.cosh(self.v)
        return self._chain(s, c, s)

    def cosh(self):
        s, c = np.sinh(self.v), np.cosh(self.v)
        return self._chain(c, s, c)

    def tanh(self):
        t = np.tanh(self.v)
        d = 1.0 - t * t
        return self._chain(t, d, -2.0 * t * d)

    def arctan(self):
        d = 1.0 / (1.0 + self.v * self.v)
        return self._chain(np.arctan(self.v), d, -2.0 * self.v * d * d)

    def arcsin(self):
        w = 1.0 - self.v * self.v
        return self._chain(np.arcsin(self.v), w**-0.5, self.v * w**-1.5)

    def arccos(self):
        w = 1.0 - self.v * self.v
        return self._chain(np.arccos(self.v), -(w**-0.5), -self.v * w**-1.5)

    def floor(self):
        return Jet2(np.floor(self.v), np.zeros_like(self.g), np.zeros_like(self.h))

    def square(self):
        return self * self

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs.get("out") is not None:
            return NotImplemented
        return _dispatch(Jet2, ufunc, inputs)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet2(v={self.v!r})"


_UNARY = {
    np.sin: "sin",
    np.cos: "cos",
    np.tan: "tan",
    np.exp: "exp",
    np.log: "log",
    np.sqrt: "sqrt",
    np.sinh: "sinh",
    np.cosh: "cosh",
    np.tanh: "tanh",
    np.arctan: "arctan",
    np.arcsin: "arcsin",
    np.arccos: "arccos",
    np.floor: "floor",
    np.square: "square",
    np.negative: "__neg__",
    np.positive: None,
}


def _dispatch(cls, ufunc, inputs):
    if ufunc in _UNARY:
        name = _UNARY[ufunc]
        (x,) = inputs
        return x if name is None else getattr(x, name)()
    if ufunc is np.add:
        x, y = inputs
        return (x + y) if isinstance(x, cls) else (y + x)
    if ufunc is np.subtract:
        x, y = inputs
        return (x - y) if isinstance(x, cls) else y.__rsub__(x)
    if ufunc is np.multiply:
        x, y = inputs
        return (x * y) if isinstance(x, cls) else (y * x)
    if ufunc is np.true_divide:
        x, y = inputs
        return (x / y) if isinstance(x, cls) else y.__rtruediv__(x)
    if ufunc is np.power:
        x, y = inputs
        if isinstance(x, cls):
            return x**y
        return NotImplemented
    return NotImplemented


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


def tensor_value(fn, x):
    """Evaluate a coordinate expression on points x (m,) or (N, m) -> (N, *shape)."""
    x, squeeze = _points(x)
    n = x.shape[0]
    shape, flats = _flatten(fn([x[:, i] for i in range(x.shape[1])]))
    out = np.empty((n, len(flats)))
    for j, entry in enumerate(flats):
        _put(out, j, entry, n)
    out = out.reshape((n,) + shape)
    return out[0] if squeeze else out


def _dual_eval(fn, x):
    n, m = x.shape
    coords = []
    for i in range(m):
        b = np.zeros((n, m))
        b[:, i] = 1.0
        coords.append(Dual(x[:, i], b))
    shape, flats = _flatten(fn(coords))
    val = np.empty((n, len(flats)))
    der = np.zeros((n, len(flats), m))
    for j, entry in enumerate(flats):
        if isinstance(entry, Dual):
            _put(val, j, entry.a, n)
            der[:, j, :] = entry.b
        else:
            _put(val, j, entry, n)
    return shape, val, der


def tensor_jet(fn, x, cfg=None):
    """Value and first derivatives: (N, *shape), (N, *shape, m).

    Derivative index is last.  Accepts a single point (m,) and then drops the
    batch axis.
    """
    cfg = cfg or DiffConfig()
    x, squeeze = _points(x)
    n, m = x.shape
    if cfg.mode == "dual_number_forward":
        shape, val, der = _dual_eval(fn, x)
    else:
        val = tensor_value(fn, x)
        shape = val.shape[1:]
        der = _stencil(lambda p: tensor_value(fn, p), x, cfg.fd_step)
    _check_finite(val, der)
    val = val.reshape((n,) + shape)
    der = der.reshape((n,) + shape + (m,))
    return (val[0], der[0]) if squeeze else (val, der)


def _jet2_eval(fn, x):
    n, m = x.shape
    coords = []
    for i in range(m):
        g = np.zeros((n, m))
        g[:, i] = 1.0
        coords.append(Jet2(x[:, i], g, np.zeros((n, m, m))))
    shape, flats = _flatten(fn(coords))
    val = np.empty((n, len(flats)))
    der = np.zeros((n, len(flats), m))
    sec = np.zeros((n, len(flats), m, m))
    for j, entry in enumerate(flats):
        if isinstance(entry, Jet2):
            _put(val, j, entry.v, n)
            der[:, j] = entry.g
            sec[:, j] = entry.h
        else:
            _put(val, j, entry, n)
    return shape, val, der, sec


def tensor_second(fn, x, cfg=None):
    """Value, first and second derivatives: last two axes of the second are (i, j)."""
    cfg = cfg or DiffConfig()
    x, squeeze = _points(x)
    n, m = x.shape
    if cfg.second_derivative_mode == "nested_dual":
        shape, val, der, sec = _jet2_eval(fn, x)
    else:
        val, der = tensor_jet(fn, x, cfg)
        shape = val.shape[1:]
        sec = _stencil(lambda p: tensor_jet(fn, p, cfg)[1], x, cfg.fd_step)
        sec = 0.5 * (sec + np.swapaxes(sec, -1, -2))
    _check_finite(val, der, sec)
    val = val.reshape((n,) + shape)
    der = der.reshape((n,) + shape + (m,))
    sec = sec.reshape((n,) + shape + (m, m))
    return (val[0], der[0], sec[0]) if squeeze else (val, der, sec)


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
    must repeat that data for every shift.  Used wherever a quantity is only
    available through numerical constructions (pullback tensors, frames,
    induced structures).
    """
    x, squeeze = _points(x)
    out = _stencil(field, x, h)
    _check_finite(out)
    return out[0] if squeeze else out
