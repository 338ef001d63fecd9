"""Evaluation of user data callables (forces, boundary data, exact fields).

Every layer evaluates user data through :func:`evaluate`: one call with
coordinate arrays, one array back.
"""

from __future__ import annotations

import numpy as np

__all__ = ["evaluate"]


def evaluate(func, x, y):
    """Values of ``func`` at the points (x, y), as one float array.

    ``func(x, y)`` is called once with the coordinate arrays and returns a
    scalar, a pair of components (a vector) or a pair of pairs (a gradient,
    ``[..., i, j] = d u_i / d x_j``); each component is broadcast to
    ``x.shape``, so constants such as ``(1.0, 0.0)`` work.  The result has
    shape ``x.shape``, ``x.shape + (2,)`` or ``x.shape + (2, 2)``.  A
    callable that rejects arrays with ``TypeError`` or ``ValueError`` (one
    written with ``math`` functions, say) is called once per point instead.
    Any other exception propagates.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    try:
        value = func(x, y)
    except (TypeError, ValueError):
        points = [_stack(func(a, b), ()) for a, b in zip(x.ravel(), y.ravel())]
        out = np.array(points, dtype=float)
        out = out.reshape(x.shape + out.shape[1:])
    else:
        out = _stack(value, x.shape)
    if out.shape[x.ndim:] not in ((), (2,), (2, 2)):
        raise ValueError(f"data callable returned components of shape "
                         f"{out.shape[x.ndim:]}; expected (), (2,) or (2, 2)")
    return out


def _stack(value, shape):
    """``value`` as a fresh float array of shape ``shape`` plus components."""
    if isinstance(value, (tuple, list)) or np.ndim(value) > len(shape):
        return np.stack([_stack(v, shape) for v in value], axis=len(shape))
    return np.broadcast_to(value, shape).astype(float)
