import math

import numpy as np
import pytest

from gradetwo.errors import GradeTwoError
from gradetwo.exprlang import DomainError
from gradetwo.userdata import evaluate

X = np.linspace(0.0, 1.0, 12).reshape(3, 4)
Y = X[::-1].copy()


def test_constant_returns_broadcast():
    s = evaluate(lambda x, y: 0.0, X, Y)
    assert s.shape == (3, 4) and not s.any()
    v = evaluate(lambda x, y: (1.0, 0.0), X, Y)
    assert v.shape == (3, 4, 2)
    assert (v[..., 0] == 1.0).all() and (v[..., 1] == 0.0).all()
    mixed = evaluate(lambda x, y: (x, 1.0), X, Y)
    assert np.array_equal(mixed[..., 0], X) and (mixed[..., 1] == 1.0).all()


def test_result_is_a_fresh_array():
    out = evaluate(lambda x, y: x, X, Y)
    out[0, 0] = 7.0
    assert X[0, 0] == 0.0


def test_nested_pairs_give_gradient_shape():
    g = evaluate(lambda x, y: ((x, y), (2.0 * x, 0.0)), X, Y)
    assert g.shape == (3, 4, 2, 2)
    assert np.array_equal(g[..., 0, 1], Y)
    assert np.array_equal(g[..., 1, 0], 2.0 * X)
    assert (g[..., 1, 1] == 0.0).all()


def test_scalar_only_callable_falls_back_per_point():
    calls = []

    def scalar_only(x, y):
        calls.append((x, y))
        return (math.sin(math.pi * x) * math.cos(y), math.sqrt(x + y))

    def array_version(x, y):
        return (np.sin(np.pi * x) * np.cos(y), np.sqrt(x + y))

    slow = evaluate(scalar_only, X, Y)
    assert len(calls) == 1 + X.size  # one rejected array call, then points
    fast = evaluate(array_version, X, Y)
    assert slow.shape == fast.shape == (3, 4, 2)
    assert slow.tobytes() == fast.tobytes()


def test_branching_callable_falls_back():
    step = evaluate(lambda x, y: 1.0 if x < 0.5 else 0.0, X, Y)
    assert np.array_equal(step, (X < 0.5).astype(float))


@pytest.mark.parametrize("func", [
    lambda x, y: (x, y, x),
    lambda x, y: x[:2],
    lambda x, y: (((x, y), (x, y)), ((x, y), (x, y))),
])
def test_wrong_shaped_return_raises(func):
    with pytest.raises(ValueError):
        evaluate(func, X, Y)


@pytest.mark.parametrize("error", [DomainError, GradeTwoError])
def test_data_errors_are_not_retried(error):
    calls = []

    def failing(x, y):
        calls.append(x)
        raise error("bad data")

    with pytest.raises(error):
        evaluate(failing, X, Y)
    assert len(calls) == 1
