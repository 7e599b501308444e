"""The evaluator contract: positions arrive as arrays, with a per-position fallback.

Hamiltonian.eval_p(t, xs, P) and control_system._call_g(g, t, xs, a) must
equal the per-position scalar calls bit for bit, whether the evaluator
broadcasts, raises TypeError or ValueError on arrays, or returns another
shape.
"""

from __future__ import annotations

import numpy as np
import pytest

from hjj import ControlForm, Hamiltonian
from hjj.control_system import _call_g


def _broadcasts(t, x, v):
    return np.abs(v) * (1.0 + 0.2 * np.minimum(np.abs(x), 1.0)) + np.sin(3.0 * x) * t


def _type_error(t, x, v):  # float() of a many-entry array raises TypeError
    return np.abs(v) * (1.0 + 0.2 * min(abs(float(x)), 1.0)) + np.sin(3.0 * float(x)) * t


def _value_error(t, x, v):  # min() compares arrays: ValueError
    return np.abs(v) * (1.0 + 0.2 * min(x, 1.0)) + np.sin(3.0 * x) * t


def _wrong_shape(t, x, v):  # a (positions, values) table when both are arrays
    return np.multiply.outer(1.0 + 0.2 * np.minimum(np.abs(x), 1.0), np.abs(v)) + np.sin(3.0 * x) * t


KINDS = {"broadcasts": _broadcasts, "type_error": _type_error,
         "value_error": _value_error, "wrong_shape": _wrong_shape}

XS = np.array([0.0, 0.3, 0.7, 1.2, 2.5])
T = 0.37


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_eval_p_at_positions_equals_the_scalar_calls(kind):
    fn = KINDS[kind]
    h = Hamiltonian(fn, lipschitz_p=1.2, validate=False)
    slopes = np.linspace(-2.0, 2.0, 4)[:, None] + 0.1 * XS  # (slopes, positions)
    got = h.eval_p(T, XS, slopes)
    want = np.array([[float(fn(T, x, p)) for x, p in zip(XS.tolist(), row)] for row in slopes])
    assert got.shape == slopes.shape
    assert got.tobytes() == want.tobytes()
    # a 1-D p with one position per slope, and one float position for all slopes
    assert h.eval_p(T, XS, slopes[1]).tobytes() == want[1].tobytes()
    at_one = np.array([float(fn(T, 0.7, p)) for p in slopes[:, 2]])
    assert h.eval_p(T, 0.7, slopes[:, 2]).tobytes() == at_one.tobytes()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_call_g_at_positions_equals_the_scalar_calls(kind):
    fn = KINDS[kind]
    controls = np.linspace(-1.0, 1.0, 7)
    got = _call_g(fn, T, XS, controls)
    want = np.array([[float(fn(T, x, a)) for x in XS.tolist()] for a in controls])
    assert got.shape == (len(controls), len(XS))
    assert got.tobytes() == want.tobytes()
    assert _call_g(fn, T, 0.7, controls).tobytes() == want[:, 2].tobytes()


def test_call_g_gives_a_form_one_column():
    form = ControlForm(c0=0.5, c1=2.0, c2=-0.3)
    controls = np.linspace(-1.0, 1.0, 7)
    got = _call_g(form, T, XS, controls)
    assert got.shape == (len(controls), 1)
    assert got[:, 0].tobytes() == form.eval(T, controls).tobytes()
