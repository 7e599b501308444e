"""A fixed reference computation that gauges the host's current speed.

    python3 perfbench/calibrate.py

run.py times this script in a fresh process before each sample. It uses no
hjj code, so no change to hjj can move it; it mixes the kinds of work hjj's
commands spend their time on: interpreter start and the numpy import, a
scalar ternary search in pure Python, many small numpy operations, and
formatting floats with 17 digits.
"""

import numpy as np


def _ternary(steps: int) -> float:
    def h(p, a=1.5, b=0.25):
        d = p - b
        return a * d * d - 1.0

    lo, hi, acc = -3.0, 3.0, 0.0
    for i in range(steps):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1, f2 = h(m1), h(m2)
        acc += f1 - f2
        if i % 50 == 0:
            lo, hi = -3.0, 3.0
        elif f1 < f2:
            hi = m2
        else:
            lo = m1
    return acc


def _small_arrays(steps: int) -> float:
    u = np.linspace(0.0, 1.0, 201)
    for _ in range(steps):
        q = np.diff(u) / 0.02
        u = u - 1e-4 * np.maximum(q[:-1], q[1:]).mean()
    return float(u[0])


def _format(n: int) -> int:
    return len("\n".join(f"{v:.17g}" for v in np.arange(n) * 0.1))


if __name__ == "__main__":
    _ternary(400_000)
    _small_arrays(5_000)
    _format(100_000)
