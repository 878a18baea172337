"""numpy's LAPACK gufuncs, called the way ``np.linalg``'s own wrappers call
them.

``np.linalg.lstsq``, ``eigvalsh`` and ``solve`` spend several microseconds
in Python around their gufunc: operand coercion, type resolution, a new
``np.errstate`` per call, ``finfo``, reshapes and a copy of the result.
The forms here make the gufunc call those wrappers make for float64
operands (the same gufunc, operands and signature), so their results are
the wrappers' bit for bit.  They keep what matters of the wrappers:
``lstsq``'s default cutoff eps max(m, n), its zeros for an ``a`` without
rows, and a ``LinAlgError`` with numpy's message when LAPACK fails.

A failing gufunc sets the floating-point invalid flag, which numpy's
wrappers turn into the ``LinAlgError`` through the ``np.errstate`` they
enter on every call.  Here a function that makes these calls is decorated
with ``raising`` instead, entered once per call of that function: it makes
the flag raise a ``FloatingPointError``, which each form re-raises as
numpy's ``LinAlgError``.  Outside ``raising`` a failure would only warn and
return NaN, so every caller runs the forms inside it.  ``raising`` sets the
invalid flag alone, so the decorated function's own arithmetic raises a
``FloatingPointError`` where it would have warned of an invalid value
(none does on a plan's finite data), and a divide-by-zero or overflow
still warns as it did.

The arguments are float64 arrays; ``lstsq``'s right-hand side is a vector.
Needs numpy 2.4.6 or newer: numpy 1.x splits ``lstsq`` into two gufuncs
and passes an ``extobj`` instead.
"""

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

for _name in ("lstsq", "eigvalsh_lo", "solve", "solve1"):
    if not isinstance(getattr(_umath_linalg, _name, None), np.ufunc):
        raise ImportError("contactplan needs numpy>=2.4.6: numpy "
                          f"{np.__version__} has no gufunc "
                          f"numpy.linalg._umath_linalg.{_name}")

_EPS = np.finfo(float).eps

# Decorates each function that calls the forms below (see the docstring).
raising = np.errstate(invalid="raise")


def lstsq(a, b, rcond=None):
    """``np.linalg.lstsq(a, b, rcond)[0]`` for a (m, n) ``a`` and an (m,)
    ``b``; ``rcond=None`` is eps max(m, n)."""
    m, n = a.shape
    if not m:
        return np.zeros(n)
    if rcond is None:
        rcond = _EPS * max(m, n)
    try:
        return _umath_linalg.lstsq(a, b[:, None], rcond,
                                   signature="ddd->ddid")[0][:, 0]
    except FloatingPointError:
        raise LinAlgError("SVD did not converge in Linear Least Squares") \
            from None


def eigvalsh(a):
    """``np.linalg.eigvalsh(a)``: the ascending eigenvalues of a symmetric
    ``a``, read from its lower triangle."""
    try:
        return _umath_linalg.eigvalsh_lo(a, signature="d->d")
    except FloatingPointError:
        raise LinAlgError("Eigenvalues did not converge") from None


def solve(a, b):
    """``np.linalg.solve(a, b)``: one vector ``b``, or a stack of matrices
    against a stack of (or one) square ``a``."""
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    try:
        return gufunc(a, b, signature="dd->d")
    except FloatingPointError:
        raise LinAlgError("Singular matrix") from None
