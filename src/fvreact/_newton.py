"""Damped Newton and the banded LAPACK solve shared by the implicit steps."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class NewtonResult:
    z: np.ndarray
    iterations: int
    residual: float       # final scaled residual (max norm)
    converged: bool
    residual_evals: int   # calls of residual_fn
    linear_solves: int    # calls of solve_fn


@cache
def _lapack(name: str):
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs((name,))[0]


def lapack_solve(name: str, *args, **overwrite) -> np.ndarray:
    """Solve a banded system with LAPACK's ``gbsv(kl, ku, ab, b)`` or
    ``gtsv(dl, d, du, b)`` as ``scipy.linalg.solve_banded`` does, with its
    checks: ValueError on non-finite input or an illegal argument,
    LinAlgError on a singular matrix; a 1 x 1 gtsv system is divided.  The
    routine is looked up on first use: importing fvreact imports no scipy.
    """
    for a in args:
        if isinstance(a, np.ndarray) and not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")
    if name == "gtsv" and args[1].size == 1:
        return args[3] / args[1]
    *_, x, info = _lapack(name)(*args, **overwrite)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(
            f"illegal value in {-info}-th argument of internal {name}")
    return x


# Trial step lengths: the damped phase halves a rejected correction up to
# 12 times; the polish takes full steps only.
_DAMPED_STEPS = tuple(0.5 ** i for i in range(13))
_FULL_STEP = _DAMPED_STEPS[:1]

# A correction this small relative to max(1, |z|) is at working precision.
FLOOR = 64.0 * np.finfo(float).eps


def damped_newton(z0: np.ndarray,
                  residual_fn: Callable,
                  solve_fn: Callable,
                  norm_fn: Callable,
                  tol: float,
                  max_iter: int) -> NewtonResult:
    """Newton iteration with backtracking damping and residual polish.

    ``solve_fn(z, r)`` returns the Newton correction ``delta`` with
    J(z) delta = r; ``norm_fn(z, r)`` the scaled residual max-norm.
    A correction that fails to reduce the norm is halved up to 12 times.

    The iteration converges when the norm is at most ``tol``, or at the
    rounding floor: when a full correction fails to reduce the norm while
    max |delta| / max(1, |z|) <= FLOOR, the current iterate is returned as
    converged.  Double precision cannot lower the residual of a large
    dt T / m step to ``tol``, so such a result reports a residual above it.
    The floor is tested only at that rejection.

    After the tolerance is met, up to two extra full steps are taken
    while each halves the residual or better.  Downstream telescoped sums
    (mass balances over hundreds of steps) rely on converged residuals
    sitting at their floating-point floor rather than just under ``tol``.

    ``iterations`` counts every correction before convergence, taken or
    not, and the polish steps taken.
    """
    z = np.array(z0, dtype=float, copy=True)
    r = residual_fn(z)
    res = float(norm_fn(z, r))
    iters, evals, solves, polished = 0, 1, 0, 0
    converged = res <= tol
    while polished < 2 if converged else iters < max_iter:
        solves += 1
        try:
            delta = solve_fn(z, r)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        for lam in _FULL_STEP if converged else _DAMPED_STEPS:
            z_try = z - lam * delta
            r_try = residual_fn(z_try)
            evals += 1
            res_try = float(norm_fn(z_try, r_try))
            if np.isfinite(res_try) and res_try < res:
                break
            if lam == 1.0 and not converged and _at_floor(delta, z):
                return NewtonResult(z, iters + 1, res, True, evals, solves)
        else:
            if not converged:
                iters += 1
            break
        if converged:
            polished = polished + 1 if res_try < 0.5 * res else 2
        z, r, res = z_try, r_try, res_try
        iters += 1
        converged = res <= tol
    return NewtonResult(z, iters, res, converged, evals, solves)


def _at_floor(delta: np.ndarray, z: np.ndarray) -> bool:
    """Whether the correction ``delta`` at ``z`` is at working precision."""
    return float(np.max(np.abs(delta) / np.maximum(1.0, np.abs(z)))) <= FLOOR
