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

    After the tolerance is met, up to two extra full steps are taken
    while each halves the residual or better.  Downstream telescoped sums
    (mass balances over hundreds of steps) rely on converged residuals
    sitting at their floating-point floor rather than just under ``tol``.
    """
    z = np.array(z0, dtype=float, copy=True)
    r = residual_fn(z)
    res = float(norm_fn(z, r))
    iters = 0
    evals, solves = 1, 0
    converged = res <= tol
    while not converged and iters < max_iter:
        solves += 1
        try:
            delta = solve_fn(z, r)
        except np.linalg.LinAlgError:
            return NewtonResult(z, iters, res, False, evals, solves)
        if not np.all(np.isfinite(delta)):
            return NewtonResult(z, iters, res, False, evals, solves)
        accepted = False
        lam = 1.0
        while lam >= 2.0 ** -12:
            z_try = z - lam * delta
            r_try = residual_fn(z_try)
            evals += 1
            res_try = float(norm_fn(z_try, r_try))
            if np.isfinite(res_try) and res_try < res:
                z, r, res, accepted = z_try, r_try, res_try, True
                break
            lam *= 0.5
        iters += 1
        if not accepted:
            return NewtonResult(z, iters, res, res <= tol, evals, solves)
        converged = res <= tol

    if converged:
        for _ in range(2):
            solves += 1
            try:
                delta = solve_fn(z, r)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(delta)):
                break
            z_try = z - delta
            r_try = residual_fn(z_try)
            evals += 1
            res_try = float(norm_fn(z_try, r_try))
            if not np.isfinite(res_try) or res_try >= res:
                break
            big_improvement = res_try < 0.5 * res
            z, r, res = z_try, r_try, res_try
            iters += 1
            if not big_improvement:
                break
    return NewtonResult(z, iters, res, converged, evals, solves)
