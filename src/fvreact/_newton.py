"""Damped Newton driver shared by the coupled and scalar implicit solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class NewtonResult:
    z: np.ndarray
    iterations: int
    residual: float   # final scaled residual (max norm)
    converged: bool


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
    converged = res <= tol
    while not converged and iters < max_iter:
        try:
            delta = solve_fn(z, r)
        except np.linalg.LinAlgError:
            return NewtonResult(z, iters, res, False)
        if not np.all(np.isfinite(delta)):
            return NewtonResult(z, iters, res, False)
        accepted = False
        lam = 1.0
        while lam >= 2.0 ** -12:
            z_try = z - lam * delta
            r_try = residual_fn(z_try)
            res_try = float(norm_fn(z_try, r_try))
            if np.isfinite(res_try) and res_try < res:
                z, r, res, accepted = z_try, r_try, res_try, True
                break
            lam *= 0.5
        iters += 1
        if not accepted:
            return NewtonResult(z, iters, res, res <= tol)
        converged = res <= tol

    if converged:
        for _ in range(2):
            try:
                delta = solve_fn(z, r)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(delta)):
                break
            z_try = z - delta
            r_try = residual_fn(z_try)
            res_try = float(norm_fn(z_try, r_try))
            if not np.isfinite(res_try) or res_try >= res:
                break
            big_improvement = res_try < 0.5 * res
            z, r, res = z_try, r_try, res_try
            iters += 1
            if not big_improvement:
                break
    return NewtonResult(z, iters, res, converged)
