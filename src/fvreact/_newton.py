"""Damped Newton and the banded LAPACK solve shared by the implicit steps."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from pathlib import Path
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
    history: tuple        # scaled residual at z0 and after each step taken


@cache
def _flapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, loaded
    from their file next to scipy without importing the scipy.linalg
    package, which would load ~85 more scipy modules (and numpy.f2py,
    numpy.testing and numpy.ma): 17-20 MB of peak memory and ~0.2 s of a
    cold start.  scipy's top level is imported first: on some platforms
    its init sets up the path of the bundled LAPACK library.
    ``importlib.util.find_spec`` is not used, because it imports the
    parent package.  The module is entered in ``sys.modules``, so a later
    ``import scipy.linalg`` uses it."""
    import scipy

    name = "scipy.linalg._flapack"
    folder = Path(scipy.__file__).parent / "linalg"
    for suffix in EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no _flapack extension in {folder}")
    spec = spec_from_loader(name, ExtensionFileLoader(name, str(path)))
    module = sys.modules[name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@cache
def _lapack(name: str):
    """The float64 LAPACK routine ``d<name>``: the object that
    ``scipy.linalg.get_lapack_funcs`` returns for float64 arrays, which
    picks it from the same module."""
    return getattr(_flapack(), "d" + name)


def lapack_solve(name: str, *args, **overwrite) -> np.ndarray:
    """Solve a banded system with LAPACK's ``gbsv(kl, ku, ab, b)`` or
    ``gtsv(dl, d, du, b)`` as ``scipy.linalg.solve_banded`` does, with its
    checks: ValueError on non-finite input or an illegal argument,
    LinAlgError on a singular matrix; a 1 x 1 gtsv system is divided.  The
    routine comes from scipy's LAPACK extension, loaded on first use
    without the scipy.linalg package (see ``_flapack``): importing fvreact
    imports no scipy, and a step loads scipy's top level and that
    extension only.
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


# Trial step lengths: a rejected correction is halved up to 12 times.
_DAMPED_STEPS = tuple(0.5 ** i for i in range(13))

# A correction this small relative to max(1, |z|) is at working precision.
FLOOR = 64.0 * np.finfo(float).eps


def damped_newton(z0: np.ndarray,
                  residual_fn: Callable,
                  solve_fn: Callable,
                  norm_fn: Callable,
                  tol: float,
                  max_iter: int) -> NewtonResult:
    """Newton iteration with backtracking damping.

    ``solve_fn(z, r)`` returns the Newton correction ``delta`` with
    J(z) delta = r; ``norm_fn(z, r)`` the scaled residual max-norm.
    A correction that fails to reduce the norm is halved up to 12 times.

    The iteration returns as soon as the norm is at most ``tol``, or at the
    rounding floor: when a full correction fails to reduce the norm while
    max |delta| / max(1, |z|) <= FLOOR, the current iterate is returned as
    converged.  Double precision cannot lower the residual of a large
    dt T / m step to ``tol``, so such a result reports a residual above it.
    The floor is tested only at that rejection.

    ``iterations`` counts every correction, taken or not; ``history`` holds
    the norm at ``z0`` and after each step taken.
    """
    z = np.array(z0, dtype=float, copy=True)
    r = residual_fn(z)
    res = float(norm_fn(z, r))
    history = [res]
    iters, evals, solves = 0, 1, 0
    converged = res <= tol
    while not converged and iters < max_iter:
        solves += 1
        try:
            delta = solve_fn(z, r)
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(delta).all():
            break
        for lam in _DAMPED_STEPS:
            z_try = z - lam * delta
            r_try = residual_fn(z_try)
            evals += 1
            res_try = float(norm_fn(z_try, r_try))
            if np.isfinite(res_try) and res_try < res:
                break
            if lam == 1.0 and _at_floor(delta, z):
                return NewtonResult(z, iters + 1, res, True, evals, solves,
                                    tuple(history))
        else:
            iters += 1
            break
        z, r, res = z_try, r_try, res_try
        history.append(res)
        iters += 1
        converged = res <= tol
    return NewtonResult(z, iters, res, converged, evals, solves,
                        tuple(history))


def _at_floor(delta: np.ndarray, z: np.ndarray) -> bool:
    """Whether the correction ``delta`` at ``z`` is at working precision."""
    return float((np.abs(delta) / np.maximum(1.0, np.abs(z))).max()) <= FLOOR
