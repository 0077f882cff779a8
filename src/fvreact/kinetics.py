"""Reaction rate laws and the equilibrium-manifold maps derived from them.

A two-species system (u, v) exchanges mass through the rate gap
r_u(u) - r_v(v), weighted by stoichiometric coefficients alpha and beta.
Where the gap closes, v is a function of u (``v_from_u``), the conserved
combination w = u/alpha + v/beta is an increasing function of u
(``w_from_u``), and the whole equilibrium state is recoverable from w alone
(``u_from_w``, ``v_from_w``).  The effective nonlinear diffusion flux of the
fast-reaction regime is packaged as ``flux_potential``; its slope comes
with it from the same inversion in ``flux_potential_and_deriv``.

Every rate law is a power law c s^p with c > 0 and p >= 1 (``RateLaw``),
so r_v has a closed-form inverse and ``v_from_u`` is one expression.  The
remaining inversion, ``u_from_w``, uses safeguarded Newton iteration with a
bisection fallback on a guaranteed bracket, so it does not depend on
starting guesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergenceError

__all__ = [
    "RateLaw",
    "Kinetics",
    "DimerisationKinetics",
    "dimerisation_kinetics",
    "power_law_kinetics",
    "kinetics_from_dict",
    "invert_monotone",
    "dimerisation_u_closed_form",
    "dimerisation_g_closed_form",
    "closed_form_discrepancy",
    "TOL_INV",
]

TOL_INV = 1e-12  # mixed absolute/relative tolerance for scalar inversions


@dataclass(frozen=True)
class RateLaw:
    """Power-law rate r(s) = coeff * s**exponent on s >= 0.

    ``coeff`` must be finite and positive and ``exponent`` finite and >= 1,
    so r is strictly increasing, vanishes at 0 and is continuously
    differentiable there.  ``value``, ``deriv`` and ``inverse`` accept
    numpy arrays.  Exponents 1 and 2 use plain products and ``np.sqrt``
    instead of ``np.power``, which fixes their bits independently of
    numpy's scalar-power fast paths.
    """

    coeff: float
    exponent: float

    def __post_init__(self):
        if not (math.isfinite(self.coeff) and self.coeff > 0):
            raise ValueError(
                f"rate coefficient must be finite and positive, "
                f"got {self.coeff!r}")
        if not (math.isfinite(self.exponent) and self.exponent >= 1.0):
            raise ValueError(
                f"rate exponent must be finite and >= 1, got {self.exponent!r}")

    def value(self, s):
        c, p = self.coeff, self.exponent
        if p == 1.0:
            return c * s
        if p == 2.0:
            return c * s * s
        return c * np.power(s, p)

    def deriv(self, s):
        c, p = self.coeff, self.exponent
        if p == 1.0:
            return np.full_like(np.asarray(s, dtype=float), c)
        if p == 2.0:
            return 2.0 * c * s
        return c * p * np.power(s, p - 1.0)

    def inverse(self, y):
        c, p = self.coeff, self.exponent
        if p == 1.0:
            return y / c
        if p == 2.0:
            return np.sqrt(y / c)
        return np.power(y / c, 1.0 / p)


def invert_monotone(f: Callable, df: Callable, y, lo, hi,
                    tol: float = TOL_INV, max_iter: int = 100) -> np.ndarray:
    """Solve f(x) = y for strictly increasing f with f(lo) <= y <= f(hi).

    Vectorized safeguarded Newton: a candidate that leaves the current
    bracket (or hits a flat/non-finite derivative) falls back to bisection,
    so convergence never depends on a good starting point.  Stops when
    |f(x) - y| <= tol * (1 + |y|) componentwise; a bracket ground down to
    floating-point resolution is accepted as the best representable root.
    """
    y = np.asarray(y, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), y.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), y.shape).copy()
    if np.any(hi < lo):
        raise ValueError("inversion bracket is empty")
    x = 0.5 * (lo + hi)
    target = tol * (1.0 + np.abs(y))
    if y.size:
        flo = np.asarray(f(lo), dtype=float)
        fhi = np.asarray(f(hi), dtype=float)
        outside = (y < flo - target) | (y > fhi + target)
        if outside.any():
            gap = np.maximum(flo - y, y - fhi)
            raise NonConvergenceError(
                "target lies outside the inversion bracket",
                residual=float(gap.max()))
    eps = np.finfo(float).eps
    converged = y.size == 0
    for _ in range(max_iter):
        fx = np.asarray(f(x), dtype=float) - y
        under = fx < 0
        lo = np.where(under, x, lo)
        hi = np.where(under, hi, x)
        active = np.abs(fx) > target
        if not active.any():
            converged = True
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cand = x - fx / np.asarray(df(x), dtype=float)
        mid = 0.5 * (lo + hi)
        reject = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
        x = np.where(active, np.where(reject, mid, cand), x)
    if not converged:
        fx = np.abs(np.asarray(f(x), dtype=float) - y)
        stuck = (fx > target) & (hi - lo > 16 * eps * (1.0 + np.abs(x)))
        if stuck.any():
            raise NonConvergenceError(
                "monotone inversion did not converge",
                iterations=max_iter, residual=float(fx.max()))
    return x


@dataclass(eq=False)
class Kinetics:
    """Two-species exchange kinetics and the maps it induces.

    Args:
        alpha: stoichiometric weight of u in the exchange (> 0).
        beta: stoichiometric weight of v (> 0).
        diff_u: diffusivity of u  [m^2/s].
        diff_v: diffusivity of v  [m^2/s].
        rate_u: rate law driving u consumption.
        rate_v: rate law driving v consumption (the reverse direction).
        rate_factor: common multiplier k >= 0 on both exchange terms; the
            effective couplings are alpha_hat = k * alpha and
            beta_hat = k * beta.  k = 0 switches the reaction off.
    """

    alpha: float
    beta: float
    diff_u: float
    diff_v: float
    rate_u: RateLaw
    rate_v: RateLaw
    rate_factor: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "diff_u", "diff_v"):
            val = getattr(self, name)
            if not val > 0:
                raise ValueError(f"{name} must be positive, got {val!r}")
        if self.rate_factor < 0:
            raise ValueError(
                f"rate_factor must be nonnegative, got {self.rate_factor!r}")

    @property
    def alpha_hat(self) -> float:
        return self.rate_factor * self.alpha

    @property
    def beta_hat(self) -> float:
        return self.rate_factor * self.beta

    # -- equilibrium-manifold maps ------------------------------------

    def v_from_u(self, u):
        """The v whose reverse rate balances r_u(u): r_v(v) = r_u(u)."""
        u_arr, scalar = _as_array(u)
        if np.any(u_arr < 0):
            raise ValueError("v_from_u requires u >= 0")
        out = self.rate_v.inverse(self.rate_u.value(u_arr))
        return out.item() if scalar else out

    def v_from_u_deriv(self, u):
        """Chain rule d(v_from_u)/du = r_u'(u) / r_v'(v_from_u(u)).

        Where both derivatives vanish (possible only at u = 0 for rate laws
        that are flat there) the ratio is ill-defined; callers needing a
        value at exactly 0 should special-case it.
        """
        u_arr, scalar = _as_array(u)
        v = self.v_from_u(u_arr)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.rate_u.deriv(u_arr) / self.rate_v.deriv(v)
        return out.item() if scalar else out

    def w_from_u(self, u):
        """Conserved variable of the equilibrium state with given u:
        w = u/alpha + v_from_u(u)/beta.  Strictly increasing in u."""
        u_arr, scalar = _as_array(u)
        out = u_arr / self.alpha + self.v_from_u(u_arr) / self.beta
        return out.item() if scalar else out

    def u_from_w(self, w, tol: float = TOL_INV):
        """Invert w_from_u on w >= 0 by safeguarded Newton/bisection.

        The bracket [0, alpha * w] is valid a priori because
        w_from_u(alpha * w) >= w.  Each inner iterate evaluates v_from_u
        once: ``invert_monotone`` asks for the slope at the iterate whose
        value it has just computed, so the slope reuses that v.
        """
        w_arr, scalar = _as_array(w)
        if np.any(w_arr < 0):
            raise ValueError("u_from_w requires w >= 0")
        if w_arr.size == 0:
            return w_arr.copy()
        hi = self.alpha * w_arr * (1.0 + 1e-12)
        seen = [None, None]  # the last iterate handed to f, and v there

        def f(s):
            v = self.v_from_u(s)
            seen[:] = s, v
            return s / self.alpha + v / self.beta

        def df(s):
            v = seen[1] if s is seen[0] else self.v_from_u(s)
            with np.errstate(divide="ignore", invalid="ignore"):
                ep = self.rate_u.deriv(s) / self.rate_v.deriv(v)
            return 1.0 / self.alpha + ep / self.beta

        out = invert_monotone(f, df, w_arr, 0.0, hi, tol=tol)
        return out.item() if scalar else out

    def v_from_w(self, w, tol: float = TOL_INV):
        """Equilibrium v recovered from the conserved variable."""
        w_arr, scalar = _as_array(w)
        out = self.v_from_u(self.u_from_w(w_arr, tol=tol))
        return out.item() if scalar else out

    def _flux_state(self, w_arr: np.ndarray, tol: float):
        """Equilibrium (u, v) of w_arr and the flux potential there."""
        u = self.u_from_w(w_arr, tol=tol)
        v = self.v_from_u(u)
        return u, v, (self.diff_u / self.alpha) * u + (self.diff_v / self.beta) * v

    def flux_potential(self, w, tol: float = TOL_INV):
        """Nonlinear diffusion flux potential of the fast-reaction regime:
        (diff_u/alpha) u + (diff_v/beta) v evaluated on the equilibrium
        state with conserved variable w."""
        w_arr, scalar = _as_array(w)
        out = self._flux_state(w_arr, tol)[2]
        return out.item() if scalar else out

    def flux_potential_deriv(self, w, tol: float = TOL_INV):
        """d(flux_potential)/dw; see ``flux_potential_and_deriv``."""
        return self.flux_potential_and_deriv(w, tol)[1]

    def flux_potential_and_deriv(self, w, tol: float = TOL_INV):
        """The flux potential phi(w) and its slope phi'(w) from one
        equilibrium inversion (one ``u_from_w`` and one ``v_from_u``).

        The slope is the chain rule, written with both rate derivatives in
        numerator and denominator so an infinite slope of v_from_u cancels
        instead of overflowing:
        phi' = (diff_u/alpha r_v' + diff_v/beta r_u')
             / (r_v'/alpha + r_u'/beta).
        Falls back to a one-sided difference where both derivatives vanish.
        """
        w_arr, scalar = _as_array(w)
        u, v, phi = self._flux_state(w_arr, tol)
        rup = self.rate_u.deriv(u)
        rvp = self.rate_v.deriv(v)
        num = (self.diff_u / self.alpha) * rvp + (self.diff_v / self.beta) * rup
        den = rvp / self.alpha + rup / self.beta
        with np.errstate(divide="ignore", invalid="ignore"):
            phip = num / den
        degenerate = ~np.isfinite(phip)
        if np.any(degenerate):
            phip = np.where(degenerate,
                            self.flux_potential_deriv_fd(w_arr), phip)
        if scalar:
            return phi.item(), phip.item()
        return phi, phip

    def flux_potential_deriv_fd(self, w, rel_step: float = 1e-7):
        """One-sided finite-difference flux potential slope (cross-check)."""
        w_arr, scalar = _as_array(w)
        h = rel_step * (1.0 + np.abs(w_arr))
        out = (np.asarray(self.flux_potential(w_arr + h), dtype=float)
               - np.asarray(self.flux_potential(w_arr), dtype=float)) / h
        return out.item() if scalar else out


@dataclass(eq=False)
class DimerisationKinetics(Kinetics):
    """Reversible dimerisation 2A <-> B: r_u(s) = kf s^2, r_v(s) = kb s."""

    @property
    def k_forward(self) -> float:
        return self.rate_u.coeff

    @property
    def k_backward(self) -> float:
        return self.rate_v.coeff


def _as_array(s) -> tuple[np.ndarray, bool]:
    arr = np.asarray(s, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1), True
    return arr, False


def dimerisation_kinetics(k_forward: float, k_backward: float,
                          diff_u: float, diff_v: float,
                          rate_factor: float = 1.0) -> DimerisationKinetics:
    """Kinetics of a reversible dimerisation 2A <-> B.

    Forward rate k_forward * u^2, backward rate k_backward * v.  Two
    monomers disappear per dimer formed, so alpha = 2 and beta = 1.
    """
    return DimerisationKinetics(
        alpha=2.0, beta=1.0, diff_u=diff_u, diff_v=diff_v,
        rate_u=RateLaw(float(k_forward), 2.0),
        rate_v=RateLaw(float(k_backward), 1.0), rate_factor=rate_factor)


def power_law_kinetics(coeff_u: float, exp_u: float,
                       coeff_v: float, exp_v: float,
                       alpha: float, beta: float,
                       diff_u: float, diff_v: float,
                       rate_factor: float = 1.0) -> Kinetics:
    """Power-law kinetics r_u(s) = coeff_u s^exp_u, r_v(s) = coeff_v s^exp_v.

    Exponents below 1 are rejected: the derivative would blow up at 0 and
    the rate law would stop being continuously differentiable there.
    """
    return Kinetics(alpha=alpha, beta=beta, diff_u=diff_u, diff_v=diff_v,
                    rate_u=RateLaw(float(coeff_u), float(exp_u)),
                    rate_v=RateLaw(float(coeff_v), float(exp_v)),
                    rate_factor=rate_factor)


def kinetics_from_dict(spec: dict) -> Kinetics:
    """Build kinetics from a config mapping.

    Two names are recognized.  "dimerisation" takes k1, k2 (rate constants),
    a, b (diffusivities) and k (rate factor).  "power-law" takes c_a, p,
    c_b, q (rate laws c_a s^p and c_b s^q), alpha, beta, a, b and k.
    """
    if not isinstance(spec, dict):
        raise ValueError("kinetics spec must be a mapping")
    name = spec.get("name")
    fields = {
        "dimerisation": ("k1", "k2", "a", "b", "k"),
        "power-law": ("c_a", "p", "c_b", "q", "alpha", "beta", "a", "b", "k"),
    }
    if name not in fields:
        raise ValueError(
            f"unknown kinetics name {name!r}; expected one of {sorted(fields)}")
    missing = [f for f in fields[name] if f not in spec]
    if missing:
        raise ValueError(f"kinetics {name!r} missing fields: {missing}")
    extra = sorted(set(spec) - set(fields[name]) - {"name"})
    if extra:
        raise ValueError(f"kinetics {name!r} has unknown fields: {extra}")
    vals = {f: float(spec[f]) for f in fields[name]}
    if name == "dimerisation":
        return dimerisation_kinetics(
            k_forward=vals["k1"], k_backward=vals["k2"],
            diff_u=vals["a"], diff_v=vals["b"], rate_factor=vals["k"])
    return power_law_kinetics(
        coeff_u=vals["c_a"], exp_u=vals["p"],
        coeff_v=vals["c_b"], exp_v=vals["q"],
        alpha=vals["alpha"], beta=vals["beta"],
        diff_u=vals["a"], diff_v=vals["b"], rate_factor=vals["k"])


# -- closed-form cross-check channel (dimerisation only) ---------------
#
# The two functions below evaluate fixed algebraic formulas for the
# dimerisation w -> u and u -> flux maps.  They are deliberately separate
# from u_from_w / flux_potential: no solver consumes them, and
# closed_form_discrepancy *reports* how far they sit from the root-finding
# maps instead of asserting agreement.


def dimerisation_u_closed_form(kin: DimerisationKinetics, y):
    """Evaluate h(y) = ( ((alpha kf)/(beta kb))^2 + 4 kb y / (beta kf) )^(1/2) / 2
    - (alpha kb)/(2 beta kf) for the dimerisation constants of ``kin``."""
    if not isinstance(kin, DimerisationKinetics):
        raise ValueError("closed forms are defined for dimerisation kinetics only")
    y_arr, scalar = _as_array(y)
    ratio = (kin.alpha * kin.k_forward) / (kin.beta * kin.k_backward)
    disc = ratio ** 2 + y_arr * (4.0 * kin.k_backward / (kin.beta * kin.k_forward))
    if np.any(disc < 0):
        raise ValueError("negative discriminant: y outside the formula's domain")
    out = 0.5 * (np.sqrt(disc)
                 - kin.alpha * kin.k_backward / (kin.beta * kin.k_forward))
    return out.item() if scalar else out


def dimerisation_g_closed_form(kin: DimerisationKinetics, h):
    """Companion flux-form expression
    g(h) = h diff_u / alpha + h^2 diff_v kf / (beta kb)."""
    if not isinstance(kin, DimerisationKinetics):
        raise ValueError("closed forms are defined for dimerisation kinetics only")
    h_arr, scalar = _as_array(h)
    out = (h_arr * kin.diff_u / kin.alpha
           + h_arr ** 2 * kin.diff_v * kin.k_forward
           / (kin.beta * kin.k_backward))
    return out.item() if scalar else out


def closed_form_discrepancy(kin: DimerisationKinetics, w_values) -> dict:
    """Measure the gap between the closed-form channel and the root-finding
    maps on a sample of conserved-variable values.

    Returns a report dict; nothing is asserted about the size of the gaps.
    Keys: n_samples, w_min, w_max, max_abs_u_gap, max_abs_v_gap.
    """
    w = np.atleast_1d(np.asarray(w_values, dtype=float))
    if w.size == 0 or np.any(w < 0):
        raise ValueError("w samples must be nonempty and nonnegative")
    h = np.asarray(dimerisation_u_closed_form(kin, w), dtype=float)
    g = np.asarray(dimerisation_g_closed_form(kin, h), dtype=float)
    u = np.asarray(kin.u_from_w(w), dtype=float)
    v = np.asarray(kin.v_from_w(w), dtype=float)
    return {
        "n_samples": int(w.size),
        "w_min": float(w.min()),
        "w_max": float(w.max()),
        "max_abs_u_gap": float(np.max(np.abs(h - u))),
        "max_abs_v_gap": float(np.max(np.abs(g - v))),
    }
