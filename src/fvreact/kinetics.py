"""Reaction rate laws and the equilibrium-manifold maps derived from them.

A two-species system (u, v) exchanges mass through the rate gap
r_u(u) - r_v(v), weighted by stoichiometric coefficients alpha and beta.
Where the gap closes, v is a function of u (``v_from_u``) and the conserved
combination w = u/alpha + v/beta is an increasing function of u
(``w_from_u``).  The effective nonlinear diffusion flux of the
fast-reaction regime is packaged as ``flux_potential``.

Every rate law is a power law c s^p with c > 0 and p >= 1 (``RateLaw``),
so r_v has a closed-form inverse, ``v_from_u`` is one expression, and w and
the flux potential are explicit in the equilibrium value z of one species
(``maps_in_z``), the limit solver's unknown: u when p >= q, v when p < q.
The one inversion, ``z_from_w``, is Newton on the convex map W(z) from a
start above the root, so it decreases monotonically to z and is accurate
relative to w at every scale of w from 1e-300 up.  ``uv_from_z`` gives the
equilibrium pair, and ``u_from_w``/``v_from_w`` compose the two.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RateLaw",
    "Kinetics",
    "dimerisation_kinetics",
    "power_law_kinetics",
    "kinetics_from_dict",
]


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
            if not (math.isfinite(val) and val > 0):
                raise ValueError(
                    f"{name} must be finite and positive, got {val!r}")
        if not (math.isfinite(self.rate_factor) and self.rate_factor >= 0):
            raise ValueError(f"rate_factor must be finite and nonnegative, "
                             f"got {self.rate_factor!r}")

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

    def w_from_u(self, u):
        """Conserved variable of the equilibrium state with given u:
        w = u/alpha + v_from_u(u)/beta.  Strictly increasing in u."""
        u_arr, scalar = _as_array(u)
        out = u_arr / self.alpha + self.v_from_u(u_arr) / self.beta
        return out.item() if scalar else out

    def _z_frame(self):
        """The frame of the equilibrium unknown z: the other species as the
        rate law c z^e of z, the weights wz, wo of z and of it in w, the
        weights fz, fo in the flux potential, and whether z is u (p >= q)."""
        p, q = self.rate_u.exponent, self.rate_v.exponent
        ca, cb = self.rate_u.coeff, self.rate_v.coeff
        au, av = 1.0 / self.alpha, 1.0 / self.beta
        du, dv = self.diff_u * au, self.diff_v * av
        if p >= q:
            return RateLaw((ca / cb) ** (1.0 / q), p / q), au, av, du, dv, True
        return RateLaw((cb / ca) ** (1.0 / p), q / p), av, au, dv, du, False

    def maps_in_z(self):
        """w and the flux potential of the equilibrium state, W(z) and
        Phi(z), as functions of z, the equilibrium u when p >= q and v when
        p < q.  The other species is c z^e with e = max(p, q)/min(p, q) >= 1,
        so W, Phi and their slopes are closed forms, finite at z = 0.
        Returns ``values(z) -> (W, Phi)`` and ``slopes(z) -> (W', Phi')``,
        odd-extended (W(-z) = -W(z)) so a line search may cross 0."""
        other, wz, wo, fz, fo, _ = self._z_frame()

        def values(z):
            o = np.sign(z) * other.value(np.abs(z))
            return wz * z + wo * o, fz * z + fo * o

        def slopes(z):
            op = other.deriv(np.abs(z))
            return wz + wo * op, fz + fo * op

        return values, slopes

    def z_from_w(self, w):
        """z of ``maps_in_z`` at w >= 0, accurate relative to w at every
        scale of w from 1e-300 up.

        W(z) = wz z + wo c z^e is convex and increasing from W(0) = 0, and
        both w/wz and the root of the second term alone lie above the root.
        So Newton from the smaller of the two decreases monotonically to
        it; the iteration stops when no entry decreases any more.
        """
        w_arr, scalar = _as_array(w)
        if np.any(w_arr < 0):
            raise ValueError("z_from_w requires w >= 0")
        other, wz, wo = self._z_frame()[:3]
        z = np.minimum(w_arr / wz, other.inverse(w_arr / wo))
        while True:
            gap = wz * z + wo * other.value(z) - w_arr
            new = np.maximum(z - gap / (wz + wo * other.deriv(z)), 0.0)
            if not (new < z).any():
                break
            z = np.minimum(new, z)
        return z.item() if scalar else z

    def uv_from_z(self, z):
        """The equilibrium pair (u, v) with z of ``maps_in_z``."""
        other, *_, z_is_u = self._z_frame()
        o = other.value(z)
        return (z, o) if z_is_u else (o, z)

    def u_from_w(self, w):
        """Equilibrium u recovered from the conserved variable w >= 0."""
        return self.uv_from_z(self.z_from_w(w))[0]

    def v_from_w(self, w):
        """Equilibrium v recovered from the conserved variable w >= 0."""
        return self.uv_from_z(self.z_from_w(w))[1]

    def flux_potential(self, w):
        """Nonlinear diffusion flux potential of the fast-reaction regime:
        (diff_u/alpha) u + (diff_v/beta) v on the equilibrium state with
        conserved variable w, that is Phi(z(w))."""
        w_arr, scalar = _as_array(w)
        out = self.maps_in_z()[0](self.z_from_w(w_arr))[1]
        return out.item() if scalar else out

    def flux_potential_deriv(self, w):
        """d(flux_potential)/dw = Phi'(z) / W'(z) at z = z(w)."""
        w_arr, scalar = _as_array(w)
        wp, fp = self.maps_in_z()[1](self.z_from_w(w_arr))
        out = fp / wp
        return out.item() if scalar else out


def _as_array(s) -> tuple[np.ndarray, bool]:
    arr = np.asarray(s, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1), True
    return arr, False


def dimerisation_kinetics(k_forward: float, k_backward: float,
                          diff_u: float, diff_v: float,
                          rate_factor: float = 1.0) -> Kinetics:
    """Kinetics of a reversible dimerisation 2A <-> B.

    Forward rate k_forward * u^2, backward rate k_backward * v.  Two
    monomers disappear per dimer formed, so alpha = 2 and beta = 1.
    """
    return Kinetics(
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
    if not isinstance(name, str) or name not in fields:
        raise ValueError(
            f"unknown kinetics name {name!r}; expected one of {sorted(fields)}")
    missing = [f for f in fields[name] if f not in spec]
    if missing:
        raise ValueError(f"kinetics {name!r} missing fields: {missing}")
    extra = sorted(set(spec) - set(fields[name]) - {"name"})
    if extra:
        raise ValueError(f"kinetics {name!r} has unknown fields: {extra}")
    bad = [f for f in fields[name] if isinstance(spec[f], bool)
           or not isinstance(spec[f], (int, float))
           or not abs(spec[f]) <= sys.float_info.max]
    if bad:
        raise ValueError(f"kinetics {name!r} fields must be finite numbers: "
                         f"{bad}")
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
