import numpy as np
import pytest

from fvreact.errors import NonConvergenceError
from fvreact.kinetics import (TOL_INV, RateLaw, closed_form_discrepancy,
                              dimerisation_g_closed_form,
                              dimerisation_kinetics,
                              dimerisation_u_closed_form, invert_monotone,
                              kinetics_from_dict, power_law_kinetics)

K1 = 1.072e-4
K2 = 2.363e-6
DIFF_U = 1.579e-9
DIFF_V = 1.042e-9


@pytest.fixture(scope="module")
def dimer():
    return dimerisation_kinetics(K1, K2, DIFF_U, DIFF_V)


def test_dimerisation_shape(dimer):
    assert dimer.alpha == 2.0
    assert dimer.beta == 1.0
    assert dimer.alpha_hat == pytest.approx(2.0)
    assert dimer.rate_u.value(0.5) == pytest.approx(K1 * 0.25)
    assert dimer.rate_v.value(0.5) == pytest.approx(K2 * 0.5)


def test_equilibrium_map_values(dimer):
    # v balancing u solves k2 v = k1 u^2
    assert dimer.v_from_u(0.0) == pytest.approx(0.0, abs=1e-300)
    assert float(dimer.v_from_u(1.0)) == pytest.approx(K1 / K2, rel=1e-12)
    u = np.array([0.1, 0.5, 2.0])
    assert np.allclose(dimer.v_from_u(u), K1 / K2 * u ** 2, rtol=1e-12)


def test_conserved_map_value(dimer):
    # w = u/2 + (k1/k2) u^2 at equilibrium; at u=1 that is 1/2 + k1/k2
    assert float(dimer.w_from_u(1.0)) == pytest.approx(0.5 + K1 / K2, rel=1e-12)


def test_u_from_w_quadratic_oracle(dimer):
    # (k1/k2) u^2 + u/2 = w solved by the quadratic formula
    for w in (1e-6, 1e-3, 0.2228, 1.0, 50.0):
        q = K1 / K2
        u_exact = (-0.5 + np.sqrt(0.25 + 4.0 * q * w)) / (2.0 * q)
        assert float(dimer.u_from_w(w)) == pytest.approx(u_exact, rel=1e-10)


def test_round_trips(dimer):
    u = np.geomspace(1e-8, 10.0, 25)
    w = dimer.w_from_u(u)
    assert np.allclose(dimer.u_from_w(w), u, rtol=1e-10)
    v = dimer.v_from_u(u)
    # v_from_w composes the two maps consistently
    assert np.allclose(dimer.v_from_w(w), v, rtol=1e-10)


def test_equilibrium_identity(dimer):
    # the recovered pair is chemically balanced: r_A(u) = r_B(v)
    w = np.geomspace(1e-6, 100.0, 40)
    u = dimer.u_from_w(w)
    v = dimer.v_from_w(w)
    gap = dimer.rate_u.value(u) - dimer.rate_v.value(v)
    scale = np.maximum(dimer.rate_u.value(u), 1e-300)
    assert np.max(np.abs(gap) / scale) < 1e-10
    # and it reassembles w
    assert np.allclose(u / dimer.alpha + v / dimer.beta, w, rtol=1e-10)


def test_flux_potential_symmetric_rates_collapse():
    # r_A = r_B = identity, alpha = beta = 1, equal diffusivities:
    # w = 2u, phi(w) = a*w exactly
    kin = power_law_kinetics(1.0, 1.0, 1.0, 1.0, alpha=1.0, beta=1.0,
                             diff_u=3.0, diff_v=3.0)
    w = np.linspace(0.01, 5.0, 11)
    assert np.allclose(kin.flux_potential(w), 3.0 * w, rtol=1e-10)
    assert np.allclose(kin.flux_potential_deriv(w), 3.0, rtol=1e-8)


def test_flux_potential_dimerisation_composition(dimer):
    # phi(w) = (a/2) u + b (k1/k2) u^2 with u = H^{-1}(w)
    w = np.array([1e-4, 0.05, 0.2228, 3.0])
    u = dimer.u_from_w(w)
    expect = DIFF_U / 2.0 * u + DIFF_V * (K1 / K2) * u ** 2
    assert np.allclose(dimer.flux_potential(w), expect, rtol=1e-10)


def test_flux_potential_monotone(dimer):
    w = np.geomspace(1e-8, 1e3, 200)
    phi = dimer.flux_potential(w)
    assert np.all(np.diff(phi) > 0)
    assert dimer.flux_potential(0.0) == pytest.approx(0.0, abs=1e-250)


def test_flux_potential_deriv_matches_fd(dimer):
    w = np.array([1e-3, 0.1, 1.0, 20.0])
    dphi = dimer.flux_potential_deriv(w)
    h = 1e-6 * w
    fd = (dimer.flux_potential(w + h) - dimer.flux_potential(w - h)) / (2 * h)
    assert np.allclose(dphi, fd, rtol=1e-6)


def test_rate_law_deriv_matches_fd(dimer):
    s = np.array([0.01, 0.3, 2.0])
    for law in (dimer.rate_u, dimer.rate_v):
        fd = (law.value(s + 1e-7) - law.value(s - 1e-7)) / 2e-7
        assert np.allclose(law.deriv(s), fd, rtol=1e-6)


def test_rate_law_plain_products_and_validation():
    # exponents 1 and 2 give the dimerisation expressions bit for bit
    s = np.concatenate([[0.0], np.geomspace(1e-12, 1e6, 61)])
    kf, kb = RateLaw(K1, 2.0), RateLaw(K2, 1.0)
    pairs = [(kb.value(s), K2 * s), (kf.value(s), K1 * s * s),
             (kb.deriv(s), np.full_like(s, K2)), (kf.deriv(s), 2.0 * K1 * s),
             (kb.inverse(s), s / K2), (kf.inverse(s), np.sqrt(s / K1))]
    for got, expect in pairs:
        assert got.tobytes() == expect.tobytes()
    for coeff, exponent in [(0.0, 1.0), (-K1, 2.0), (np.inf, 1.0),
                            (np.nan, 2.0), (K1, 0.5), (K1, np.nan),
                            (K1, np.inf)]:
        with pytest.raises(ValueError):
            RateLaw(coeff, exponent)


def test_invert_monotone_cubic():
    f = lambda x: x ** 3 + x
    df = lambda x: 3 * x ** 2 + 1
    y = np.array([0.0, 0.5, 2.0, 10.0])
    x = invert_monotone(f, df, y, lo=np.zeros(4), hi=np.full(4, 10.0),
                        tol=1e-14)
    assert np.allclose(f(x), y, atol=1e-12)


def test_invert_monotone_needs_bracket():
    f = lambda x: x
    df = lambda x: np.ones_like(x)
    with pytest.raises(NonConvergenceError):
        invert_monotone(f, df, np.array([5.0]), lo=np.array([0.0]),
                        hi=np.array([1.0]), tol=1e-12)


def _plaw():
    return power_law_kinetics(2.0, 3.0, 0.5, 1.5, alpha=3.0, beta=0.5,
                              diff_u=DIFF_U, diff_v=DIFF_V)


W_SAMPLES = np.concatenate([[0.0], np.geomspace(1e-12, 1e3, 61)])
BOTH_KINETICS = pytest.mark.parametrize("make", [
    lambda: dimerisation_kinetics(K1, K2, DIFF_U, DIFF_V), _plaw],
    ids=["dimerisation", "power-law"])


@BOTH_KINETICS
def test_u_from_w_matches_plain_inversion(make):
    # sharing v_from_u between value and slope must not move a bit of the
    # root: same iterates as inverting w_from_u with the chain-rule slope
    kin = make()
    w = W_SAMPLES
    hi = kin.alpha * w * (1.0 + 1e-12)
    plain = invert_monotone(
        kin.w_from_u,
        lambda s: 1.0 / kin.alpha + kin.v_from_u_deriv(s) / kin.beta,
        w, 0.0, hi)
    assert np.array_equal(kin.u_from_w(w), plain)


@BOTH_KINETICS
def test_flux_potential_pair_matches_chain_rule(make):
    # phi and phi' from one inversion equal the formulas evaluated from
    # u_from_w and v_from_u, bit for bit, and so do the two one-sided views;
    # at w = 0 both power-law rate slopes vanish and the slope is the
    # one-sided difference
    kin = make()
    w = W_SAMPLES
    u = kin.u_from_w(w)
    v = kin.v_from_u(u)
    phi = (kin.diff_u / kin.alpha) * u + (kin.diff_v / kin.beta) * v
    rup, rvp = kin.rate_u.deriv(u), kin.rate_v.deriv(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        phip = (((kin.diff_u / kin.alpha) * rvp + (kin.diff_v / kin.beta) * rup)
                / (rvp / kin.alpha + rup / kin.beta))
    degenerate = ~np.isfinite(phip)
    phip[degenerate] = kin.flux_potential_deriv_fd(w[degenerate])
    pair = kin.flux_potential_and_deriv(w)
    assert np.array_equal(pair[0], phi) and np.array_equal(pair[1], phip)
    assert np.array_equal(kin.flux_potential(w), phi)
    assert np.array_equal(kin.flux_potential_deriv(w), phip)
    assert kin.flux_potential_and_deriv(float(w[7])) == (phi[7], phip[7])


@BOTH_KINETICS
def test_u_from_w_zero_and_tiny_w(make):
    # the inversion bracket [0, alpha w (1 + 1e-12)] has no absolute offset,
    # so w = 0 maps to exactly u = 0 and phi = 0, and tiny w stay inside
    # their own bracket instead of being dominated by an offset
    kin = make()
    assert kin.u_from_w(0.0) == 0.0
    assert kin.flux_potential(0.0) == 0.0
    w = np.geomspace(1e-300, 1e-285, 16)
    u = kin.u_from_w(w)
    assert np.all(u > 0) and np.all(u <= kin.alpha * w * (1.0 + 1e-12))
    assert np.all(np.diff(u) > 0)
    back = kin.w_from_u(u)
    assert np.all(np.abs(back - w) <= TOL_INV * (1.0 + w))
    assert np.all(back <= w * (1.0 + 1e-12))


def test_power_law_rejects_sublinear_exponent():
    with pytest.raises(ValueError):
        power_law_kinetics(1.0, 0.5, 1.0, 1.0, alpha=1.0, beta=1.0,
                           diff_u=1.0, diff_v=1.0)


def test_kinetics_from_dict_dimerisation(dimer):
    kin = kinetics_from_dict({"name": "dimerisation", "k1": K1, "k2": K2,
                              "a": DIFF_U, "b": DIFF_V, "k": 1.0})
    assert kin.alpha == 2.0
    assert float(kin.v_from_u(1.0)) == pytest.approx(K1 / K2, rel=1e-12)


def test_kinetics_from_dict_power_law():
    kin = kinetics_from_dict({"name": "power-law", "c_a": 2.0, "p": 2,
                              "c_b": 3.0, "q": 1, "alpha": 1.0, "beta": 2.0,
                              "a": 1e-3, "b": 1e-3, "k": 0.5})
    assert kin.rate_factor == 0.5
    assert kin.rate_u.value(2.0) == pytest.approx(8.0)


def test_kinetics_from_dict_rejects_bad_specs():
    with pytest.raises(ValueError):
        kinetics_from_dict({"name": "unknown"})
    with pytest.raises(ValueError):
        kinetics_from_dict({"name": "dimerisation", "k1": K1})  # missing
    with pytest.raises(ValueError):
        kinetics_from_dict({"name": "dimerisation", "k1": K1, "k2": K2,
                            "a": DIFF_U, "b": DIFF_V, "k": 1.0,
                            "extra": 1.0})
    with pytest.raises(ValueError):
        kinetics_from_dict({"name": "dimerisation", "k1": -1.0, "k2": K2,
                            "a": DIFF_U, "b": DIFF_V, "k": 1.0})
    with pytest.raises(ValueError, match="domain_bound"):
        kinetics_from_dict({"name": "dimerisation", "k1": K1, "k2": K2,
                            "a": DIFF_U, "b": DIFF_V, "k": 1.0,
                            "domain_bound": 1e6})


def test_rate_factor_zero_allowed():
    kin = dimerisation_kinetics(K1, K2, DIFF_U, DIFF_V, rate_factor=0.0)
    assert kin.alpha_hat == 0.0
    assert kin.beta_hat == 0.0


def test_negative_rate_factor_rejected():
    with pytest.raises(ValueError):
        dimerisation_kinetics(K1, K2, DIFF_U, DIFF_V, rate_factor=-1.0)


# the published closed forms are kept verbatim as a cross-check channel;
# they disagree with the solver maps and the gap is reported, not hidden

def test_closed_form_u_formula_verbatim(dimer):
    y = 0.2228
    q1 = dimer.alpha * K1 / (dimer.beta * K2)
    expect = 0.5 * (np.sqrt(q1 ** 2 + y * 4.0 * K2 / (dimer.beta * K1))
                    - dimer.alpha * K2 / (dimer.beta * K1))
    got = dimerisation_u_closed_form(dimer, y)
    assert float(got) == pytest.approx(expect, rel=1e-12)


def test_closed_form_g_at_zero(dimer):
    assert float(dimerisation_g_closed_form(dimer, 0.0)) == pytest.approx(0.0)


def test_closed_form_discrepancy_report(dimer):
    rep = closed_form_discrepancy(dimer, np.linspace(0.01, 1.0, 9))
    assert set(rep) == {"n_samples", "w_min", "w_max",
                        "max_abs_u_gap", "max_abs_v_gap"}
    assert rep["n_samples"] == 9
    assert rep["w_min"] == pytest.approx(0.01)
    assert rep["w_max"] == pytest.approx(1.0)
    assert np.isfinite(rep["max_abs_u_gap"])
    assert np.isfinite(rep["max_abs_v_gap"])
    assert rep["max_abs_u_gap"] >= 0.0
