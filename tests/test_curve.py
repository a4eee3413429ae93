"""Discrete curve calculus: stencils, quadrature, snapshots."""

import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eqflow.curve import (
    GraphProfile,
    ParamCurve,
    diff,
    profile_to_csv,
    quad_weights,
    quadrature,
)

radii_arrays = arrays(np.float64, st.integers(9, 40),
                      elements=st.floats(0.5, 2.0))


def _profile(values):
    return GraphProfile(0.0, 1.0, np.asarray(values, dtype=float))


# -- profile validation ----------------------------------------------------

def test_profile_grid_and_spacing():
    p = _profile(np.full(11, 1.5))
    assert p.N == 10
    assert p.dz == pytest.approx(0.1, rel=1e-15)
    assert np.allclose(p.z, np.linspace(0.0, 1.0, 11))


def test_profile_rejects_bad_slab_and_radii():
    with pytest.raises(ValueError):
        GraphProfile(1.0, 0.0, np.full(11, 1.0))
    with pytest.raises(ValueError):
        GraphProfile(0.0, 1.0, np.full(5, 1.0))
    with pytest.raises(ValueError):
        GraphProfile(0.0, 1.0, np.array([1.0] * 10 + [-0.2]))
    with pytest.raises(ValueError):
        GraphProfile(0.0, 1.0, np.array([1.0] * 10 + [np.nan]))


def test_profile_radii_are_frozen():
    p = _profile(np.full(11, 1.0))
    with pytest.raises(ValueError):
        p.r[0] = 2.0


def test_param_curve_requires_increasing_parameter():
    s = np.array([0.0, 1.0, 0.5, 2.0, 3.0, 4.0, 5.0, 6.0])
    one, zero = np.ones_like(s), np.zeros_like(s)
    with pytest.raises(ValueError):
        ParamCurve(s=s, z=s, r=one, dz=one, dr=zero, d2z=zero, d2r=zero)


# -- differentiation -------------------------------------------------------

def test_diff_constant_profile_exact():
    rdot, rddot = diff(_profile(np.full(21, 1.3)))
    assert np.all(rdot == 0.0)
    assert np.all(rddot == 0.0)


def test_diff_quadratic_reproduced_on_interior():
    z = np.linspace(0.0, 1.0, 41)
    rdot, rddot = diff(GraphProfile(0.0, 1.0, z**2 + 0.5))
    assert np.allclose(rddot[1:-1], 2.0, atol=1e-11)
    assert np.allclose(rdot[1:-1], 2.0 * z[1:-1], atol=1e-12)


def test_diff_cosine_boundary_closure():
    z = np.linspace(0.0, 1.0, 201)
    rdot, rddot = diff(GraphProfile(0.0, 1.0, 1.0 + 0.1 * np.cos(math.pi * z)))
    assert rdot[0] == 0.0 and rdot[-1] == 0.0
    assert rddot[0] == pytest.approx(-0.1 * math.pi**2, abs=5e-5)


@given(radii_arrays)
def test_diff_boundary_slope_always_zero(r):
    rdot, _ = diff(_profile(r))
    assert rdot[0] == 0.0 and rdot[-1] == 0.0


@given(radii_arrays, st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_diff_is_linear(r, alpha, beta):
    q = r[::-1].copy()
    d_comb = diff(_profile(alpha * r + beta * q))
    d_r = diff(_profile(r))
    d_q = diff(_profile(q))
    for k in range(2):
        assert np.allclose(d_comb[k], alpha * d_r[k] + beta * d_q[k],
                           rtol=1e-9, atol=1e-9)


def test_diff_convergence_is_second_order():
    errs = []
    for N in (100, 200, 400):
        z = np.linspace(0.0, 1.0, N + 1)
        rdot, rddot = diff(GraphProfile(0.0, 1.0, np.exp(z)))
        e1 = np.max(np.abs(rdot[1:-1] - np.exp(z[1:-1])))
        e2 = np.max(np.abs(rddot[1:-1] - np.exp(z[1:-1])))
        errs.append(max(e1, e2))
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert math.log2(hi / lo) >= 1.9


# -- quadrature ------------------------------------------------------------

@pytest.mark.parametrize("n_nodes", [2, 9, 10, 64])
def test_quadrature_constant(n_nodes):
    vals = np.ones(n_nodes)
    assert quadrature(vals, x=np.linspace(0.0, 1.0, n_nodes)) \
        == pytest.approx(1.0, rel=1e-15)


def test_quadrature_sine_simpson():
    x = np.linspace(0.0, math.pi, 1001)
    assert quadrature(np.sin(x), x=x, rule="simpson") == pytest.approx(
        2.0, abs=1e-10)


def test_quadrature_trapezoid_second_order():
    exact = math.e - 1.0
    errs = []
    for N in (100, 200, 400):
        x = np.linspace(0.0, 1.0, N + 1)
        errs.append(abs(quadrature(np.exp(x), x=x) - exact))
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert math.log2(hi / lo) >= 1.9


@given(arrays(np.float64, st.integers(2, 30), elements=st.floats(0.0, 5.0)),
       st.sampled_from(["trapezoid", "simpson"]))
def test_quadrature_nonnegative(vals, rule):
    assert quadrature(vals, x=0.3 * np.arange(len(vals)), rule=rule) >= 0.0


@given(arrays(np.float64, st.integers(2, 31), elements=st.floats(-2.0, 2.0)))
def test_quad_weights_match_quadrature(vals):
    w = quad_weights(len(vals), 0.17)
    assert w @ vals == pytest.approx(
        quadrature(vals, x=0.17 * np.arange(len(vals))), rel=1e-12, abs=1e-12)


def test_quadrature_argument_errors():
    vals = np.ones(5)
    with pytest.raises(ValueError):
        quadrature(vals, x=np.linspace(0, 1, 4))
    with pytest.raises(ValueError):
        quadrature(vals, x=np.linspace(0, 1, 5), rule="gauss")
    with pytest.raises(ValueError):
        quadrature(np.ones(1), x=np.zeros(1))


# -- snapshot format -------------------------------------------------------

def test_profile_csv_round_trip_is_exact():
    rng = np.random.default_rng(3)
    p = GraphProfile(-0.25, 1.75, rng.uniform(0.5, 2.5, 33))
    text = profile_to_csv(p)
    assert text.startswith("z,r\n")
    z, r = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1,
                      unpack=True)
    assert np.array_equal(z, p.z)
    assert np.array_equal(r, p.r)
