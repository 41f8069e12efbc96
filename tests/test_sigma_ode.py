import cmath
import contextlib
import dataclasses
import io
import json
import math
import random
import struct
import types

import pytest

from taurmt import cli, sigma_ode, tau_series
from taurmt.monodromy_v import ThetaV
from taurmt.monodromy_vi import SSEParams, ThetaVI
from taurmt.sigma_ode import (
    BulkParams,
    OdeSeed,
    SigmaTrajectory,
    StepSizeUnderflowError,
    TurningPointError,
    bulk_okamoto_params,
    integrate,
    relation,
    seed_bulk,
    seed_v,
    seed_vi,
    sigma_map,
    tau_reconstruct,
)
from taurmt.tau_series import bulk_series

P_STD = SSEParams(N=2, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5)

THETA6 = ThetaVI(0.3, 0.4, 0.5, 0.6)
THETA5 = ThetaV(0.3, 0.5, 0.7)

V_ZERO = BulkParams(0, 0, 0)
V_STD = bulk_okamoto_params(P_STD)


def _exp6():
    return tau_series.pvi_tau_series(THETA6, 0.45, 2.0)


def _exp5():
    return tau_series.pv_tau_series(THETA5, 0.4, 1.5)


class TestFamilyDispatch:
    def test_singular_points(self):
        assert relation(THETA6).singularities == (0j, 1 + 0j)
        assert relation(THETA5).singularities == (0j,)
        assert relation(V_ZERO).singularities == (0j,)

    @pytest.mark.parametrize("params", [P_STD, "pvi_sf"],
                             ids=["SSEParams", "str"])
    def test_other_parameter_objects_raise_type_error(self, params):
        # every entry point reaches the one dispatch, which refuses them
        for call in (lambda: sigma_map(params), lambda: relation(params),
                     lambda: integrate(params, OdeSeed(0.1, 0j, 0.2 + 0j),
                                       [0.5]),
                     lambda: seed_vi(params, _exp6(), 0.01)):
            with pytest.raises(TypeError, match="no sigma form for"):
                call()


class TestResidual:
    def test_zero_roots_constant_state(self):
        # with all roots zero the product term drops and the relation
        # collapses to -h^2 for a constant h
        c = 0.3 + 0.1j
        assert relation(V_ZERO).residual(0.7, c, 0.0, 0.0) == -c * c

    def test_zero_state_is_exact(self):
        assert relation(V_ZERO).residual(0.7, 0.0, 0.0, 0.0) == 0

    def test_sixth_series_scaled_residual_decays(self):
        # seeded from the boundary expansion the scaled defect must fall at
        # least as fast as the first dropped exponent, 2(1 - 0.45) = 1.1
        exp6 = _exp6()
        vals = []
        for t in (1e-3, 1e-4, 1e-5):
            sd = seed_vi(THETA6, exp6, t)
            vals.append(relation(THETA6).scaled(t, sd.zeta, sd.dzeta,
                                                sd.curvature))
        slopes = [math.log10(vals[i] / vals[i + 1]) for i in range(2)]
        assert min(slopes) > 0.9
        assert vals[-1] < 1e-5

    def test_fifth_series_scaled_residual_decays(self):
        exp5 = _exp5()
        vals = []
        for t in (1e-3, 1e-4, 1e-5):
            sd = seed_v(THETA5, exp5, t)
            vals.append(relation(THETA5).scaled(t, sd.zeta, sd.dzeta,
                                                sd.curvature))
        slopes = [math.log10(vals[i] / vals[i + 1]) for i in range(2)]
        assert min(slopes) > 1.0
        assert vals[-1] < 1e-8

    def test_bulk_series_residual_decays(self):
        bexp = bulk_series(P_STD)
        vals = []
        for x in (0.2, 0.02, 0.002):
            sd = seed_bulk(P_STD, bexp, x)
            vals.append(abs(relation(V_STD).residual(x, sd.zeta, sd.dzeta,
                                                     sd.curvature)))
        slopes = [math.log10(vals[i] / vals[i + 1]) for i in range(2)]
        assert min(slopes) > 1.5
        assert vals[-1] < 2e-6

    def test_gradient_matches_finite_differences(self):
        state = (0.3 + 0.2j, 0.4 - 0.1j, -0.2 + 0.5j, 0.7 + 0.3j)
        h = 1e-6
        for params in (THETA6, THETA5, V_STD):
            rel = relation(params)
            grad = rel.gradient(*state)
            for slot in range(4):
                up = list(state)
                dn = list(state)
                up[slot] += h
                dn[slot] -= h
                fd = (rel.residual(*up) - rel.residual(*dn)) / (2 * h)
                assert abs(fd - grad[slot]) < 1e-6 * max(1.0, abs(grad[slot]))

    def test_scaled_residual_is_relative(self):
        t, z, z1, z2 = 0.4, 0.3 + 0.1j, 5.0 + 2.0j, 1.0 - 0.5j
        raw = abs(relation(THETA6).residual(t, z, z1, z2))
        assert relation(THETA6).scaled(t, z, z1, z2) < raw


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def _pieces(params):
    (pieces, *_), _ = sigma_ode._family(params)
    return pieces


def _reference_third(params, t, z, z1, z2):
    # the flow's closed form from the full term set of the form's pieces
    lead, _, rp, lt, lp, _, _ = _pieces(params)(t, z, z1)
    return -(lt * z2 + lp * z2 ** 2 + rp) / (2 * lead)


def _kernel_states(seed):
    """Seeded (t, z, z', z'') states: generic complex ones, then ones on the
    real and on the imaginary axis whose zero parts carry random signs and
    whose z and z'' may be zero."""
    rng = random.Random(seed)

    def draw(lo, hi):
        return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))

    states = [(complex(rng.uniform(0.1, 0.9), rng.uniform(-0.5, 0.5)),
               draw(-2, 2), draw(-2, 2), draw(-3, 3)) for _ in range(40)]
    for _ in range(300):
        t, z1 = rng.uniform(0.1, 0.9), rng.uniform(-2, 2)
        z, z2 = (rng.choice((rng.uniform(-2, 2), 0.0, -0.0))
                 for _ in range(2))
        signs = [rng.choice((0.0, -0.0)) for _ in range(4)]
        for axis in ((lambda v, s: complex(v, s)),
                     (lambda v, s: complex(s, v))):
            states.append(tuple(map(axis, (t, z, z1, z2), signs)))
    return states


class TestThirdDerivative:
    @pytest.mark.parametrize("params", [THETA6, THETA5, V_STD],
                             ids=["vi", "v", "bulk"])
    def test_consistent_with_gradient(self, params):
        # z''' = -(F_t + z' F_z + z'' F_z') / F_z'' once F and F' vanish;
        # on the relation manifold F_z contributes z'*F_z which cancels by
        # the structural identity, leaving the closed form used by the flow
        t, z, z1 = 0.37, 0.21 - 0.4j, 0.5 + 0.12j
        z2 = relation(params).roots(t, z, z1)[0]
        ft, fz, fp, fpp = relation(params).gradient(t, z, z1, z2)
        expected = -(ft + z1 * fz + z2 * fp) / fpp
        got = relation(params).third(t, z, z1, z2)
        assert abs(got - expected) < 1e-10 * max(1.0, abs(expected))

    @pytest.mark.parametrize("params", [THETA6, THETA5, V_STD],
                             ids=["vi", "v", "bulk"])
    def test_bit_for_bit_with_the_full_term_set(self, params):
        # the stage kernel forms the flow's terms apart from pieces; every
        # trajectory and golden depends on its bits, signed zeros included
        third = relation(params).third
        for state in _kernel_states(17):
            got = third(*state)
            want = _reference_third(params, *state)
            assert _bits(got) == _bits(want), state

    @pytest.mark.parametrize("params", [THETA6, THETA5, V_STD],
                             ids=["vi", "v", "bulk"])
    @pytest.mark.parametrize("z1, z2", [(1e160 + 0j, 0.3j),
                                        (0.5 + 0.1j, 1e160j)])
    def test_overflow_raises_as_with_the_full_term_set(self, params, z1, z2):
        # complex ** raises OverflowError where * returns inf; the kernel
        # keeps every ** that feeds the flow's terms
        state = (0.4 + 0.1j, 0.2 - 0.3j, z1, z2)
        with pytest.raises(OverflowError):
            _reference_third(params, *state)
        with pytest.raises(OverflowError):
            relation(params).third(*state)

    def test_turning_point_raises(self):
        with pytest.raises(TurningPointError):
            relation(THETA6).third(0.3, 0.2, 0.0, 1.0)

    @pytest.mark.parametrize("t, z, z1", [
        (0.3 + 0.1j, 0.2 - 0.1j, 0j),
        (0.3 + 0.1j, 0.2 - 0.1j, complex(-0.0, 0.0)),
        (0.6 + 0j, 0.5 + 0.5j, 7e-13 + 0j),
        (0.6 + 0j, 10 + 0j, 5e-12j),
    ])
    def test_sixth_form_turns_at_vanishing_derivative(self, t, z, z1):
        lead = _pieces(THETA6)(t, z, z1)[0]
        with pytest.raises(TurningPointError) as info:
            relation(THETA6).third(t, z, z1, 0.4 + 0.2j)
        assert _bits(info.value.t) == _bits(t)
        assert _bits(info.value.leading) == _bits(lead)

    def test_sixth_form_factor_above_the_turning_threshold(self):
        # |z'| against 1e-12 max(1, |z|): 2e-12 passes at |z| <= 1
        got = relation(THETA6).third(0.6, 0.5 + 0.5j, 2e-12, 0.4 + 0.2j)
        assert cmath.isfinite(got)

    @pytest.mark.parametrize("params", [THETA5, V_STD], ids=["v", "bulk"])
    @pytest.mark.parametrize("t", [0j, complex(-0.0, 0.0), 5e-13 + 5e-13j])
    def test_fifth_forms_turn_at_the_origin(self, params, t):
        z, z1 = 0.2 - 0.1j, 0.5 + 0.3j
        lead = _pieces(params)(t, z, z1)[0]
        with pytest.raises(TurningPointError) as info:
            relation(params).third(t, z, z1, 0.4 + 0.2j)
        assert _bits(info.value.t) == _bits(t)
        assert _bits(info.value.leading) == _bits(lead)


class TestSolveSecondDegree:
    def test_double_root_at_origin_state(self):
        r1, r2 = relation(V_ZERO).roots(0.7, 0.0, 0.0)
        assert r1 == 0 and r2 == 0

    def test_roots_satisfy_relation(self):
        rng = random.Random(11)
        for params in (THETA6, THETA5, V_STD):
            for _ in range(5):
                t = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.4, 0.4))
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for root in relation(params).roots(t, z, z1):
                    assert relation(params).scaled(t, z, z1, root) < 1e-10

    def test_sixth_series_seed_matches_root(self):
        # deep inside the seed radius one quadratic root reproduces the
        # series curvature to 1e-8
        sd = seed_vi(THETA6, _exp6(), 1e-9)
        roots = relation(THETA6).roots(1e-9, sd.zeta, sd.dzeta)
        rel = min(abs(r - sd.curvature) for r in roots) / abs(sd.curvature)
        assert rel < 1e-8

    def test_bulk_series_seed_near_root(self):
        # the bulk bracket stops before the x^2 coefficient, which feeds the
        # curvature at O(1); the match is correspondingly coarse
        sd = seed_bulk(P_STD, bulk_series(P_STD), 2e-5)
        roots = relation(V_STD).roots(2e-5, sd.zeta, sd.dzeta)
        rel = min(abs(r - sd.curvature) for r in roots) / abs(sd.curvature)
        assert rel < 2e-2

    def test_zero_slope_is_turning_point(self):
        with pytest.raises(TurningPointError) as info:
            relation(THETA6).roots(0.3, 0.2, 0.0)
        assert info.value.t == 0.3

    def test_fifth_forms_turn_at_origin(self):
        with pytest.raises(TurningPointError):
            relation(THETA5).roots(0.0, 0.2, 0.1)
        with pytest.raises(TurningPointError):
            relation(V_ZERO).roots(0.0, 0.2, 0.1)


class TestCrossFormIdentity:
    def test_affine_map_carries_fifth_solutions_to_bulk_form(self):
        # h(x) = zeta(x) + A x + B with A = -(2*th0 + thi)/4, B = -2A^2
        # maps every solution of the fifth form with the bulk exponents to a
        # solution of the alternative form whose roots are the formal
        # monodromy exponents; this pins bulk_okamoto_params independently
        mu, om1, om2 = 0.25, 0.1, 0.3
        om, omb = om1 + 1j * om2, om1 - 1j * om2
        tv = ThetaV(mu + omb, -mu - om, 2 * mu - 2 * om1)
        a_lin = -(2 * tv.theta0 + tv.theta_inf) / 4
        b_const = -2 * a_lin ** 2
        rng = random.Random(3)
        for _ in range(5):
            x = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.3, 0.3))
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for z2 in relation(tv).roots(x, z, z1):
                f = relation(V_STD).residual(x, z + a_lin * x + b_const,
                                             z1 + a_lin, z2)
                assert abs(f) < 1e-12


# A sigma_flow op (seed 7, pass 30, op 3) whose straight path meets a zero
# of sigma' near t = 0.0303: without a detour the flow came back reflected
# with sigma(0.658857) = 0.0233755, or raised TurningPointError at tol 1e-13.
# Paths round the zero, above and below, at tol 1e-14 give the reference.
_SEED7_OP = ["--family=vi", "--theta0=0.292159", "--thetat=0.130458",
             "--theta1=0.145706", "--thetainf=0.344445", "--sigma=0.345072",
             "--s=1.36925", "--grid-start=0.00165838", "--grid-end=0.658857",
             "--grid-count=2", "--tol=1e-12"]
_SEED7_SIGMA = -0.0065104915513463


def _vi_flow(theta, sigma, s, start):
    """(ThetaVI, its series seed at start) of a sixth-system ode op."""
    theta = ThetaVI(*theta)
    return theta, seed_vi(theta, tau_series.pvi_tau_series(theta, sigma, s),
                          start)


def _seed7_trajectory():
    theta, sd = _vi_flow((0.292159, 0.130458, 0.145706, 0.344445), 0.345072,
                         1.36925, 0.00165838)
    return integrate(theta, sd, [0.00165838, 0.658857], tol=1e-12)


class TestTurningPointDetours:
    def test_reflected_op_meets_the_reference(self, capsys):
        assert cli.main(["ode", *_SEED7_OP]) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        *_, (t_re, t_im, z_re, z_im, *_) = data["rows"]
        assert (t_re, t_im) == (0.658857, 0.0)
        assert abs(complex(z_re, z_im) - _SEED7_SIGMA) <= 1e-8
        assert data["diagnostics"]["detours"] == 1

    @pytest.mark.parametrize("tol", [1e-10, 1e-13, 1e-14])
    def test_every_tolerance_goes_round(self, tol):
        # at 1e-13 the straight path's steps shrank toward the zero until
        # the turning test raised
        theta, sd = _vi_flow((0.292159, 0.130458, 0.145706, 0.344445),
                             0.345072, 1.36925, 0.00165838)
        traj = integrate(theta, sd, [0.658857], tol=tol)
        assert abs(traj.final[1] - _SEED7_SIGMA) <= 1e-8

    def test_detours_are_counted_and_leave_the_grid_nodes(self):
        traj = _seed7_trajectory()
        assert traj.detours == 1
        assert traj.accepted == len(traj) - 1
        assert traj.path[0] == 0.00165838 and traj.path[-1] == 0.658857
        off = [t for t in traj.path if t.imag != 0]
        # the detour's nodes lie on one side, and its depth is the
        # distance to the zero, a few steps
        assert off and all(t.imag > 0 for t in off)
        assert max(t.imag for t in off) < 0.01

    @pytest.mark.parametrize("theta, sigma, s, start, end, straight", [
        ((0.425817, 0.215363, 0.197378, 0.403575), 0.377366, 1.49409,
         0.000859445, 0.482706, 0.0833701),
        ((0.441081, 0.191881, 0.214073, 0.185446), 0.318864, 0.821517,
         0.000848692, 0.481542, 0.0181906),
        ((0.381992, 0.379919, 0.121123, 0.351605), 0.329689, 0.944725,
         0.00182406, 0.681448, 0.0468684),
    ], ids=["seed2_pass31_op13", "seed1_pass5_op1", "seed5_pass22_op1"])
    def test_both_sides_agree(self, theta, sigma, s, start, end, straight):
        # sigma is single-valued round a zero of sigma' (the Painleve
        # property): the straight path's detour and polygons above and
        # below all meet, away from the reflected value the straight flow
        # returned before
        theta, sd = _vi_flow(theta, sigma, s, start)
        ends = [integrate(theta, sd, path, tol=1e-12).final[1] for path in (
            [end], [(start + end) / 2 + 0.1j * (end - start), end],
            [(start + end) / 2 - 0.1j * (end - start), end])]
        assert max(abs(z - ends[0]) for z in ends) <= 1e-9
        assert abs(ends[0] - straight) > 1e-3

    def test_a_detour_leaves_a_fixed_singularity_outside(self):
        # the point sits on the leg, so the upper side is preferred; the
        # fixed singularity 1, 0.01 above the leg, sends it below
        t, b = 0.5 - 0.01j, 1.5 - 0.01j
        v1, v2, rejoin = sigma_ode._detour(t, b, b - t, 1.0, 0.3 + 0j, 0.3,
                                           (0j, 1 + 0j))
        assert v1.imag < t.imag and v2.imag < t.imag
        assert rejoin == t + 0.6
        up = sigma_ode._detour(t, b, b - t, 1.0, 0.3 + 0j, 0.3, (0j,))
        assert up[0].imag > t.imag

    def test_a_detour_rejoins_at_the_leg_end(self):
        v1, v2, rejoin = sigma_ode._detour(0.2, 0.4, 0.2 + 0j, 0.5,
                                           0.4 + 0.1j, 0.4, ())
        assert rejoin == 0.4
        # away from the point, which lies above the leg
        assert v1.imag < 0 and v2 == rejoin + (v1 - 0.2)

    def test_fifth_forms_have_no_movable_turning_point(self):
        assert relation(THETA5).turning_estimate is None
        assert relation(V_STD).turning_estimate is None
        assert relation(THETA6).turning_estimate(0.3, 0.2, 0.4) == 0.3 - 0.5


class TestDop853:
    """The tableau transcription, pinned by its order conditions through
    the stepping code itself."""

    def test_quadrature_exact_through_degree_seven(self):
        # a flow whose z''' is t^k: the z'' update is the pair's quadrature
        for k in range(9):
            step = sigma_ode._dop853(lambda t, z, z1, z2, k=k: t ** k)
            (_, _, z2), _, _ = step(0j, 1 + 0j, 0.0, 1.0, 0j, 0j, 0j,
                                    0j if k else 1 + 0j)
            err = abs(z2 - 1 / (k + 1))
            assert err <= 1e-15 if k <= 7 else err > 1e-6, k

    def test_orders_on_a_linear_problem(self):
        # a flow whose z''' is lam z'': one step of the z'' component
        # against exp(lam h); a local error of order p falls as h^(p + 1)
        lam = -2.0 + 1.0j
        step = sigma_ode._dop853(lambda t, z, z1, z2: lam * z2)

        def errors(h):
            (_, _, z2), e5, e3 = step(0j, 1 + 0j, 0.0, h, 0j, 0j, 1 + 0j,
                                      lam)
            return abs(z2 - cmath.exp(lam * h)), abs(e5[2]), abs(e3[2])

        orders = [math.log2(a / b) - 1
                  for a, b in zip(errors(0.2), errors(0.1))]
        for got, want in zip(orders, (8, 5, 3)):
            assert abs(got - want) <= 0.3, orders


class TestIntegrate:
    def test_zero_solution_stays_zero(self):
        traj = integrate(V_ZERO, OdeSeed(0.1, 0j, 0j), [0.1, 1.0], tol=1e-10)
        assert all(z == 0 and z1 == 0 for z, z1 in traj.values)
        assert max(traj.residuals) == 0

    def test_constraint_stays_within_tolerance_budget(self):
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        traj = integrate(V_STD, sd, [0.05, 0.4], tol=1e-10)
        assert max(traj.residuals) <= 100 * 1e-10
        assert traj.tolerance == 1e-10

    def test_tolerance_halving_moves_endpoint_little(self):
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        tol = 1e-10
        za = integrate(V_STD, sd, [0.05, 0.4], tol=tol).final[1]
        zb = integrate(V_STD, sd, [0.05, 0.4], tol=tol / 2).final[1]
        assert abs(za - zb) <= 10 * tol

    def test_forward_backward_round_trip(self):
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        fwd = integrate(V_STD, sd, [0.05, 0.4], tol=1e-10)
        _, zf, z1f = fwd.final
        back = integrate(V_STD, OdeSeed(0.4, zf, z1f), [0.4, 0.05], tol=1e-10)
        assert abs(back.final[1] - sd.zeta) < 1e-8

    def test_bulk_flow_agrees_with_series_downstream(self):
        bexp = bulk_series(P_STD)
        sd = seed_bulk(P_STD, bexp, 0.05)
        traj = integrate(V_STD, sd, [0.05, 0.1], tol=1e-10)
        ref = seed_bulk(P_STD, bexp, 0.1)
        assert abs(traj.final[1] - ref.zeta) < 5e-4

    def test_sixth_flow_agrees_with_series_downstream(self):
        exp6 = _exp6()
        sd = seed_vi(THETA6, exp6, 1e-3)
        traj = integrate(THETA6, sd, [1e-3, 0.01], tol=1e-10)
        ref = seed_vi(THETA6, exp6, 0.01)
        assert abs(traj.final[1] - ref.zeta) < 2e-4

    def test_path_through_singularity_rejected(self):
        seed = OdeSeed(0.5, 0.1 + 0j, 0.2 + 0j)
        with pytest.raises(ValueError):
            integrate(THETA6, seed, [0.5, 1.5], tol=1e-8)
        seed = OdeSeed(-0.1, 0.1 + 0j, 0.2 + 0j)
        with pytest.raises(ValueError):
            integrate(THETA5, seed, [-0.1, 0.1], tol=1e-8)
        with pytest.raises(ValueError, match="fixed singularity 0j"):
            integrate(V_STD, seed, [-0.1, 0.1], tol=1e-8)

    def test_huge_leg_through_singularity_rejected(self):
        # the leg's length squared would overflow the projection onto it
        seed = OdeSeed(0.5, 0.1 + 0j, 0.2 + 0j)
        with pytest.raises(ValueError, match=r"fixed singularity \(1\+0j\)"):
            integrate(THETA6, seed, [0.5, 1e300], tol=1e-8)

    @pytest.mark.parametrize("path", [[0.05], [0.05, 0.05]])
    def test_seed_point_alone_is_the_seed(self, path):
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        traj = integrate(V_STD, sd, path, tol=1e-10)
        assert traj.path == (0.05,) and traj.accepted == 0
        assert traj.values == ((sd.zeta, sd.dzeta),)
        assert traj.residuals[0] <= 1e-10
        with pytest.raises(ValueError, match="at least one waypoint"):
            integrate(V_STD, sd, [], tol=1e-10)

    def test_seed_point_on_a_singularity_rejected(self):
        with pytest.raises(ValueError, match="fixed singularity 0j"):
            integrate(V_STD, OdeSeed(0.0, 0.1 + 0j, 0.2 + 0j), [0.0])

    def test_waypoints_land_exactly(self):
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        traj = integrate(V_STD, sd, [0.05, 0.2, 0.2, 0.4], tol=1e-8)
        assert any(t == 0.2 for t in traj.path)
        assert traj.path[-1] == 0.4

    def test_zero_slope_seed_turns_immediately(self):
        with pytest.raises(TurningPointError):
            integrate(THETA6, OdeSeed(0.3, 0.2 + 0j, 0j), [0.3, 0.5],
                      tol=1e-10)

    def test_nan_flow_ends_in_step_size_underflow(self, monkeypatch):
        # OdeSeed refuses a nan seed, so here z''' goes nan: every error
        # estimate is nan, so every step is rejected and shrunk
        def nan_third(params):
            return types.SimpleNamespace(**{
                **vars(relation(params)),
                "third": lambda t, z, z1, z2: math.nan})

        monkeypatch.setattr(sigma_ode, "relation", nan_third)
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        with pytest.raises(StepSizeUnderflowError):
            integrate(V_STD, sd, [0.5], tol=1e-10)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_out_of_range_tolerance_rejected(self, tol):
        sd = seed_vi(THETA6, _exp6(), 1e-3)
        with pytest.raises(ValueError, match="tol"):
            integrate(THETA6, sd, [0.01], tol=tol)


class TestWorkCounters:
    def test_counts_match_nodes(self):
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        traj = integrate(V_STD, sd, [0.05, 0.2, 0.4], tol=1e-10)
        assert traj.accepted == len(traj) - 1
        gaps = [abs(traj.path[i + 1] - traj.path[i])
                for i in range(len(traj) - 1)]
        assert traj.min_step == pytest.approx(min(gaps), rel=1e-12)

    def test_tight_tolerance_rejects_and_reprojects(self):
        # a sigma_flow op (seed 1, pass 6, op 2): from 0.00186552 to
        # 0.408702 at tol 1e-10 the flow rejects 4 trial steps and
        # re-projects z'' once
        theta = ThetaVI(0.100175, 0.199438, 0.302643, 0.315343)
        exp = tau_series.pvi_tau_series(theta, 0.580059, 0.747862)
        sd = seed_vi(theta, exp, 0.00186552)
        traj = integrate(theta, sd, [0.408702], tol=1e-10)
        assert traj.accepted == len(traj) - 1
        assert traj.rejected > 0
        assert traj.reprojected > 0

    def test_no_step_taken(self):
        traj = integrate(V_ZERO, OdeSeed(0.1, 0j, 0j), [0.1, 0.1], tol=1e-10)
        assert len(traj) == 1
        assert (traj.accepted, traj.rejected, traj.reprojected,
                traj.detours) == (0, 0, 0, 0)
        assert traj.min_step == math.inf

    def test_nan_residual_is_reprojected(self, monkeypatch):
        # a node whose scaled residual is nan is not at or below tol
        def nan_scaled(params):
            return types.SimpleNamespace(**{
                **vars(relation(params)),
                "scaled": lambda t, z, z1, z2: math.nan})

        monkeypatch.setattr(sigma_ode, "relation", nan_scaled)
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        traj = integrate(V_STD, sd, [0.05, 0.2], tol=1e-10)
        assert traj.accepted > 0
        assert traj.reprojected == traj.accepted

    def test_ode_prints_the_counters(self, capsys):
        # under a top-level diagnostics key of the JSON, not in the CSV
        argv = ["ode", *_SEED7_OP]
        assert cli.main(argv) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        traj = _seed7_trajectory()
        assert data["diagnostics"] == {
            "accepted": traj.accepted, "rejected": traj.rejected,
            "reprojected": traj.reprojected, "detours": traj.detours,
            "min_step": traj.min_step}
        assert len(data["rows"]) == len(traj)
        assert cli.main([*argv, "--format=csv"]) == cli.EXIT_OK
        assert "detours" not in capsys.readouterr().out
        assert cli.main(["ode", "--grid-count=1"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["diagnostics"] == {
            "accepted": 0, "rejected": 0, "reprojected": 0, "detours": 0,
            "min_step": None}


class TestTauReconstruct:
    def test_zero_solution_gives_anchor_everywhere(self):
        traj = integrate(V_ZERO, OdeSeed(0.1, 0j, 0j), [0.1, 1.0], tol=1e-10)
        rec = tau_reconstruct(traj, 2.0)
        assert rec[0] == (0.1 + 0j, 2.0 + 0j)
        assert all(a == 2.0 for _, a in rec)

    def test_zero_parameter_average_is_unity(self):
        p0 = SSEParams(N=1, mu=0.0, omega1=0.0, omega2=0.0, xi_star=0.0)
        v = bulk_okamoto_params(p0)
        traj = integrate(v, OdeSeed(0.1, 0j, 0j), [0.1, 1.0], tol=1e-10)
        rec = tau_reconstruct(traj, 1.0)
        assert all(a == 1.0 for _, a in rec)

    def test_bulk_first_node_anchor(self):
        bexp = bulk_series(P_STD)
        sd = seed_bulk(P_STD, bexp, 0.02)
        traj = integrate(V_STD, sd, [0.12], tol=1e-10)
        anchor = (0.02, bexp.evaluate(0.02))
        assert traj.params is V_STD
        rec = tau_reconstruct(traj, anchor[1])
        assert rec[0] == anchor
        assert [t for t, _ in rec] == list(traj.path)
        x, a = min(rec, key=lambda pair: abs(pair[0] - 0.05))
        assert abs(a - bexp.evaluate(x)) < 2e-4

    def test_sixth_reconstruction_consistent_with_series(self):
        exp6 = _exp6()
        sd = seed_vi(THETA6, exp6, 0.01)
        traj = integrate(THETA6, sd, [0.01, 0.1], tol=1e-10)
        rec = tau_reconstruct(traj, exp6.evaluate(0.01))
        t_end, a_end = rec[-1]
        assert t_end == traj.path[-1]
        assert abs(a_end - exp6.evaluate(0.1)) < 1.5e-3

    def test_fifth_reconstruction_consistent_with_series(self):
        exp5 = _exp5()
        sd = seed_v(THETA5, exp5, 0.002)
        traj = integrate(THETA5, sd, [0.002, 0.05], tol=1e-10)
        rec = tau_reconstruct(traj, exp5.evaluate(0.002))
        a_end = rec[-1][1]
        ref = exp5.evaluate(0.05)
        assert abs(a_end - ref) / abs(ref) < 3e-3


# a closed-form log tau and its first three derivatives
_KAPPA = 0.3 - 0.2j


def _log_tau(t):
    return _KAPPA * cmath.log(1 + t) + cmath.exp(t / 2)


def _log_tau_derivatives(t):
    e = cmath.exp(t / 2)
    return (_KAPPA / (1 + t) + e / 2, -_KAPPA / (1 + t) ** 2 + e / 4,
            2 * _KAPPA / (1 + t) ** 3 + e / 8)


def _synthetic_trajectory(params, steps):
    """A trajectory of steps equal steps from t = 0.2 to 0.6 taken from
    _log_tau through params' sigma map, built by hand."""
    amap = sigma_map(params)
    ts = [0.2 + 0.4 * k / steps for k in range(steps + 1)]
    jets = [amap.jet(t, *_log_tau_derivatives(t)) for t in ts]
    return SigmaTrajectory(path=tuple(ts),
                           values=tuple((z, z1) for z, z1, _ in jets),
                           curvatures=tuple(z2 for _, _, z2 in jets),
                           residuals=(0.0,) * len(ts), tolerance=1e-10,
                           params=params)


def _rebuild_error(traj):
    """|rebuilt - exact| log tau at the trajectory's last node, rebuilt
    from the exact tau at its first."""
    rec = tau_reconstruct(traj, cmath.exp(_log_tau(traj.path[0])))
    return abs(cmath.log(rec[-1][1]) - _log_tau(traj.path[-1]))


def _bulk_output(argv):
    """(SSEParams, rows) of a bulk run, the parameters read off its echo."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["bulk", *argv]) == cli.EXIT_OK
    data = json.loads(out.getvalue())
    mu, omega1, omega2, xi = (cli.parse_complex(data["params"][k])
                              for k in ("mu", "omega1", "omega2", "xi"))
    p = SSEParams(N=0, mu=mu, omega1=omega1, omega2=omega2, xi_star=xi)
    return p, data["rows"]


def _dense_bulk_reference(p, xs, spacing=1e-3):
    """The bulk average rebuilt at the grid xs from a flow at tol 1e-13
    whose waypoints lie at most spacing apart, seeded and anchored as
    cmd_bulk does."""
    exp = bulk_series(p)
    path = []
    for a, b in zip(xs, xs[1:]):
        n = math.ceil((b - a) / spacing)
        path += [a + (b - a) * k / n for k in range(1, n)] + [b]
    traj = integrate(bulk_okamoto_params(p), seed_bulk(p, exp, xs[0]), path,
                     tol=1e-13)
    return dict(tau_reconstruct(traj, exp.evaluate(xs[0])))


class TestReconstructionAccuracy:
    @pytest.mark.parametrize("params", [THETA6, THETA5, V_STD],
                             ids=["ThetaVI", "ThetaV", "BulkParams"])
    def test_rule_is_sixth_order(self, params):
        # halving the step divides the error by 64 at sixth order (64.8
        # here), by 16 for the end-corrected trapezoid rule
        coarse = _rebuild_error(_synthetic_trajectory(params, 8))
        fine = _rebuild_error(_synthetic_trajectory(params, 16))
        assert coarse / fine >= 48

    def test_a_hand_built_trajectory_is_read_through_its_params(self):
        # the rebuild takes the family from the trajectory: the same nodes
        # labelled with another family are read through that family's map
        # (errors 0.31 to 1.6 here, against 2.8e-14 under their own)
        families = (THETA6, THETA5, V_STD)
        for params in families:
            traj = _synthetic_trajectory(params, 16)
            assert _rebuild_error(traj) < 1e-9
            for other in families:
                if other is not params:
                    relabelled = dataclasses.replace(traj, params=other)
                    assert _rebuild_error(relabelled) > 0.1
        with pytest.raises(TypeError, match="no sigma form for NoneType"):
            tau_reconstruct(dataclasses.replace(traj, params=None), 1.0)

    @pytest.mark.parametrize("argv", [
        [],
        ["--dims=8,16,32,48,64", "--mu=0.847071", "--omega1=-0.381373",
         "--omega2=0.327522", "--xi=1", "--grid-start=0.241118",
         "--grid-end=0.533939", "--grid-count=4"],
    ], ids=["defaults", "finite_n_op"])
    def test_bulk_rebuild_meets_a_dense_reference(self, argv):
        # the flow's own steps suffice: ode_re/ode_im within 1e-8 relative
        # (1.6e-9 and 3.1e-9 today) of a flow held to 1e-3 spacing
        p, rows = _bulk_output(argv)
        ref = _dense_bulk_reference(p, [row[0] for row in rows])
        for x, ode_re, ode_im, *_ in rows:
            assert abs(complex(ode_re, ode_im) - ref[x]) <= 1e-8 * abs(ref[x])


class TestSeedHelpers:
    def test_seed_vi_derivatives_consistent(self):
        exp6 = _exp6()
        t, h = 0.05, 1e-6
        sd = seed_vi(THETA6, exp6, t)
        fd1 = (seed_vi(THETA6, exp6, t + h).zeta
               - seed_vi(THETA6, exp6, t - h).zeta) / (2 * h)
        fd2 = (seed_vi(THETA6, exp6, t + h).dzeta
               - seed_vi(THETA6, exp6, t - h).dzeta) / (2 * h)
        assert abs(fd1 - sd.dzeta) < 1e-5 * max(1.0, abs(sd.dzeta))
        assert abs(fd2 - sd.curvature) < 1e-4 * max(1.0, abs(sd.curvature))

    def test_seed_v_derivatives_consistent(self):
        exp5 = _exp5()
        t, h = 0.05, 1e-6
        sd = seed_v(THETA5, exp5, t)
        fd1 = (seed_v(THETA5, exp5, t + h).zeta
               - seed_v(THETA5, exp5, t - h).zeta) / (2 * h)
        fd2 = (seed_v(THETA5, exp5, t + h).dzeta
               - seed_v(THETA5, exp5, t - h).dzeta) / (2 * h)
        assert abs(fd1 - sd.dzeta) < 1e-5 * max(1.0, abs(sd.dzeta))
        assert abs(fd2 - sd.curvature) < 1e-4 * max(1.0, abs(sd.curvature))

    def test_seed_bulk_derivatives_consistent(self):
        bexp = bulk_series(P_STD)
        x, h = 0.05, 1e-6
        sd = seed_bulk(P_STD, bexp, x)
        fd1 = (seed_bulk(P_STD, bexp, x + h).zeta
               - seed_bulk(P_STD, bexp, x - h).zeta) / (2 * h)
        fd2 = (seed_bulk(P_STD, bexp, x + h).dzeta
               - seed_bulk(P_STD, bexp, x - h).dzeta) / (2 * h)
        assert abs(fd1 - sd.dzeta) < 1e-5 * max(1.0, abs(sd.dzeta))
        assert abs(fd2 - sd.curvature) < 1e-4 * max(1.0, abs(sd.curvature))

    def test_seed_bulk_sits_near_relation_manifold(self):
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.01)
        assert relation(V_STD).scaled(0.01, sd.zeta, sd.dzeta,
                                      sd.curvature) < 1e-4


class TestTrajectoryCsv:
    def test_header_and_rows_parse(self, capsys):
        # the CLI writes trajectories; its CSV rows read back as the nodes
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        traj = integrate(V_STD, sd, [0.05, 0.1], tol=1e-8)
        assert cli.main(["ode", "--family=bulk", "--mu=0.25",
                         "--omega1=0.1", "--omega2=0.3", "--xi=0.5",
                         "--grid-start=0.05", "--grid-end=0.1", "--tol=1e-8",
                         "--format=csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t_re,t_im,zeta_re,zeta_im,dzeta_re,dzeta_im,residual"
        assert len(lines) == len(traj.path) + 1
        for line, t, (z, z1), res in zip(lines[1:], traj.path, traj.values,
                                         traj.residuals):
            assert [float(tok) for tok in line.split(",")] == [
                t.real, t.imag, z.real, z.imag, z1.real, z1.imag, res]
