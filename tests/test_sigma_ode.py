import cmath
import contextlib
import io
import json
import math
import random

import pytest

from taurmt import cli, sigma_ode, tau_series
from taurmt.monodromy_v import ThetaV
from taurmt.monodromy_vi import SSEParams, ThetaVI
from taurmt.sigma_ode import (
    OdeSeed,
    SigmaTrajectory,
    StepSizeUnderflowError,
    TurningPointError,
    integrate,
    relation,
    seed_bulk,
    seed_v,
    seed_vi,
    tau_reconstruct,
)
from taurmt.tau_series import BulkParams, bulk_okamoto_params, bulk_series

P_STD = SSEParams(N=2, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5)

THETA6 = ThetaVI(0.3, 0.4, 0.5, 0.6)
THETA5 = ThetaV(0.3, 0.5, 0.7)

V_ZERO = BulkParams(0, 0, 0, 0)
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
        # as tau_series.sigma_map does
        with pytest.raises(TypeError):
            tau_series.sigma_map(params)
        with pytest.raises(TypeError):
            relation(params)
        with pytest.raises(TypeError):
            integrate(params, OdeSeed(0.1, 0j, 0.2 + 0j), [0.5])
        traj = integrate(V_ZERO, OdeSeed(0.1, 0j, 0j), [0.5])
        with pytest.raises(TypeError):
            tau_reconstruct(traj, params, (0.1, 1.0))


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


class TestThirdDerivative:
    def test_consistent_with_gradient(self):
        # z''' = -(F_t + z' F_z + z'' F_z') / F_z'' once F and F' vanish;
        # on the relation manifold F_z contributes z'*F_z which cancels by
        # the structural identity, leaving the closed form used by the flow
        t, z, z1 = 0.37, 0.21 - 0.4j, 0.5 + 0.12j
        z2 = relation(THETA5).roots(t, z, z1)[0]
        ft, fz, fp, fpp = relation(THETA5).gradient(t, z, z1, z2)
        expected = -(ft + z1 * fz + z2 * fp) / fpp
        got = relation(THETA5).third(t, z, z1, z2)
        assert abs(got - expected) < 1e-10 * max(1.0, abs(expected))

    def test_turning_point_raises(self):
        with pytest.raises(TurningPointError):
            relation(THETA6).third(0.3, 0.2, 0.0, 1.0)


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

    def test_waypoints_land_exactly(self):
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        traj = integrate(V_STD, sd, [0.05, 0.2, 0.2, 0.4], tol=1e-8)
        assert any(t == 0.2 for t in traj.path)
        assert traj.path[-1] == 0.4

    def test_zero_slope_seed_turns_immediately(self):
        with pytest.raises(TurningPointError):
            integrate(THETA6, OdeSeed(0.3, 0.2 + 0j, 0j), [0.3, 0.5],
                      tol=1e-10)

    def test_nan_seed_ends_in_step_size_underflow(self):
        # every error estimate is nan, so every step is rejected and shrunk
        with pytest.raises(StepSizeUnderflowError):
            integrate(V_STD, OdeSeed(0.1, math.nan, 0.2), [0.5], tol=1e-10)

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
        # from 1e-3 to 0.4 at tol 1e-12 the flow rejects 5 trial steps and
        # re-projects z'' once
        sd = seed_vi(THETA6, _exp6(), 1e-3)
        traj = integrate(THETA6, sd, [0.4], tol=1e-12)
        assert traj.accepted == len(traj) - 1
        assert traj.rejected > 0
        assert traj.reprojected > 0

    def test_no_step_taken(self):
        traj = integrate(V_ZERO, OdeSeed(0.1, 0j, 0j), [0.1, 0.1], tol=1e-10)
        assert len(traj) == 1
        assert (traj.accepted, traj.rejected, traj.reprojected) == (0, 0, 0)
        assert traj.min_step == math.inf


class TestTauReconstruct:
    def test_zero_solution_gives_anchor_everywhere(self):
        traj = integrate(V_ZERO, OdeSeed(0.1, 0j, 0j), [0.1, 1.0], tol=1e-10)
        rec = tau_reconstruct(traj, V_ZERO, (0.1, 2.0))
        assert rec[0] == (0.1 + 0j, 2.0 + 0j)
        assert all(a == 2.0 for _, a in rec)

    def test_zero_parameter_average_is_unity(self):
        p0 = SSEParams(N=1, mu=0.0, omega1=0.0, omega2=0.0, xi_star=0.0)
        v = bulk_okamoto_params(p0)
        traj = integrate(v, OdeSeed(0.1, 0j, 0j), [0.1, 1.0], tol=1e-10)
        rec = tau_reconstruct(traj, v, (0.1, 1.0))
        assert all(a == 1.0 for _, a in rec)

    def test_bulk_first_node_anchor(self):
        bexp = bulk_series(P_STD)
        sd = seed_bulk(P_STD, bexp, 0.02)
        traj = integrate(V_STD, sd, [0.12], tol=1e-10)
        anchor = (0.02, bexp.evaluate(0.02))
        rec = tau_reconstruct(traj, V_STD, anchor)
        assert rec[0] == anchor
        assert [t for t, _ in rec] == list(traj.path)
        x, a = min(rec, key=lambda pair: abs(pair[0] - 0.05))
        assert abs(a - bexp.evaluate(x)) < 2e-4

    def test_anchor_off_the_trajectory_rejected(self):
        exp6 = _exp6()
        traj = integrate(THETA6, seed_vi(THETA6, exp6, 0.01), [0.05],
                         tol=1e-10)
        for point in (0.03, 0.0):
            with pytest.raises(ValueError, match="anchor point"):
                tau_reconstruct(traj, THETA6, (point, 1.0))
        # the bulk form, too, anchors only at a node, not at the origin
        traj = integrate(V_STD, seed_bulk(P_STD, bulk_series(P_STD), 0.02),
                         [0.05], tol=1e-10)
        with pytest.raises(ValueError, match="anchor point"):
            tau_reconstruct(traj, V_STD, (0.0, 1.0))

    def test_sixth_reconstruction_consistent_with_series(self):
        exp6 = _exp6()
        sd = seed_vi(THETA6, exp6, 0.01)
        traj = integrate(THETA6, sd, [0.01, 0.1], tol=1e-10)
        rec = tau_reconstruct(traj, THETA6, (0.01, exp6.evaluate(0.01)))
        t_end, a_end = rec[-1]
        assert t_end == traj.path[-1]
        assert abs(a_end - exp6.evaluate(0.1)) < 1.5e-3

    def test_fifth_reconstruction_consistent_with_series(self):
        exp5 = _exp5()
        sd = seed_v(THETA5, exp5, 0.002)
        traj = integrate(THETA5, sd, [0.002, 0.05], tol=1e-10)
        rec = tau_reconstruct(traj, THETA5, (0.002, exp5.evaluate(0.002)))
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


def _synthetic_rebuild_error(params, steps):
    """|rebuilt - exact| log tau at t = 0.6, rebuilt over steps equal steps
    from 0.2 on a trajectory taken from _log_tau through params' sigma map."""
    amap = tau_series.sigma_map(params)
    ts = [0.2 + 0.4 * k / steps for k in range(steps + 1)]
    jets = [amap.jet(t, *_log_tau_derivatives(t)) for t in ts]
    traj = SigmaTrajectory(path=tuple(ts),
                           values=tuple((z, z1) for z, z1, _ in jets),
                           curvatures=tuple(z2 for _, _, z2 in jets),
                           residuals=(0.0,) * len(ts), tolerance=1e-10)
    rec = tau_reconstruct(traj, params, (ts[0], cmath.exp(_log_tau(ts[0]))))
    return abs(cmath.log(rec[-1][1]) - _log_tau(ts[-1]))


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
    v = bulk_okamoto_params(p)
    traj = integrate(v, seed_bulk(p, exp, xs[0]), path, tol=1e-13)
    return dict(tau_reconstruct(traj, v, (xs[0], exp.evaluate(xs[0]))))


class TestReconstructionAccuracy:
    @pytest.mark.parametrize("params", [THETA6, THETA5, V_STD],
                             ids=["ThetaVI", "ThetaV", "BulkParams"])
    def test_rule_is_fourth_order(self, params):
        # halving the step divides the error by 16 at fourth order, by 4
        # for the plain trapezoid rule
        coarse = _synthetic_rebuild_error(params, 8)
        fine = _synthetic_rebuild_error(params, 16)
        assert coarse / fine >= 12

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
