import math
import random

import pytest

from taurmt import cli, sigma_ode, tau_series
from taurmt.monodromy_v import ThetaV
from taurmt.monodromy_vi import SSEParams, ThetaVI
from taurmt.sigma_ode import (
    OdeKind,
    OdeSeed,
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


def _exp6():
    return tau_series.pvi_tau_series(THETA6, 0.45, 2.0)


def _exp5():
    return tau_series.pv_tau_series(THETA5, 0.4, 1.5)


class TestOdeKind:
    def test_constructors_and_names(self):
        assert OdeKind.pvi_sf(THETA6).name == "pvi_sf"
        assert OdeKind.pv_sf(THETA5).name == "pv_sf"
        assert OdeKind.jmo_pv(V_ZERO).name == "jmo_pv"

    def test_parameter_types_enforced(self):
        with pytest.raises(TypeError):
            OdeKind.pvi_sf(THETA5)
        with pytest.raises(TypeError):
            OdeKind.pv_sf(THETA6)
        with pytest.raises(TypeError):
            OdeKind.jmo_pv(THETA6)

    def test_singularities(self):
        assert OdeKind.pvi_sf(THETA6).singularities == (0j, 1 + 0j)
        assert OdeKind.pv_sf(THETA5).singularities == (0j,)
        assert OdeKind.jmo_pv(V_ZERO).singularities == (0j,)


class TestResidual:
    def test_zero_roots_constant_state(self):
        # with all roots zero the product term drops and the relation
        # collapses to -h^2 for a constant h
        k = OdeKind.jmo_pv(V_ZERO)
        c = 0.3 + 0.1j
        assert relation(k).residual(0.7, c, 0.0, 0.0) == -c * c

    def test_zero_state_is_exact(self):
        k = OdeKind.jmo_pv(V_ZERO)
        assert relation(k).residual(0.7, 0.0, 0.0, 0.0) == 0

    def test_sixth_series_scaled_residual_decays(self):
        # seeded from the boundary expansion the scaled defect must fall at
        # least as fast as the first dropped exponent, 2(1 - 0.45) = 1.1
        k = OdeKind.pvi_sf(THETA6)
        exp6 = _exp6()
        vals = []
        for t in (1e-3, 1e-4, 1e-5):
            sd = seed_vi(THETA6, exp6, t)
            vals.append(relation(k).scaled(t, sd.zeta, sd.dzeta, sd.curvature))
        slopes = [math.log10(vals[i] / vals[i + 1]) for i in range(2)]
        assert min(slopes) > 0.9
        assert vals[-1] < 1e-5

    def test_fifth_series_scaled_residual_decays(self):
        k = OdeKind.pv_sf(THETA5)
        exp5 = _exp5()
        vals = []
        for t in (1e-3, 1e-4, 1e-5):
            sd = seed_v(THETA5, exp5, t)
            vals.append(relation(k).scaled(t, sd.zeta, sd.dzeta, sd.curvature))
        slopes = [math.log10(vals[i] / vals[i + 1]) for i in range(2)]
        assert min(slopes) > 1.0
        assert vals[-1] < 1e-8

    def test_bulk_series_residual_decays(self):
        k = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        bexp = bulk_series(P_STD)
        vals = []
        for x in (0.2, 0.02, 0.002):
            sd = seed_bulk(P_STD, bexp, x)
            vals.append(abs(relation(k).residual(x, sd.zeta, sd.dzeta,
                                                 sd.curvature)))
        slopes = [math.log10(vals[i] / vals[i + 1]) for i in range(2)]
        assert min(slopes) > 1.5
        assert vals[-1] < 2e-6

    def test_gradient_matches_finite_differences(self):
        state = (0.3 + 0.2j, 0.4 - 0.1j, -0.2 + 0.5j, 0.7 + 0.3j)
        h = 1e-6
        for k in (OdeKind.pvi_sf(THETA6), OdeKind.pv_sf(THETA5),
                  OdeKind.jmo_pv(bulk_okamoto_params(P_STD))):
            rel = relation(k)
            grad = rel.gradient(*state)
            for slot in range(4):
                up = list(state)
                dn = list(state)
                up[slot] += h
                dn[slot] -= h
                fd = (rel.residual(*up) - rel.residual(*dn)) / (2 * h)
                assert abs(fd - grad[slot]) < 1e-6 * max(1.0, abs(grad[slot]))

    def test_scaled_residual_is_relative(self):
        k = OdeKind.pvi_sf(THETA6)
        t, z, z1, z2 = 0.4, 0.3 + 0.1j, 5.0 + 2.0j, 1.0 - 0.5j
        raw = abs(relation(k).residual(t, z, z1, z2))
        assert relation(k).scaled(t, z, z1, z2) < raw


class TestThirdDerivative:
    def test_consistent_with_gradient(self):
        # z''' = -(F_t + z' F_z + z'' F_z') / F_z'' once F and F' vanish;
        # on the relation manifold F_z contributes z'*F_z which cancels by
        # the structural identity, leaving the closed form used by the flow
        k = OdeKind.pv_sf(THETA5)
        t, z, z1 = 0.37, 0.21 - 0.4j, 0.5 + 0.12j
        z2 = relation(k).roots(t, z, z1)[0]
        ft, fz, fp, fpp = relation(k).gradient(t, z, z1, z2)
        expected = -(ft + z1 * fz + z2 * fp) / fpp
        got = relation(k).third(t, z, z1, z2)
        assert abs(got - expected) < 1e-10 * max(1.0, abs(expected))

    def test_turning_point_raises(self):
        k = OdeKind.pvi_sf(THETA6)
        with pytest.raises(TurningPointError):
            relation(k).third(0.3, 0.2, 0.0, 1.0)


class TestSolveSecondDegree:
    def test_double_root_at_origin_state(self):
        k = OdeKind.jmo_pv(V_ZERO)
        r1, r2 = relation(k).roots(0.7, 0.0, 0.0)
        assert r1 == 0 and r2 == 0

    def test_roots_satisfy_relation(self):
        rng = random.Random(11)
        kinds = (OdeKind.pvi_sf(THETA6), OdeKind.pv_sf(THETA5),
                 OdeKind.jmo_pv(bulk_okamoto_params(P_STD)))
        for k in kinds:
            for _ in range(5):
                t = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.4, 0.4))
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for root in relation(k).roots(t, z, z1):
                    assert relation(k).scaled(t, z, z1, root) < 1e-10

    def test_sixth_series_seed_matches_root(self):
        # deep inside the seed radius one quadratic root reproduces the
        # series curvature to 1e-8
        k = OdeKind.pvi_sf(THETA6)
        sd = seed_vi(THETA6, _exp6(), 1e-9)
        roots = relation(k).roots(1e-9, sd.zeta, sd.dzeta)
        rel = min(abs(r - sd.curvature) for r in roots) / abs(sd.curvature)
        assert rel < 1e-8

    def test_bulk_series_seed_near_root(self):
        # the bulk bracket stops before the x^2 coefficient, which feeds the
        # curvature at O(1); the match is correspondingly coarse
        k = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        sd = seed_bulk(P_STD, bulk_series(P_STD), 2e-5)
        roots = relation(k).roots(2e-5, sd.zeta, sd.dzeta)
        rel = min(abs(r - sd.curvature) for r in roots) / abs(sd.curvature)
        assert rel < 2e-2

    def test_zero_slope_is_turning_point(self):
        k = OdeKind.pvi_sf(THETA6)
        with pytest.raises(TurningPointError) as info:
            relation(k).roots(0.3, 0.2, 0.0)
        assert info.value.t == 0.3

    def test_fifth_forms_turn_at_origin(self):
        with pytest.raises(TurningPointError):
            relation(OdeKind.pv_sf(THETA5)).roots(0.0, 0.2, 0.1)
        with pytest.raises(TurningPointError):
            relation(OdeKind.jmo_pv(V_ZERO)).roots(0.0, 0.2, 0.1)


class TestCrossFormIdentity:
    def test_affine_map_carries_fifth_solutions_to_bulk_form(self):
        # h(x) = zeta(x) + A x + B with A = -(2*th0 + thi)/4, B = -2A^2
        # maps every solution of the fifth form with the bulk exponents to a
        # solution of the alternative form whose roots are the formal
        # monodromy exponents; this pins bulk_okamoto_params independently
        mu, om1, om2 = 0.25, 0.1, 0.3
        om, omb = om1 + 1j * om2, om1 - 1j * om2
        tv = ThetaV(mu + omb, -mu - om, 2 * mu - 2 * om1)
        kv = OdeKind.pv_sf(tv)
        kb = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        a_lin = -(2 * tv.theta0 + tv.theta_inf) / 4
        b_const = -2 * a_lin ** 2
        rng = random.Random(3)
        for _ in range(5):
            x = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.3, 0.3))
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for z2 in relation(kv).roots(x, z, z1):
                f = relation(kb).residual(x, z + a_lin * x + b_const,
                                          z1 + a_lin, z2)
                assert abs(f) < 1e-12


class TestIntegrate:
    def test_zero_solution_stays_zero(self):
        k = OdeKind.jmo_pv(V_ZERO)
        traj = integrate(k, (0.1, 0j, 0j), [0.1, 1.0], tol=1e-10)
        assert all(z == 0 and z1 == 0 for z, z1 in traj.values)
        assert max(traj.residuals) == 0

    def test_constraint_stays_within_tolerance_budget(self):
        k = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        traj = integrate(k, sd, [0.05, 0.4], tol=1e-10)
        assert max(traj.residuals) <= 100 * 1e-10
        assert traj.tolerance == 1e-10

    def test_tolerance_halving_moves_endpoint_little(self):
        k = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        tol = 1e-10
        za = integrate(k, sd, [0.05, 0.4], tol=tol).final[1]
        zb = integrate(k, sd, [0.05, 0.4], tol=tol / 2).final[1]
        assert abs(za - zb) <= 10 * tol

    def test_forward_backward_round_trip(self):
        k = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        fwd = integrate(k, sd, [0.05, 0.4], tol=1e-10)
        _, zf, z1f = fwd.final
        back = integrate(k, OdeSeed(0.4, zf, z1f), [0.4, 0.05], tol=1e-10)
        assert abs(back.final[1] - sd.zeta) < 1e-8

    def test_bulk_flow_agrees_with_series_downstream(self):
        k = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        bexp = bulk_series(P_STD)
        sd = seed_bulk(P_STD, bexp, 0.05)
        traj = integrate(k, sd, [0.05, 0.1], tol=1e-10)
        ref = seed_bulk(P_STD, bexp, 0.1)
        assert abs(traj.final[1] - ref.zeta) < 5e-4

    def test_sixth_flow_agrees_with_series_downstream(self):
        k = OdeKind.pvi_sf(THETA6)
        exp6 = _exp6()
        sd = seed_vi(THETA6, exp6, 1e-3)
        traj = integrate(k, sd, [1e-3, 0.01], tol=1e-10)
        ref = seed_vi(THETA6, exp6, 0.01)
        assert abs(traj.final[1] - ref.zeta) < 2e-4

    def test_path_through_singularity_rejected(self):
        k6 = OdeKind.pvi_sf(THETA6)
        with pytest.raises(ValueError):
            integrate(k6, (0.5, 0.1 + 0j, 0.2 + 0j), [0.5, 1.5], tol=1e-8)
        kv = OdeKind.pv_sf(THETA5)
        with pytest.raises(ValueError):
            integrate(kv, (-0.1, 0.1 + 0j, 0.2 + 0j), [-0.1, 0.1], tol=1e-8)

    def test_max_step_caps_node_spacing(self):
        k = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        traj = integrate(k, sd, [0.05, 0.4], tol=1e-8, max_step=0.01)
        gaps = [abs(traj.path[i + 1] - traj.path[i])
                for i in range(len(traj.path) - 1)]
        assert max(gaps) <= 0.01 + 1e-12

    def test_waypoints_land_exactly(self):
        k = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        traj = integrate(k, sd, [0.05, 0.2, 0.2, 0.4], tol=1e-8)
        assert any(t == 0.2 for t in traj.path)
        assert traj.path[-1] == 0.4

    def test_zero_slope_seed_turns_immediately(self):
        k = OdeKind.pvi_sf(THETA6)
        with pytest.raises(TurningPointError):
            integrate(k, (0.3, 0.2 + 0j, 0j), [0.3, 0.5], tol=1e-10)

    def test_nan_seed_ends_in_step_size_underflow(self):
        # every error estimate is nan, so every step is rejected and shrunk
        k = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        with pytest.raises(StepSizeUnderflowError):
            integrate(k, (0.1, math.nan, 0.2), [0.5], tol=1e-10)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_out_of_range_tolerance_rejected(self, tol):
        k = OdeKind.pvi_sf(THETA6)
        sd = seed_vi(THETA6, _exp6(), 1e-3)
        with pytest.raises(ValueError, match="tol"):
            integrate(k, sd, [0.01], tol=tol)


class TestWorkCounters:
    def test_counts_match_nodes(self):
        k = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        traj = integrate(k, sd, [0.05, 0.2, 0.4], tol=1e-10)
        assert traj.accepted == len(traj) - 1
        gaps = [abs(traj.path[i + 1] - traj.path[i])
                for i in range(len(traj) - 1)]
        assert traj.min_step == pytest.approx(min(gaps), rel=1e-12)

    def test_tight_tolerance_rejects_and_reprojects(self):
        # from 1e-3 to 0.4 at tol 1e-12 the flow rejects 5 trial steps and
        # re-projects z'' once
        k = OdeKind.pvi_sf(THETA6)
        sd = seed_vi(THETA6, _exp6(), 1e-3)
        traj = integrate(k, sd, [0.4], tol=1e-12)
        assert traj.accepted == len(traj) - 1
        assert traj.rejected > 0
        assert traj.reprojected > 0

    def test_max_step_bounds_min_step(self):
        k = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        traj = integrate(k, sd, [0.05, 0.4], tol=1e-8, max_step=0.01)
        assert traj.accepted == len(traj) - 1 >= 35
        assert 0 < traj.min_step <= 0.01 + 1e-12

    def test_no_step_taken(self):
        k = OdeKind.jmo_pv(V_ZERO)
        traj = integrate(k, (0.1, 0j, 0j), [0.1, 0.1], tol=1e-10)
        assert len(traj) == 1
        assert (traj.accepted, traj.rejected, traj.reprojected) == (0, 0, 0)
        assert traj.min_step == math.inf


class TestTauReconstruct:
    def test_zero_solution_gives_anchor_everywhere(self):
        k = OdeKind.jmo_pv(V_ZERO)
        traj = integrate(k, (0.1, 0j, 0j), [0.1, 1.0], tol=1e-10)
        rec = tau_reconstruct(traj, k, (0.1, 2.0))
        assert rec[0] == (0.1 + 0j, 2.0 + 0j)
        assert all(a == 2.0 for _, a in rec)

    def test_zero_parameter_average_is_unity(self):
        p0 = SSEParams(N=1, mu=0.0, omega1=0.0, omega2=0.0, xi_star=0.0)
        k = OdeKind.jmo_pv(bulk_okamoto_params(p0))
        traj = integrate(k, (0.1, 0j, 0j), [0.1, 1.0], tol=1e-10)
        rec = tau_reconstruct(traj, k, (0.1, 1.0))
        assert all(a == 1.0 for _, a in rec)

    def test_bulk_first_node_anchor(self):
        k = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        bexp = bulk_series(P_STD)
        sd = seed_bulk(P_STD, bexp, 0.02)
        traj = integrate(k, sd, [0.12], tol=1e-10, max_step=0.002)
        anchor = (0.02, bexp.evaluate(0.02))
        rec = tau_reconstruct(traj, k, anchor)
        assert rec[0] == anchor
        assert [t for t, _ in rec] == list(traj.path)
        x, a = min(rec, key=lambda pair: abs(pair[0] - 0.05))
        assert abs(a - bexp.evaluate(x)) < 2e-4

    def test_anchor_off_the_trajectory_rejected(self):
        k6 = OdeKind.pvi_sf(THETA6)
        exp6 = _exp6()
        traj = integrate(k6, seed_vi(THETA6, exp6, 0.01), [0.05], tol=1e-10)
        for point in (0.03, 0.0):
            with pytest.raises(ValueError, match="anchor point"):
                tau_reconstruct(traj, k6, (point, 1.0))
        # the bulk form, too, anchors only at a node, not at the origin
        kb = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        traj = integrate(kb, seed_bulk(P_STD, bulk_series(P_STD), 0.02),
                         [0.05], tol=1e-10)
        with pytest.raises(ValueError, match="anchor point"):
            tau_reconstruct(traj, kb, (0.0, 1.0))

    def test_sixth_reconstruction_consistent_with_series(self):
        k = OdeKind.pvi_sf(THETA6)
        exp6 = _exp6()
        sd = seed_vi(THETA6, exp6, 0.01)
        traj = integrate(k, sd, [0.01, 0.1], tol=1e-10, max_step=5e-4)
        rec = tau_reconstruct(traj, k, (0.01, exp6.evaluate(0.01)))
        t_end, a_end = rec[-1]
        assert t_end == traj.path[-1]
        assert abs(a_end - exp6.evaluate(0.1)) < 1.5e-3

    def test_fifth_reconstruction_consistent_with_series(self):
        k = OdeKind.pv_sf(THETA5)
        exp5 = _exp5()
        sd = seed_v(THETA5, exp5, 0.002)
        traj = integrate(k, sd, [0.002, 0.05], tol=1e-10, max_step=2e-4)
        rec = tau_reconstruct(traj, k, (0.002, exp5.evaluate(0.002)))
        a_end = rec[-1][1]
        ref = exp5.evaluate(0.05)
        assert abs(a_end - ref) / abs(ref) < 3e-3


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
        k = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.01)
        assert relation(k).scaled(0.01, sd.zeta, sd.dzeta, sd.curvature) < 1e-4


class TestTrajectoryCsv:
    def test_header_and_rows_parse(self, capsys):
        # the CLI writes trajectories; its CSV rows read back as the nodes
        k = OdeKind.jmo_pv(bulk_okamoto_params(P_STD))
        sd = seed_bulk(P_STD, bulk_series(P_STD), 0.05)
        traj = integrate(k, sd, [0.05, 0.1], tol=1e-8)
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
