"""Space-time solver: fixed points, conservation, the exact affine
equivalence between the two flux forms, CFL enforcement, monotone extrema,
product-form fields, and the lazy rescaling description."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracburgers import frac_ops, pde
from fracburgers import (
    BoundaryRule,
    CflError,
    FractionalOrder,
    MarketParams,
    Nonlinearity,
    SolverConfig,
    SpatialGrid,
    TimeGrid,
    lower_bound_T,
    market_density,
    rescale_field,
    rho_to_u,
    separable_solution,
    solve,
    solve_rho,
    solve_u,
    u_to_rho,
)


def FO(a):
    return FractionalOrder(a)


def _l1_godunov_direct(u0, alpha, h, dx, n_steps, boundary=None):
    """The L1 / Godunov march for u^2/2, its history sum written out term by term.

    Periodic when `boundary` is None, else Dirichlet with boundary(x_index, t).
    """
    b = [(k + 1) ** (1.0 - alpha) - k ** (1.0 - alpha) for k in range(n_steps)]
    dt_eff = math.gamma(2.0 - alpha) * h ** alpha

    def flux(left, right):
        return np.maximum(0.5 * np.maximum(left, 0.0) ** 2, 0.5 * np.minimum(right, 0.0) ** 2)

    u = [np.array(u0, dtype=float)]
    for n in range(1, n_steps + 1):
        prev = u[-1]
        hist = np.zeros_like(prev)
        for k in range(1, n):
            hist += b[k] * (u[n - k] - u[n - k - 1])
        if boundary is None:
            f_right = flux(prev, np.roll(prev, -1))
            new = prev - hist - dt_eff * (f_right - np.roll(f_right, 1)) / dx
        else:
            f_iface = flux(prev[:-1], prev[1:])
            new = prev - hist
            new[1:-1] -= dt_eff * (f_iface[1:] - f_iface[:-1]) / dx
            new[0], new[-1] = boundary(0, n * h), boundary(-1, n * h)
        u.append(new)
    return np.array(u)


class TestTypes:
    def test_spatial_grid_validation(self):
        with pytest.raises(ValueError):
            SpatialGrid(1.0, -1.0, 16)
        with pytest.raises(ValueError):
            SpatialGrid(-1.0, 1.0, 4)

    def test_boundary_rule(self):
        with pytest.raises(ValueError):
            BoundaryRule("dirichlet")
        with pytest.raises(ValueError):
            BoundaryRule("periodic", lambda x, t: 0.0)
        with pytest.raises(ValueError):
            BoundaryRule("robin")

    def test_market_params(self):
        with pytest.raises(ValueError):
            MarketParams(rho_max=0.0)
        with pytest.raises(ValueError):
            MarketParams(c_tilde=-1.0)


class TestFixedPoints:
    def test_zero_is_fixed(self):
        sp = SpatialGrid(-1, 1, 32)
        field = solve_u(
            np.zeros(33), FO(0.5), sp, TimeGrid(1e-4, 50),
            BoundaryRule.dirichlet(lambda x, t: 0.0),
        )
        assert field.status == "completed"
        assert np.max(np.abs(field.slices)) == 0.0
        assert np.array_equal(field.slices[0], np.zeros(33))

    @pytest.mark.parametrize("c0", [0.5, 0.0, 1.0])
    def test_density_stationary_states(self, c0):
        # 1/2 is the critical value of the concave flux; 0 and 1 are its zeros
        sp = SpatialGrid(-1, 1, 32)
        field = solve_rho(
            np.full(32, c0), FO(0.5), sp, TimeGrid(1e-4, 50), BoundaryRule.periodic()
        )
        assert np.max(np.abs(field.slices - c0)) == 0.0


class TestConservationAndTransform:
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    def test_periodic_mass_constant(self, alpha):
        sp = SpatialGrid(-1, 1, 32)
        x = sp.nodes(True)
        u0 = 0.2 + 0.3 * np.sin(np.pi * x) + 0.05 * np.cos(2 * np.pi * x)
        field = solve_u(u0, FO(alpha), sp, TimeGrid(2e-4, 300), BoundaryRule.periodic())
        masses = field.slices.sum(axis=1) * sp.dx
        assert np.max(np.abs(masses - masses[0])) <= 1e-10 * abs(masses[0])

    @settings(max_examples=20)
    @given(
        alpha=st.floats(0.1, 1.0),
        cells=st.integers(8, 48),
        modes=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=4),
        mean=st.floats(-0.5, 0.5),
        density=st.booleans(),
    )
    def test_periodic_mass_conserved_on_random_data(self, alpha, cells, modes, mean, density):
        # smooth data from a few Fourier modes, scaled to max|u| <= 1, with the
        # step at CFL ratio 0.25, half the enforced limit, over 2B + 5 steps
        # (B the base block of the blocked memory sum)
        grid = SpatialGrid(-1.0, 1.0, cells)
        x = grid.nodes(periodic=True)
        u0 = mean + sum(
            a * np.sin((k + 1) * np.pi * x) + b * np.cos((k + 1) * np.pi * x) for k, (a, b) in enumerate(modes)
        )
        u0 = u0 / max(1.0, float(np.max(np.abs(u0))))
        h = (0.25 * math.gamma(2.0 - alpha) * grid.dx) ** (1.0 / alpha)
        time = TimeGrid(h, 2 * frac_ops._BLOCK + 5)
        if density:  # rho = (u + 1)/2 has speed |2 rho - 1| = |u|
            field = solve_rho((u0 + 1.0) / 2.0, FO(alpha), grid, time, BoundaryRule.periodic())
        else:
            field = solve_u(u0, FO(alpha), grid, time, BoundaryRule.periodic())
        assert field.status == "completed"
        masses = field.slices.sum(axis=1) * grid.dx
        scale = max(1.0, float(np.sum(np.abs(field.slices[0])) * grid.dx))
        assert np.max(np.abs(masses - masses[0])) <= 1e-12 * scale

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    def test_flux_forms_are_affine_images(self, alpha):
        sp = SpatialGrid(-1, 1, 64)
        x = sp.nodes(True)
        rho0 = 0.5 + 0.25 * np.sin(np.pi * x)
        tg = TimeGrid(3e-4, 200)
        rho_run = solve_rho(rho0, FO(alpha), sp, tg, BoundaryRule.periodic())
        u_run = solve_u(2 * rho0 - 1, FO(alpha), sp, tg, BoundaryRule.periodic())
        transformed = rho_to_u(rho_run)
        assert np.max(np.abs(transformed.slices - u_run.slices)) <= 1e-9

    @settings(max_examples=30)
    @given(
        alpha=st.floats(0.2, 0.99),
        cells=st.integers(8, 40),
        modes=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=4),
        mean=st.floats(-0.5, 0.5),
        amplitude=st.floats(0.1, 1.0),
        cfl=st.floats(0.05, 0.4),
        n_steps=st.integers(1, 2 * frac_ops._BLOCK + 5),
        periodic=st.booleans(),
    )
    def test_flux_forms_are_affine_images_on_random_data(
        self, alpha, cells, modes, mean, amplitude, cfl, n_steps, periodic
    ):
        # smooth data from a few Fourier modes scaled to max|u0| = amplitude,
        # the step at CFL ratio `cfl`; Dirichlet boundaries hold the end values
        grid = SpatialGrid(-1.0, 1.0, cells)
        x = grid.nodes(periodic)
        u0 = mean + sum(
            a * np.sin((k + 1) * np.pi * x) + b * np.cos((k + 1) * np.pi * x) for k, (a, b) in enumerate(modes)
        )
        peak = float(np.max(np.abs(u0)))
        assume(peak > 0.0)
        u0 = u0 * (amplitude / peak)
        rho0 = (u0 + 1.0) / 2.0
        h = (cfl * math.gamma(2.0 - alpha) * grid.dx / amplitude) ** (1.0 / alpha)
        time = TimeGrid(h, n_steps)

        def ends(v):
            left, right = float(v[0]), float(v[-1])
            return BoundaryRule.dirichlet(lambda xx, tt: left if xx <= grid.x_min else right)

        bc_rho = BoundaryRule.periodic() if periodic else ends(rho0)
        bc_u = BoundaryRule.periodic() if periodic else ends(2.0 * rho0 - 1.0)
        rho_run = solve_rho(rho0, FO(alpha), grid, time, bc_rho)
        u_run = solve_u(2.0 * rho0 - 1.0, FO(alpha), grid, time, bc_u)
        assert rho_run.status == u_run.status == "completed"
        # roundoff only: the marches differ by the rounding of 2 rho - 1 and of
        # the two flux forms; 400 drawn cases of up to 2B + 5 steps gave at most 5.5e-15
        gap = np.max(np.abs(rho_to_u(rho_run).slices - u_run.slices))
        assert gap <= 1e-13

    def test_transform_round_trip(self):
        sp = SpatialGrid(-1, 1, 16)
        x = sp.nodes(True)
        field = solve_rho(
            0.5 + 0.1 * np.sin(np.pi * x), FO(0.5), sp, TimeGrid(1e-4, 20),
            BoundaryRule.periodic(),
        )
        back = u_to_rho(rho_to_u(field))
        np.testing.assert_allclose(back.slices, field.slices, rtol=0, atol=1e-15)

    def test_transform_constants(self):
        sp = SpatialGrid(-1, 1, 16)
        tg = TimeGrid(1e-4, 5)
        half = solve_rho(np.full(16, 0.5), FO(0.5), sp, tg, BoundaryRule.periodic())
        assert np.all(rho_to_u(half).slices == 0.0)
        ones = solve_rho(np.full(16, 1.0), FO(0.5), sp, tg, BoundaryRule.periodic())
        assert np.all(rho_to_u(ones).slices == 1.0)


class TestDirectScheme:
    # the blocked memory sum reproduces the L1 history
    # sum_k b_k (u^(n-k) - u^(n-k-1)) evaluated term by term, over 4B steps
    # (B the base block of the blocked sum: blocks of B and 2B differences
    # reach the later steps through FFTs)
    @pytest.mark.parametrize("alpha", [0.4, 0.8])
    def test_periodic_matches_direct_scheme(self, alpha):
        grid, n_steps = SpatialGrid(-1.0, 1.0, 16), 4 * frac_ops._BLOCK
        h = (0.25 * math.gamma(2.0 - alpha) * grid.dx) ** (1.0 / alpha)  # CFL ratio 0.25 * max|u|
        x = grid.nodes(periodic=True)
        u0 = 0.8 * np.sin(np.pi * x) + 0.3
        fh = solve_u(u0, FO(alpha), grid, TimeGrid(h, n_steps), BoundaryRule.periodic())
        ref = _l1_godunov_direct(u0, alpha, h, grid.dx, n_steps)
        assert np.max(np.abs(fh.slices - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("alpha", [0.4, 0.8])
    def test_dirichlet_matches_direct_scheme(self, alpha):
        grid, n_steps = SpatialGrid(-1.0, 1.0, 16), 4 * frac_ops._BLOCK
        h = (0.25 * math.gamma(2.0 - alpha) * grid.dx) ** (1.0 / alpha)  # CFL ratio 0.25 * max|u|
        x = grid.nodes(periodic=False)
        u0 = -0.8 * x + 0.2 * np.cos(np.pi * x)

        def edge(x_end, t):
            # grows slowly enough that max|u| <= 1.6 keeps the CFL ratio below 0.5 up to t = 6
            return (-0.8 * x_end - 0.2) * (1.0 + 0.1 * t)

        bc = BoundaryRule.dirichlet(edge)
        fh = solve_u(u0, FO(alpha), grid, TimeGrid(h, n_steps), bc)
        ref = _l1_godunov_direct(u0, alpha, h, grid.dx, n_steps, lambda i, t: edge(x[i], t))
        assert np.max(np.abs(fh.slices - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("alpha", [0.4, 0.8])
    def test_periodic_march_solves_batch_l1_equation(self, alpha):
        # over 5B steps the field satisfies D^alpha u_j(t_n) = -(F_{j+1/2} - F_{j-1/2})(u^(n-1)) / dx
        # with the Caputo derivative from caputo_left, whose one batch FFT
        # shares no blocking with the march's memory sum
        grid, n_steps = SpatialGrid(-1.0, 1.0, 16), 5 * frac_ops._BLOCK
        h = (0.25 * math.gamma(2.0 - alpha) * grid.dx) ** (1.0 / alpha)
        x = grid.nodes(periodic=True)
        u0 = 0.8 * np.sin(np.pi * x) + 0.3
        time = TimeGrid(h, n_steps)
        fh = solve_u(u0, FO(alpha), grid, time, BoundaryRule.periodic())
        assert fh.status == "completed"
        lhs = np.stack([frac_ops.caputo_left(frac_ops.SampledFunction(time, fh.slices[:, j]), FO(alpha)).values
                        for j in range(x.size)], axis=1)[1:]
        prev = fh.slices[:-1]
        f_right = np.maximum(0.5 * np.maximum(prev, 0.0) ** 2, 0.5 * np.minimum(np.roll(prev, -1, axis=1), 0.0) ** 2)
        rhs = -(f_right - np.roll(f_right, 1, axis=1)) / grid.dx
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


class TestSchemeGuards:
    def test_cfl_violation_names_node_and_step(self):
        sp = SpatialGrid(-1, 1, 200)
        with pytest.raises(CflError) as err:
            solve_u(
                -sp.nodes(False), FO(0.5), sp, TimeGrid(1e-3, 10),
                BoundaryRule.dirichlet(lambda x, t: -x),
            )
        assert err.value.step == 1
        assert err.value.node == 0  # the first of the two nodes of largest speed, x = -1 and x = 1

    def test_monotone_history_extrema(self):
        # under the CFL condition every explicit update is a monotone map of
        # the history, so no slice escapes the running extrema
        sp = SpatialGrid(-1, 1, 64)
        x = sp.nodes(True)
        rho0 = 0.5 + 0.25 * np.sin(np.pi * x)
        for alpha in (0.5, 0.75):
            field = solve_rho(rho0, FO(alpha), sp, TimeGrid(3e-4, 200), BoundaryRule.periodic())
            run_lo, run_hi = rho0.min(), rho0.max()
            for s in field.slices[1:]:
                assert s.max() <= run_hi + 1e-12
                assert s.min() >= run_lo - 1e-12
                run_lo, run_hi = min(run_lo, s.min()), max(run_hi, s.max())

    def test_escape_truncates_history(self):
        sp = SpatialGrid(-1, 1, 16)
        grown = lambda x, t: 1.0 + 50.0 * t if x <= -1.0 else 0.0
        field = solve_u(
            np.zeros(17), FO(1.0), sp, TimeGrid(1e-2, 100),
            BoundaryRule.dirichlet(grown), escape_threshold=1.4,
        )
        assert field.status == "escaped"
        assert field.escape_index == field.time.count
        assert field.slices.shape[0] == field.time.count + 1
        assert np.max(np.abs(field.slices[-1])) > 1.4
        assert np.max(np.abs(field.slices[:-1])) <= 1.4

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_slice_escapes_before_it(self, bad):
        # the boundary value turns non-finite at step 5: the march keeps the
        # finite slices 0..4 and points one past them
        sp = SpatialGrid(-1, 1, 16)
        field = solve_u(
            np.zeros(17), FO(0.5), sp, TimeGrid(1e-3, 20),
            BoundaryRule.dirichlet(lambda x, t: bad if t > 4.5e-3 else 0.0),
        )
        assert field.status == "escaped"
        assert field.escape_index == field.time.count + 1 == 5
        assert field.slices.shape == (5, 17)
        assert np.all(np.isfinite(field.slices))

    @pytest.mark.parametrize("rows", [1, 3, 40])
    def test_slice_rows_grow_with_the_march(self, monkeypatch, rows):
        # a march that outgrows the rows it reserved doubles them in place and
        # shrinks them to the slices kept, with the same fields as a march that
        # reserved them all, completed or escaped
        sp = SpatialGrid(-1, 1, 16)
        x = sp.nodes(True)
        periodic = (0.5 + 0.4 * np.sin(np.pi * x), FO(0.5), sp, TimeGrid(1e-4, 150), BoundaryRule.periodic())
        grown = lambda xx, t: 1.0 + 50.0 * t if xx <= -1.0 else 0.0
        escaping = (np.zeros(17), FO(0.7), sp, TimeGrid(1e-3, 100), BoundaryRule.dirichlet(grown), 1.4)
        reference = [solve_u(*periodic), solve_u(*escaping)]
        monkeypatch.setattr(pde, "_RESERVED_BYTES", 8 * 17 * rows)
        fields = [solve_u(*periodic), solve_u(*escaping)]
        assert [f.status for f in fields] == ["completed", "escaped"]
        assert fields[1].escape_index < 100
        for field, ref in zip(fields, reference):
            assert field.escape_index == ref.escape_index
            assert np.array_equal(field.slices, ref.slices)


class TestSeparableReproduction:
    def test_alpha_half_matches_product_form(self):
        # CFL-compliant resolution; the wider sweep lives in the acceptance suite
        alpha = 0.5
        order = FO(alpha)
        t_end = lower_bound_T(order, 0.5) / 2
        h, cells = 1e-5, 100
        sp = SpatialGrid(-1.0, 1.0, cells)
        tg = TimeGrid(h, int(round(t_end / h)))
        fine = solve(
            Nonlinearity.square(), 1.0, order, SolverConfig(t_end / 4096, t_end * 1.0000001)
        )
        bc = BoundaryRule.dirichlet(lambda x, t: -x * fine.value_at(t))
        field = solve_u(-sp.nodes(False), order, sp, tg, bc)
        assert field.status == "completed"
        exact = -field.x * fine.value_at(field.time.horizon)
        assert np.max(np.abs(field.slices[-1] - exact)) <= 5e-2

    def test_density_form_matches_product_form(self):
        # same construction through the density solver: rho = (1 - x v(t))/2
        alpha = 0.5
        order = FO(alpha)
        t_end = lower_bound_T(order, 0.5) / 2
        h, cells = 1e-5, 100
        sp = SpatialGrid(-1.0, 1.0, cells)
        tg = TimeGrid(h, int(round(t_end / h)))
        fine = solve(
            Nonlinearity.square(), 1.0, order, SolverConfig(t_end / 4096, t_end * 1.0000001)
        )
        bc = BoundaryRule.dirichlet(lambda x, t: (1.0 - x * fine.value_at(t)) / 2.0)
        x0 = sp.nodes(False)
        field = solve_rho((1.0 - x0) / 2.0, order, sp, tg, bc)
        assert field.status == "completed"
        exact = (1.0 - field.x * fine.value_at(field.time.horizon)) / 2.0
        assert np.max(np.abs(field.slices[-1] - exact)) <= 5e-2

    def test_classical_convergence_order(self):
        # max error against the explicit singular solution under simultaneous
        # halving, observed order >= 0.8
        errs = []
        for h, cells in ((1e-3, 200), (5e-4, 400)):
            order = FO(1.0)
            t_end = 1.0 / 3.0
            sp = SpatialGrid(-1.0, 1.0, cells)
            tg = TimeGrid(h, int(round(t_end / h)))
            bc = BoundaryRule.dirichlet(lambda x, t: -x / (1.0 - t))
            field = solve_u(-sp.nodes(False), order, sp, tg, bc)
            exact = -field.x / (1.0 - field.time.horizon)
            errs.append(np.max(np.abs(field.slices[-1] - exact)))
        assert np.log2(errs[0] / errs[1]) >= 0.8


class TestProductFormFields:
    def test_separable_solution_signs_and_zero_line(self):
        traj = solve(Nonlinearity.square(), 1.0, FO(1.0), SolverConfig(1e-3, 0.6))
        assert separable_solution(traj, 0.0, 0.3) == 0.0
        assert separable_solution(traj, -0.5, 0.3) > 0.0
        assert separable_solution(traj, 0.5, 0.3) < 0.0
        assert separable_solution(traj, 1.0, 0.5) == pytest.approx(-2.0, rel=1e-2)

    def test_market_density_values(self):
        traj = solve(Nonlinearity.square(), 1.0, FO(1.0), SolverConfig(1e-3, 0.6))
        # the critical occupancy 1/2 is pinned at x = 0 for all times
        assert market_density(traj, 0.0, 0.45) == 0.5
        assert market_density(traj, 0.3, 0.0) == pytest.approx((1 - 0.3) / 2, rel=1e-12)
        assert market_density(traj, 0.5, 0.5) == pytest.approx(0.0, abs=1e-5)


class TestRescaledField:
    @pytest.fixture()
    def base(self):
        sp = SpatialGrid(-1, 1, 16)
        tg = TimeGrid(0.005, 20)
        return solve_u(
            -sp.nodes(False), FO(1.0), sp, tg,
            BoundaryRule.dirichlet(lambda x, t: -x / (1.0 - t)),
        )

    def test_identity(self, base):
        r = rescale_field(base, 1.0)
        x = base.x[12]
        assert r.evaluate(x, 0.05) == pytest.approx(base.slices[10][12], rel=1e-12)
        assert r.x_min == base.x[0] and r.x_max == base.x[-1]

    def test_domain_maps_and_initial_datum(self, base):
        r = rescale_field(base, 2.0)
        assert r.x_min == pytest.approx(-0.5)
        assert r.x_max == pytest.approx(0.5)
        assert r.t_max == pytest.approx(base.time.horizon / 2.0)
        # u0^(lam)(x) = u0(lam^alpha x) = -2x for the unit-slope datum
        assert r.initial_datum(0.25) == pytest.approx(-0.5, rel=1e-12)

    def test_domain_errors(self, base):
        r = rescale_field(base, 2.0)
        with pytest.raises(ValueError):
            r.evaluate(0.75, 0.0)
        with pytest.raises(ValueError):
            r.evaluate(0.0, base.time.horizon)
        with pytest.raises(ValueError):
            rescale_field(base, 0.0)

    def test_escape_time_scaling_via_product_form(self, base):
        # doubling lam doubles the initial slope, halving the blow-up time
        e1 = solve(Nonlinearity.square(), 1.0, FO(1.0), SolverConfig(2e-4, 1.7)).escape_time
        e2 = solve(Nonlinearity.square(), 2.0, FO(1.0), SolverConfig(2e-4, 1.7)).escape_time
        assert e2 / e1 == pytest.approx(0.5, abs=0.02)
