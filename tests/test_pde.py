"""Space-time solver: fixed points, conservation, the exact affine
equivalence between the two flux forms (the density form checked against
its own direct scheme), CFL enforcement, monotone extrema, product-form
fields."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracburgers import fode, frac_ops, pde
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
    separable_solution,
    solve,
    solve_rho,
    solve_u,
)


def FO(a):
    return FractionalOrder(a)


B = frac_ops._BLOCK  # the base block of the memory sum's block walk
MARKETS = [MarketParams(rho_max=3.0, c_tilde=2.5), MarketParams(rho_max=0.7, c_tilde=0.3)]
MARKET_IDS = ["c2.5-rmax3", "c0.3-rmax0.7"]


def _l1_godunov_direct(u0, alpha, h, dx, n_steps, boundary=None, flux=lambda v: 0.5 * v * v, s_min=0.0):
    """The L1 / Godunov march for a convex flux with its minimum at s_min, its
    history sum written out term by term: u^2/2 at 0 (the transport form) by
    default, c (rho^2 - rho_max rho) at rho_max/2 for the density form.

    Periodic when `boundary` is None, else Dirichlet with boundary(x_index, t).
    """
    b = [(k + 1) ** (1.0 - alpha) - k ** (1.0 - alpha) for k in range(n_steps)]
    dt_eff = math.gamma(2.0 - alpha) * h ** alpha

    def godunov(left, right):
        return np.maximum(flux(np.maximum(left, s_min)), flux(np.minimum(right, s_min)))

    u = [np.array(u0, dtype=float)]
    for n in range(1, n_steps + 1):
        prev = u[-1]
        hist = np.zeros_like(prev)
        for k in range(1, n):
            hist += b[k] * (u[n - k] - u[n - k - 1])
        if boundary is None:
            f_right = godunov(prev, np.roll(prev, -1))
            new = prev - hist - dt_eff * (f_right - np.roll(f_right, 1)) / dx
        else:
            f_iface = godunov(prev[:-1], prev[1:])
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
        # zero, negative and non-finite values, and subnormal ones, whose map
        # back from the transport form, 0.5 / c_tilde, would overflow
        for name in ("rho_max", "c_tilde"):
            for bad in (0.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, sys.float_info.min / 2):
                with pytest.raises(ValueError, match=name):
                    MarketParams(**{name: bad})
            assert getattr(MarketParams(**{name: sys.float_info.min}), name) == sys.float_info.min

    @staticmethod
    def _result(kind, escape_index):
        """A march result of two steps: a scalar trajectory or an 8-cell field."""
        grid = TimeGrid(0.1, 2)
        if kind == "trajectory":
            return fode.Trajectory(frac_ops.SampledFunction(grid, np.zeros(3)), escape_index)
        space = SpatialGrid(0.0, 1.0, 8)
        x = space.nodes(periodic=True)
        return pde.FieldHistory(space, grid, x, np.zeros((3, x.size)), FO(0.5), escape_index)

    @pytest.mark.parametrize("kind", ["trajectory", "field"])
    @pytest.mark.parametrize("status, escape_index", [("completed", None), ("escaped", 2), ("escaped", 3)])
    def test_escape_rule_accepts(self, kind, status, escape_index):
        # the offending value kept (index = count) or overflowed and dropped (count + 1);
        # the status is read from the index
        result = self._result(kind, escape_index)
        assert (result.escape_index, result.status) == (escape_index, status)

    @pytest.mark.parametrize("kind", ["trajectory", "field"])
    # every refused index claims an escape the march of two steps cannot have had
    @pytest.mark.parametrize("escape_index", [1, 4, 99], ids=lambda i: f"escaped-{i}")
    def test_escape_rule_refuses(self, kind, escape_index):
        with pytest.raises(ValueError, match="does not fit"):
            self._result(kind, escape_index)

    @pytest.mark.parametrize("kind", ["trajectory", "field"])
    def test_status_is_read_not_stored(self, kind):
        # one stored end, the escape index: a status passed where it stood is refused
        result = self._result(kind, None)
        assert "status" not in {f.name for f in dataclasses.fields(result)}
        with pytest.raises(ValueError, match="does not fit"):
            self._result(kind, "completed")


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
        assert np.max(np.abs((2 * rho_run.slices - 1) - u_run.slices)) <= 1e-9

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
        # roundoff only: the density march is the transport march of the same
        # u0 = 2 rho0 - 1, so the gap is the rounding of the map back to rho
        # and of 2 rho - 1
        gap = np.max(np.abs((2 * rho_run.slices - 1) - u_run.slices))
        assert gap <= 1e-13

    def test_transform_round_trip(self):
        # the maps solve_rho marches through, u = c (2 rho - rho_max) and back
        sp = SpatialGrid(-1, 1, 16)
        x = sp.nodes(True)
        field = solve_rho(
            0.5 + 0.1 * np.sin(np.pi * x), FO(0.5), sp, TimeGrid(1e-4, 20),
            BoundaryRule.periodic(),
        )
        for params in (MarketParams(), *MARKETS):
            back = pde._to_rho(pde._to_u(field.slices, params), params)
            np.testing.assert_allclose(back, field.slices, rtol=0, atol=1e-15)

    def test_transform_constants(self):
        # the critical density rho_max / 2 maps to u = 0, and rho_max to c rho_max
        sp = SpatialGrid(-1, 1, 16)
        tg = TimeGrid(1e-5, 5)
        for params in (MarketParams(), *MARKETS):
            for rho, u in ((0.5 * params.rho_max, 0.0), (params.rho_max, params.c_tilde * params.rho_max)):
                run = solve_rho(np.full(16, rho), FO(0.5), sp, tg, BoundaryRule.periodic(), params)
                assert np.all(pde._to_u(run.slices, params) == u), (params, rho)


class TestDirectScheme:
    @staticmethod
    def _periodic(alpha, n_steps):
        """A periodic march of u^2/2 at CFL ratio 0.25 * max|u|, and its direct reference."""
        grid = SpatialGrid(-1.0, 1.0, 16)
        h = (0.25 * math.gamma(2.0 - alpha) * grid.dx) ** (1.0 / alpha)
        x = grid.nodes(periodic=True)
        u0 = 0.8 * np.sin(np.pi * x) + 0.3
        fh = solve_u(u0, FO(alpha), grid, TimeGrid(h, n_steps), BoundaryRule.periodic())
        return fh, _l1_godunov_direct(u0, alpha, h, grid.dx, n_steps)

    @staticmethod
    def _dirichlet(alpha, n_steps, threshold=1e6):
        """A Dirichlet march of u^2/2 at CFL ratio 0.25 * max|u|, and its direct reference."""
        grid = SpatialGrid(-1.0, 1.0, 16)
        h = (0.25 * math.gamma(2.0 - alpha) * grid.dx) ** (1.0 / alpha)
        x = grid.nodes(periodic=False)
        u0 = -0.8 * x + 0.2 * np.cos(np.pi * x)

        def edge(x_end, t):
            # grows slowly enough that max|u| <= 1.6 keeps the CFL ratio below 0.5 up to t = 6
            return (-0.8 * x_end - 0.2) * (1.0 + 0.1 * t)

        fh = solve_u(u0, FO(alpha), grid, TimeGrid(h, n_steps), BoundaryRule.dirichlet(edge), threshold)
        return fh, _l1_godunov_direct(u0, alpha, h, grid.dx, n_steps, lambda i, t: edge(x[i], t))

    # the blocked memory sum reproduces the L1 history
    # sum_k b_k (u^(n-k) - u^(n-k-1)) evaluated term by term, over 4B steps
    # (B the base block of the blocked sum: blocks of B and 2B differences
    # reach the later steps through FFTs)
    @pytest.mark.parametrize("alpha", [0.4, 0.8])
    def test_periodic_matches_direct_scheme(self, alpha):
        fh, ref = self._periodic(alpha, 4 * B)
        assert np.max(np.abs(fh.slices - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("alpha", [0.4, 0.8])
    def test_dirichlet_matches_direct_scheme(self, alpha):
        fh, ref = self._dirichlet(alpha, 4 * B)
        assert np.max(np.abs(fh.slices - ref)) <= 1e-13 * np.max(np.abs(ref))

    # marches that end just before, on and just past the first two base
    # blocks of the memory sum's block walk
    @pytest.mark.parametrize("n_steps", [B - 2, B - 1, B, B + 1, 2 * B, 2 * B + 1])
    @pytest.mark.parametrize("march", ["_periodic", "_dirichlet"])
    def test_matches_direct_scheme_at_block_edges(self, n_steps, march):
        fh, ref = getattr(self, march)(0.6, n_steps)
        assert fh.status == "completed" and fh.slices.shape == ref.shape
        assert np.max(np.abs(fh.slices - ref)) <= 1e-13 * np.max(np.abs(ref))

    def _escape_is_a_prefix_of_the_direct_scheme(self, escape, n_steps):
        """A Dirichlet march at alpha 0.6 with its threshold set to escape at slice `escape`."""
        full, ref = self._dirichlet(0.6, n_steps)
        peaks = np.max(np.abs(ref), axis=1)
        x = 0.5 * (peaks[escape - 1] + peaks[escape])  # the peak rises with the boundary value
        assert int(np.flatnonzero(peaks > x)[0]) == escape
        fh, _ = self._dirichlet(0.6, n_steps, x)
        assert fh.status == "escaped" and fh.escape_index == escape
        assert np.max(np.abs(fh.slices - ref[: escape + 1])) <= 1e-13 * np.max(np.abs(ref))
        assert fh.slices.tobytes() == full.slices[: escape + 1].tobytes()

    # slice n writes the history entry of target n - 1: an escape at slice B
    # writes a block's last target, whose entry sets off the flush of the
    # block, and one at slice B + 1 the next block's first
    @pytest.mark.parametrize("escape", [B, B + 1, 2 * B, 2 * B + 1])
    def test_escape_at_block_edges(self, escape):
        self._escape_is_a_prefix_of_the_direct_scheme(escape, 2 * B + 2)

    # one product serves the targets 4q..4q + 3 of a base block, and target
    # 4q + i adds b_i..b_1 times the differences of its group written before
    # it: escapes on each target of a group (slice n reads target n - 1), in
    # the b0 = 0 block and in later ones
    @pytest.mark.parametrize(
        "escape", [1, 2, 3, 4, B + 37, B + 38, B + 39, B + 40, 2 * B + 5, 2 * B + 6, 2 * B + 7, 2 * B + 8]
    )
    def test_escape_on_either_target_of_a_pair(self, escape):
        self._escape_is_a_prefix_of_the_direct_scheme(escape, 2 * B + 8)

    # completed marches whose last base block ends inside a group of four,
    # its length 1, 2 or 3 (mod 4), down to the b0 = 0 block of 2 targets
    @pytest.mark.parametrize("n_steps", [2, 3, 5, 6, B + 2, B + 3, 2 * B + 5])
    @pytest.mark.parametrize("march", ["_periodic", "_dirichlet"])
    def test_last_block_of_odd_length(self, n_steps, march):
        fh, ref = getattr(self, march)(0.6, n_steps)
        assert n_steps % B % 4 != 0  # slice n reads target n - 1 of 0..n_steps - 1
        assert fh.status == "completed" and fh.slices.shape == ref.shape
        assert np.max(np.abs(fh.slices - ref)) <= 1e-13 * np.max(np.abs(ref))
        full, _ = getattr(self, march)(0.6, 2 * B + 8)
        assert fh.slices.tobytes() == full.slices[: n_steps + 1].tobytes()

    @staticmethod
    def _density(params, n_steps, periodic, ramp=0.0, speed=0.8, threshold=1e6):
        """A density march at alpha 0.6 and its direct reference, the flux
        c (rho^2 - rho_max rho) with its minimum at rho_max / 2.

        The step puts the CFL ratio at 0.25 for max|c (2 rho - rho_max)| =
        speed * c * rho_max; the data start at 0.8 c rho_max. The Dirichlet
        inflows grow by a tenth every 2B steps; with ramp > 0 the left one
        also rises by ramp * rho_max every 2B steps, and with ramp < 0 the
        right one falls.
        """
        c, rm = params.c_tilde, params.rho_max
        alpha, grid = 0.6, SpatialGrid(-1.0, 1.0, 16)
        h = (0.25 * math.gamma(2.0 - alpha) * grid.dx / (speed * c * rm)) ** (1.0 / alpha)
        x = grid.nodes(periodic)
        rho0 = rm * (0.5 + 0.3 * (np.sin(np.pi * x) if periodic else -x) + 0.1 * np.cos(np.pi * x))

        def edge(x_end, t):
            blocks = t / (2 * B * h)
            rho = rm * (0.4 - 0.3 * x_end) * (1.0 + 0.1 * blocks)
            if ramp > 0.0 and x_end <= grid.x_min or ramp < 0.0 and x_end >= grid.x_max:
                rho += ramp * rm * blocks
            return rho

        bc = BoundaryRule.periodic() if periodic else BoundaryRule.dirichlet(edge)
        fh = solve_rho(rho0, FO(alpha), grid, TimeGrid(h, n_steps), bc, params, threshold)
        boundary = None if periodic else lambda i, t: edge(x[i], t)
        density_flux = lambda r: c * (r * r - rm * r)
        return fh, _l1_godunov_direct(rho0, alpha, h, grid.dx, n_steps, boundary, density_flux, rm / 2.0)

    # the density form marches the transport form's affine image
    # u = c (2 rho - rho_max); at parameters other than the default it
    # reproduces the direct density scheme within and across base blocks
    @pytest.mark.parametrize("n_steps", [B - 1, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "dirichlet"])
    @pytest.mark.parametrize("params", MARKETS, ids=MARKET_IDS)
    def test_density_matches_direct_density_scheme(self, params, periodic, n_steps):
        fh, ref = self._density(params, n_steps, periodic)
        assert fh.status == "completed" and fh.slices.shape == ref.shape
        assert np.max(np.abs(fh.slices - ref)) <= 1e-13 * np.max(np.abs(ref))

    # a left inflow that rises past +X or a right one that falls below -X:
    # the march escapes at the first slice where the direct density scheme
    # has |rho| > X, and keeps that scheme's prefix
    @pytest.mark.parametrize("escape", [B + 64, 2 * B + 1])
    @pytest.mark.parametrize("ramp", [1.6, -1.6], ids=["rises", "falls"])
    @pytest.mark.parametrize("params", MARKETS, ids=MARKET_IDS)
    def test_density_escape_is_a_prefix_of_the_direct_scheme(self, params, ramp, escape):
        n_steps = 2 * B + 8
        full, ref = self._density(params, n_steps, False, ramp, speed=4.0)
        assert full.status == "completed"
        peaks = np.max(np.abs(ref), axis=1)
        x = 0.5 * (peaks[escape - 1] + peaks[escape])
        assert int(np.flatnonzero(peaks > x)[0]) == escape
        assert (ref[escape].max() > x, ref[escape].min() < -x) == (ramp > 0.0, ramp < 0.0)
        fh, _ = self._density(params, n_steps, False, ramp, speed=4.0, threshold=x)
        assert fh.status == "escaped" and fh.escape_index == escape
        assert np.max(np.abs(fh.slices - ref[: escape + 1])) <= 1e-13 * np.max(np.abs(ref))

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
        # u = -x, and its density (1 - x)/2 under u = 2 rho - 1
        sp = SpatialGrid(-1, 1, 200)
        x = sp.nodes(False)
        args = (FO(0.5), sp, TimeGrid(1e-3, 10))
        marches = [
            lambda: solve_u(-x, *args, BoundaryRule.dirichlet(lambda xx, t: -xx)),
            lambda: solve_rho((1.0 - x) / 2.0, *args, BoundaryRule.dirichlet(lambda xx, t: (1.0 - xx) / 2.0)),
        ]
        for march in marches:
            with pytest.raises(CflError) as err:
                march()
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
