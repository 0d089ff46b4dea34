"""The LM iteration's kernels against their earlier formulas, byte for byte.

Each kernel was rewritten with fewer NumPy calls; ``solver_helpers`` keeps
the formula it had before, and the two must give the same bytes on every
input the solver, the seed grid or the losses can pass, signed zeros and
exact 0/1 weights included. The residual kernel's two corner reads are
pinned to ``_corner_sum`` and ``Stencil.gradients()`` here too.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from featalign.feature_maps import (
    FeatureMap,
    Stencil,
    _cells,
    _corner_sum,
    _corner_weights,
    _stencil,
    gather_stencil,
)
from featalign.geometry import Z_MIN, CameraIntrinsics, _project_planes, pose_twist_jacobian
from featalign.lm_align import (
    _ValidEval,
    _damping_matrix,
    _sample_residuals,
    _stencil_jacobian,
    build_normal_equations,
)
from featalign.losses import TERMS, LossConfig, loss_gradient_fd, sample_batch

from solver_helpers import (
    cells_oracle,
    kernel_inputs,
    loss_gradient_fd_oracle,
    marquardt_matrix_oracle,
    normal_equations_oracle,
    project_planes_oracle,
    stencil_gradients_oracle,
    stencil_values_oracle,
    twist_jacobian_oracle,
)

ORACLE = settings(max_examples=120, deadline=None, derandomize=True, database=None)
ROWS = st.integers(0, 600)
CHANNELS = st.sampled_from([1, 2, 3, 8])
SEEDS = st.integers(0, 2**32 - 1)


def _same(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _signed_zeros(rng, column):
    """Set about a fifth of ``column`` to +0.0 or -0.0, in place."""
    hit = rng.random(column.shape) < 0.2
    column[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))


class TestNormalEquations:
    @ORACLE
    @given(k=ROWS, d=CHANNELS, scale=st.sampled_from([1e-6, 1.0, 1e6]), seed=SEEDS)
    def test_weighted_once_equals_three_operand_einsums(self, k, d, scale, seed):
        rng = np.random.default_rng(seed)
        jac = scale * rng.normal(size=(k, d, 6))
        res = rng.normal(size=(k, d))
        weights = rng.uniform(0.0, 1.0, size=k)
        # Huber weights are exactly 1 inside the quadratic zone; zero rows
        # stand where a padded system had invalid points.
        pick = rng.random(k)
        weights[pick < 0.3] = 1.0
        weights[pick > 0.8] = 0.0
        for got, want in zip(build_normal_equations(jac, res, weights),
                             normal_equations_oracle(jac, res, weights)):
            _same(got, want)

    @ORACLE
    @given(dead=st.integers(0, 6), scale=st.sampled_from([1e-9, 1.0, 1e9]), seed=SEEDS)
    def test_marquardt_matrix_equals_np_diag(self, dead, scale, seed):
        rng = np.random.default_rng(seed)
        a = scale * rng.normal(size=(20, 6))
        a[:, rng.permutation(6)[:dead]] = 0.0  # dead directions hit the 1e-12 floor
        h = a.T @ a
        _same(_damping_matrix(h, "marquardt"), marquardt_matrix_oracle(h))


class TestTwistJacobian:
    @ORACLE
    @given(n=ROWS, scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=SEEDS)
    def test_equals_one_matmul_of_zero_filled_factors(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        pts = scale * rng.normal(size=(n, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 2.0 * Z_MIN
        _signed_zeros(rng, pts[:, 0])
        _signed_zeros(rng, pts[:, 1])
        k = CameraIntrinsics(fx=rng.uniform(1.0, 500.0), fy=rng.uniform(1.0, 500.0),
                             cx=32.0, cy=24.0, width=64, height=48)
        _same(pose_twist_jacobian(pts, k), twist_jacobian_oracle(pts, k))


class TestStencil:
    @staticmethod
    def _stencil(rng, n, d, stacked):
        values = rng.normal(size=(12, 16, d)).astype(np.float32)
        u = rng.uniform(0.0, 15.0, size=n)
        v = rng.uniform(0.0, 11.0, size=n)
        on_node = rng.random(n) < 0.2  # zero fractions, and the last node
        u[on_node] = np.floor(u[on_node])
        v[on_node] = np.floor(v[on_node])
        st_ = _stencil(values, u, v)
        if stacked:
            # The losses' bump stack: (2, 4, d) copies of the corners.
            corners = rng.normal(size=(2, 4, d) + st_.corners.shape)
            st_ = Stencil(corners, st_.fu, st_.fv, st_.iu0, st_.iv0)
        return st_

    @ORACLE
    @given(n=ROWS, d=CHANNELS, stacked=st.booleans(), seed=SEEDS)
    def test_values_equal_column_filled_weights(self, n, d, stacked, seed):
        st_ = self._stencil(np.random.default_rng(seed), n, d, stacked)
        _same(st_.values(), stencil_values_oracle(st_))

    @ORACLE
    @given(n=ROWS, d=CHANNELS, stacked=st.booleans(), seed=SEEDS)
    def test_gradients_equal_np_stack(self, n, d, stacked, seed):
        st_ = self._stencil(np.random.default_rng(seed), n, d, stacked)
        _same(st_.gradients(), stencil_gradients_oracle(st_))

    @ORACLE
    @given(n=ROWS, d=st.sampled_from([2, 3, 8]), stacked=st.booleans(), seed=SEEDS)
    def test_corner_sum_per_channel_equals_values_from_two_channels(self, n, d, stacked, seed):
        st_ = self._stencil(np.random.default_rng(seed), n, d, stacked)
        weights = _corner_weights(st_.fu, st_.fv, np.empty((4, n)))
        planes = []
        for c in range(d):
            corners = np.moveaxis(st_.corners[..., c], -1, 0)
            planes.append(_corner_sum(wt * corner for wt, corner in zip(weights, corners)))
        _same(np.stack(planes, axis=-1), st_.values())

    @ORACLE
    @given(n=ROWS, seed=SEEDS)
    def test_cells_truncate_as_floor(self, n, seed):
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.0, 15.0, size=n)
        v = rng.uniform(0.0, 11.0, size=n)
        pick = rng.random(n)
        u[pick < 0.2] = np.floor(u[pick < 0.2])
        v[pick > 0.8] = 11.0  # the last node is clamped into the last cell
        u[pick > 0.9] = -0.0
        for got, want in zip(_cells(u, v, 16, 12), cells_oracle(u, v, 16, 12)):
            _same(got, want)


K_16x12 = CameraIntrinsics(fx=20.0, fy=22.0, cx=8.0, cy=6.0, width=16, height=12)


class TestResidualKernel:
    """The solver's read of ``_sample_residuals`` (one (4, D, k) take, one
    broadcast product) against the corner sum spelled out and against the
    seed's streamed (D, k) reads."""

    @staticmethod
    def _case(rng, n, d, zero_frac):
        values = rng.normal(size=(12, 16, d)).astype(np.float32)
        zeros = rng.random(values.shape) < zero_frac
        values[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        u = rng.uniform(1.0, 14.0, size=n)
        v = rng.uniform(1.0, 10.0, size=n)
        # Zero cell fractions: zero corner weights.
        pick = rng.random(n)
        u[pick < 0.3] = np.floor(u[pick < 0.3])
        v[pick > 0.6] = np.floor(v[pick > 0.6])
        return values, u, v, rng.random(n) < 0.8

    @ORACLE
    @given(n=st.integers(0, 200), d=st.integers(1, 16),
           zero_frac=st.sampled_from([0.0, 0.2, 0.9]), seed=SEEDS)
    def test_solver_corner_sum_equals_corner_sum(self, n, d, zero_frac, seed):
        values, u, v, valid = self._case(np.random.default_rng(seed), n, d, zero_frac)
        # A +0.0 reference keeps each sum's bytes, signed zeros included.
        level = kernel_inputs(FeatureMap(values), np.zeros((n, d)), K_16x12)
        ids, res, norms, corners, fu, fv = _sample_residuals(level, u, v, valid, True)
        st_ = _stencil(values, u[valid], v[valid])
        _same(corners, np.ascontiguousarray(st_.corners.transpose(1, 2, 0)))
        _same(fu, st_.fu)
        _same(fv, st_.fv)
        # The corner sum spelled out, so that no shared code hides a change.
        w0, w1, w2, w3 = _corner_weights(fu, fv, np.empty((4, ids.size)))
        c0, c1, c2, c3 = corners
        _same(res, ((w0 * c0 + w1 * c1) + w2 * c2) + w3 * c3)
        streamed = _sample_residuals(level, u, v, valid)
        for got, want in zip((ids, res, norms, fu, fv), streamed[:3] + streamed[4:]):
            _same(got, want)

    @ORACLE
    @given(n=st.integers(1, 3), d=st.integers(1, 16), keep=st.booleans(), seed=SEEDS)
    def test_norms_sum_squares_in_channel_order(self, n, d, keep, seed):
        # With one or a few points, np.add.reduce over the channel axis sums
        # 8 or more squares pairwise.
        rng = np.random.default_rng(seed)
        values, u, v, _ = self._case(rng, n, d, 0.2)
        ref = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-5, 5, size=d)
        ids, res, norms, *_ = _sample_residuals(
            kernel_inputs(FeatureMap(values), ref, K_16x12), u, v, np.ones(n, dtype=bool), keep
        )
        squares = np.zeros(n)
        for row in res:
            squares += row * row
        _same(norms, np.sqrt(squares))

    @ORACLE
    @given(n=st.integers(0, 200), d=st.integers(1, 16), seed=SEEDS)
    def test_solver_jacobian_equals_stencil_gradients(self, n, d, seed):
        rng = np.random.default_rng(seed)
        values, u, v, valid = self._case(rng, n, d, 0.2)
        level = kernel_inputs(FeatureMap(values), np.zeros((n, d)), K_16x12)
        ids, res, norms, corners, fu, fv = _sample_residuals(level, u, v, valid, True)
        pts = rng.normal(size=(ids.size, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 2.0 * Z_MIN
        ev = _ValidEval(ids, corners, fu, fv, res.T, norms, pts, 0.0)
        k = K_16x12
        want = _stencil(values, u[valid], v[valid]).gradients() @ pose_twist_jacobian(pts, k)
        _same(_stencil_jacobian(ev, k), want)


class TestProjectPlanes:
    @ORACLE
    @given(rows=st.sampled_from([(), (1,), (5,)]), n=st.integers(0, 200), seed=SEEDS)
    def test_in_place_steps_equal_temporaries(self, rows, n, seed):
        rng = np.random.default_rng(seed)
        x, y = (rng.normal(size=rows + (n,)) for _ in range(2))
        _signed_zeros(rng, x)
        _signed_zeros(rng, y)
        z = rng.uniform(-0.5, 4.0, size=rows + (n,))
        z[rng.random(z.shape) < 0.1] = Z_MIN  # on the front plane: not valid
        usable = rng.random(n) < 0.9
        k = CameraIntrinsics(fx=40.0, fy=44.0, cx=31.5, cy=23.5, width=64, height=48)
        for got, want in zip(_project_planes(usable, x, y, z, k, 2.0),
                             project_planes_oracle(usable, x, y, z, k, 2.0)):
            _same(got, want)


class TestLossGradientFD:
    """One re-interpolated channel per bump against the full bump stack."""

    @ORACLE
    @given(
        d=st.sampled_from([1, 2, 3, 4, 8]),
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True),
        zeroed=st.sampled_from([None, *(weight for weight, _ in TERMS.values())]),
        seed=SEEDS,
    )
    @example(d=1, sizes=[1], zeroed=None, seed=0)
    @example(d=2, sizes=[1, 7, 3], zeroed=None, seed=1)
    def test_equals_full_stack_bumps(self, d, sizes, zeroed, seed):
        rng = np.random.default_rng(seed)
        h = w = 24
        params = rng.normal(size=(h, w, d))
        weights = {"w_gd": 4.0, "w_gn": 0.2, **({zeroed: 0.0} if zeroed else {})}
        cfg = LossConfig(gd_radius=3.0, **weights)
        f_refs, batches = [], []
        for n in sizes:
            corr = np.column_stack([
                rng.uniform(6, w - 7, size=n), rng.uniform(6, h - 7, size=n),
                rng.uniform(7, w - 8, size=n), rng.uniform(7, h - 8, size=n),
            ])
            batch = sample_batch(rng, corr, (h, w), cfg)
            ref = FeatureMap(rng.normal(size=(h, w, d)))
            f_refs.append(gather_stencil(ref, batch.ref_uv).values())
            batches.append(batch)
        assert [len(b) for b in batches] == sizes

        grad, losses = loss_gradient_fd(f_refs, params, batches, cfg)
        want_grad, want_losses = loss_gradient_fd_oracle(f_refs, params, batches, cfg)
        _same(grad, want_grad)
        assert len(losses) == len(want_losses) == len(sizes)
        for (total, breakdown), (want_total, want) in zip(losses, want_losses):
            assert list(breakdown) == list(want)
            _same(np.array([total, *breakdown.values()]), np.array([want_total, *want.values()]))
