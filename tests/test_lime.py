import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import zestkit as zk
from zestkit.errors import (ComparabilityError, ConfigError, NumericalError, ShapeError,
                            TransportError)
from zestkit.lime import BLOCK_ROWS, PointModel, masked_batch, _replacement_values
from zestkit.oracle import QueryLedger, QueryOracle

from conftest import assert_no_children, count_forks, fork_pids, tiny_net, use_cpus


class ArrayOracle(QueryOracle):
    """Test oracle computing rows from an arbitrary function of the input."""

    def __init__(self, fn, input_dim, class_count, oracle_id="fn"):
        self._fn = fn
        self._dim = input_dim
        self._k = class_count
        self._id = oracle_id
        self.ledger = QueryLedger()

    @property
    def class_count(self):
        return self._k

    @property
    def input_dim(self):
        return self._dim

    @property
    def oracle_id(self):
        return self._id

    def predict_proba(self, batch, purpose="other"):
        x = np.asarray(batch, dtype=np.float64)
        self.ledger.add(purpose, x.shape[0])
        return self._fn(x)


# --- segment grid ----------------------------------------------------------

def test_uniform_grid_contiguous():
    grid = zk.SegmentGrid.uniform(10, 4)
    assert grid.segment_count == 4
    a = grid.assignment
    assert a.shape == (10,)
    assert a.min() == 0 and a.max() == 3
    assert (np.diff(a) >= 0).all()  # contiguous ranges
    sizes = np.bincount(a)
    assert sizes.max() - sizes.min() <= 1


def test_uniform_grid_rejects_too_many_segments():
    with pytest.raises(ConfigError):
        zk.SegmentGrid.uniform(4, 5)


@pytest.mark.parametrize("assignment, count", [
    ([0, 0, 2, 2], 3),     # segment 1 missing
    ([1, 1, 2, 2], 2),     # does not start at 0
    ([0, 1, 2, 3], 3),     # a segment beyond the count
    ([0, -1, 1, 1], 2),    # a negative segment
    ([0, 1], 3),           # fewer features than segments
    ([], 1),
    ([0, 0], 0),
])
def test_segment_grid_rejects_an_assignment_that_misses_a_segment(assignment, count):
    with pytest.raises(ConfigError, match=rf"^segments must cover 0\.\.{count - 1}$"):
        zk.SegmentGrid(np.array(assignment, dtype=np.int64), count)


def test_segment_grid_takes_segments_of_features_that_are_not_adjacent():
    grid = zk.SegmentGrid(np.array([0, 1, 0, 1]), 2)
    assert (grid.n_features, grid.segment_count) == (4, 2)


@pytest.mark.parametrize("field, value", [
    ("perturbations", 0), ("kernel_width", 0.0), ("kernel_width", float("nan")),
    ("ridge", -1.0), ("ridge", float("nan")), ("replacement", "ones"),
])
def test_lime_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ConfigError):
        zk.LimeConfig(**{field: value})


# --- plan ------------------------------------------------------------------

def test_plan_requires_p_at_least_s(blob_world):
    grid = zk.SegmentGrid.uniform(16, 8)
    with pytest.raises(ConfigError):
        zk.make_plan(blob_world["train"], 4, grid, zk.LimeConfig(perturbations=7),
                     seed=0)


def test_plan_needs_a_matrix_of_at_least_one_point():
    grid = zk.SegmentGrid.uniform(16, 8)
    for points in (np.zeros((0, 16)), np.zeros(16)):
        with pytest.raises(ShapeError, match="at least one row"):
            zk.PerturbationPlan(points, grid, zk.LimeConfig(perturbations=100), seed=1)


def test_plan_n_larger_than_dataset(blob_world):
    grid = zk.SegmentGrid.uniform(16, 8)
    with pytest.raises(ConfigError):
        zk.make_plan(blob_world["train"], 10_000, grid, zk.LimeConfig(), seed=0)


@pytest.mark.parametrize("screen", [
    lambda models, data, need: zk.make_plan(data, need, zk.SegmentGrid.uniform(16, 8),
                                            zk.LimeConfig(perturbations=64), seed=0,
                                            models=models).points,
    lambda models, data, need: zk.select_attack_points(models, data, need).points,
], ids=["make_plan", "select_attack_points"])
def test_correct_by_all_shortfall(blob_world, screen):
    models = [blob_world["victim"], blob_world["proxy"]]
    data = blob_world["train"]
    labels = data.labels.copy()
    labels[:5] = (labels[:5] + 1) % data.class_count
    data = zk.Dataset(data.points, labels, data.class_count)
    ok = np.ones(len(data), dtype=bool)
    for model in models:
        ok &= zk.forward(model, data.points).argmax(axis=1) == data.labels
    k = int(ok.sum())
    assert k < len(data)
    with pytest.raises(ConfigError) as err:
        screen(models, data, k + 1)
    assert str(err.value) == (
        f"only {k} points are classified correctly by all 2 models; need {k + 1}")
    assert len(screen(models, data, k)) == k


def test_mask_tensor_shape_and_density(small_plan):
    masks = small_plan.mask_tensor()
    assert masks.shape == (6, 120, 8)
    assert masks.dtype == bool
    density = masks.mean()
    assert 0.45 < density < 0.55  # i.i.d. Bernoulli(1/2)
    redrawn = zk.PerturbationPlan(small_plan.points, small_plan.grid, small_plan.config,
                                  small_plan.seed).mask_tensor()
    assert redrawn is not masks and np.array_equal(masks, redrawn)  # reproducible


def test_fingerprint_sensitivity(blob_world):
    grid = zk.SegmentGrid.uniform(16, 8)
    cfg = zk.LimeConfig(perturbations=64)
    base = zk.make_plan(blob_world["train"], 4, grid, cfg, seed=5)
    same = zk.make_plan(blob_world["train"], 4, grid, cfg, seed=5)
    assert base.fingerprint() == same.fingerprint()
    other_seed = zk.make_plan(blob_world["train"], 4, grid, cfg, seed=6)
    assert base.fingerprint() != other_seed.fingerprint()
    other_p = zk.make_plan(blob_world["train"], 4, grid,
                           zk.LimeConfig(perturbations=65), seed=5)
    assert base.fingerprint() != other_p.fingerprint()
    other_width = zk.make_plan(blob_world["train"], 4, grid,
                               zk.LimeConfig(perturbations=64, kernel_width=0.9),
                               seed=5)
    assert base.fingerprint() != other_width.fingerprint()


def test_plan_screens_points_on_models(blob_world, small_plan):
    victim, proxy = blob_world["victim"], blob_world["proxy"]
    assert set(small_plan.verified_model_ids) == {victim.model_id, proxy.model_id}
    # both correct on the training labels implies they agree with each other
    pv = zk.forward(victim, small_plan.points).argmax(axis=1)
    pp = zk.forward(proxy, small_plan.points).argmax(axis=1)
    assert np.array_equal(pv, pp)


def test_plan_round_trip(tmp_path, small_plan):
    path = tmp_path / "p.plan"
    zk.save_plan(small_plan, path)
    loaded = zk.load_plan(path)
    assert loaded.fingerprint() == small_plan.fingerprint()
    assert np.array_equal(loaded.points, small_plan.points)
    path2 = tmp_path / "p2.plan"
    zk.save_plan(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


# --- masking ---------------------------------------------------------------

def test_apply_mask_identity():
    grid = zk.SegmentGrid.uniform(4, 2)
    x = np.array([0.2, 0.4, 0.9, 0.1])
    assert np.array_equal(zk.apply_mask(x, np.array([1, 1], bool), grid), x)


def test_apply_mask_zeros_policy():
    grid = zk.SegmentGrid.uniform(4, 2)
    x = np.array([0.2, 0.4, 0.9, 0.1])
    out = zk.apply_mask(x, np.array([0, 0], bool), grid, policy="zeros")
    assert np.array_equal(out, np.zeros(4))


def test_apply_mask_segment_mean_hand_example():
    grid = zk.SegmentGrid.uniform(4, 2)
    x = np.array([0.2, 0.4, 0.9, 0.1])
    out = zk.apply_mask(x, np.array([1, 0], bool), grid, policy="segment_mean")
    assert np.allclose(out, [0.2, 0.4, 0.5, 0.5])


def test_masked_batch_matches_apply_mask():
    grid = zk.SegmentGrid.uniform(6, 3)
    rng = np.random.default_rng(0)
    x = rng.random(6)
    masks = rng.random((10, 3)) < 0.5
    batch = masked_batch(x, masks, grid, "segment_mean")
    for i in range(10):
        assert np.array_equal(batch[i], zk.apply_mask(x, masks[i], grid,
                                                      "segment_mean"))


def _masked_batch_where(x, masks, grid, policy):
    """masked_batch as a broadcast np.where: the reference for the bit select."""
    repl = np.stack([_replacement_values(r, grid, policy)
                     for r in x.reshape(-1, grid.n_features)])
    fill = repl[:, grid.assignment].reshape(x.shape)
    return np.where(masks[..., grid.assignment], x[..., None, :], fill[..., None, :])


@pytest.mark.parametrize("policy", ["segment_mean", "zeros"])
@pytest.mark.parametrize("segments", [4, 8], ids=["S<d", "S=d"])
@pytest.mark.parametrize("stacked", [False, True], ids=["point", "stack"])
@pytest.mark.parametrize("contiguous", [True, False], ids=["contig", "strided"])
def test_masked_batch_bitwise_matches_where(policy, segments, stacked, contiguous):
    grid = zk.SegmentGrid.uniform(8, segments)
    rng = np.random.default_rng(segments)
    xs = rng.random((3, 16))
    xs[:, :6] = [-0.0, -0.0, 0.0, -0.0, 1.0, 0.0]  # signed zeros differ from a 0.0 fill
    bits = rng.random((3, 40, 2 * segments)) < 0.5
    if contiguous:
        xs, bits = xs[:, :8].copy(), bits[..., :segments].copy()
    else:
        xs, bits = xs[:, ::2], bits[..., ::2]
    if not stacked:
        xs, bits = xs[1], bits[1]
    assert xs.flags.c_contiguous == bits.flags.c_contiguous == contiguous
    got = masked_batch(xs, bits, grid, policy)
    want = _masked_batch_where(xs, bits, grid, policy)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got).any()  # some -0.0 was kept, bit for bit
    buf = np.full(want.shape, np.nan)
    into = masked_batch(xs, bits, grid, policy, out=buf)
    assert np.shares_memory(into, buf) and buf.tobytes() == got.tobytes()


# --- kernel weights --------------------------------------------------------

def test_kernel_weight_all_ones_is_unit():
    masks = np.ones((1, 8), dtype=bool)
    w = zk.mask_kernel_weights(masks, kernel_width=0.7)
    assert abs(w[0] - 1.0) < 1e-12


def test_kernel_weights_monotone_in_density():
    s = 16
    masks = np.zeros((s + 1, s), dtype=bool)
    for k in range(s + 1):
        masks[k, :k] = True
    w = zk.mask_kernel_weights(masks, kernel_width=0.25 * np.sqrt(s))
    assert (np.diff(w) > 0).all()  # more kept segments -> closer -> heavier
    assert w[0] == pytest.approx(np.exp(-1.0 / (0.25 ** 2 * s)))


def _reference_kernel_weights(masks, kernel_width):
    """The (P, S) formula mask_kernel_weights used before it took any leading shape."""
    m = masks.astype(np.float64)
    s = m.shape[1]
    norms = np.sqrt((m * m).sum(axis=1)) * np.sqrt(s)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(norms > 0, m.sum(axis=1) / norms, 0.0)
    d = 1.0 - cos
    return np.exp(-(d * d) / (kernel_width * kernel_width))


def test_kernel_weights_any_leading_shape_bitwise():
    masks = np.random.default_rng(3).random((3, 4, 50, 7)) < 0.5
    masks[0, 0, 0] = False  # all-zero row: zero norm, cosine taken as 0
    masks[2, 3, 9] = True
    w = zk.mask_kernel_weights(masks, 0.6)
    ref = _reference_kernel_weights(masks.reshape(-1, 7), 0.6).reshape(3, 4, 50)
    assert w.shape == (3, 4, 50)
    assert w.tobytes() == ref.tobytes()
    assert zk.mask_kernel_weights(masks[1, 2, 5], 0.6) == ref[1, 2, 5]
    soft = np.random.default_rng(4).random((2, 30, 7))  # non-binary masks keep their meaning
    assert (zk.mask_kernel_weights(soft, 0.6).tobytes()
            == _reference_kernel_weights(soft.reshape(-1, 7), 0.6).tobytes())


# --- fitting ---------------------------------------------------------------

def _affine_mask_oracle(grid, slopes, intercepts, policy="zeros"):
    """Oracle affine in the mask bits when inputs are masked variants of x=1.

    With zeros replacement and x all-ones, the masked input exposes the mask
    directly through per-segment sums.
    """
    seg = grid.assignment

    def fn(batch):
        seg_sums = np.zeros((batch.shape[0], grid.segment_count))
        np.add.at(seg_sums.T, seg, batch.T)
        sizes = np.bincount(seg, minlength=grid.segment_count).astype(float)
        mask_est = seg_sums / sizes
        return intercepts[None, :] + mask_est @ slopes.T

    return ArrayOracle(fn, seg.shape[0], slopes.shape[0])


def test_fit_recovers_affine_map_exactly():
    rng = np.random.default_rng(8)
    for trial in range(50):
        s = int(rng.integers(2, 9))
        d = s * int(rng.integers(1, 3))
        p = 4 * s + int(rng.integers(0, 8))
        grid = zk.SegmentGrid.uniform(d, s)
        k = int(rng.integers(2, 4))
        slopes = rng.normal(size=(k, s))
        intercepts = rng.normal(size=k)
        oracle = _affine_mask_oracle(grid, slopes, intercepts)
        cfg = zk.LimeConfig(perturbations=p, ridge=0.0, replacement="zeros")
        x = np.ones(d)
        masks = np.random.default_rng(trial).random((p, s)) < 0.5
        pm = zk.fit_point_model(oracle, x, masks, grid, cfg)
        assert np.abs(pm.coef - slopes).max() < 1e-8
        assert np.abs(pm.intercept - intercepts).max() < 1e-8


def test_fit_constant_oracle_zero_slopes():
    grid = zk.SegmentGrid.uniform(8, 4)
    const = np.array([0.1, 0.6, 0.3])
    oracle = ArrayOracle(lambda b: np.tile(const, (b.shape[0], 1)), 8, 3)
    cfg = zk.LimeConfig(perturbations=32, ridge=0.0)
    masks = np.random.default_rng(0).random((32, 4)) < 0.5
    pm = zk.fit_point_model(oracle, np.full(8, 0.5), masks, grid, cfg)
    assert np.abs(pm.coef).max() < 1e-8
    assert np.abs(pm.intercept - const).max() < 1e-8


def test_fit_huge_ridge_shrinks_coefficients():
    model = tiny_net(3, input_dim=8, class_count=3)
    oracle = zk.local_oracle(model)
    grid = zk.SegmentGrid.uniform(8, 4)
    masks = np.random.default_rng(1).random((64, 4)) < 0.5
    x = np.random.default_rng(2).random(8)
    small = zk.fit_point_model(oracle, x, masks, grid,
                               zk.LimeConfig(perturbations=64, ridge=1e12))
    assert np.abs(small.coef).max() < 1e-6


def test_fit_singular_system_advises_ridge():
    grid = zk.SegmentGrid.uniform(4, 2)
    oracle = ArrayOracle(lambda b: np.zeros((b.shape[0], 2)), 4, 2)
    masks = np.ones((8, 2), dtype=bool)  # rank-deficient design
    with pytest.raises(NumericalError, match="ridge"):
        zk.fit_point_model(oracle, np.full(4, 0.5), masks, grid,
                           zk.LimeConfig(perturbations=8, ridge=0.0))


def test_weighted_residual_orthogonality():
    # normal equations: for the exact WLS solution, X^T W r = 0
    model = tiny_net(5, input_dim=8, class_count=3)
    oracle = zk.local_oracle(model)
    grid = zk.SegmentGrid.uniform(8, 4)
    cfg = zk.LimeConfig(perturbations=64, ridge=0.0)
    rng = np.random.default_rng(7)
    x = rng.random(8)
    masks = rng.random((64, 4)) < 0.5
    pm = zk.fit_point_model(oracle, x, masks, grid, cfg)
    targets = zk.forward(model, masked_batch(x, masks, grid, cfg.replacement))
    w = zk.mask_kernel_weights(masks, cfg.resolved_kernel_width(4))
    design = np.column_stack([masks.astype(float), np.ones(64)])
    pred = masks.astype(float) @ pm.coef.T + pm.intercept
    resid = targets - pred
    assert np.abs(design.T @ (w[:, None] * resid)).max() < 1e-6


def test_small_exact_solve_full_rank():
    # one reference point, P = S+1 (one-hot masks + all-ones) -> closed form
    s = 4
    grid = zk.SegmentGrid.uniform(s, s)
    rng = np.random.default_rng(11)
    slopes = rng.normal(size=(2, s))
    intercepts = rng.normal(size=2)
    oracle = _affine_mask_oracle(grid, slopes, intercepts)
    masks = np.vstack([np.eye(s, dtype=bool), np.ones((1, s), dtype=bool)])
    cfg = zk.LimeConfig(perturbations=s + 1, ridge=0.0, replacement="zeros")
    pm = zk.fit_point_model(oracle, np.ones(s), masks, grid, cfg)
    design = np.column_stack([masks.astype(float), np.ones(s + 1)])
    w = zk.mask_kernel_weights(masks, cfg.resolved_kernel_width(s))
    targets = oracle.predict_proba(masked_batch(np.ones(s), masks, grid, "zeros"))
    a = design.T * w
    beta = np.linalg.solve(a @ design, a @ targets)
    assert np.abs(pm.coef - beta[:s].T).max() < 1e-10
    assert np.abs(pm.intercept - beta[s]).max() < 1e-10


# --- signatures ------------------------------------------------------------

def test_signature_ledger_exactly_np_plus_n(blob_world, small_plan):
    oracle = zk.local_oracle(blob_world["victim"])
    zk.compute_signature(oracle, small_plan)
    b = oracle.ledger.breakdown()
    assert b["signature"] == small_plan.n * small_plan.p == 720
    assert b["signature_baseline"] == small_plan.n == 6
    assert oracle.ledger.total_queries == 726


def test_identical_models_identical_signatures(blob_world, small_plan):
    a = zk.compute_signature(zk.local_oracle(blob_world["victim"]), small_plan)
    b = zk.compute_signature(zk.local_oracle(blob_world["victim"]), small_plan)
    assert np.array_equal(a.flatten(), b.flatten())
    assert a.plan_fingerprint == b.plan_fingerprint


def test_signature_round_trip_bit_exact(tmp_path, blob_world, small_plan):
    sig = zk.compute_signature(zk.local_oracle(blob_world["victim"]), small_plan)
    p1, p2 = tmp_path / "a.sig", tmp_path / "b.sig"
    zk.save_signature(sig, p1)
    loaded = zk.load_signature(p1)
    zk.save_signature(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(loaded.flatten(), sig.flatten())


def test_flatten_order_point_major():
    pms = []
    for i in range(2):
        coef = np.arange(6, dtype=np.float64).reshape(2, 3) + 10 * i
        pms.append(PointModel(coef, np.zeros(2)))
    sig = zk.Signature(model_id="m", plan_fingerprint="f", point_models=tuple(pms))
    flat = sig.flatten()
    expected = np.concatenate([pms[0].coef.ravel(), pms[1].coef.ravel()])
    assert np.array_equal(flat, expected)
    with_b = sig.flatten(include_intercepts=True)
    assert with_b.shape[0] == flat.shape[0] + 4


def _reference_signature(oracle, plan):
    """Signing as a per-point loop with the masks, kernel weights and ridge
    solve written out as they were before per-plan designs and blocks."""
    rng = np.random.default_rng(zk.derived_seed(plan.seed, "plan.masks"))
    masks = rng.random((plan.n, plan.p, plan.s)) < 0.5
    width = plan.config.resolved_kernel_width(plan.s)
    seg = plan.grid.assignment
    coefs, intercepts = [], []
    for i in range(plan.n):
        x = plan.points[i]
        oracle.predict_proba(x[None, :], purpose="signature_baseline")
        fill = _replacement_values(x, plan.grid, plan.config.replacement)[seg]
        targets = oracle.predict_proba(np.where(masks[i][:, seg], x[None, :], fill[None, :]),
                                       purpose="signature")
        design = np.hstack([masks[i].astype(np.float64), np.ones((plan.p, 1))])
        xw = design * _reference_kernel_weights(masks[i], width)[:, None]
        a = design.T @ xw
        a[np.arange(plan.s), np.arange(plan.s)] += plan.config.ridge
        beta = np.linalg.solve(a, xw.T @ targets)
        coefs.append(beta[:plan.s].T)
        intercepts.append(beta[plan.s])
    return masks, np.stack(coefs), np.stack(intercepts)


@pytest.mark.parametrize("features,segments,policy,width,ridge,p,n", [
    (16, 16, "segment_mean", None, 1.0, 1000, 11),  # S = d; blocks of 8 points, 8 + 3
    (16, 5, "zeros", 0.7, 0.0, 2000, 6),            # S < d; blocks of 4 points, 4 + 2
    (12, 4, "segment_mean", 0.7, 0.0, 8200, 3),     # P > BLOCK_ROWS: one point per block
    (12, 4, "zeros", None, 1.0, 120, 70),           # blocks of 68 points, 68 + 2
    (7, 5, "segment_mean", 1.7, 1.0, 63, 131),      # P*S % 8 != 0; blocks 130 + 1
])
def test_blocked_signature_matches_per_point_reference(features, segments, policy, width,
                                                        ridge, p, n):
    per_block = max(1, BLOCK_ROWS // p)
    assert n % per_block != 0 or per_block == 1
    grid = zk.SegmentGrid.uniform(features, segments)
    cfg = zk.LimeConfig(perturbations=p, kernel_width=width, ridge=ridge, replacement=policy)
    points = np.random.default_rng(features + p).random((n, features))
    plan = zk.PerturbationPlan(points, grid, cfg, seed=p)
    oracle = zk.local_oracle(tiny_net(4, input_dim=features))

    sig = zk.compute_signature(oracle, plan)
    masks, coef, intercept = _reference_signature(oracle, plan)
    assert plan.mask_tensor().tobytes() == masks.tobytes()
    assert sig.coef_tensor().tobytes() == coef.tobytes()
    assert sig.intercept_matrix().tobytes() == intercept.tobytes()
    for i, pm in enumerate(sig.point_models):
        alone = zk.fit_point_model(oracle, plan.points[i], plan.mask_tensor()[i], grid, cfg)
        assert alone.coef.tobytes() == pm.coef.tobytes()
        assert alone.intercept.tobytes() == pm.intercept.tobytes()
    assert oracle.ledger.breakdown()["signature"] == 3 * n * p


def test_signing_queries_point_by_point_in_order():
    grid = zk.SegmentGrid.uniform(16, 8)
    p, n = 1000, 11  # two blocks: 8 + 3 points
    plan = zk.PerturbationPlan(np.random.default_rng(0).random((n, 16)), grid,
                               zk.LimeConfig(perturbations=p), seed=4)
    model = tiny_net(2, input_dim=16)
    calls = []

    class Recording(ArrayOracle):
        def predict_proba(self, batch, purpose="other"):
            calls.append((purpose, len(batch), np.array(batch)))
            return super().predict_proba(batch, purpose)

    zk.compute_signature(Recording(lambda b: zk.forward(model, b), 16, 3), plan)
    assert [c[:2] for c in calls] == [("signature_baseline", 1), ("signature", p)] * n
    for i in range(n):
        assert np.array_equal(calls[2 * i][2], plan.points[i][None, :])
        alone = masked_batch(plan.points[i], plan.mask_tensor()[i], grid, "segment_mean")
        assert calls[2 * i + 1][2].tobytes() == alone.tobytes()


def _recording(fn, features, classes, oracle_id, calls):
    class Recording(ArrayOracle):
        def predict_proba(self, batch, purpose="other"):
            calls.append((purpose, np.array(batch)))
            return super().predict_proba(batch, purpose)
    return Recording(fn, features, classes, oracle_id)


# 4 oracles: blocks of 2 points (2 * 1000 rows each), one block
@pytest.mark.parametrize("p,n", [(1000, 11), (120, 5)])
def test_sign_many_matches_compute_signature_bitwise(p, n):
    grid = zk.SegmentGrid.uniform(16, 8)
    plan = zk.PerturbationPlan(np.random.default_rng(n).random((n, 16)), grid,
                               zk.LimeConfig(perturbations=p), seed=p)
    models = [tiny_net(seed, input_dim=16, class_count=k) for seed, k in
              ((1, 3), (2, 2), (3, 5), (4, 3))]
    many_calls, solo_calls = [[] for _ in models], [[] for _ in models]
    sigs = zk.sign_many([_recording(lambda b, m=m: zk.forward(m, b), 16, m.class_count,
                                    m.model_id, calls)
                         for m, calls in zip(models, many_calls)], plan)
    assert [sig.model_id for sig in sigs] == [m.model_id for m in models]
    for sig, model, many, solo in zip(sigs, models, many_calls, solo_calls):
        alone = zk.compute_signature(
            _recording(lambda b: zk.forward(model, b), 16, model.class_count,
                       model.model_id, solo), plan)
        assert sig.coef.shape == (n, model.class_count, 8)
        assert sig.plan_fingerprint == alone.plan_fingerprint == plan.fingerprint()
        assert sig.coef.tobytes() == alone.coef.tobytes()
        assert sig.intercept.tobytes() == alone.intercept.tobytes()
        # the same calls, with the same rows, in the same order
        assert len(many) == len(solo) == 2 * n
        for (pa, ra), (pb, rb) in zip(many, solo):
            assert pa == pb and ra.tobytes() == rb.tobytes()


def test_sign_many_transport_error_names_the_failing_oracles_progress(small_plan,
                                                                      blob_world):
    inner = zk.local_oracle(blob_world["victim"])

    class FailsAtPoint3(ArrayOracle):
        def predict_proba(self, batch, purpose="other"):
            if purpose == "signature" and self.ledger.breakdown()["signature"] == 3 * 120:
                raise TransportError("connection dropped", rows_counted=0)
            return super().predict_proba(batch, purpose)

    failing = FailsAtPoint3(inner.predict_proba, 16, 3, "flaky")
    with pytest.raises(TransportError) as err:
        zk.sign_many([inner, failing], small_plan)
    assert err.value.points_completed == 3
    assert failing.ledger.breakdown()["signature_baseline"] == 4


@pytest.mark.parametrize("p,n", [(1000, 20), (3000, 5)])  # blocks of 2 points, of 1 point
def test_sign_many_blocks_hold_block_rows_across_all_oracles(monkeypatch, p, n):
    grid = zk.SegmentGrid.uniform(16, 8)
    plan = zk.PerturbationPlan(np.random.default_rng(p).random((n, 16)), grid,
                               zk.LimeConfig(perturbations=p), seed=p)
    oracles = [zk.LocalOracle(tiny_net(seed, input_dim=16)) for seed in range(4)]
    use_cpus(monkeypatch, 1)
    sign_points, seen = zk.lime._sign_points, []

    def recording(oracles, points, design, grid, policy, blocks):
        seen.extend(blocks)
        return sign_points(oracles, points, design, grid, policy, blocks)

    monkeypatch.setattr(zk.lime, "_sign_points", recording)
    zk.sign_many(oracles, plan)
    assert [i for blk in seen for i in range(blk.start, blk.stop)] == list(range(n))
    for blk in seen:  # a block of one point may hold more: its rows cannot be split
        rows = (blk.stop - blk.start) * p * len(oracles)
        assert rows <= BLOCK_ROWS or blk.stop - blk.start == 1, (blk, rows)


def test_sign_many_rejects_an_oracle_whose_class_count_changes():
    grid = zk.SegmentGrid.uniform(16, 8)
    plan = zk.PerturbationPlan(np.random.default_rng(1).random((11, 16)), grid,
                               zk.LimeConfig(perturbations=1000), seed=1)  # blocks 8 + 3
    answers = []

    def shrinking(b):  # 3 classes in the first block, 1 in the second
        answers.append(len(b))
        return np.full((len(b), 3 if len(answers) <= 16 else 1), 0.5)

    with pytest.raises(ShapeError, match="class count"):
        zk.sign_many([ArrayOracle(shrinking, 16, 3)], plan)
    with pytest.raises(ShapeError, match="class count"):  # wrong from the first block on
        zk.sign_many([ArrayOracle(lambda b: np.full((len(b), 2), 0.5), 16, 3)], plan)


# --- signing lanes ---------------------------------------------------------

def _lane_plan():
    """N=20, P=1000: three P-row blocks, of 8, 8 and 4 points, so at most three
    lanes; the two _LANE_MODELS are signed in five blocks of 4 points."""
    grid = zk.SegmentGrid.uniform(16, 8)
    plan = zk.PerturbationPlan(np.random.default_rng(20).random((20, 16)), grid,
                               zk.LimeConfig(perturbations=1000), seed=20)
    assert len(zk.lime._point_blocks(plan.n, plan.p)) == 3
    return plan


_LANE_MODELS = [tiny_net(1, input_dim=16), tiny_net(2, input_dim=16, class_count=5)]


def _bill(points, p):
    return {"signature": points * p, "signature_baseline": points, "attack_eval": 0,
            "other": 0}


def _sign_locally(plan):
    """sign_many over fresh LocalOracles of _LANE_MODELS: (signatures, oracles)."""
    oracles = [zk.LocalOracle(model) for model in _LANE_MODELS]
    return zk.sign_many(oracles, plan), oracles


def _assert_same_signatures(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.coef.tobytes() == b.coef.tobytes()
        assert a.intercept.tobytes() == b.intercept.tobytes()


def test_sign_many_same_bytes_and_bill_on_one_two_and_three_lanes(monkeypatch):
    plan = _lane_plan()
    forks = count_forks(monkeypatch)
    runs = []
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        before = len(forks)
        sigs, oracles = _sign_locally(plan)
        assert len(forks) - before == cpus - 1  # min(cpus, 3 blocks) - 1
        assert_no_children()
        for oracle in oracles:
            assert oracle.ledger.breakdown() == _bill(plan.n, plan.p)
        runs.append(sigs)
    for sigs in runs[1:]:
        _assert_same_signatures(sigs, runs[0])


def test_sign_many_signs_a_failed_child_lane_again_and_bills_it_once(monkeypatch):
    plan = _lane_plan()
    use_cpus(monkeypatch, 1)
    want, _ = _sign_locally(plan)
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    parent, sign_points = os.getpid(), zk.lime._sign_points
    calls = []

    def fails_in_children(*args):
        if os.getpid() != parent:
            raise RuntimeError("child")
        calls.append(1)
        return sign_points(*args)

    monkeypatch.setattr(zk.lime, "_sign_points", fails_in_children)
    sigs, oracles = _sign_locally(plan)
    _assert_same_signatures(sigs, want)
    assert len(forks) == 1 and len(calls) == 2  # run 0, then the failed run 1
    for oracle in oracles:
        assert oracle.ledger.breakdown() == _bill(plan.n, plan.p)
    assert_no_children()


def test_sign_many_kills_and_reaps_children_when_run_0_raises(monkeypatch):
    plan = _lane_plan()
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    parent, sign_points = os.getpid(), zk.lime._sign_points
    run_0 = []

    def fails_after_run_0(*args):
        if os.getpid() != parent:
            time.sleep(60)  # still signing when the parent gives up
            return sign_points(*args)
        run_0.extend(args[-1])
        sign_points(*args)
        raise RuntimeError("run 0")

    monkeypatch.setattr(zk.lime, "_sign_points", fails_after_run_0)
    start = time.monotonic()
    oracles = [zk.LocalOracle(model) for model in _LANE_MODELS]
    with pytest.raises(RuntimeError, match="^run 0$"):
        zk.sign_many(oracles, plan)
    assert time.monotonic() - start < 30  # killed, not waited for
    assert len(forks) == 2
    assert_no_children()
    points = sum(blk.stop - blk.start for blk in run_0)
    assert 0 < points < plan.n
    for oracle in oracles:  # run 0's points are billed, the killed runs' are not
        assert oracle.ledger.breakdown() == _bill(points, plan.p)


def test_sign_many_signs_in_the_same_worker_twice(monkeypatch):
    plan = _lane_plan()
    use_cpus(monkeypatch, 1)
    want, _ = _sign_locally(plan)
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    for _ in range(2):
        sigs, oracles = _sign_locally(plan)
        _assert_same_signatures(sigs, want)
        for oracle in oracles:
            assert oracle.ledger.breakdown() == _bill(plan.n, plan.p)
    assert forks == [1]
    assert_no_children()


def test_sign_many_redoes_the_run_of_a_killed_idle_worker_once(monkeypatch):
    plan = _lane_plan()
    use_cpus(monkeypatch, 1)
    want, _ = _sign_locally(plan)
    use_cpus(monkeypatch, 2)
    pids = fork_pids(monkeypatch)
    parent, sign_points = os.getpid(), zk.lime._sign_points
    calls = []

    def counted(*args):
        if os.getpid() == parent:
            calls.append(1)
        return sign_points(*args)

    monkeypatch.setattr(zk.lime, "_sign_points", counted)
    _sign_locally(plan)
    assert len(pids) == 1 and len(calls) == 1  # run 1 in the worker, which goes idle
    os.kill(pids[0], signal.SIGKILL)
    sigs, oracles = _sign_locally(plan)
    _assert_same_signatures(sigs, want)
    assert len(pids) == 1 and len(calls) == 3  # run 0, then run 1 here, not in the dead worker
    for oracle in oracles:
        assert oracle.ledger.breakdown() == _bill(plan.n, plan.p)
    sigs, _ = _sign_locally(plan)
    _assert_same_signatures(sigs, want)
    assert len(pids) == 2 and len(calls) == 4  # a fresh worker signs run 1
    assert_no_children()


# Signs in a lane worker at two CPUs, whatever the machine has, then exits as a
# script does. The exit handler registered before zestkit's runs after it.
_SIGN_AND_EXIT = """
import atexit, json, os
import numpy as np

def after_zestkit():
    try:
        os.waitpid(-1, os.WNOHANG)
        print("a child is left")
    except ChildProcessError:
        pass

atexit.register(after_zestkit)
import zestkit as zk
os.sched_getaffinity = lambda pid: {0, 1}
pids, fork = [], os.fork
os.fork = lambda: pids.append(fork()) or pids[-1]
rng = np.random.default_rng(1)
model = zk.MlpModel((zk.nn.Layer(rng.normal(size=(16, 3)), np.zeros(3), "identity"),), "m")
plan = zk.PerturbationPlan(rng.random((20, 16)), zk.SegmentGrid.uniform(16, 8),
                           zk.LimeConfig(perturbations=1000), seed=20)
for _ in range(2):
    zk.compute_signature(zk.LocalOracle(model), plan)
print(json.dumps([pid for pid in pids if pid]))
"""


def test_a_process_that_signs_and_exits_leaves_no_worker_alive():
    src = os.path.dirname(os.path.dirname(zk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", _SIGN_AND_EXIT], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    pids = json.loads(out)  # one line: no "a child is left"
    assert len(pids) == 1
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)


def test_sign_many_forks_only_for_exact_local_oracles(monkeypatch):
    plan = _lane_plan()
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)

    class Subclassed(zk.LocalOracle):
        pass

    model = _LANE_MODELS[0]

    def array():
        return ArrayOracle(lambda b: zk.forward(model, b), 16, model.class_count)

    for oracles in ([zk.LocalOracle(model), array()], [Subclassed(model)], [array()]):
        zk.sign_many(oracles, plan)
        for oracle in oracles:
            assert oracle.ledger.breakdown() == _bill(plan.n, plan.p)
    assert forks == []


def test_signature_from_point_models_equals_from_arrays(tmp_path):
    rng = np.random.default_rng(9)
    coef, intercept = rng.normal(size=(4, 3, 5)), rng.normal(size=(4, 3))
    stacked = zk.Signature("m", "fp", tuple(map(PointModel, coef, intercept)))
    wrapped = zk.Signature.from_arrays("m", "fp", coef, intercept)
    for sig in (stacked, wrapped):
        assert (sig.n, sig.class_count, sig.segment_count) == (4, 3, 5)
        assert sig.coef.tobytes() == coef.tobytes()
        assert sig.intercept.tobytes() == intercept.tobytes()
        assert sig.coef_tensor() is sig.coef and sig.intercept_matrix() is sig.intercept
        assert not (sig.coef.flags.writeable or sig.intercept.flags.writeable)
        for pm, c, b in zip(sig.point_models, coef, intercept):
            assert pm.coef.tobytes() == c.tobytes()
            assert pm.intercept.tobytes() == b.tobytes()
    paths = [tmp_path / "stacked.sig", tmp_path / "wrapped.sig"]
    for sig, path in zip((stacked, wrapped), paths):
        zk.save_signature(sig, path)
        back = zk.load_signature(path)
        assert back.coef.tobytes() == coef.tobytes()
        assert back.intercept.tobytes() == intercept.tobytes()
        assert (back.model_id, back.plan_fingerprint) == ("m", "fp")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_signature_array_checks():
    coef, intercept = np.zeros((2, 3, 4)), np.zeros((2, 3))
    for c, b in [(np.zeros((0, 3, 4)), np.zeros((0, 3))), (coef[0], intercept),
                 (coef, intercept[:, :2]), (coef, intercept[0])]:
        with pytest.raises(ShapeError):
            zk.Signature.from_arrays("m", "fp", c, b)
    bad = coef.copy()
    bad[1, 2, 3] = np.nan
    with pytest.raises(NumericalError):
        zk.Signature.from_arrays("m", "fp", bad, intercept)
    with pytest.raises(ShapeError):
        zk.Signature("m", "fp", ())
    with pytest.raises(ShapeError):
        zk.Signature("m", "fp", (PointModel(coef[0], intercept[0]),
                                 PointModel(np.zeros((2, 4)), np.zeros(2))))


def test_plan_design_built_once_read_only_and_per_plan(blob_world, monkeypatch):
    grid = zk.SegmentGrid.uniform(16, 8)
    cfg = zk.LimeConfig(perturbations=64)
    plan = zk.make_plan(blob_world["train"], 5, grid, cfg, seed=5)
    twin = zk.make_plan(blob_world["train"], 5, grid, cfg, seed=5)
    assert plan.fingerprint() == twin.fingerprint()
    draws = []
    draw = zk.PerturbationPlan._draw_masks
    monkeypatch.setattr(zk.PerturbationPlan, "_draw_masks",
                        lambda self: draws.append(self) or draw(self))

    oracle = zk.local_oracle(blob_world["victim"])
    first = zk.compute_signature(oracle, plan)
    design = plan.design()
    second = zk.compute_signature(oracle, plan)
    assert len(draws) == 1
    assert plan.design() is design
    assert np.array_equal(first.flatten(), second.flatten())
    arrays = (design.bits, design.ones, design.table, design.grams)
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        design.bits[0, 0] ^= 1

    masks = plan.mask_tensor()  # unpacked anew on every call
    assert masks is not plan.mask_tensor() and masks.shape == (5, 64, 8)
    bits = np.unpackbits(design.bits, axis=1, bitorder="little")
    assert np.array_equal(masks, bits.reshape(5, 64, 8).astype(bool))
    assert np.array_equal(design.ones, masks.sum(axis=2))

    twin_design = twin.design()
    assert len(draws) == 2
    for a, b in zip(arrays, (twin_design.bits, twin_design.ones, twin_design.table,
                             twin_design.grams)):
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("width", [None, 0.3, 1.7])
@pytest.mark.parametrize("s", [1, 3, 8, 16, 17, 64])
def test_design_weight_table_equals_per_mask_weights_bitwise(s, width):
    cfg = zk.LimeConfig(perturbations=200, kernel_width=width)
    plan = zk.PerturbationPlan(np.random.default_rng(s).random((3, s)),
                               zk.SegmentGrid.uniform(s, s), cfg, seed=s)
    design = plan.design()
    kw = cfg.resolved_kernel_width(s)
    want = zk.mask_kernel_weights(plan.mask_tensor(), kw)
    assert design.table[design.ones].tobytes() == want.tobytes()
    # every count of ones, at random positions
    rng = np.random.default_rng(s + 1)
    for k in range(s + 1):
        mask = rng.permutation(np.arange(s) < k)
        assert zk.mask_kernel_weights(mask, kw).tobytes() == design.table[k].tobytes()


def test_design_footprint_is_bit_packed():
    n, p, s = 128, 1000, 16
    plan = zk.PerturbationPlan(np.random.default_rng(0).random((n, s)),
                               zk.SegmentGrid.uniform(s, s), zk.LimeConfig(perturbations=p),
                               seed=0)
    design = plan.design()
    held = sum(getattr(design, f.name).nbytes for f in dataclasses.fields(design))
    assert held == n * -(-p * s // 8) + n * p + (s + 1) * 8 + n * (s + 1) ** 2 * 8
    assert held <= 0.7 * 2 ** 20


def test_singular_gram_fails_before_any_query(blob_world):
    # P = S masks cannot determine S + 1 coefficients without a ridge
    grid = zk.SegmentGrid.uniform(16, 4)
    points = blob_world["train"].points[:3]
    plan = zk.PerturbationPlan(points, grid, zk.LimeConfig(perturbations=4, ridge=0.0),
                               seed=0)
    oracle = zk.local_oracle(blob_world["victim"])
    with pytest.raises(NumericalError, match="set ridge > 0"):
        zk.compute_signature(oracle, plan)
    assert oracle.ledger.total_queries == 0
    ridged = zk.PerturbationPlan(points, grid, zk.LimeConfig(perturbations=4), seed=0)
    zk.compute_signature(oracle, ridged)
    assert oracle.ledger.total_queries == 3 * 4 + 3


def test_transport_error_carries_progress(small_plan, blob_world):
    inner = zk.local_oracle(blob_world["victim"])

    class Flaky(QueryOracle):
        def __init__(self):
            self.ledger = inner.ledger
            self.calls = 0

        class_count = property(lambda self: inner.class_count)
        input_dim = property(lambda self: inner.input_dim)
        oracle_id = property(lambda self: "flaky")

        def predict_proba(self, batch, purpose="other"):
            if purpose == "signature":
                self.calls += 1
                if self.calls > 3:
                    raise TransportError("connection dropped", rows_counted=0)
            return inner.predict_proba(batch, purpose)

    with pytest.raises(TransportError) as err:
        zk.compute_signature(Flaky(), small_plan)
    assert err.value.points_completed == 3


def test_signature_summary_csv(blob_world, small_plan):
    sig = zk.compute_signature(zk.local_oracle(blob_world["victim"]), small_plan)
    csv_text = zk.signature_summary_csv(sig)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "point,coef_l1,coef_l2,coef_linf"
    assert len(lines) == 1 + small_plan.n


def test_replacement_values_policies():
    # per-segment fill values: mean of each segment, or zero
    grid = zk.SegmentGrid.uniform(4, 2)
    x = np.array([0.2, 0.4, 0.9, 0.1])
    assert np.allclose(_replacement_values(x, grid, "segment_mean"), [0.3, 0.5])
    assert np.array_equal(_replacement_values(x, grid, "zeros"), np.zeros(2))
    with pytest.raises(ConfigError):
        _replacement_values(x, grid, "mirror")
