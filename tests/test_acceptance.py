"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (bypassing capture) and enforcing its own time budget.

Criteria covered, with pinned tolerances:
 1 metric axioms on 1,000 random signature triples (exact, < 5 s)
 2 exact local-fit recovery vs closed-form weighted least squares
   (<= 1e-8, >= 50 instances, S <= 8, P >= 4S, < 30 s)
 3 input gradients vs central finite differences
   (<= 1e-4 relative, >= 100 nets/points, < 30 s)
 4 published-table replay: 20/20 closest pairs, ties flagged,
   cosine family matches 9/10 (exact, < 1 s)
 5 query accounting: N=128/P=1000 -> 128,000 perturbation rows and
   N=32/P=1000 -> 32,000, local and loopback-remote (exact, < 2 min)
 6 PGD stays inside the budget (exact post-clip) and reaches >= 90%
   local success at the desk defaults (epsilon 0.3, < 1 min)
 7 transfer counters equal a brute-force recount on 100 random
   constructions (exact, < 10 s)
 8 end-to-end: median cosine Pearson r between model distance and
   transfer success over 3 campaign master seeds is negative (< 10 min)
 9 criteria 2, 6, 8 regenerate byte-identical artifact files
"""

import contextlib
import filecmp
import os
import time

import numpy as np
import pytest

import zestkit as zk
from zestkit.attack import AdversarialBatch, batch_summary_csv
from zestkit.lime import mask_kernel_weights, masked_batch
from zestkit.nn import Dataset
from zestkit.oracle import ModelServer, RemoteEndpoint, RemoteOracle
from zestkit.util import atomic_write_text
from zestkit.zest import DistanceMetric, vector_distance

from conftest import tiny_net
from test_lime import _affine_mask_oracle


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_emit_past_capture(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _emit(line):
    # pytest captures at the fd level by default, which swallows even
    # sys.__stdout__; suspending capture is the only way to guarantee the
    # one-line-per-criterion verdicts reach the real stdout.
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@contextlib.contextmanager
def criterion(num, name, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > limit_s:
        _emit(f"ACCEPTANCE {num} {name}: FAIL (time {elapsed:.1f}s > {limit_s}s)")
        raise AssertionError(
            f"criterion {num} exceeded its {limit_s}s budget ({elapsed:.1f}s)")
    _emit(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")


# --- artifact generators (run twice by criterion 9) -------------------------

def _exact_fit_artifact(out_dir):
    """Signature of a fixed mask-affine oracle fitted with zero ridge."""
    grid = zk.SegmentGrid.uniform(8, 8)
    gen = np.random.default_rng(424)
    slopes = gen.normal(size=(3, 8))
    intercepts = gen.normal(size=3)
    oracle = _affine_mask_oracle(grid, slopes, intercepts)
    data = Dataset(np.ones((16, 8)), np.zeros(16, dtype=np.int64), 3)
    cfg = zk.LimeConfig(perturbations=64, ridge=0.0, replacement="zeros")
    plan = zk.make_plan(data, 2, grid, cfg, seed=6)
    sig = zk.compute_signature(oracle, plan)
    path = os.path.join(out_dir, "exactfit.sig")
    zk.save_signature(sig, path)
    return sig, (slopes, intercepts)


def _desk_attack_artifact(out_dir, model, points):
    """Batch crafted at the documented desk defaults (epsilon 0.3)."""
    cfg = zk.AttackConfig(epsilon=0.3, step_size=0.02, steps=40, restarts=5,
                          rng_seed=0)
    batch = zk.pgd(model, points, cfg)
    zk.save_batch(batch, os.path.join(out_dir, "desk.adv"))
    atomic_write_text(os.path.join(out_dir, "desk.csv"), batch_summary_csv(batch))
    return batch, cfg


def _campaign_artifact(out_dir, master_seed):
    cfg = zk.bundled_campaign_config()
    cfg["master_seed"] = master_seed
    return zk.run_campaign(cfg, out_dir)


CAMPAIGN_SEEDS = (101, 202, 303)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, blob_world):
    """First-run artifacts for criteria 2, 6 and 8, with generation times."""
    root = tmp_path_factory.mktemp("acceptance")
    out = {"root": root, "elapsed": {}}

    d2 = root / "c2"
    d2.mkdir()
    t0 = time.perf_counter()
    out["c2_sig"], out["c2_truth"] = _exact_fit_artifact(d2)
    out["elapsed"]["c2"] = time.perf_counter() - t0
    out["c2_dir"] = d2

    points = zk.select_attack_points([blob_world["victim"]],
                                     blob_world["test"], 100)
    out["points"] = points
    d6 = root / "c6"
    d6.mkdir()
    t0 = time.perf_counter()
    out["c6_batch"], out["c6_cfg"] = _desk_attack_artifact(
        d6, blob_world["victim"], points)
    out["elapsed"]["c6"] = time.perf_counter() - t0
    out["c6_dir"] = d6

    t0 = time.perf_counter()
    results = {}
    for seed in CAMPAIGN_SEEDS:
        results[seed] = _campaign_artifact(root / f"c8-{seed}", seed)
    out["elapsed"]["c8"] = time.perf_counter() - t0
    out["c8_results"] = results
    return out


def _dir_mismatches(a, b):
    bad = []
    for walk_root, _, files in os.walk(a):
        rel = os.path.relpath(walk_root, a)
        for f in files:
            pa = os.path.join(walk_root, f)
            pb = os.path.join(b, rel, f)
            if not os.path.exists(pb) or not filecmp.cmp(pa, pb, shallow=False):
                bad.append(os.path.join(rel, f))
    return bad


# --- criteria ----------------------------------------------------------------

def test_criterion_1_metric_axioms():
    with criterion(1, "metric-axioms", 5.0):
        rng = np.random.default_rng(2024)
        lp = (DistanceMetric.L1, DistanceMetric.L2, DistanceMetric.LINF)
        for _ in range(1000):
            dim = int(rng.integers(2, 30))
            u, v, w = rng.normal(size=(3, dim))
            for metric in lp:
                duv = vector_distance(u, v, metric)
                assert duv >= 0.0
                assert vector_distance(u, u, metric) == 0.0
                assert duv == vector_distance(v, u, metric)
                assert duv <= (vector_distance(u, w, metric)
                               + vector_distance(w, v, metric))
            dc = vector_distance(u, v, DistanceMetric.COSINE)
            assert 0.0 <= dc <= 2.0
            assert dc == vector_distance(v, u, DistanceMetric.COSINE)
            assert vector_distance(u, u, DistanceMetric.COSINE) == 0.0


def test_criterion_2_exact_local_fit(artifacts):
    with criterion(2, "lime-exactness", 30.0 - artifacts["elapsed"]["c2"]):
        rng = np.random.default_rng(77)
        worst = 0.0
        for trial in range(60):
            s = int(rng.integers(2, 9))
            p = 4 * s + int(rng.integers(0, 9))
            grid = zk.SegmentGrid.uniform(s, s)
            k = int(rng.integers(2, 5))
            slopes = rng.normal(size=(k, s))
            intercepts = rng.normal(size=k)
            oracle = _affine_mask_oracle(grid, slopes, intercepts)
            cfg = zk.LimeConfig(perturbations=p, ridge=0.0, replacement="zeros")
            masks = rng.random((p, s)) < 0.5
            x = np.ones(s)
            pm = zk.fit_point_model(oracle, x, masks, grid, cfg)

            # independent closed form: sqrt-weighted least squares via SVD
            targets = oracle.predict_proba(masked_batch(x, masks, grid, "zeros"))
            wts = mask_kernel_weights(masks, cfg.resolved_kernel_width(s))
            design = np.column_stack([masks.astype(float), np.ones(p)])
            sw = np.sqrt(wts)[:, None]
            beta, *_ = np.linalg.lstsq(design * sw, targets * sw, rcond=None)
            worst = max(worst,
                        float(np.abs(pm.coef - beta[:s].T).max()),
                        float(np.abs(pm.intercept - beta[s]).max()))
        assert worst <= 1e-8, f"worst deviation {worst}"

        # the persisted artifact recovers the generating affine map exactly
        slopes, intercepts = artifacts["c2_truth"]
        for pm in artifacts["c2_sig"].point_models:
            assert np.abs(pm.coef - slopes).max() <= 1e-8
            assert np.abs(pm.intercept - intercepts).max() <= 1e-8


def test_criterion_3_gradient_vs_finite_differences():
    with criterion(3, "gradient-fd", 30.0):
        rng = np.random.default_rng(99)
        checked = 0
        h = 1e-5
        while checked < 100:
            depth = int(rng.integers(0, 3))
            hidden = tuple(int(rng.integers(3, 10)) for _ in range(depth))
            dim = int(rng.integers(2, 9))
            classes = int(rng.integers(2, 5))
            model = tiny_net(int(rng.integers(0, 10 ** 6)), input_dim=dim,
                             class_count=classes, hidden=hidden)
            x = rng.random(dim)
            y = int(rng.integers(0, classes))
            # stay clear of relu kinks where the derivative jumps
            if _near_relu_kink(model, x):
                continue
            g = zk.input_gradient(model, x, y)
            fd = np.zeros(dim)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h
                lo = _point_loss(model, x - e, y)
                hi = _point_loss(model, x + e, y)
                fd[j] = (hi - lo) / (2 * h)
            scale = max(float(np.abs(fd).max()), float(np.abs(g).max()))
            if scale < 1e-5:
                # saturated prediction: differences drown in roundoff there,
                # so the point cannot certify a relative tolerance
                continue
            assert np.abs(g - fd).max() / scale <= 1e-4
            checked += 1


def _point_loss(model, x, y):
    return float(zk.cross_entropy(model, x[None, :], np.array([y]))[0])


def _near_relu_kink(model, x, margin=1e-3):
    a = np.asarray(x, dtype=np.float64)[None, :]
    for layer in model.layers:
        z = a @ layer.weights + layer.bias
        if layer.activation == "relu":
            if np.abs(z).min() < margin:
                return True
            a = np.maximum(z, 0.0)
        else:
            a = z
    return False


def test_criterion_4_reference_replay():
    with criterion(4, "fixture-replay", 1.0):
        fixture = zk.load_reference_fixture()
        total = 0
        for metric in ("linf", "cosine"):
            report = zk.replay_reference(fixture, metric, 128)
            assert report.matches == report.total == 10
            total += report.matches
        assert total == 20
        cos = zk.replay_reference(fixture, "cosine", 128)
        assert sum(r.tie_flagged for r in cos.rows) == 1  # rounding tie, flagged
        assert cos.family_matches == 9


def test_criterion_5_query_accounting():
    with criterion(5, "query-accounting", 120.0):
        model = tiny_net(3, input_dim=16, class_count=3, hidden=(6,))
        rng = np.random.default_rng(0)
        data = Dataset(rng.random((200, 16)), rng.integers(0, 3, 200), 3)
        grid = zk.SegmentGrid.uniform(16, 16)
        cfg = zk.LimeConfig(perturbations=1000)
        plans = {n: zk.make_plan(data, n, grid, cfg, seed=1) for n in (128, 32)}

        for n, expected in ((128, 128_000), (32, 32_000)):
            local = zk.local_oracle(model)
            zk.compute_signature(local, plans[n])
            b = local.ledger.breakdown()
            assert b["signature"] == expected
            assert b["signature_baseline"] == n
            assert local.ledger.snapshot()["total"] == expected + n

        with ModelServer(model, port=0) as server:
            for n, expected in ((128, 128_000), (32, 32_000)):
                remote = RemoteOracle(RemoteEndpoint(server.base_url))
                zk.compute_signature(remote, plans[n])
                b = remote.ledger.breakdown()
                assert b["signature"] == expected
                assert b["signature_baseline"] == n
                assert remote.ledger.snapshot()["total"] == expected + n


def test_criterion_6_pgd_budget_and_strength(artifacts, blob_world):
    with criterion(6, "pgd-budget-strength", 60.0 - artifacts["elapsed"]["c6"]):
        batch = artifacts["c6_batch"]
        cfg = artifacts["c6_cfg"]
        x0 = artifacts["points"].points
        adv = batch.adversarials
        # exact post-clip: projecting again onto the ball and box is a no-op
        assert np.array_equal(np.clip(adv, x0 - cfg.epsilon, x0 + cfg.epsilon), adv)
        assert np.array_equal(np.clip(adv, 0.0, 1.0), adv)
        assert batch.local_success_rate >= 0.90
        # provenance agrees with a fresh forward pass on the surrogate
        preds = zk.forward(blob_world["victim"], adv).argmax(axis=1)
        assert np.array_equal(preds != batch.labels, batch.local_success)


def test_criterion_7_transfer_count_equivalence():
    with criterion(7, "transfer-count-equivalence", 10.0):
        rng = np.random.default_rng(55)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            classes = int(rng.integers(2, 5))
            victim_model = tiny_net(int(rng.integers(0, 10 ** 6)),
                                    input_dim=dim, class_count=classes)
            m = int(rng.integers(1, 30))
            originals = rng.random((m, dim))
            adversarials = rng.random((m, dim))
            labels = rng.integers(0, classes, size=m)
            batch = AdversarialBatch(
                originals=originals, labels=labels, adversarials=adversarials,
                local_success=np.zeros(m, bool), achieved_loss=np.zeros(m),
                restart_index=np.zeros(m, np.int64), epsilon=1.0,
                surrogate_id="s")
            res = zk.transfer_eval(zk.local_oracle(victim_model), batch)

            valid = success = raw = 0
            for i in range(m):
                po = int(zk.forward(victim_model, originals[i][None, :]).argmax())
                pa = int(zk.forward(victim_model, adversarials[i][None, :]).argmax())
                ok = po == labels[i]
                ev = pa != labels[i]
                valid += ok
                raw += ev
                success += ok and ev
            assert res.total_points == m
            assert res.valid_points == valid
            assert res.success_count == success
            assert res.raw_success_count == raw
            assert res.already_misclassified == m - valid
            assert res.success_rate == ((success / valid) if valid else 0.0)
            assert res.raw_success_rate == raw / m
            assert res.queries_used == 2 * m


def test_criterion_8_distance_transfer_anticorrelation(artifacts):
    with criterion(8, "distance-transfer-anticorrelation",
                   600.0 - artifacts["elapsed"]["c8"]):
        rs = []
        for seed in CAMPAIGN_SEEDS:
            result = artifacts["c8_results"][seed]
            cosine = [rec.r for rec in result.correlations
                      if rec.metric is DistanceMetric.COSINE]
            assert len(cosine) == 1
            assert len(result.distances["cosine"]) == 8  # full portfolio
            rs.append(cosine[0])
        median = float(np.median(rs))
        _emit("  cosine pearson r by seed: "
              + ", ".join(f"{s}:{r:+.3f}" for s, r in zip(CAMPAIGN_SEEDS, rs))
              + f" -> median {median:+.3f}")
        assert median < 0.0


def test_criterion_9_determinism(artifacts, blob_world, tmp_path):
    with criterion(9, "determinism", 600.0):
        redo2 = tmp_path / "c2"
        redo2.mkdir()
        _exact_fit_artifact(redo2)
        assert _dir_mismatches(artifacts["c2_dir"], redo2) == []

        redo6 = tmp_path / "c6"
        redo6.mkdir()
        _desk_attack_artifact(redo6, blob_world["victim"], artifacts["points"])
        assert _dir_mismatches(artifacts["c6_dir"], redo6) == []

        seed = CAMPAIGN_SEEDS[1]
        redo8 = tmp_path / f"c8-{seed}"
        _campaign_artifact(redo8, seed)
        first8 = artifacts["root"] / f"c8-{seed}"
        assert _dir_mismatches(first8, redo8) == []
        assert _dir_mismatches(redo8, first8) == []
