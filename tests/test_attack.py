import warnings
from dataclasses import replace

import numpy as np
import pytest

import zestkit as zk
import zestkit.attack as attack
from zestkit.attack import QUANT_SLACK, AdversarialBatch, batch_summary_csv
from zestkit.errors import ConfigError, DomainError, ShapeError
from zestkit.nn import Dataset
from zestkit.util import derived_seed

from conftest import linear_net, tiny_net


def _attack_points(blob_world, count=40):
    data = blob_world["test"]
    ok = zk.forward(blob_world["victim"], data.points).argmax(axis=1) == data.labels
    idx = np.flatnonzero(ok)[:count]
    return data.subset(idx)


# --- config ----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        zk.AttackConfig(epsilon=-0.1)
    with pytest.raises(ConfigError):
        zk.AttackConfig(epsilon=float("nan"))
    with pytest.raises(ConfigError):
        zk.AttackConfig(step_size=0.0)
    with pytest.raises(ConfigError):
        zk.AttackConfig(epsilon=0.1, step_size=0.2)
    with pytest.raises(ConfigError):
        zk.AttackConfig(steps=0)
    with pytest.raises(ConfigError):
        zk.AttackConfig(restarts=0)
    # epsilon=0 is a legal degenerate budget, any positive step allowed
    zk.AttackConfig(epsilon=0.0, step_size=0.5)


def test_pgd_leaves_caller_dataset_writable(blob_world):
    data = _attack_points(blob_world, 5)
    batch = zk.pgd(blob_world["proxy"], data,
                   zk.AttackConfig(epsilon=0.1, step_size=0.02, steps=3, restarts=1))
    assert data.points.flags.writeable and data.labels.flags.writeable
    assert not batch.originals.flags.writeable and not batch.labels.flags.writeable
    assert np.array_equal(batch.originals, data.points)


def test_zero_epsilon_returns_originals(blob_world):
    data = _attack_points(blob_world, 10)
    cfg = zk.AttackConfig(epsilon=0.0, step_size=0.1, steps=3, restarts=2,
                          rng_seed=0)
    batch = zk.pgd(blob_world["victim"], data, cfg)
    assert np.array_equal(batch.adversarials, data.points)
    # all screened points were classified correctly, so nothing flips
    assert not batch.local_success.any()


# --- craft mechanics -------------------------------------------------------

def test_single_step_matches_closed_form():
    # linear logits make sign(grad) computable by hand: dCE/dx = W (p - e_y)
    rng = np.random.default_rng(21)
    w = rng.normal(size=(5, 3))
    b = rng.normal(size=3)
    model = linear_net(w, b)
    x0 = rng.random((8, 5))
    y = rng.integers(0, 3, size=8)
    data = Dataset(x0, y, 3)
    eps, step = 0.11, 0.05
    cfg = zk.AttackConfig(epsilon=eps, step_size=step, steps=1, restarts=1,
                          rng_seed=77)
    batch = zk.pgd(model, data, cfg)

    init_rng = np.random.default_rng(derived_seed(77, "pgd.init"))
    xa = np.clip(x0 + init_rng.uniform(-eps, eps, size=x0.shape), 0.0, 1.0)
    logits = xa @ w + b
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    p[np.arange(8), y] -= 1.0
    grad = p @ w.T
    xa = np.clip(np.clip(xa + step * np.sign(grad), x0 - eps, x0 + eps), 0.0, 1.0)
    assert np.abs(batch.adversarials - xa).max() < 1e-12


def test_budget_respected_across_random_configs(blob_world):
    data = _attack_points(blob_world, 12)
    rng = np.random.default_rng(4)
    for _ in range(8):
        eps = float(rng.uniform(0.01, 0.5))
        cfg = zk.AttackConfig(
            epsilon=eps,
            step_size=float(rng.uniform(0.2, 1.0)) * eps,
            steps=int(rng.integers(1, 12)),
            restarts=int(rng.integers(1, 4)),
            rng_seed=int(rng.integers(0, 1000)),
        )
        batch = zk.pgd(blob_world["victim"], data, cfg)
        assert batch.linf_distortion().max() <= eps + 1e-9
        assert batch.adversarials.min() >= 0.0
        assert batch.adversarials.max() <= 1.0
        assert batch.epsilon == eps
        assert batch.surrogate_id == "victim"


def test_more_restarts_never_worse(blob_world):
    # restart noise has the prefix property, so per point the kept outcome
    # is monotone in (flip, loss) as restarts grow
    data = _attack_points(blob_world, 15)
    prev = None
    for r in range(1, 5):
        cfg = zk.AttackConfig(epsilon=0.08, step_size=0.02, steps=10,
                              restarts=r, rng_seed=3)
        batch = zk.pgd(blob_world["victim"], data, cfg)
        if prev is not None:
            gained = batch.local_success & ~prev.local_success
            lost = prev.local_success & ~batch.local_success
            assert not lost.any()
            same = ~gained
            assert (batch.achieved_loss[same] >= prev.achieved_loss[same] - 1e-12).all()
        prev = batch


def test_determinism_and_seed_sensitivity(blob_world):
    data = _attack_points(blob_world, 10)
    cfg = zk.AttackConfig(epsilon=0.1, step_size=0.02, steps=8, restarts=3,
                          rng_seed=5)
    a = zk.pgd(blob_world["victim"], data, cfg)
    b = zk.pgd(blob_world["victim"], data, cfg)
    assert np.array_equal(a.adversarials, b.adversarials)
    assert np.array_equal(a.restart_index, b.restart_index)
    c = zk.pgd(blob_world["victim"], data,
               zk.AttackConfig(epsilon=0.1, step_size=0.02, steps=8,
                               restarts=3, rng_seed=6))
    assert not np.array_equal(a.adversarials, c.adversarials)


def test_local_success_on_trained_model(blob_world):
    data = _attack_points(blob_world, 40)
    cfg = zk.AttackConfig(epsilon=0.22, step_size=0.02, steps=40, restarts=5,
                          rng_seed=1)
    batch = zk.pgd(blob_world["victim"], data, cfg)
    assert batch.local_success_rate >= 0.9
    preds = zk.forward(blob_world["victim"], batch.adversarials).argmax(axis=1)
    assert np.array_equal(preds != batch.labels, batch.local_success)


def _reference_pgd(model, data, cfg):
    """PGD one model at a time through the public per-batch functions."""
    x0, y = data.points, data.labels
    eps, step = cfg.epsilon, cfg.step_size
    rng = np.random.default_rng(derived_seed(cfg.rng_seed, "pgd.init"))
    best_loss = np.full(len(y), -np.inf)
    best_adv = x0.copy()
    best_flip = np.zeros(len(y), dtype=bool)
    best_restart = np.zeros(len(y), dtype=np.int64)
    for r in range(cfg.restarts):
        xa = np.clip(x0 + rng.uniform(-eps, eps, size=x0.shape), 0.0, 1.0)
        for _ in range(cfg.steps):
            g = zk.input_gradient_batch(model, xa, y)
            xa = np.clip(np.clip(xa + step * np.sign(g), x0 - eps, x0 + eps), 0.0, 1.0)
        loss = zk.cross_entropy(model, xa, y)
        flip = zk.forward(model, xa).argmax(axis=1) != y
        better = (flip & ~best_flip) | ((flip == best_flip) & (loss > best_loss))
        best_adv[better] = xa[better]
        best_loss[better] = loss[better]
        best_flip[better] = flip[better]
        best_restart[better] = r
    if cfg.quantize_8bit:
        best_adv = np.round(best_adv * 255.0) / 255.0
    return best_adv, best_loss, best_flip, best_restart


def _assert_matches_reference(batch, ref):
    adv, loss, flip, restart = ref
    assert batch.adversarials.tobytes() == adv.tobytes()
    assert batch.achieved_loss.tobytes() == loss.tobytes()
    assert batch.local_success.tobytes() == flip.tobytes()
    assert batch.restart_index.tobytes() == restart.tobytes()


@pytest.fixture(scope="module")
def pgd_jobs(blob_world):
    train = blob_world["train"]
    models = [zk.train(train, zk.TrainConfig(hidden=hidden, epochs=5, rng_seed=seed),
                       model_id=f"m{seed}")
              for hidden, seed in (((24,), 11), ((24, 16), 12), ((24,), 13), ((24,), 14))]
    cfg = zk.AttackConfig(epsilon=0.2, step_size=0.02, steps=12, restarts=3)
    return [(model, replace(cfg, rng_seed=i, quantize_8bit=(i == 2)))
            for i, model in enumerate(models)]


def test_pgd_matches_per_model_reference_bitwise(blob_world, pgd_jobs):
    data = _attack_points(blob_world, 30)
    for model, cfg in pgd_jobs:
        _assert_matches_reference(zk.pgd(model, data, cfg), _reference_pgd(model, data, cfg))


def test_pgd_many_matches_per_model_reference_bitwise(blob_world, pgd_jobs):
    data = _attack_points(blob_world, 30)
    batches = zk.pgd_many(pgd_jobs, data)
    assert [b.surrogate_id for b in batches] == [m.model_id for m, _ in pgd_jobs]
    for batch, (model, cfg) in zip(batches, pgd_jobs):
        assert batch.quantized == cfg.quantize_8bit
        _assert_matches_reference(batch, _reference_pgd(model, data, cfg))


@pytest.mark.parametrize("points, restarts, job_index", [
    (30, 1, None),  # one restart: the restart blocks collapse to the points
    (1, 3, None),   # a single attack point, one row per restart
    (30, 4, 1),     # the (24, 16) model alone in its group, several restarts
])
def test_pgd_many_edge_shapes_match_solo_bitwise(blob_world, pgd_jobs, points, restarts,
                                                 job_index):
    data = _attack_points(blob_world, points)
    jobs = [(model, replace(cfg, restarts=restarts)) for model, cfg in pgd_jobs]
    if job_index is not None:
        jobs = [jobs[job_index]]
    batches = zk.pgd_many(jobs, data)
    assert len(batches) == len(jobs)
    for batch, (model, cfg) in zip(batches, jobs):
        solo = zk.pgd(model, data, cfg)
        for name in ("adversarials", "achieved_loss", "local_success", "restart_index"):
            assert getattr(batch, name).tobytes() == getattr(solo, name).tobytes()
        assert batch.quantized == solo.quantized == cfg.quantize_8bit
        if restarts == 1:
            assert not batch.restart_index.any()


def test_pgd_scores_each_restart_with_one_forward_pass(blob_world, pgd_jobs, monkeypatch):
    data = _attack_points(blob_world, 30)
    want = [zk.pgd(model, data, cfg) for model, cfg in pgd_jobs]
    calls = []
    logits = attack.logits
    monkeypatch.setattr(attack, "logits", lambda model, x: calls.append(1) or logits(model, x))
    for name in ("cross_entropy", "forward"):
        monkeypatch.setattr(attack, name, None)  # scoring no longer goes through them
    batches = zk.pgd_many(pgd_jobs, data)
    assert len(calls) == len(pgd_jobs) * pgd_jobs[0][1].restarts
    for batch, solo in zip(batches, want):
        assert batch.achieved_loss.tobytes() == solo.achieved_loss.tobytes()
        assert batch.local_success.tobytes() == solo.local_success.tobytes()


def test_pgd_rejects_non_finite_logits(blob_world):
    proxy = blob_world["proxy"]
    huge = zk.MlpModel(tuple(zk.nn.Layer(layer.weights * 1e200, layer.bias, layer.activation)
                             for layer in proxy.layers), model_id="huge")
    data = _attack_points(blob_world, 10)
    cfg = zk.AttackConfig(epsilon=0.1, step_size=0.02, steps=3, restarts=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DomainError, match="^batch: contains non-finite entries$"):
            zk.pgd(huge, data, cfg)
        with pytest.raises(DomainError, match="^batch: contains non-finite entries$"):
            zk.pgd_many([(proxy, cfg), (huge, cfg)], data)


def test_class_count_mismatch(blob_world):
    data = blob_world["test"]
    bad = Dataset(data.points[:4], np.zeros(4, dtype=np.int64), 7)
    with pytest.raises(ShapeError):
        zk.pgd(blob_world["victim"], bad, zk.AttackConfig())


# --- quantization ----------------------------------------------------------

def test_quantize_rounds_to_8bit_grid():
    x = np.full((1, 4), 0.5)
    batch = AdversarialBatch(
        originals=x, labels=np.array([0]), adversarials=x.copy(),
        local_success=np.array([False]), achieved_loss=np.array([0.0]),
        restart_index=np.array([0]), epsilon=0.0, surrogate_id="s")
    q = zk.quantize(batch)
    assert q.quantized is True
    assert np.allclose(q.adversarials, 128.0 / 255.0)
    grid = np.round(q.adversarials * 255.0) / 255.0
    assert np.array_equal(grid, q.adversarials)  # idempotent grid
    q2 = zk.quantize(q)
    assert np.array_equal(q2.adversarials, q.adversarials)


def test_quantize_slack_allows_half_step_overflow():
    eps = 0.001
    orig = np.array([[0.5]])
    adv = np.array([[0.5 + eps]])
    rounded = np.round(adv * 255.0) / 255.0
    overshoot = abs(rounded[0, 0] - 0.5)
    assert eps < overshoot <= eps + QUANT_SLACK
    with pytest.raises(DomainError):
        AdversarialBatch(
            originals=orig, labels=np.array([0]), adversarials=rounded,
            local_success=np.array([True]), achieved_loss=np.array([1.0]),
            restart_index=np.array([0]), epsilon=eps, surrogate_id="s")
    ok = AdversarialBatch(
        originals=orig, labels=np.array([0]), adversarials=rounded,
        local_success=np.array([True]), achieved_loss=np.array([1.0]),
        restart_index=np.array([0]), epsilon=eps, surrogate_id="s",
        quantized=True)
    assert ok.linf_distortion()[0] == pytest.approx(overshoot)


def test_batch_invariants_enforced():
    x = np.full((2, 3), 0.5)
    with pytest.raises(DomainError):
        AdversarialBatch(
            originals=x, labels=np.array([0, 1]),
            adversarials=x + 0.2, local_success=np.array([True, True]),
            achieved_loss=np.zeros(2), restart_index=np.zeros(2, np.int64),
            epsilon=0.1, surrogate_id="s")
    with pytest.raises(ShapeError):
        AdversarialBatch(
            originals=x, labels=np.array([0]),
            adversarials=x, local_success=np.array([True, True]),
            achieved_loss=np.zeros(2), restart_index=np.zeros(2, np.int64),
            epsilon=0.1, surrogate_id="s")


def test_attack_config_rejects_an_infinite_epsilon():
    with pytest.raises(ConfigError, match="^epsilon must be >= 0 and finite$"):
        zk.AttackConfig(epsilon=float("inf"))


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -0.5])
def test_batch_rejects_an_epsilon_that_is_not_finite_and_at_least_zero(epsilon):
    # the budget check `distortion > epsilon + tol` is false for NaN and inf,
    # so such a batch would pass any distortion, here 0.5
    x = np.full((2, 3), 0.25)
    with pytest.raises(DomainError, match="^epsilon must be >= 0 and finite$"):
        AdversarialBatch(
            originals=x, labels=np.array([0, 1]),
            adversarials=x + 0.5, local_success=np.array([True, True]),
            achieved_loss=np.zeros(2), restart_index=np.zeros(2, np.int64),
            epsilon=epsilon, surrogate_id="s")


# --- transfer evaluation ---------------------------------------------------

def test_self_transfer_equals_local_success(blob_world):
    data = _attack_points(blob_world, 30)
    cfg = zk.AttackConfig(epsilon=0.15, step_size=0.03, steps=15, restarts=2,
                          rng_seed=2)
    batch = zk.pgd(blob_world["victim"], data, cfg)
    oracle = zk.local_oracle(blob_world["victim"])
    result = zk.transfer_eval(oracle, batch)
    assert result.raw_success_count == int(batch.local_success.sum())
    # every original was screened correct, so valid == total here
    assert result.valid_points == result.total_points == 30
    assert result.success_count == result.raw_success_count
    assert result.success_rate == pytest.approx(batch.local_success_rate)
    assert result.queries_used == 60
    assert oracle.ledger.breakdown()["attack_eval"] == 60


class _ConstantOracle(zk.oracle.QueryOracle):
    """Always predicts class 0, for exclusion accounting."""

    def __init__(self, input_dim, class_count=3):
        self._dim = input_dim
        self._k = class_count
        self.ledger = zk.QueryLedger()

    class_count = property(lambda self: self._k)
    input_dim = property(lambda self: self._dim)
    oracle_id = property(lambda self: "const0")

    def predict_proba(self, batch, purpose="other"):
        batch = np.asarray(batch, dtype=np.float64)
        self.ledger.add(purpose, batch.shape[0])
        probs = np.zeros((batch.shape[0], self._k))
        probs[:, 0] = 1.0
        return probs


def test_constant_victim_exclusion_counts():
    rng = np.random.default_rng(1)
    m = 20
    x = rng.random((m, 6))
    y = rng.integers(0, 3, size=m)
    batch = AdversarialBatch(
        originals=x, labels=y, adversarials=x.copy(),
        local_success=np.zeros(m, bool), achieved_loss=np.zeros(m),
        restart_index=np.zeros(m, np.int64), epsilon=0.0, surrogate_id="s")
    result = zk.transfer_eval(_ConstantOracle(6), batch)
    zeros = int((y == 0).sum())
    assert result.valid_points == zeros
    assert result.already_misclassified == m - zeros
    assert result.success_count == 0           # label-0 points stay class 0
    assert result.raw_success_count == m - zeros
    assert result.success_rate == 0.0
    assert result.raw_success_rate == pytest.approx((m - zeros) / m)


def test_transfer_counts_brute_force(blob_world):
    data = _attack_points(blob_world, 25)
    cfg = zk.AttackConfig(epsilon=0.12, step_size=0.03, steps=12, restarts=2,
                          rng_seed=9)
    batch = zk.pgd(blob_world["proxy"], data, cfg)
    victim = blob_world["victim"]
    result = zk.transfer_eval(zk.local_oracle(victim), batch)

    valid = success = raw = 0
    for i in range(len(batch)):
        orig_pred = int(zk.forward(victim, batch.originals[i][None, :]).argmax())
        adv_pred = int(zk.forward(victim, batch.adversarials[i][None, :]).argmax())
        ok = orig_pred == batch.labels[i]
        ev = adv_pred != batch.labels[i]
        valid += ok
        raw += ev
        success += ok and ev
    assert (result.valid_points, result.success_count, result.raw_success_count) == \
        (valid, success, raw)
    assert result.success_rate == pytest.approx(success / valid)


def test_transfer_dim_mismatch(blob_world):
    data = _attack_points(blob_world, 4)
    batch = zk.pgd(blob_world["victim"], data,
                   zk.AttackConfig(epsilon=0.05, step_size=0.02, steps=2))
    wrong = zk.local_oracle(tiny_net(0, input_dim=5, class_count=3))
    with pytest.raises(ShapeError):
        zk.transfer_eval(wrong, batch)


# --- persistence -----------------------------------------------------------

def test_batch_round_trip_bit_exact(tmp_path, blob_world):
    data = _attack_points(blob_world, 8)
    cfg = zk.AttackConfig(epsilon=0.1, step_size=0.02, steps=5, restarts=2,
                          rng_seed=0, quantize_8bit=True)
    batch = zk.pgd(blob_world["victim"], data, cfg)
    assert batch.quantized is True
    p1, p2 = tmp_path / "a.adv", tmp_path / "b.adv"
    zk.save_batch(batch, p1)
    loaded = zk.load_batch(p1)
    zk.save_batch(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(loaded.adversarials, batch.adversarials)
    assert np.array_equal(loaded.local_success, batch.local_success)
    assert loaded.epsilon == batch.epsilon
    assert loaded.quantized is True


def test_batch_summary_csv(blob_world):
    data = _attack_points(blob_world, 5)
    batch = zk.pgd(blob_world["victim"], data,
                   zk.AttackConfig(epsilon=0.05, step_size=0.02, steps=3))
    lines = batch_summary_csv(batch).strip().split("\n")
    assert lines[0] == ("point,label,linf_distortion,local_success,"
                        "restart_index,achieved_loss")
    assert len(lines) == 6
    dist = float(lines[1].split(",")[2])
    assert 0.0 <= dist <= 0.05 + 1e-9
