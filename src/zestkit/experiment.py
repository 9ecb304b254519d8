"""Experiment orchestration: correlation of distance vs. transfer, and the
end-to-end desk-scale campaign (train portfolio, shared plan, signatures,
selection, PGD, transfer, correlation).

Every run is driven by one declarative JSON config; all randomness flows
from its master_seed through labeled hashing, so identical configs yield
byte-identical artifacts. Each artifact carries the config hash.
"""

import json
import logging
import os
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .attack import (AdversarialBatch, AttackConfig, batch_summary_csv, pgd_many, save_batch,
                     transfer_eval)
from .errors import ConfigError
from .lime import (LimeConfig, SegmentGrid, correct_by_all, make_plan, save_plan,
                   save_signature, sign_many)
from .nn import Dataset, TrainConfig, blob_centers, sample_blobs, save_model, train_many
from .oracle import RemoteEndpoint, local_oracle, remote_oracle
from .util import (ForkLanes, atomic_write_text, config_hash, csv_text, derived_seed,
                   owned_array, pearson)
from .zest import DistanceMetric, SignatureStore, check_model_id, rank_signatures
# kept importable here: bench/spans.py patches zestkit.experiment.train, .pgd, .forward,
# .compute_signature and .select_surrogate
from .attack import pgd  # noqa: F401
from .lime import compute_signature  # noqa: F401
from .nn import forward, train  # noqa: F401
from .zest import select_surrogate  # noqa: F401

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CorrelationRecord:
    victim_id: str
    metric: DistanceMetric
    n_references: int
    epsilon: float
    r: float
    sample_count: int


@dataclass(frozen=True)
class TransferMatrix:
    """rate[i][j]: transfer success from surrogate i to victim j."""

    model_ids: "tuple[str, ...]"
    rates: np.ndarray

    def __post_init__(self):
        r = owned_array(self, "rates", np.float64)
        n = len(self.model_ids)
        if r.shape != (n, n):
            raise ConfigError(f"rates must be {n}x{n}")
        if r.size and (r.min() < 0.0 or r.max() > 1.0):
            raise ConfigError("transfer rates must lie in [0,1]")
        object.__setattr__(self, "model_ids", tuple(self.model_ids))

    def to_csv(self) -> str:
        return csv_text(["surrogate\\victim", *self.model_ids],
                        ([mid, *row]
                         for mid, row in zip(self.model_ids, self.rates)))


def select_attack_points(models, data: Dataset, count: int) -> Dataset:
    """First `count` points (dataset order) all models classify correctly."""
    return data.subset(correct_by_all(models, data, count)[:count])


def _craft(proxies, test_data: Dataset, block: dict, master: int):
    """The campaign's attack config, attack points and PGD from every proxy, as
    plain data: the epsilon, and each batch's fields in proxy order."""
    acfg = AttackConfig(
        epsilon=float(block.get("epsilon", 0.1)),
        step_size=float(block.get("step_size", 0.02)),
        steps=int(block.get("steps", 40)),
        restarts=int(block.get("restarts", 5)),
        quantize_8bit=bool(block.get("quantize_8bit", False)))
    points = select_attack_points(proxies, test_data, int(block.get("points", 100)))
    crafted = pgd_many(
        [(model, replace(acfg, rng_seed=derived_seed(master, f"pgd.{model.model_id}")))
         for model in proxies], points)
    return acfg.epsilon, [vars(batch) for batch in crafted]


def compute_transfer_matrix(models, points_data: Dataset, cfg: AttackConfig) -> TransferMatrix:
    """All-pairs transfer among local models on a shared point set."""
    batches = pgd_many([(model, cfg) for model in models], points_data)
    n = len(models)
    rates = np.zeros((n, n))
    for j, victim_model in enumerate(models):
        victim = local_oracle(victim_model)
        for i in range(n):
            rates[i, j] = transfer_eval(victim, batches[i]).success_rate
    return TransferMatrix(tuple(m.model_id for m in models), rates)


# --- campaign -------------------------------------------------------------

def _train_config(block: dict, seed: int) -> TrainConfig:
    return TrainConfig(hidden=tuple(block["hidden"]), epochs=block.get("epochs", 40),
                       batch_size=block.get("batch_size", 32),
                       learning_rate=block.get("learning_rate", 0.1), rng_seed=seed)


def _portfolio_dataset(data: Dataset, entry: dict, master: int) -> Dataset:
    """Per-surrogate training view: optional subset and label noise."""
    mid = entry["model_id"]
    out = data
    fraction = float(entry.get("train_fraction", 1.0))
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"{mid}: train_fraction must be in (0,1]")
    if fraction < 1.0:
        rng = np.random.default_rng(derived_seed(master, f"subset.{mid}"))
        take = max(1, int(round(fraction * len(data))))
        out = out.subset(np.sort(rng.choice(len(data), size=take, replace=False)))
    noise = float(entry.get("label_noise", 0.0))
    if not 0.0 <= noise <= 1.0:
        raise ConfigError(f"{mid}: label_noise must be in [0,1]")
    if noise > 0.0:
        rng = np.random.default_rng(derived_seed(master, f"labelnoise.{mid}"))
        labels = out.labels.copy()
        flip = rng.random(len(out)) < noise
        labels[flip] = (labels[flip] + rng.integers(
            1, out.class_count, size=int(flip.sum()))) % out.class_count
        out = Dataset(out.points, labels, out.class_count)
    return out


@dataclass
class CampaignResult:
    config_hash: str
    out_dir: str
    victim_id: str
    selected: dict                      # metric -> proxy_id
    correlations: "list[CorrelationRecord]"
    distances: dict                     # metric -> {proxy_id: distance}
    transfer_rates: dict                # proxy_id -> TransferResult
    victim_ledger: dict
    manifest_path: str


def _write_manifest(out_dir, payload):
    atomic_write_text(os.path.join(out_dir, "manifest.json"),
                      json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_stamped(s, name, text):
    atomic_write_text(os.path.join(s.out_dir, name), f"# config_hash: {s.chash}\n" + text)


# Each stage takes the run's one namespace `s`, reads what earlier stages put
# there and adds what it makes; _STAGES below gives their order.

def _parse(s):
    config = s.config
    s.master = int(config["master_seed"])
    s.ds_cfg = config["dataset"]
    s.victim_cfg = config["victim"]
    s.portfolio_cfg = config["portfolio"]
    s.lime_cfg = config["lime"]
    s.attack_cfg_block = config["attack"]
    s.metrics = [DistanceMetric.parse(m) for m in config.get("metrics", ["cosine"])]
    if not s.metrics or len(set(s.metrics)) != len(s.metrics):
        raise ConfigError(f"metrics must name at least one metric, each once: "
                          f"{[m.value for m in s.metrics]}")
    if not s.portfolio_cfg:
        raise ConfigError("portfolio must list at least one surrogate")
    s.portfolio_ids = [check_model_id(entry["model_id"]) for entry in s.portfolio_cfg]
    local_victim = s.victim_cfg.get("kind", "local") == "local"
    s.victim_id = s.victim_cfg.get("model_id", "victim") if local_victim else None
    # every model trained here is saved as models/<model_id>.mlp
    file_ids = s.portfolio_ids + ([s.victim_id] if local_victim else [])
    if len(set(file_ids)) != len(file_ids):
        raise ConfigError(f"model ids must be unique: {file_ids}")
    if any(not isinstance(mid, str) or mid in ("", ".", "..")
           or any(sep and sep in mid for sep in (os.sep, os.altsep)) for mid in file_ids):
        raise ConfigError(f"model ids name files in models/: each is a string, none may be "
                          f"empty, '.' or '..', or hold a path separator: {file_ids}")
    if s.ds_cfg.get("kind", "blobs") != "blobs":
        raise ConfigError(f"unknown dataset kind {s.ds_cfg.get('kind')!r}")


def _dataset(s):
    ds_cfg, master = s.ds_cfg, s.master
    centers = blob_centers(int(ds_cfg["classes"]), int(ds_cfg["features"]),
                           derived_seed(master, "data.centers"))
    noise = float(ds_cfg.get("noise", 0.08))
    s.train_data = sample_blobs(centers, int(ds_cfg["train_size"]), noise,
                                derived_seed(master, "data.train"))
    s.test_data = sample_blobs(centers, int(ds_cfg["test_size"]), noise,
                               derived_seed(master, "data.test"))


def _train(s):
    models_dir = os.path.join(s.out_dir, "models")
    os.makedirs(models_dir, exist_ok=True)
    jobs = [(_portfolio_dataset(s.train_data, entry, s.master),
             _train_config(entry, derived_seed(s.master, f"train.{entry['model_id']}")),
             entry["model_id"]) for entry in s.portfolio_cfg]
    if s.victim_id is not None:
        jobs.append((s.train_data, _train_config(
            s.victim_cfg, derived_seed(s.master, f"train.{s.victim_id}")), s.victim_id))
    elif s.victim_cfg["kind"] != "remote":
        raise ConfigError(f"unknown victim kind {s.victim_cfg['kind']!r}")
    models = train_many(jobs)
    s.proxies = models[:len(s.portfolio_cfg)]
    for model in models:
        save_model(model, os.path.join(models_dir, f"{model.model_id}.mlp"))
        log.info("trained %s: accuracy %.3f", model.model_id,
                 model.metadata["train_accuracy"])
    s.victim = (local_oracle(models[-1]) if s.victim_id is not None
                else remote_oracle(RemoteEndpoint(s.victim_cfg["url"])))


def _plan(s):
    lime_cfg = s.lime_cfg
    grid = SegmentGrid.uniform(int(s.ds_cfg["features"]), int(lime_cfg.get("segments", 16)))
    lcfg = LimeConfig(perturbations=int(lime_cfg["p"]),
                      kernel_width=lime_cfg.get("kernel_width"),
                      ridge=float(lime_cfg.get("ridge", 1.0)),
                      replacement=lime_cfg.get("replacement", "segment_mean"))
    s.plan = make_plan(s.train_data, int(lime_cfg["n"]), grid, lcfg,
                       derived_seed(s.master, "plan"), models=s.proxies)
    save_plan(s.plan, os.path.join(s.out_dir, "shared.plan"))


def _signatures(s):
    # PGD needs only the proxies, so a forked lane crafts while this process signs
    s.crafted = s.lanes.run(_craft, s.proxies, s.test_data, s.attack_cfg_block, s.master)
    store = SignatureStore(os.path.join(s.out_dir, "signatures"))
    *s.proxy_sigs, s.victim_sig = sign_many([*map(local_oracle, s.proxies), s.victim], s.plan)
    for sig in s.proxy_sigs:
        store.put_signature(sig)
    save_signature(s.victim_sig, os.path.join(s.out_dir, "victim.sig"))
    s.signature_cost = s.victim.ledger.breakdown()


def _distances(s):
    # only this run's portfolio: a reused out_dir's store may hold others
    s.selected, s.distances = {}, {}
    for metric in s.metrics:
        proxy_id, report = rank_signatures(s.proxy_sigs, s.victim_sig, metric)
        s.selected[metric.value] = proxy_id
        s.distances[metric.value] = dict(report.entries)
        _write_stamped(s, f"distances_{metric.value}.csv", report.to_csv())


def _attack(s):
    s.epsilon, fields = s.crafted()
    s.batches = {f["surrogate_id"]: AdversarialBatch(**f) for f in fields}
    s.results = {mid: transfer_eval(s.victim, batch) for mid, batch in s.batches.items()}
    chosen = s.batches[s.selected[s.metrics[0].value]]
    save_batch(chosen, os.path.join(s.out_dir, "selected.adv"))
    _write_stamped(s, "selected_batch.csv", batch_summary_csv(chosen))


def _transfer_report(s):
    rows = []
    for mid in s.portfolio_ids:
        res = s.results[mid]
        rows.append([mid, s.batches[mid].local_success_rate, res.valid_points,
                     res.already_misclassified, res.success_count, res.success_rate,
                     res.raw_success_rate, *[s.distances[m.value][mid] for m in s.metrics]])
    _write_stamped(s, "transfer.csv", csv_text(
        ["proxy_id", "local_success_rate", "valid_points", "already_misclassified",
         "success_count", "success_rate", "raw_success_rate",
         *[f"distance_{m.value}" for m in s.metrics]], rows))


def _correlation(s):
    s.records, plot_rows = [], []
    for metric in s.metrics:
        xs = [s.distances[metric.value][mid] for mid in s.portfolio_ids]
        ys = [s.results[mid].success_rate for mid in s.portfolio_ids]
        s.records.append(CorrelationRecord(
            victim_id=s.victim.oracle_id, metric=metric, n_references=s.plan.n,
            epsilon=s.epsilon, r=pearson(xs, ys), sample_count=len(xs)))
        plot_rows += [[metric.value, mid, x, y, s.epsilon]
                      for mid, x, y in zip(s.portfolio_ids, xs, ys)]
    _write_stamped(s, "correlations.csv", csv_text(
        ["victim_id", "metric", "n_references", "epsilon", "pearson_r", "sample_count"],
        ([rec.victim_id, rec.metric.value, rec.n_references, rec.epsilon, rec.r,
          rec.sample_count] for rec in s.records)))
    _write_stamped(s, "plotdata.csv", csv_text(
        ["metric", "proxy_id", "distance", "transfer_rate", "epsilon"], plot_rows))


def _manifest(s):
    s.ledger = s.victim.ledger.snapshot()
    _write_manifest(s.out_dir, {
        "status": "ok",
        "config_hash": s.chash,
        "victim_id": s.victim.oracle_id,
        "selected_surrogate": s.selected,
        "plan_fingerprint": s.plan.fingerprint(),
        "signature_query_cost": s.signature_cost,
        "victim_ledger": s.ledger,
        "correlations": {rec.metric.value: rec.r for rec in s.records},
    })


_STAGES = (("parse", _parse), ("dataset", _dataset), ("train", _train), ("plan", _plan),
           ("signatures", _signatures), ("distances", _distances), ("attack", _attack),
           ("transfer-report", _transfer_report), ("correlation", _correlation),
           ("manifest", _manifest))


def run_campaign(config: dict, out_dir) -> CampaignResult:
    """Execute the full pipeline described by `config` into `out_dir`.

    The stages run in this order: parse, dataset, train, plan, signatures,
    distances, attack, transfer-report, correlation, manifest. When one
    raises, the run writes a manifest with status "failed" that names the
    failing stage and the error, then re-raises.

    Where this process may use more than one CPU (``util.lane_count``), the
    stages "signatures" and "distances" overlap the attack's PGD: a forked
    lane picks the attack points and crafts every proxy's batch while this
    process signs, stores, ranks and writes, and hands the batches over at
    stage "attack". A lane that fails is redone in process there, so an error
    surfaces at the stage, and with the message, of a run on one CPU; a run
    that fails earlier kills the lane before it writes its manifest.
    Training runs in lanes too (``nn.train_many``). No artifact depends on
    the CPU count.
    """
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    s = SimpleNamespace(config=config, out_dir=out_dir, chash=config_hash(config))
    try:
        with ForkLanes() as s.lanes:
            for name, run in _STAGES:
                run(s)
    except Exception as e:
        _write_manifest(out_dir, {"status": "failed", "stage": name,
                                  "error": f"{type(e).__name__}: {e}",
                                  "config_hash": s.chash})
        raise

    return CampaignResult(
        config_hash=s.chash, out_dir=out_dir, victim_id=s.victim.oracle_id,
        selected=s.selected, correlations=s.records, distances=s.distances,
        transfer_rates=s.results, victim_ledger=s.ledger,
        manifest_path=os.path.join(out_dir, "manifest.json"))


def load_campaign_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def bundled_campaign_config() -> dict:
    """The desk-scale campaign shipped with the package: one victim, eight
    surrogates across three architectures plus quality degradations."""
    from importlib import resources
    text = resources.files("zestkit.data").joinpath("desk_campaign.json") \
        .read_text(encoding="utf-8")
    return json.loads(text)
