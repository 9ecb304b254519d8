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

import numpy as np

from .attack import AttackConfig, batch_summary_csv, pgd_many, save_batch, transfer_eval
from .errors import ConfigError
from .lime import (LimeConfig, SegmentGrid, correct_by_all, make_plan, save_plan,
                   save_signature, sign_many)
from .nn import Dataset, TrainConfig, blob_centers, sample_blobs, save_model, train_many
from .oracle import RemoteEndpoint, local_oracle, remote_oracle
from .util import atomic_write_text, config_hash, csv_text, derived_seed, owned_array, pearson
from .zest import DistanceMetric, SignatureStore, rank_signatures
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
                        ([mid, *[repr(float(v)) for v in row]]
                         for mid, row in zip(self.model_ids, self.rates)))


def select_attack_points(models, data: Dataset, count: int) -> Dataset:
    """First `count` points (dataset order) all models classify correctly."""
    return data.subset(correct_by_all(models, data, count)[:count])


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


def run_campaign(config: dict, out_dir) -> CampaignResult:
    """Execute the full pipeline described by `config` into `out_dir`."""
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    chash = config_hash(config)

    def write_stamped(name, text):
        atomic_write_text(os.path.join(out_dir, name), f"# config_hash: {chash}\n" + text)

    stage = "parse"
    try:
        master = int(config["master_seed"])
        ds_cfg = config["dataset"]
        victim_cfg = config["victim"]
        portfolio_cfg = config["portfolio"]
        lime_cfg = config["lime"]
        attack_cfg_block = config["attack"]
        metrics = [DistanceMetric.parse(m) for m in config.get("metrics", ["cosine"])]
        if not portfolio_cfg:
            raise ConfigError("portfolio must list at least one surrogate")
        portfolio_ids = [entry["model_id"] for entry in portfolio_cfg]
        if len(set(portfolio_ids)) != len(portfolio_ids):
            raise ConfigError(f"portfolio model ids must be unique: {portfolio_ids}")
        if ds_cfg.get("kind", "blobs") != "blobs":
            raise ConfigError(f"unknown dataset kind {ds_cfg.get('kind')!r}")

        stage = "dataset"
        centers = blob_centers(int(ds_cfg["classes"]), int(ds_cfg["features"]),
                               derived_seed(master, "data.centers"))
        noise = float(ds_cfg.get("noise", 0.08))
        train_data = sample_blobs(centers, int(ds_cfg["train_size"]), noise,
                                  derived_seed(master, "data.train"))
        test_data = sample_blobs(centers, int(ds_cfg["test_size"]), noise,
                                 derived_seed(master, "data.test"))

        stage = "train"
        models_dir = os.path.join(out_dir, "models")
        os.makedirs(models_dir, exist_ok=True)
        jobs = [(_portfolio_dataset(train_data, entry, master),
                 _train_config(entry, derived_seed(master, f"train.{entry['model_id']}")),
                 entry["model_id"]) for entry in portfolio_cfg]
        local_victim = victim_cfg.get("kind", "local") == "local"
        if local_victim:
            vid = victim_cfg.get("model_id", "victim")
            jobs.append((train_data,
                         _train_config(victim_cfg, derived_seed(master, f"train.{vid}")), vid))
        elif victim_cfg["kind"] != "remote":
            raise ConfigError(f"unknown victim kind {victim_cfg['kind']!r}")
        models = train_many(jobs)
        proxies = models[:len(portfolio_cfg)]
        for model in proxies:
            save_model(model, os.path.join(models_dir, f"{model.model_id}.mlp"))
            log.info("trained %s: accuracy %.3f", model.model_id,
                     model.metadata["train_accuracy"])
        if local_victim:
            save_model(models[-1], os.path.join(models_dir, f"{vid}.mlp"))
            victim = local_oracle(models[-1])
        else:
            victim = remote_oracle(RemoteEndpoint(victim_cfg["url"]))

        stage = "plan"
        grid = SegmentGrid.uniform(int(ds_cfg["features"]), int(lime_cfg.get("segments", 16)))
        lcfg = LimeConfig(perturbations=int(lime_cfg["p"]),
                          kernel_width=lime_cfg.get("kernel_width"),
                          ridge=float(lime_cfg.get("ridge", 1.0)),
                          replacement=lime_cfg.get("replacement", "segment_mean"))
        plan = make_plan(train_data, int(lime_cfg["n"]), grid, lcfg,
                         derived_seed(master, "plan"), models=proxies)
        save_plan(plan, os.path.join(out_dir, "shared.plan"))

        stage = "signatures"
        store = SignatureStore(os.path.join(out_dir, "signatures"))
        *proxy_sigs, victim_sig = sign_many([*map(local_oracle, proxies), victim], plan)
        for sig in proxy_sigs:
            store.put_signature(sig)
        save_signature(victim_sig, os.path.join(out_dir, "victim.sig"))
        signature_cost = victim.ledger.breakdown()

        stage = "distances"
        # only this run's portfolio: a reused out_dir's store may hold others
        selected = {}
        distances = {}
        for metric in metrics:
            proxy_id, report = rank_signatures(proxy_sigs, victim_sig, metric)
            selected[metric.value] = proxy_id
            distances[metric.value] = dict(report.entries)
            write_stamped(f"distances_{metric.value}.csv", report.to_csv())

        stage = "attack"
        acfg = AttackConfig(
            epsilon=float(attack_cfg_block.get("epsilon", 0.1)),
            step_size=float(attack_cfg_block.get("step_size", 0.02)),
            steps=int(attack_cfg_block.get("steps", 40)),
            restarts=int(attack_cfg_block.get("restarts", 5)),
            rng_seed=derived_seed(master, "attack"),
            quantize_8bit=bool(attack_cfg_block.get("quantize_8bit", False)))
        points = select_attack_points(proxies, test_data,
                                      int(attack_cfg_block.get("points", 100)))
        crafted = pgd_many(
            [(model, replace(acfg, rng_seed=derived_seed(master, f"pgd.{model.model_id}")))
             for model in proxies], points)
        batches = {batch.surrogate_id: batch for batch in crafted}
        results = {mid: transfer_eval(victim, batch) for mid, batch in batches.items()}

        primary = metrics[0].value
        chosen = batches[selected[primary]]
        save_batch(chosen, os.path.join(out_dir, "selected.adv"))
        write_stamped("selected_batch.csv", batch_summary_csv(chosen))

        stage = "transfer-report"
        rows = []
        for entry in portfolio_cfg:
            mid = entry["model_id"]
            res = results[mid]
            rows.append([mid, repr(batches[mid].local_success_rate), res.valid_points,
                         res.already_misclassified, res.success_count,
                         repr(res.success_rate), repr(res.raw_success_rate),
                         *[repr(distances[m.value][mid]) for m in metrics]])
        write_stamped("transfer.csv", csv_text(
            ["proxy_id", "local_success_rate", "valid_points", "already_misclassified",
             "success_count", "success_rate", "raw_success_rate",
             *[f"distance_{m.value}" for m in metrics]], rows))

        stage = "correlation"
        records = []
        plot_rows = []
        for metric in metrics:
            xs = [distances[metric.value][e["model_id"]] for e in portfolio_cfg]
            ys = [results[e["model_id"]].success_rate for e in portfolio_cfg]
            r = pearson(xs, ys)
            records.append(CorrelationRecord(
                victim_id=victim.oracle_id, metric=metric, n_references=plan.n,
                epsilon=acfg.epsilon, r=r, sample_count=len(xs)))
            plot_rows += [[metric.value, e["model_id"], repr(x), repr(y), repr(acfg.epsilon)]
                          for e, x, y in zip(portfolio_cfg, xs, ys)]
        write_stamped("correlations.csv", csv_text(
            ["victim_id", "metric", "n_references", "epsilon", "pearson_r", "sample_count"],
            ([rec.victim_id, rec.metric.value, rec.n_references, repr(rec.epsilon),
              repr(rec.r), rec.sample_count] for rec in records)))
        write_stamped("plotdata.csv", csv_text(
            ["metric", "proxy_id", "distance", "transfer_rate", "epsilon"], plot_rows))

        stage = "manifest"
        ledger = victim.ledger.snapshot()
        manifest = {
            "status": "ok",
            "config_hash": chash,
            "victim_id": victim.oracle_id,
            "selected_surrogate": selected,
            "plan_fingerprint": plan.fingerprint(),
            "signature_query_cost": signature_cost,
            "victim_ledger": ledger,
            "correlations": {rec.metric.value: rec.r for rec in records},
        }
        _write_manifest(out_dir, manifest)
    except Exception as e:
        _write_manifest(out_dir, {"status": "failed", "stage": stage,
                                  "error": f"{type(e).__name__}: {e}",
                                  "config_hash": chash})
        raise

    return CampaignResult(
        config_hash=chash,
        out_dir=out_dir,
        victim_id=victim.oracle_id,
        selected=selected,
        correlations=records,
        distances=distances,
        transfer_rates=results,
        victim_ledger=ledger,
        manifest_path=os.path.join(out_dir, "manifest.json"),
    )


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
