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
from .lime import (REPLACEMENT_POLICIES, LimeConfig, SegmentGrid, correct_by_all, make_plan,
                   save_plan, save_signature, sign_many)
from .nn import Dataset, TrainConfig, blob_centers, sample_blobs, save_model, train_many
from .oracle import RemoteEndpoint, RemoteOracle, local_oracle
from .util import (ForkLanes, atomic_write_text, config_hash, csv_text, derived_seed,
                   fields_spec, pearson, resolve)
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


def select_attack_points(models, data: Dataset, count: int) -> Dataset:
    """First `count` points (dataset order) all models classify correctly."""
    return data.subset(correct_by_all(models, data, count)[:count])


def _craft(proxies, points: Dataset, acfg: AttackConfig, master: int):
    """PGD from every proxy on the campaign's attack points, as plain data: each
    batch's fields in proxy order."""
    crafted = pgd_many(
        [(model, replace(acfg, rng_seed=derived_seed(master, f"pgd.{model.model_id}")))
         for model in proxies], points)
    return [vars(batch) for batch in crafted]


# --- campaign -------------------------------------------------------------

# the TrainConfig fields that a local victim and each portfolio entry set
_TRAINING = fields_spec(TrainConfig, hidden=([int], ...), rng_seed=None)

# The only owner of the campaign config's keys, types and defaults, which the
# lime, attack and training blocks take from LimeConfig, AttackConfig and
# TrainConfig; only the campaign's own keys and its changes are written here.
# Value bounds stay with what is built from it: TrainConfig, LimeConfig and
# AttackConfig (all built at stage parse), make_plan and SegmentGrid.uniform;
# _parse checks the dataset block, each portfolio entry's train_fraction and
# label_noise, and attack.points and lime's n, segments, p and replacement
# against the dataset block, before training.
_SCHEMA = {
    "master_seed": (int, ...),
    "dataset": ({"kind": {"blobs": {"classes": (int, ...), "features": (int, ...),
                                    "train_size": (int, ...), "test_size": (int, ...),
                                    "noise": (float, 0.08)}}}, ...),
    "victim": ({"kind": {"local": {"model_id": (str, "victim"), **_TRAINING},
                         "remote": {"url": (str, ...)}}}, ...),
    "portfolio": ([{"model_id": (str, ...), **_TRAINING, "train_fraction": (float, 1.0),
                    "label_noise": (float, 0.0)}], ...),
    "lime": (fields_spec(LimeConfig, perturbations=None, n=(int, ...), p=(int, ...),
                         segments=(int, 16),
                         replacement=(REPLACEMENT_POLICIES, LimeConfig.replacement)), ...),
    "metrics": ([str], ["cosine"]),
    "attack": (fields_spec(AttackConfig, rng_seed=None, points=(int, 100)), ...),
}


def _train_jobs(s) -> list:
    """train_many's jobs: each portfolio entry on its view of the training
    data, then a local victim on all of it, each with the TrainConfig that
    stage parse built."""
    views = [_portfolio_dataset(s.train_data, entry, s.master) for entry in s.cfg["portfolio"]]
    if s.endpoint is None:
        views.append(s.train_data)
    return [(view, cfg, mid) for view, (mid, cfg) in zip(views, s.train_configs.items())]


def _portfolio_dataset(data: Dataset, entry: dict, master: int) -> Dataset:
    """Per-surrogate training view: optional subset and label noise, whose
    ranges stage parse checked."""
    mid = entry["model_id"]
    out = data
    if entry["train_fraction"] < 1.0:
        rng = np.random.default_rng(derived_seed(master, f"subset.{mid}"))
        take = max(1, int(round(entry["train_fraction"] * len(data))))
        out = out.subset(np.sort(rng.choice(len(data), size=take, replace=False)))
    if entry["label_noise"] > 0.0:
        rng = np.random.default_rng(derived_seed(master, f"labelnoise.{mid}"))
        labels = out.labels.copy()
        flip = rng.random(len(out)) < entry["label_noise"]
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


def _built(where: str, cls, **fields):
    """cls(**fields), whose ConfigError for a value out of bounds names the
    config path `where`, as in ``config.attack: steps must be >= 1``."""
    try:
        return cls(**fields)
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from None


# Each stage takes the run's one namespace `s`, reads what earlier stages put
# there and adds what it makes; _STAGES below gives their order.

def _parse(s):
    s.cfg = cfg = resolve("config", _SCHEMA, s.config)
    s.master = cfg["master_seed"]
    s.metrics = [DistanceMetric.parse(m) for m in cfg["metrics"]]
    if not s.metrics or len(set(s.metrics)) != len(s.metrics):
        raise ConfigError(f"metrics must name at least one metric, each once: "
                          f"{[m.value for m in s.metrics]}")
    if len(cfg["portfolio"]) < 2:  # stage correlation's pearson needs two samples
        raise ConfigError(f"config.portfolio: must list at least two surrogates, "
                          f"got {len(cfg['portfolio'])}")
    s.portfolio_ids = [check_model_id(entry["model_id"]) for entry in cfg["portfolio"]]
    for i, entry in enumerate(cfg["portfolio"]):
        for key, ok, bounds in (("train_fraction", 0 < entry["train_fraction"] <= 1, "(0, 1]"),
                                ("label_noise", 0 <= entry["label_noise"] <= 1, "[0, 1]")):
            if not ok:
                raise ConfigError(f"config.portfolio[{i}].{key}: must be in {bounds}, "
                                  f"got {entry[key]}")
    lime, attack = cfg["lime"], cfg["attack"]
    s.lime_cfg = _built("config.lime", LimeConfig, perturbations=lime["p"],
                        kernel_width=lime["kernel_width"], ridge=lime["ridge"],
                        replacement=lime["replacement"])
    s.attack_cfg = _built("config.attack", AttackConfig,
                          **{k: v for k, v in attack.items() if k != "points"})
    if s.attack_cfg.epsilon == 0:  # PGD cannot move, so every transfer rate would be 0
        raise ConfigError(f"config.attack.epsilon: must be > 0, got {attack['epsilon']}")
    ds = cfg["dataset"]
    for key, low in (("classes", 2), ("features", 1), ("train_size", 1)):
        if ds[key] < low:
            raise ConfigError(f"config.dataset.{key}: must be >= {low}, got {ds[key]}")
    if not ds["noise"] >= 0:
        raise ConfigError(f"config.dataset.noise: must be >= 0, got {ds['noise']}")
    if not 1 <= attack["points"] <= ds["test_size"]:
        raise ConfigError(f"config.attack.points: must be >= 1 and <= dataset.test_size "
                          f"({ds['test_size']}), got {attack['points']}")
    for key, bound in (("n", "train_size"), ("segments", "features")):
        if not 1 <= lime[key] <= ds[bound]:
            raise ConfigError(f"config.lime.{key}: must be >= 1 and <= dataset.{bound} "
                              f"({ds[bound]}), got {lime[key]}")
    if lime["replacement"] == "segment_mean" and ds["features"] < 2 * lime["segments"]:
        raise ConfigError(f"config.lime.replacement: segment_mean leaves a segment of one "
                          f"feature in {ds['features']} features / {lime['segments']} segments")
    if lime["p"] < lime["segments"]:
        raise ConfigError(f"config.lime.p: must be >= lime.segments ({lime['segments']}), "
                          f"got {lime['p']}")
    local_victim = cfg["victim"]["kind"] == "local"
    # parses the URL and sends nothing, so a bad one fails before any training
    s.endpoint = None if local_victim else RemoteEndpoint(cfg["victim"]["url"])
    # every model trained here is saved as models/<model_id>.mlp
    file_ids = s.portfolio_ids + ([cfg["victim"]["model_id"]] if local_victim else [])
    if len(set(file_ids)) != len(file_ids):
        raise ConfigError(f"model ids must be unique: {file_ids}")
    if any(mid in ("", ".", "..") or any(sep and sep in mid for sep in (os.sep, os.altsep))
           for mid in file_ids):
        raise ConfigError(f"model ids name files in models/: none may be empty, '.' or "
                          f"'..', or hold a path separator: {file_ids}")
    trained = [(f"config.portfolio[{i}]", entry) for i, entry in enumerate(cfg["portfolio"])]
    if local_victim:
        trained.append(("config.victim", cfg["victim"]))
    s.train_configs = {}  # model id -> its TrainConfig, in train_many's job order
    for where, entry in trained:
        s.train_configs[entry["model_id"]] = _built(
            where, TrainConfig, **{k: entry[k] for k in _TRAINING},
            rng_seed=derived_seed(s.master, f"train.{entry['model_id']}"))


def _dataset(s):
    ds = s.cfg["dataset"]
    centers = blob_centers(ds["classes"], ds["features"], derived_seed(s.master, "data.centers"))
    s.train_data = sample_blobs(centers, ds["train_size"], ds["noise"],
                                derived_seed(s.master, "data.train"))
    s.test_data = sample_blobs(centers, ds["test_size"], ds["noise"],
                               derived_seed(s.master, "data.test"))


def _train(s):
    models_dir = os.path.join(s.out_dir, "models")
    os.makedirs(models_dir, exist_ok=True)
    models = train_many(_train_jobs(s))
    s.proxies = models[:len(s.portfolio_ids)]
    for model in models:
        save_model(model, os.path.join(models_dir, f"{model.model_id}.mlp"))
        log.info("trained %s: accuracy %.3f", model.model_id,
                 model.metadata["train_accuracy"])
    s.victim = local_oracle(models[-1]) if s.endpoint is None else RemoteOracle(s.endpoint)


def _plan(s):
    # picked before any query: too few points the proxies all classify
    # correctly fail here, with nothing billed
    s.attack_points = select_attack_points(s.proxies, s.test_data, s.cfg["attack"]["points"])
    block = s.cfg["lime"]
    grid = SegmentGrid.uniform(s.cfg["dataset"]["features"], block["segments"])
    s.plan = make_plan(s.train_data, block["n"], grid, s.lime_cfg,
                       derived_seed(s.master, "plan"), models=s.proxies)
    save_plan(s.plan, os.path.join(s.out_dir, "shared.plan"))


def _signatures(s):
    # PGD needs only the proxies, so a lane worker crafts while this process signs
    s.crafted = s.lanes.run(_craft, s.proxies, s.attack_points, s.attack_cfg, s.master)
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
    s.batches = {f["surrogate_id"]: AdversarialBatch(**f) for f in s.crafted()}
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
    epsilon = s.attack_cfg.epsilon
    for metric in s.metrics:
        xs = [s.distances[metric.value][mid] for mid in s.portfolio_ids]
        ys = [s.results[mid].success_rate for mid in s.portfolio_ids]
        s.records.append(CorrelationRecord(
            victim_id=s.victim.oracle_id, metric=metric, n_references=s.plan.n,
            epsilon=epsilon, r=pearson(xs, ys), sample_count=len(xs)))
        plot_rows += [[metric.value, mid, x, y, epsilon]
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

    Stage "parse" resolves `config` (``util.resolve``) against `_SCHEMA`, the
    only owner of its keys, types and defaults, whose `lime` and `attack`
    blocks and training keys take theirs from LimeConfig, AttackConfig and
    TrainConfig; later stages read only the resolved values.
    Before anything is trained or billed, it raises ConfigError, naming the
    path (as in ``config.lime: unknown keys ['replacment']``), for an unknown
    or missing key, a block that is not an object, a value of the wrong type
    (a bool is not an int; an int must be integral), an unknown dataset or
    victim kind or replacement, a key the victim's kind does not take, and a
    remote victim's malformed URL; for an empty or repeated `metrics` list,
    a `portfolio` of fewer than two surrogates (stage "correlation" takes a
    Pearson r over them), and model ids that repeat, cannot name a file in
    models/ or hold a tab or line break (``zest.check_model_id``); for the
    value bounds of the LimeConfig and AttackConfig it builds from the
    `lime` and `attack` blocks (`p` < 1, a negative or NaN `ridge`, a
    `kernel_width` that is not > 0; a negative, NaN or infinite `epsilon`, a
    `step_size` that is not > 0 or exceeds a positive `epsilon`, `steps` or
    `restarts` < 1) and of each trained model's TrainConfig, each message
    prefixed with the block's path (``config.lime: ridge penalty must be
    >= 0``, ``config.portfolio[0]: epochs must be >= 1``); for an
    `attack.epsilon` of 0, which AttackConfig allows but under which PGD
    cannot move, so every transfer rate would be 0 and stage "correlation"
    would fail after the victim was billed; for each
    portfolio entry's `train_fraction` outside (0, 1] and `label_noise`
    outside [0, 1]; and for a dataset block with `classes` < 2, `features` or
    `train_size` < 1, or a negative or NaN `noise`, for `attack.points`
    < 1 or above `dataset.test_size`, for `lime.n` < 1 or above
    `dataset.train_size`, for `lime.segments` < 1 or above
    `dataset.features`, for `lime.p` below `lime.segments`, and for
    "segment_mean" replacement when `dataset.features` < 2 * `lime.segments`,
    as then ``SegmentGrid.uniform`` makes a one-feature segment, which its
    mean replaces by itself: its coefficients would be round-off. Stage
    "plan" picks the attack points (the first test rows every proxy
    classifies correctly) and the reference points (among the training rows
    every proxy classifies correctly), and raises ConfigError there, before
    any query is sent, when too few qualify.

    Where this process may use more than one CPU (``util.lane_count``), the
    stages "signatures" and "distances" overlap the attack's PGD: a
    ``util.ForkLanes`` worker crafts every proxy's batch on the attack points
    while this process signs, stores, ranks and writes, and hands the batches
    over at stage "attack". A lane that fails is redone in process there, so
    an error surfaces at the stage, and with the message, of a run on one
    CPU; a run that fails earlier kills the lane's worker before it writes
    its manifest. Training runs in lanes too (``nn.train_many``). A worker
    runs the code as it stood when it was forked, and outlives the run: the
    next run's lanes use it. No artifact depends on the CPU count.
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
