"""Operator command line: train surrogates, build shared perturbation plans,
sign oracles, compare signatures, pick surrogates, craft and transfer
adversarial batches, run full campaigns, serve a model, and replay the
published reference tables.

Exit codes: 0 success, 1 operation error, 2 usage error.
"""

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .attack import AttackConfig, batch_summary_csv, load_batch, pgd, save_batch, transfer_eval
from .errors import ZestError
from .experiment import bundled_campaign_config, load_campaign_config, run_campaign
from .fixtures import compare_rank_stability, load_reference_fixture, replay_reference
from .lime import (REPLACEMENT_POLICIES, LimeConfig, SegmentGrid, compute_signature,
                   load_plan, load_signature, make_plan, save_plan, save_signature)
from .nn import (TrainConfig, blob_centers, load_dataset, load_model, sample_blobs,
                 save_dataset, save_model, train)
from .oracle import RemoteEndpoint, local_oracle, remote_oracle, serve
from .util import atomic_write_text, csv_text, derived_seed
from .zest import DistanceMetric, SignatureStore, select_surrogate, zest_distance


@dataclass
class CommandOutcome:
    exit_code: int
    summary: str


def _is_url(s: str) -> bool:
    return s.startswith("http://") or s.startswith("https://")


def _oracle_from(locator: str):
    if _is_url(locator):
        return remote_oracle(RemoteEndpoint(locator))
    return local_oracle(load_model(locator))


def _ledger_line(snap: dict) -> str:
    """One-line victim bill from a ledger snapshot."""
    parts = ", ".join(f"{k}={snap[k]}"
                      for k in ("signature", "signature_baseline", "attack_eval", "other"))
    return f"victim queries: total={snap['total']} ({parts})"


# --- subcommand handlers ---------------------------------------------------

def _cmd_train(args) -> CommandOutcome:
    centers = blob_centers(args.classes, args.features,
                           derived_seed(args.data_seed, "data.centers"))
    data = sample_blobs(centers, args.train_size, args.noise,
                        derived_seed(args.data_seed, "data.train"))
    cfg = TrainConfig(hidden=tuple(int(h) for h in args.hidden.split(",") if h),
                      epochs=args.epochs, batch_size=args.batch_size,
                      learning_rate=args.learning_rate, rng_seed=args.seed)
    model = train(data, cfg, model_id=args.model_id)
    save_model(model, args.out)
    lines = [f"trained {args.model_id}: accuracy "
             f"{model.metadata['train_accuracy']:.4f} -> {args.out}"]
    if args.save_data:
        save_dataset(data, args.save_data)
        lines.append(f"dataset -> {args.save_data}")
    return CommandOutcome(0, "\n".join(lines))


def _cmd_plan(args) -> CommandOutcome:
    data = load_dataset(args.data)
    grid = SegmentGrid.uniform(data.points.shape[1], args.segments)
    cfg = LimeConfig(perturbations=args.p, kernel_width=args.kernel_width,
                     ridge=args.ridge, replacement=args.replacement)
    models = [load_model(p) for p in args.screen] if args.screen else None
    plan = make_plan(data, args.n, grid, cfg, args.seed, models=models)
    save_plan(plan, args.out)
    return CommandOutcome(
        0, f"plan N={plan.n} P={plan.p} S={plan.s} "
           f"fingerprint={plan.fingerprint()[:12]} -> {args.out}")


def _cmd_sign(args) -> CommandOutcome:
    plan = load_plan(args.plan)
    oracle = _oracle_from(args.oracle)
    sig = compute_signature(oracle, plan)
    save_signature(sig, args.out)
    lines = [f"{plan.n * plan.p} perturbation queries",
             _ledger_line(oracle.ledger.snapshot()),
             f"signature {sig.model_id} -> {args.out}"]
    if args.store:
        SignatureStore(args.store).put_signature(sig)
        lines.append(f"stored in {args.store}")
    return CommandOutcome(0, "\n".join(lines))


def _cmd_dist(args) -> CommandOutcome:
    a = load_signature(args.sig_a)
    b = load_signature(args.sig_b)
    d = zest_distance(a, b, args.metric, include_intercepts=args.include_intercepts)
    return CommandOutcome(0, f"{d:.4f}")


def _cmd_select(args) -> CommandOutcome:
    store = SignatureStore(args.store)
    victim = load_signature(args.victim_sig)
    proxy_id, report = select_surrogate(store, victim, args.metric)
    best = report.entries[0][1]
    lines = [f"selected {proxy_id} (distance {best:.4f}, metric {report.metric.value})"]
    if report.tie_flagged:
        lines.append("tie: multiple candidates at the minimum distance; "
                     "lexicographically smallest id chosen")
    if args.out:
        atomic_write_text(args.out, report.to_csv())
        lines.append(f"report -> {args.out}")
    return CommandOutcome(0, "\n".join(lines))


def _cmd_attack(args) -> CommandOutcome:
    model = load_model(args.model)
    data = load_dataset(args.data)
    if args.points is not None:
        data = data.subset(np.arange(min(args.points, len(data))))
    cfg = AttackConfig(epsilon=args.epsilon, step_size=args.step_size,
                       steps=args.steps, restarts=args.restarts,
                       rng_seed=args.seed, quantize_8bit=args.quantize)
    batch = pgd(model, data, cfg)
    save_batch(batch, args.out)
    lines = [f"local success {batch.local_success_rate:.4f} "
             f"on {len(data)} points (epsilon {cfg.epsilon}) -> {args.out}"]
    if args.csv:
        atomic_write_text(args.csv, batch_summary_csv(batch))
        lines.append(f"summary -> {args.csv}")
    return CommandOutcome(0, "\n".join(lines))


def _cmd_transfer(args) -> CommandOutcome:
    batch = load_batch(args.batch)
    victim = _oracle_from(args.victim)
    res = transfer_eval(victim, batch)
    lines = [f"transfer {res.success_count}/{res.valid_points} "
             f"(rate {res.success_rate:.4f}, raw {res.raw_success_rate:.4f}, "
             f"already misclassified {res.already_misclassified})",
             _ledger_line(victim.ledger.snapshot())]
    if args.out:
        atomic_write_text(args.out, csv_text(
            ["victim_id", "surrogate_id", "total_points", "valid_points", "success_count",
             "success_rate", "raw_success_rate", "already_misclassified", "queries_used"],
            [[res.victim_id, res.surrogate_id, res.total_points, res.valid_points,
              res.success_count, repr(res.success_rate), repr(res.raw_success_rate),
              res.already_misclassified, res.queries_used]]))
        lines.append(f"report -> {args.out}")
    return CommandOutcome(0, "\n".join(lines))


def _cmd_campaign(args) -> CommandOutcome:
    if args.config == "bundled":
        config = bundled_campaign_config()
    else:
        config = load_campaign_config(args.config)
    result = run_campaign(config, args.out)
    lines = [f"campaign config {result.config_hash[:12]} -> {result.out_dir}"]
    for metric, proxy in sorted(result.selected.items()):
        lines.append(f"selected[{metric}] = {proxy}")
    for rec in result.correlations:
        lines.append(f"pearson[{rec.metric.value}] = {rec.r:+.4f} "
                     f"over {rec.sample_count} surrogates")
    lines.append(_ledger_line(result.victim_ledger))
    return CommandOutcome(0, "\n".join(lines))


def _cmd_serve(args) -> CommandOutcome:
    model = load_model(args.model)
    print(f"serving {model.model_id} on http://{args.host}:{args.port}", flush=True)
    try:
        serve(model, args.port, host=args.host)
    except KeyboardInterrupt:
        pass
    return CommandOutcome(0, "server stopped")


def _cmd_replay(args) -> CommandOutcome:
    fixture = load_reference_fixture()
    report = replay_reference(fixture, args.metric, args.n)
    ties = sum(r.tie_flagged for r in report.rows)
    lines = [f"{report.matches}/{report.total} closest-pair matches "
             f"(metric {report.metric.value}, n={report.n}, ties flagged: {ties})",
             f"family matches: {report.family_matches}/{report.total}"]
    if args.stability:
        stab = compare_rank_stability(fixture, args.metric)
        lines.append(
            f"rank agreement vs n=128: n=64 mean {stab.mean_full_vs_half:.4f}, "
            f"n=32 mean {stab.mean_full_vs_quarter:.4f} "
            f"(n=64 at least as consistent for majority: "
            f"{stab.majority_half_at_least_quarter})")
    if args.out:
        atomic_write_text(args.out, report.to_csv())
        lines.append(f"report -> {args.out}")
    code = 0 if report.passed else 1
    return CommandOutcome(code, "\n".join(lines))


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zestkit",
        description="Signature-based model comparison and transfer-attack toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a small MLP on synthetic blobs")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--features", type=int, default=16)
    p.add_argument("--train-size", type=int, default=600)
    p.add_argument("--noise", type=float, default=0.08)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--seed", type=int, default=0, help="training seed")
    p.add_argument("--hidden", default="24", help="comma-separated layer widths")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--model-id", default="model")
    p.add_argument("--save-data", default=None, help="also write the dataset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("plan", help="build a shared perturbation plan")
    p.add_argument("--data", required=True)
    p.add_argument("--n", type=int, required=True, help="reference points")
    p.add_argument("--p", type=int, default=1000, help="perturbations per point")
    p.add_argument("--segments", type=int, default=16)
    p.add_argument("--kernel-width", type=float, default=None)
    p.add_argument("--ridge", type=float, default=1.0)
    p.add_argument("--replacement", choices=REPLACEMENT_POLICIES,
                   default="segment_mean")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--screen", nargs="*", default=None,
                   help="model files that must classify reference points correctly")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("sign", help="compute a signature through query access")
    p.add_argument("--oracle", required=True, help="model file or http(s) URL")
    p.add_argument("--plan", required=True)
    p.add_argument("--store", default=None,
                   help="also add the signature to this store directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sign)

    p = sub.add_parser("dist", help="distance between two signatures")
    p.add_argument("sig_a")
    p.add_argument("sig_b")
    p.add_argument("--metric", default="cosine", choices=[m.value for m in DistanceMetric])
    p.add_argument("--include-intercepts", action="store_true")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("select", help="closest stored surrogate to a victim signature")
    p.add_argument("--store", required=True)
    p.add_argument("--victim-sig", required=True)
    p.add_argument("--metric", default="cosine", choices=[m.value for m in DistanceMetric])
    p.add_argument("--out", default=None, help="write the ranked report CSV")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("attack", help="craft PGD adversarial examples on a local model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--points", type=int, default=None, help="use only the first K points")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--step-size", type=float, default=0.02)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quantize", action="store_true", help="round features to k/255")
    p.add_argument("--csv", default=None, help="write the per-point summary CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("transfer", help="evaluate an adversarial batch on a victim")
    p.add_argument("--victim", required=True, help="model file or http(s) URL")
    p.add_argument("--batch", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("campaign", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True,
                   help="campaign JSON, or 'bundled' for the packaged config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("serve", help="serve a model file over HTTP")
    p.add_argument("--model", required=True)
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("replay", help="replay published closest-pair selection")
    p.add_argument("--metric", default="linf", choices=("linf", "cosine"))
    p.add_argument("--n", type=int, default=128, choices=(128, 64, 32))
    p.add_argument("--stability", action="store_true",
                   help="also report rank agreement across n")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        outcome = args.func(args)
    except ZestError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if outcome.summary:
        print(outcome.summary)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
