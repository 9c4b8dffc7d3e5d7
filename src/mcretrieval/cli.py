"""Command-line surface: synth | train | embed | retrieve | eval | sweep | uncertainty | ablate.

Every command exits 0 on success; failures print one machine-parsable
line to stderr with an error-class prefix and exit 2 (validation),
3 (parse), or 4 (runtime).
"""

import argparse
import json
import sys

import numpy as np

from .autodiff import DISABLED, STOCHASTIC
from .config import RunConfig, load_config
from .data import PRESETS, preset_args, read_dataset, synth_generate, write_dataset
from .errors import McRetrievalError, ParseError, ValidationError
from .evaluation import evaluate, mc_sweep, modality_ablation, ranked_galleries, write_report
from .model import load_checkpoint
from .training import train
from .uncertainty import (
    dataset_uncertainty,
    embed_dataset,
    per_class_uncertainty,
    read_embeddings,
    write_embeddings,
)


def _split_csv(text):
    return [t for t in (s.strip() for s in text.split(",")) if t] if text else None


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValidationError(f"--{name.replace('_', '-')} is required")


def _embed(net, dataset, notion, mc, seed, modalities=None):
    """mc=0 means the deterministic no-dropout baseline."""
    if mc == 0:
        return embed_dataset(net, dataset.items, notion, mc=1, seed=seed,
                             mode=DISABLED, modalities=modalities)
    return embed_dataset(net, dataset.items, notion, mc=mc, seed=seed,
                         mode=STOCHASTIC, modalities=modalities)


def cmd_synth(args):
    spec = preset_args(args.preset)
    if args.sessions is not None:
        spec["sessions"] = args.sessions
    if args.tail is not None:
        spec["tail"] = args.tail
    ds = synth_generate(items=args.items, seed=args.seed, **spec)
    write_dataset(args.out, ds)
    print(f"wrote {len(ds.items)} items ({args.preset}) to {args.out}")
    return 0


def cmd_train(args):
    cfg = load_config(args.config, overrides={"seed": args.seed}) if args.config \
        else RunConfig(**({"seed": args.seed} if args.seed is not None else {}))
    dataset = read_dataset(args.dataset)
    result = train(dataset, cfg, out_dir=args.out)
    last = result.history[-1]
    print(f"trained {cfg.epochs} epochs (miner={cfg.miner}, loss={cfg.loss}); "
          f"final mean loss {last['mean_loss']:.6f}; checkpoint in {args.out}")
    return 0


def cmd_embed(args):
    dataset = read_dataset(args.dataset)
    net = load_checkpoint(args.checkpoint)
    ids, means, variances = _embed(net, dataset, args.notion, args.mc, args.seed,
                                   _split_csv(args.modalities))
    write_embeddings(args.out, ids, means, variances, args.notion, args.mc)
    print(f"embedded {len(ids)} items (notion={args.notion}, mc={args.mc}) to {args.out}")
    return 0


def cmd_retrieve(args):
    from .mining import pairwise_distances

    emb = read_embeddings(args.embeddings)
    index = {item_id: i for i, item_id in enumerate(emb.ids)}
    queries = _split_csv(args.query_ids) or []
    if not queries:
        raise ValidationError("--query-ids must name at least one item")
    missing = [q for q in queries if q not in index]
    if missing:
        raise ValidationError(f"unknown query ids: {', '.join(missing)}")
    if args.k < 1:
        raise ValidationError("--k must be >= 1")
    rows = [index[q] for q in queries]
    dist = pairwise_distances(emb.means, rows)
    for q, row, order in zip(queries, dist, ranked_galleries(dist, emb.ids, rows)):
        for rank, i in enumerate(order[: args.k], start=1):
            print(f"{q}\t{rank}\t{emb.ids[i]}\t{row[i]:.6f}")
    return 0


def cmd_eval(args):
    dataset = read_dataset(args.dataset)
    net = load_checkpoint(args.checkpoint)
    modalities = _split_csv(args.modalities)
    ids, means, _ = _embed(net, dataset, args.notion, args.mc, args.seed, modalities)
    report = evaluate(ids, means, dataset.labels_for(args.notion), config={
        "notion": args.notion, "mc": args.mc, "seed": args.seed,
        "modalities": modalities or "all",
        "dataset": args.dataset, "checkpoint": args.checkpoint,
    })
    if args.out:
        write_report(args.out, report)
    print(f"micro_map={report.micro_map:.4f} macro_map={report.macro_map:.4f} "
          f"top1={report.top1:.4f} top5={report.top5:.4f} queries={report.queries}")
    return 0


def cmd_sweep(args):
    dataset = read_dataset(args.dataset)
    net = load_checkpoint(args.checkpoint)
    mc_values = [int(v) for v in _split_csv(args.mc_list) or []]
    if not mc_values:
        raise ValidationError("--mc-list must name at least one mc value")

    def embed_fn(mc, seed, stochastic):
        return _embed(net, dataset, args.notion, mc if stochastic else 0, seed)

    rows = mc_sweep(embed_fn, mc_values, dataset.labels_for(args.notion),
                    base_seed=args.seed)
    if args.out:
        write_report(args.out, rows)
    for r in rows:
        print(f"mc={r['mc']:<4d} micro_map={r['micro_map']:.4f} "
              f"macro_map={r['macro_map']:.4f} mean_variance={r['mean_variance']:.6f}")
    return 0


def cmd_uncertainty(args):
    dataset = read_dataset(args.dataset)
    net = load_checkpoint(args.checkpoint)
    if args.mc < 2:
        raise ValidationError("uncertainty needs --mc >= 2 stochastic passes")
    ids, _, variances = _embed(net, dataset, args.notion, args.mc, args.seed)
    labels = dataset.labels_for(args.notion)
    rows = per_class_uncertainty(variances, labels)
    overall = dataset_uncertainty(variances, labels)
    doc = {
        "dataset_uncertainty": overall,
        "per_class": rows,
        "config": {"notion": args.notion, "mc": args.mc, "seed": args.seed,
                   "dataset": args.dataset, "checkpoint": args.checkpoint},
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, sort_keys=True, separators=(",", ":"))
            f.write("\n")
    print(f"dataset_uncertainty={overall:.6g} over {len(rows)} classes")
    for r in rows:
        print(f"class={r['class']:<12s} size={r['size']:<4d} "
              f"uncertainty={r['uncertainty']:.6g} size_normalized={r['size_normalized']:.6g}")
    return 0


def cmd_ablate(args):
    dataset = read_dataset(args.dataset)
    net = load_checkpoint(args.checkpoint)
    subsets = []
    for raw in args.subsets:
        subsets.append(None if raw == "all" else _split_csv(raw))
    if not subsets:
        raise ValidationError("--subsets must name at least one modality set")

    def embed_fn(subset):
        return _embed(net, dataset, args.notion, args.mc, args.seed, subset)

    rows = modality_ablation(embed_fn, subsets, dataset.labels_for(args.notion))
    if args.out:
        write_report(args.out, rows)
    for r in rows:
        print(f"modalities={r['modalities']:<20s} micro_map={r['micro_map']:.4f} "
              f"macro_map={r['macro_map']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcretrieval",
        description="Conditional multi-modal retrieval with MC-dropout uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=True, checkpoint=True, notion=True, mc=True, out=True):
        if dataset:
            p.add_argument("--dataset", required=True, help="dataset file (JSONL)")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="trained checkpoint")
        if notion:
            p.add_argument("--notion", required=True, help="notion to retrieve by")
        if mc:
            p.add_argument("--mc", type=int, default=50,
                           help="MC passes; 0 = deterministic baseline (default 50)")
        p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", help="output path")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--items", type=int, default=240)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sessions", type=int)
    p.add_argument("--tail", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="flat JSON config; defaults used if absent")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="run directory for checkpoints")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="write MC embeddings for every item")
    common(p)
    p.add_argument("--modalities", help="comma list; default all")
    p.set_defaults(func=cmd_embed)
    p.set_defaults(out_required=True)

    p = sub.add_parser("retrieve", help="print the top-k gallery for query items")
    p.add_argument("--embeddings", required=True, help="file written by embed")
    p.add_argument("--query-ids", required=True, help="comma list of item ids")
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("eval", help="leave-one-out retrieval metrics")
    common(p)
    p.add_argument("--modalities", help="comma list; default all")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="mAP as a function of MC passes")
    common(p, mc=False)
    p.add_argument("--mc-list", required=True, help="comma list, e.g. 1,5,10,50")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("uncertainty", help="per-class and dataset uncertainty")
    common(p)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("ablate", help="evaluate modality subsets")
    common(p)
    p.add_argument("--subsets", nargs="+", required=True,
                   help="space-separated comma lists, or 'all'")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out_required", False):
            _require(args, "out")
        with np.errstate(all="ignore"):  # a non-finite result ends in one error line, not warnings
            return args.func(args)
    except ParseError as e:
        print(f"error[parse]: {e}", file=sys.stderr)
        return 3
    except ValidationError as e:
        print(f"error[validation]: {e}", file=sys.stderr)
        return 2
    except McRetrievalError as e:
        print(f"error[runtime]: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error[validation]: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
