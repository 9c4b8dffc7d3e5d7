"""Command-line surface: synth | train | embed | retrieve | eval | sweep | uncertainty | ablate.

Every command exits 0 on success; failures print one machine-parsable
line to stderr with an error-class prefix and exit 2 (validation),
3 (parse), or 4 (runtime).
"""

import argparse
import json
import sys

import numpy as np

from .config import RunConfig, load_config, write_lines
from .data import PRESETS, preset_args, read_dataset, synth_generate, write_dataset
from .errors import McRetrievalError, ParseError, ValidationError
from .evaluation import evaluate, gathered_distances, mc_sweep, modality_ablation, ranked_galleries, write_report
from .model import load_checkpoint
from .training import train
from .uncertainty import (
    dataset_uncertainty,
    embed_dataset,
    embed_prefixes,
    per_class_uncertainty,
    read_embeddings,
    write_embeddings,
)


def _split_csv(text, flag, what):
    """A comma-list flag's entries, or None if the flag is absent; a list of no entries is an error naming the flag."""
    if text is None:
        return None
    entries = [t for t in (s.strip() for s in text.split(",")) if t]
    if not entries:
        raise ValidationError(f"{flag} must name at least one {what}, got {text!r}")
    return entries


def cmd_synth(args):
    spec = preset_args(args.preset)
    if args.sessions is not None:
        if args.sessions < 0:
            raise ValidationError(f"--sessions must be >= 0, got {args.sessions}")
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
    loss = result.history[-1]["mean_loss"]
    print(f"trained {cfg.epochs} epochs (miner={cfg.miner}, loss={cfg.loss}); "
          f"final mean loss {'none' if loss is None else f'{loss:.6f}'}; checkpoint in {args.out}")
    return 0


def cmd_embed(args):
    modalities = _split_csv(args.modalities, "--modalities", "modality")
    dataset = read_dataset(args.dataset)
    if not dataset.items:  # an empty embeddings file is not one retrieve can read
        raise ValidationError(f"{args.dataset} has no items to embed")
    net = load_checkpoint(args.checkpoint)
    ids, means, variances = embed_dataset(net, dataset.items, args.notion, args.mc, args.seed, modalities)
    write_embeddings(args.out, ids, means, variances, args.notion, args.mc)
    print(f"embedded {len(ids)} items (notion={args.notion}, mc={args.mc}) to {args.out}")
    return 0


def cmd_retrieve(args):
    queries = _split_csv(args.query_ids, "--query-ids", "item")
    if args.k < 1:
        raise ValidationError("--k must be >= 1")
    emb = read_embeddings(args.embeddings)
    # q names each id whose text it is, the key ranked_galleries breaks ties on (ids 3 and "3"
    # share one), and, if it is a JSON number, the id of that value however spelt (1e20, 1.50)
    by_text, by_id = {}, {item_id: i for i, item_id in enumerate(emb.ids)}
    for i, item_id in enumerate(emb.ids):
        by_text.setdefault(str(item_id), set()).add(i)
    named = {}
    for q in queries:
        try:
            value = json.loads(q)
        except ValueError:
            value = None
        number = {by_id[value]} if type(value) in (int, float) and value in by_id else set()
        named[q] = sorted(by_text.get(q, set()) | number)
    missing = [q for q in queries if not named[q]]
    if missing:
        raise ValidationError(f"unknown query ids: {', '.join(missing)}")
    shared = [q for q in queries if len(named[q]) > 1]
    if shared:
        raise ValidationError(f"query ids that name more than one item: {', '.join(shared)}")
    rows = [named[q][0] for q in queries]
    for q, row, order in zip(queries, rows, ranked_galleries(emb.means, emb.ids, rows)):
        top = order[: args.k]
        for rank, (i, dist) in enumerate(zip(top, gathered_distances(emb.means, row, top)), start=1):
            print(f"{q}\t{rank}\t{emb.ids[i]}\t{dist:.6f}")
    return 0


def cmd_eval(args):
    modalities = _split_csv(args.modalities, "--modalities", "modality")
    dataset = read_dataset(args.dataset)
    net = load_checkpoint(args.checkpoint)
    ids, means, _ = embed_dataset(net, dataset.items, args.notion, args.mc, args.seed, modalities)
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
    try:
        mc_values = [int(v) for v in _split_csv(args.mc_list, "--mc-list", "mc value")]
    except ValueError:
        raise ValidationError(f"--mc-list must be a comma list of integers, got {args.mc_list!r}") from None
    if min(mc_values) < 1:
        raise ValidationError(f"--mc-list values must be >= 1, got {args.mc_list!r}")
    dataset = read_dataset(args.dataset)
    net = load_checkpoint(args.checkpoint)
    mcs = [0, *mc_values]
    ids, embedded = embed_prefixes(net, dataset.items, args.notion, mcs, args.seed)
    rows = mc_sweep(ids, mcs, embedded, dataset.labels_for(args.notion))
    if args.out:
        write_report(args.out, rows)
    for r in rows:
        print(f"mc={r['mc']:<4d} micro_map={r['micro_map']:.4f} "
              f"macro_map={r['macro_map']:.4f} mean_variance={r['mean_variance']:.6f}")
    return 0


def cmd_uncertainty(args):
    if args.mc < 2:
        raise ValidationError("uncertainty needs --mc >= 2 stochastic passes")
    dataset = read_dataset(args.dataset)
    net = load_checkpoint(args.checkpoint)
    ids, _, variances = embed_dataset(net, dataset.items, args.notion, args.mc, args.seed)
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
        write_lines(args.out, [doc])
    print(f"dataset_uncertainty={overall:.6g} over {len(rows)} classes")
    for r in rows:
        print(f"class={str(r['class']):<12s} size={r['size']:<4d} "
              f"uncertainty={r['uncertainty']:.6g} size_normalized={r['size_normalized']:.6g}")
    return 0


def cmd_ablate(args):
    subsets = [None if raw == "all" else _split_csv(raw, "--subsets entry", "modality or be 'all'")
               for raw in args.subsets]
    dataset = read_dataset(args.dataset)
    net = load_checkpoint(args.checkpoint)
    runs = [(subset, *embed_dataset(net, dataset.items, args.notion, args.mc, args.seed, subset)[:2])
            for subset in subsets]
    rows = modality_ablation(runs, dataset.labels_for(args.notion))
    if args.out:
        write_report(args.out, rows)
    for r in rows:
        print(f"modalities={r['modalities']:<20s} micro_map={r['micro_map']:.4f} "
              f"macro_map={r['macro_map']:.4f}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Subcommand parsers share this class, so a bad or missing flag is one validation line too."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mcretrieval",
        description="Conditional multi-modal retrieval with MC-dropout uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mc=True, out_required=False):
        p.add_argument("--dataset", required=True, help="dataset file (JSONL)")
        p.add_argument("--checkpoint", required=True, help="trained checkpoint")
        p.add_argument("--notion", required=True, help="notion to retrieve by")
        if mc:
            p.add_argument("--mc", type=int, default=50,
                           help="MC passes; 0 = deterministic baseline (default 50)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=out_required, help="output path")

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
    common(p, out_required=True)
    p.add_argument("--modalities", help="comma list; default all")
    p.set_defaults(func=cmd_embed)

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
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "mc", 0) < 0:
            raise ValidationError(f"--mc must be >= 0, got {args.mc}")
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
