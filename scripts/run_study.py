"""Desk-scale retrieval study: MC-dropout inference vs the deterministic baseline.

Generates a synthetic multi-notion dataset per seed, trains one joint
conditional net (and optionally per-notion specialized nets) on two
thirds of it, then evaluates the held-out third: mAP as a function of
mc, the mc=50 gain over the baseline, per-notion dataset uncertainty,
and the joint-vs-specialized comparison. Writes one JSON report per
table plus a summary, and prints the medians.

    python scripts/run_study.py --out study_out
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mcretrieval.config import RunConfig
from mcretrieval.data import DatasetFile, preset_args, synth_generate
from mcretrieval.evaluation import evaluate, mc_sweep, write_report
from mcretrieval.training import train
from mcretrieval.uncertainty import dataset_uncertainty, embed_dataset, embed_prefixes


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--preset", default="hdd-like")
    ap.add_argument("--items", type=int, default=330)
    ap.add_argument("--seeds", default="0,1,2", help="comma list of study seeds")
    ap.add_argument("--epochs", type=int, default=160)
    ap.add_argument("--embed-dim", type=int, default=16)
    ap.add_argument("--mc-grid", default="1,5,10,25,50")
    ap.add_argument("--eval-seed", type=int, default=7)
    ap.add_argument("--holdout-every", type=int, default=3,
                    help="every n-th item goes to the test split")
    ap.add_argument("--skip-specialized", action="store_true",
                    help="only train the joint nets")
    return ap.parse_args(argv)


def split_holdout(ds, every):
    # train and test must share generation parameters, so split one file
    test = [it for i, it in enumerate(ds.items) if i % every == 0]
    tr = [it for i, it in enumerate(ds.items) if i % every != 0]
    return (DatasetFile(ds.modalities, ds.notions, ds.classes, tr),
            DatasetFile(ds.modalities, ds.notions, ds.classes, test))


def study_config(args, seed):
    return RunConfig(embed_dim=args.embed_dim, hidden_dim=args.embed_dim,
                     epochs=args.epochs, decay_start=args.epochs // 2,
                     dropout=0.1, lr=0.01, seed=seed, batch_size=128,
                     triplet_cap=200, frame_samples=3)


def run_seed(args, seed, mc_grid, out_dir):
    ds = synth_generate(items=args.items, seed=seed, **preset_args(args.preset))
    tr, te = split_holdout(ds, args.holdout_every)
    joint = train(tr, study_config(args, seed)).net
    items = [(it.id, it.payloads) for it in te.items]

    per_notion = {}
    for notion in ds.notions:
        labels = [it.labels[notion] for it in te.items]

        # one prefix run feeds the sweep and the uncertainty at max(mc_grid)
        mcs = [0, *mc_grid]
        ids, embedded = embed_prefixes(joint, items, notion, mcs, args.eval_seed)
        rows = mc_sweep(ids, mcs, embedded, labels)
        write_report(out_dir / f"sweep_{notion}.json", rows)
        _, variances = embedded[mcs.index(max(mc_grid))]
        entry = {
            "rows": rows,
            "uncertainty": dataset_uncertainty(variances, labels),
        }
        if not args.skip_specialized:
            spec = train(tr, study_config(args, seed), notions=[notion]).net
            ids, means, _ = embed_dataset(spec, items, notion, max(mc_grid),
                                          args.eval_seed)
            entry["specialized_macro"] = evaluate(ids, means, labels).macro_map
        per_notion[notion] = entry
    return per_notion


def macro_at(per_notion, notion, mc):
    return next(r["macro_map"] for r in per_notion[notion]["rows"] if r["mc"] == mc)


def main(argv=None):
    args = parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    mc_grid = [int(m) for m in args.mc_grid.split(",")]
    if min(mc_grid) < 1:  # row 0 is the baseline; every grid value is a count of passes
        raise SystemExit(f"--mc-grid values must be >= 1, got {args.mc_grid}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    by_seed = {}
    for seed in seeds:
        seed_dir = out / f"seed{seed}"
        seed_dir.mkdir(exist_ok=True)
        by_seed[seed] = run_seed(args, seed, mc_grid, seed_dir)
        print(f"seed {seed} done ({time.time() - t0:.1f}s)", flush=True)

    notions = list(next(iter(by_seed.values())).keys())
    top_mc = max(mc_grid)
    summary = {"seeds": seeds, "mc_grid": mc_grid, "elapsed_s": time.time() - t0,
               "notions": {}}
    print(f"\n{'notion':<12}{'baseline':>10}{'mc=' + str(top_mc):>10}"
          f"{'gain':>8}{'uncert':>12}{'spec-joint':>12}")
    for notion in notions:
        base = float(np.median([macro_at(by_seed[s], notion, 0) for s in seeds]))
        best = float(np.median([macro_at(by_seed[s], notion, top_mc) for s in seeds]))
        unc = float(np.median([by_seed[s][notion]["uncertainty"] for s in seeds]))
        row = {"baseline_macro": base, "mc_macro": best, "gain": best - base,
               "uncertainty": unc}
        if not args.skip_specialized:
            row["specialized_minus_joint"] = float(np.median(
                [by_seed[s][notion]["specialized_macro"]
                 - macro_at(by_seed[s], notion, top_mc) for s in seeds]))
        summary["notions"][notion] = row
        spec_col = (f"{row['specialized_minus_joint'] * 100:+10.2f}"
                    if "specialized_minus_joint" in row else f"{'-':>10}")
        print(f"{notion:<12}{base:>10.4f}{best:>10.4f}{(best - base) * 100:>+7.2f}p"
              f"{unc:>12.3e}  {spec_col}")

    with open(out / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"\nwrote {out / 'summary.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
