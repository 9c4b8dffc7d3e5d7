"""The four benchmark workloads: inputs, the timed operations, and their checks.

Each workload is a closed loop with one caller. setup() builds every
input from the seed (and is what setup_s times); ops() lists the
operations one round runs, in order; check() looks at one operation's
output, outside the timed part, and returns the problems it found.
Inputs come from the program's synthetic generator on the hdd-like
preset (the gallery's embedding file is drawn by the benchmark itself),
and the program only ever sees the generated files and objects.
"""

import contextlib
import hashlib
import io
import json
import logging
import math

import numpy as np

import oracle
from mcretrieval import cli, data, evaluation, model, training
from mcretrieval.config import RunConfig

PRESET = "hdd-like"
ITEMS = 330
HOLDOUT_EVERY = 3
NOTION = "stimulus"  # the noisy notion, where MC averaging matters
EVAL_SEED = 7
MC_LIST = (1, 5, 10, 25, 50)
# P and K that both notions of the preset fill on the training split:
# the smallest stimulus class keeps about 18 training items, and at
# least six goal classes keep four or more
PK = (6, 4)
BATCHHARD_EPOCHS = 12
CHECKPOINT_EPOCHS = 8
GALLERY_ITEMS = 1200
GALLERY_CLASSES = 30
GALLERY_DIM = 128
GALLERY_QUERIES = 50
GALLERY_K = 10


def split(seed):
    """Two-thirds training split and held-out third of one synthetic dataset."""
    ds = data.synth_generate(items=ITEMS, seed=seed, **data.preset_args(PRESET))
    test = [it for i, it in enumerate(ds.items) if i % HOLDOUT_EVERY == 0]
    train = [it for i, it in enumerate(ds.items) if i % HOLDOUT_EVERY != 0]
    return (data.DatasetFile(ds.modalities, ds.notions, ds.classes, train),
            data.DatasetFile(ds.modalities, ds.notions, ds.classes, test))


def run_cli(argv):
    """cli.main in-process; returns (exit code, captured stdout, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_problems(result):
    code, _, err = result
    return [] if code == 0 else [f"exit code {code}: {err.strip()}"]


def loss_problems(history, margin):
    """Every epoch's mean loss lies in [0, margin + 2] and the last is below the first."""
    losses = [h["mean_loss"] for h in history]
    problems = [f"epoch {i} mean loss {v} outside [0, {margin + 2}]"
                for i, v in enumerate(losses) if not 0.0 <= v <= margin + 2.0]
    if not losses[-1] < losses[0]:
        problems.append(f"last epoch loss {losses[-1]} not below first {losses[0]}")
    return problems


def close(got, want, tol=1e-12):
    return abs(got - want) <= tol


class SkipCounter(logging.Handler):
    """Counts the warnings training logs for semi-hard draws with no usable triplet."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir

    def setup(self):
        raise NotImplementedError

    def ops(self):
        """[(op name, zero-argument callable)] for one round."""
        raise NotImplementedError

    def work(self, outputs):
        """{op: work units it completed}, in the workload's unit (steps, item-passes, queries)."""
        raise NotImplementedError

    def check(self, op, output):
        """Problems found in one operation's output; empty when it is right."""
        raise NotImplementedError


class TrainSemiHard(Workload):
    """training.train on the acceptance study's configuration, no output directory."""

    name = "train-semihard"
    unit = "steps"

    def setup(self):
        self.train_set, _ = split(self.seed)
        self.cfg = RunConfig(embed_dim=16, hidden_dim=16, epochs=160, decay_start=80,
                             dropout=0.1, lr=0.01, seed=self.seed, batch_size=128,
                             triplet_cap=200, frame_samples=3)
        sessions = len(set(self.train_set.sessions()))
        self.draws = math.ceil(sessions / self.cfg.sessions_per_draw) * self.cfg.epochs
        self.skips = SkipCounter()
        logger = logging.getLogger("mcretrieval.training")
        logger.handlers = [self.skips]
        logger.propagate = False
        self.first_history = None
        training.train(self.train_set, self.cfg.replace(epochs=2, decay_start=1))

    def _train(self):
        self.skips.count = 0
        result = training.train(self.train_set, self.cfg)
        return result, self.skips.count

    def ops(self):
        return [("train", self._train)]

    def work(self, outputs):
        result, _ = outputs["train"]
        return {"train": sum(h["steps"] for h in result.history)}

    def check(self, op, output):
        result, skipped = output
        history = result.history
        problems = loss_problems(history, self.cfg.margin)
        steps = sum(h["steps"] for h in history)
        if steps + skipped != self.draws:
            problems.append(f"{steps} steps + {skipped} skipped draws != {self.draws} planned")
        if self.first_history is None:
            self.first_history = history
        elif history != self.first_history:
            problems.append("same seed gave a different training history")
        path = self.dir / "semihard-checkpoint.json"
        model.save_checkpoint(result.net, path)
        reloaded = model.load_checkpoint(path)
        for name, p in result.net.params.items():
            if not np.array_equal(reloaded.params[name].data, p.data):
                problems.append(f"checkpoint parameter {name} did not reload exactly")
        return problems


class TrainBatchHard(Workload):
    """`mcretrieval train` with RunConfig's default widths, batch-hard PK mining and --out."""

    name = "train-batchhard"
    unit = "steps"

    def setup(self):
        train_set, _ = split(self.seed)
        self.dataset = self.dir / "train.jsonl"
        data.write_dataset(self.dataset, train_set)
        self.n_items = len(train_set.items)
        p, k = PK
        cfg = {"miner": "batch-hard", "p_classes": p, "k_per_class": k,
               "epochs": BATCHHARD_EPOCHS, "decay_start": BATCHHARD_EPOCHS // 2}
        self.config = self.dir / "batchhard.json"
        self.config.write_text(json.dumps(cfg))
        self.out = self.dir / "run-batchhard"
        self.first_digest = None
        warm = self.dir / "warm.json"
        warm.write_text(json.dumps(dict(cfg, epochs=1, decay_start=0)))
        run_cli(["train", "--dataset", str(self.dataset), "--config", str(warm),
                 "--seed", str(self.seed), "--out", str(self.dir / "run-warm")])

    def ops(self):
        argv = ["train", "--dataset", str(self.dataset), "--config", str(self.config),
                "--seed", str(self.seed), "--out", str(self.out)]
        return [("train", lambda: run_cli(argv))]

    def steps_per_epoch(self):
        p, k = PK
        return max(1, self.n_items // (p * k))

    def work(self, outputs):
        return {"train": BATCHHARD_EPOCHS * self.steps_per_epoch()}

    def check(self, op, output):
        problems = cli_problems(output)
        if problems:
            return problems
        history = json.loads((self.out / "history.json").read_text())["epochs"]
        problems = loss_problems(history, RunConfig().margin)
        if len(history) != BATCHHARD_EPOCHS:
            problems.append(f"{len(history)} epochs in history, expected {BATCHHARD_EPOCHS}")
        bad = [h["epoch"] for h in history if h["steps"] != self.steps_per_epoch()]
        if bad:
            problems.append(f"epochs {bad} ran other than {self.steps_per_epoch()} PK steps")
        ckpt = self.out / "checkpoint.json"
        net = model.load_checkpoint(ckpt)
        if net.embed_dim != RunConfig().embed_dim:
            problems.append(f"checkpoint embed_dim {net.embed_dim}")
        digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("same seed wrote a different checkpoint")
        return problems


def read_embedding_file(path):
    """ids, means, variances of an embeddings file, parsed without the program's reader."""
    ids, means, variances = [], [], []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            ids.append(rec["id"])
            means.append(rec["mean"])
            variances.append(rec["variance"])
    return ids, np.array(means, dtype=np.float64), np.array(variances, dtype=np.float64)


class McInference(Workload):
    """embed, sweep, uncertainty and eval through cli.main on the held-out third."""

    name = "mc-inference"
    unit = "item-passes"

    def setup(self):
        train_set, test_set = split(self.seed)
        self.dataset = self.dir / "heldout.jsonl"
        data.write_dataset(self.dataset, test_set)
        self.labels = test_set.labels_for(NOTION)
        p, k = PK
        cfg = RunConfig(miner="batch-hard", p_classes=p, k_per_class=k, seed=self.seed,
                        epochs=CHECKPOINT_EPOCHS, decay_start=CHECKPOINT_EPOCHS // 2)
        self.checkpoint = self.dir / "checkpoint.json"
        model.save_checkpoint(training.train(train_set, cfg).net, self.checkpoint)
        self.files = {name: self.dir / f"{name}.json"
                      for name in ("embed", "sweep", "uncertainty", "eval", "embed0")}
        run_cli(self._argv("eval", "eval", "--mc", "0"))

    def _argv(self, command, out, *extra):
        return [command, "--dataset", str(self.dataset), "--checkpoint", str(self.checkpoint),
                "--notion", NOTION, "--seed", str(EVAL_SEED), "--out", str(self.files[out]),
                *extra]

    def ops(self):
        return [
            ("embed", lambda: run_cli(self._argv("embed", "embed", "--mc", "50"))),
            ("sweep", lambda: run_cli(self._argv("sweep", "sweep", "--mc-list",
                                                 ",".join(map(str, MC_LIST))))),
            ("uncertainty", lambda: run_cli(self._argv("uncertainty", "uncertainty",
                                                       "--mc", "50"))),
            ("eval", lambda: run_cli(self._argv("eval", "eval", "--mc", "0"))),
        ]

    def work(self, outputs):
        # item-passes the outputs are built from, whether or not a pass is
        # shared between requests; mc=0 is one deterministic pass
        n = len(self.labels)
        return {"embed": n * 50, "sweep": n * (1 + sum(MC_LIST)), "uncertainty": n * 50,
                "eval": n}

    def check(self, op, output):
        problems = cli_problems(output)
        if problems:
            return problems
        return getattr(self, f"_check_{op}")()

    def _check_embed(self):
        ids, means, variances = read_embedding_file(self.files["embed"])
        problems = []
        if len(ids) != len(self.labels):
            problems.append(f"{len(ids)} embeddings for {len(self.labels)} items")
        if not (np.all(np.isfinite(variances)) and np.all(variances >= 0)):
            problems.append("a variance is negative or not finite")
        self.mc50 = (ids, means, variances)
        return problems

    def _check_sweep(self):
        doc = json.loads(self.files["sweep"].read_text())
        rows = [dict(zip(doc["columns"], r)) for r in doc["rows"]]
        problems = []
        if [r["mc"] for r in rows] != [0, *MC_LIST]:
            return [f"sweep rows for mc {[r['mc'] for r in rows]}"]
        ids, means, variances = self.mc50
        want = oracle.leave_one_out(ids, means, self.labels)
        last = rows[-1]
        if not close(last["micro_map"], want["micro_map"]):
            problems.append(f"sweep mc=50 micro mAP {last['micro_map']} != oracle {want['micro_map']}")
        if not close(last["macro_map"], want["macro_map"]):
            problems.append(f"sweep mc=50 macro mAP {last['macro_map']} != oracle {want['macro_map']}")
        if not close(last["mean_variance"], float(np.mean(variances))):
            problems.append("sweep mc=50 mean variance differs from the embed file's")
        chance = oracle.chance_map(self.labels)
        if not last["micro_map"] > chance:
            problems.append(f"mc=50 micro mAP {last['micro_map']} does not beat chance {chance}")
        self.sweep_base = rows[0]
        return problems

    def _check_uncertainty(self):
        doc = json.loads(self.files["uncertainty"].read_text())
        _, _, variances = self.mc50
        want = float(np.mean(variances)) / len(set(self.labels))
        problems = []
        if not close(doc["dataset_uncertainty"], want, 1e-12 * max(1.0, abs(want))):
            problems.append(f"dataset_uncertainty {doc['dataset_uncertainty']} != {want}")
        if sum(r["size"] for r in doc["per_class"]) != len(self.labels):
            problems.append("per-class sizes do not add up to the item count")
        return problems

    def _check_eval(self):
        report = json.loads(self.files["eval"].read_text())
        code, _, err = run_cli(self._argv("embed", "embed0", "--mc", "0"))
        if code != 0:
            return [f"embed --mc 0 for the check failed: {err.strip()}"]
        ids, means, variances = read_embedding_file(self.files["embed0"])
        problems = []
        if not np.all(np.abs(np.linalg.norm(means, axis=1) - 1.0) <= 1e-12):
            problems.append("an mc=0 mean is not unit-norm")
        if np.any(variances != 0.0):
            problems.append("an mc=0 variance is not zero")
        want = oracle.leave_one_out(ids, means, self.labels)
        for key in ("micro_map", "macro_map", "top1", "top5"):
            if not close(report[key], want[key]):
                problems.append(f"eval {key} {report[key]} != oracle {want[key]}")
            if key in self.sweep_base and report[key] != self.sweep_base[key]:
                problems.append(f"sweep mc=0 {key} {self.sweep_base[key]} != eval {report[key]}")
        return problems


def gallery_embeddings(seed):
    """Class-clustered unit vectors: random prototypes plus Gaussian noise, renormalized."""
    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(GALLERY_CLASSES, GALLERY_DIM))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    labels = rng.integers(GALLERY_CLASSES, size=GALLERY_ITEMS)
    means = protos[labels] + 0.12 * rng.normal(size=(GALLERY_ITEMS, GALLERY_DIM))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    variances = rng.uniform(0.0, 0.01, size=(GALLERY_ITEMS, GALLERY_DIM))
    ids = [f"g{i:05d}" for i in range(GALLERY_ITEMS)]
    return ids, means, variances, [f"c{c}" for c in labels]


class Gallery(Workload):
    """`retrieve` for a fixed query set plus leave-one-out evaluate; no model runs."""

    name = "gallery"
    unit = "queries"

    def setup(self):
        self.ids, self.means, variances, self.labels = gallery_embeddings(self.seed)
        self.path = self.dir / "gallery.json"
        with open(self.path, "w") as f:
            for i, item_id in enumerate(self.ids):
                f.write(json.dumps({"id": item_id, "notion": "gallery", "mc": 50,
                                    "mean": self.means[i].tolist(),
                                    "variance": variances[i].tolist()}) + "\n")
        step = GALLERY_ITEMS // GALLERY_QUERIES
        self.queries = self.ids[::step][:GALLERY_QUERIES]
        self.expected = None
        evaluation.evaluate(self.ids[:50], self.means[:50], self.labels[:50])

    def ops(self):
        argv = ["retrieve", "--embeddings", str(self.path),
                "--query-ids", ",".join(self.queries), "--k", str(GALLERY_K)]
        return [
            ("retrieve", lambda: run_cli(argv)),
            ("evaluate", lambda: evaluation.evaluate(self.ids, self.means, self.labels)),
        ]

    def work(self, outputs):
        return {"retrieve": GALLERY_QUERIES, "evaluate": outputs["evaluate"].queries}

    def _expected(self):
        if self.expected is None:
            self.expected = (oracle.leave_one_out(self.ids, self.means, self.labels),
                             oracle.top_k(self.ids, self.means, self.queries, GALLERY_K))
        return self.expected

    def check(self, op, output):
        loo, top = self._expected()
        if op == "retrieve":
            problems = cli_problems(output)
            if problems:
                return problems
            got = {}
            for line in output[1].splitlines():
                q, rank, item_id, dist = line.split("\t")
                got.setdefault(q, []).append((int(rank), item_id, float(dist)))
            for q in self.queries:
                rows = got.get(q, [])
                if [r[1] for r in rows] != [i for i, _ in top[q]] or \
                        [r[0] for r in rows] != list(range(1, GALLERY_K + 1)):
                    problems.append(f"retrieve top-{GALLERY_K} for {q} differs from the oracle")
                elif any(abs(r[2] - d) > 1e-6 for r, (_, d) in zip(rows, top[q])):
                    problems.append(f"retrieve distances for {q} differ from the oracle")
            return problems
        report = output
        problems = []
        got = {r["id"]: r["ap"] for r in report.per_query}
        if set(got) != set(loo["ap"]):
            problems.append("evaluate queried a different item set than the oracle")
        else:
            wrong = [q for q, ap in loo["ap"].items() if not close(got[q], ap)]
            if wrong:
                problems.append(f"AP differs from the oracle for {len(wrong)} queries")
        for key in ("micro_map", "macro_map", "top1", "top5"):
            if not close(getattr(report, key), loo[key]):
                problems.append(f"evaluate {key} {getattr(report, key)} != oracle {loo[key]}")
        if report.skipped_singletons != loo["skipped_singletons"]:
            problems.append("evaluate skipped a different number of singletons")
        return problems


WORKLOADS = {w.name: w for w in (TrainSemiHard, TrainBatchHard, McInference, Gallery)}
