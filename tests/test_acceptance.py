"""Release gate: one test per shipping criterion.

The desk-scale study (three seeds, joint and specialized nets, mc sweeps)
is shared through a session fixture; everything else builds its own
small fixtures so each criterion reads standalone.
"""

import json
import time

import numpy as np
import pytest

from mcretrieval import autodiff
from mcretrieval.autodiff import (
    Parameter,
    Tensor,
    dense_forward,
    l2_normalize,
    mul,
    relu,
    rnn_steps,
    tanh,
    tsum,
)
from mcretrieval.cli import main
from mcretrieval.config import RunConfig
from mcretrieval.data import DatasetFile, preset_args, synth_generate
from mcretrieval.evaluation import evaluate, mc_sweep
from mcretrieval.gradcheck import grad_check
from mcretrieval.losses import ktuplet_batch_term, ktuplet_upper_bound, triplet_batch_term
from mcretrieval.mining import (
    batch_hard_triplets,
    pairwise_distances,
    semi_hard_draw,
    semi_hard_negative,
)
from mcretrieval.model import ConditionalNet, ModalitySpec
from mcretrieval.rng import RngStream
from mcretrieval.training import build_net, train
from mcretrieval.uncertainty import dataset_uncertainty, embed_dataset, embed_prefixes, mc_embed

MC_GRID = [1, 5, 10, 25, 50]
EVAL_SEED = 7
STUDY_SEEDS = (0, 1, 2)

_PRESET = preset_args("hdd-like")
_NOISE_BY_NOTION = {
    n: sum(levels.get(n, 0.0) for levels in _PRESET["noise"].values())
    for n in _PRESET["notions"]
}
HIGH_NOISE = max(_NOISE_BY_NOTION, key=_NOISE_BY_NOTION.get)
LOW_NOISE = min(_NOISE_BY_NOTION, key=_NOISE_BY_NOTION.get)


def _split(ds, every=3):
    """Held-out split that keeps train and test on the same class prototypes."""
    test = [it for i, it in enumerate(ds.items) if i % every == 0]
    tr = [it for i, it in enumerate(ds.items) if i % every != 0]
    return (DatasetFile(ds.modalities, ds.notions, ds.classes, tr),
            DatasetFile(ds.modalities, ds.notions, ds.classes, test))


def _study_cfg(seed):
    return RunConfig(embed_dim=16, hidden_dim=16, epochs=160, decay_start=80,
                     dropout=0.1, lr=0.01, seed=seed, batch_size=128,
                     triplet_cap=200, frame_samples=3)


@pytest.fixture(scope="session")
def study():
    """Three-seed study on the hdd-like preset: joint nets, specialized nets,
    mc sweeps, and dataset uncertainties on a held-out split."""
    t0 = time.time()
    seeds = {}
    for seed in STUDY_SEEDS:
        ds = synth_generate(items=330, seed=seed, **preset_args("hdd-like"))
        tr, te = _split(ds)
        joint = train(tr, _study_cfg(seed)).net
        items = [(it.id, it.payloads) for it in te.items]
        notions = {}
        for notion in ds.notions:
            labels = [it.labels[notion] for it in te.items]
            # one prefix run feeds the sweep and the uncertainty at mc = 50
            mcs = [0, *MC_GRID]
            ids, embedded = embed_prefixes(joint, items, notion, mcs, EVAL_SEED)
            rows = mc_sweep(ids, mcs, embedded, labels)
            _, variances = embedded[mcs.index(50)]
            spec_net = train(tr, _study_cfg(seed), notions=[notion]).net
            ids, means, _ = embed_dataset(spec_net, items, notion, 50, EVAL_SEED)
            notions[notion] = {
                "rows": rows,
                "uncertainty": dataset_uncertainty(variances, labels),
                "specialized_macro": evaluate(ids, means, labels).macro_map,
            }
        seeds[seed] = {"net": joint, "test_items": te.items, "notions": notions}
    return {"seeds": seeds, "elapsed": time.time() - t0}


def _macro_at(study_seed, notion, mc):
    rows = study_seed["notions"][notion]["rows"]
    return next(r["macro_map"] for r in rows if r["mc"] == mc)


# --- criterion 1: reverse-mode gradients vs central differences ---


def _unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _family_dense(rng):
    din, dh, dout = (int(rng.integers(3, 6)) for _ in range(3))
    x = Tensor(rng.normal(size=din))
    c = rng.normal(size=dout)
    w1 = Parameter(rng.normal(size=(din, dh)) * 0.7, "w1")
    b1 = Parameter(rng.normal(size=dh) * 0.1, "b1")
    w2 = Parameter(rng.normal(size=(dh, dout)) * 0.7, "w2")
    b2 = Parameter(rng.normal(size=dout) * 0.1, "b2")

    def f():
        h = tanh(dense_forward(x, w1, b1))
        return tsum(mul(dense_forward(h, w2, b2), c))

    return f, [w1, b1, w2, b2]


def _family_recurrent(rng):
    t_steps, din, dh = int(rng.integers(2, 5)), 3, 4
    xs = [Tensor(rng.normal(size=din)) for _ in range(t_steps)]
    c = rng.normal(size=dh)
    wx = Parameter(rng.normal(size=(din, dh)) * 0.6, "wx")
    wh = Parameter(rng.normal(size=(dh, dh)) * 0.4, "wh")
    b = Parameter(rng.normal(size=dh) * 0.1, "b")

    def f():
        return tsum(mul(rnn_steps(xs, wx, wh, b), c))

    return f, [wx, wh, b]


def _family_normalize(rng):
    x = Tensor(rng.normal(size=5))
    c = rng.normal(size=4)
    w = Parameter(rng.normal(size=(5, 4)), "w")
    b = Parameter(rng.normal(size=4) * 0.1, "b")
    if np.linalg.norm(np.asarray(x.data) @ w.data + b.data) < 0.1:
        return None

    def f():
        return tsum(mul(l2_normalize(dense_forward(x, w, b)), c))

    return f, [w, b]


def _family_mask(rng):
    # gate entries sit well clear of the relu kink on both sides
    d = 6
    z = Tensor(rng.normal(size=d))
    c = rng.normal(size=d)
    gate = rng.uniform(0.15, 1.0, size=d) * rng.choice([-1.0, 1.0], size=d)
    if (gate > 0).sum() < 2:
        return None
    if np.linalg.norm(np.asarray(z.data) * np.maximum(gate, 0.0)) < 0.1:
        return None
    m = Parameter(gate, "mask")

    def f():
        return tsum(mul(l2_normalize(mul(z, relu(m))), c))

    return f, [m]


def _hinge_clearance(a, near, far, margin):
    pre = np.linalg.norm(a - near) - np.linalg.norm(a - far) + margin
    return abs(pre)


def _family_triplet(rng, margin):
    raw = rng.normal(size=(3, 5))
    unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    if _hinge_clearance(unit[0], unit[1], unit[2], margin) < 0.02:
        return None
    if min(np.linalg.norm(unit[0] - unit[1]), np.linalg.norm(unit[0] - unit[2])) < 0.05:
        return None
    x = Parameter(raw.copy(), "apn")

    def f():
        return tsum(triplet_batch_term(l2_normalize(x), [[0, 1, 2]], margin))

    return f, [x]


def _family_softmargin(rng):
    raw = rng.normal(size=(3, 5))
    if _hinge_clearance(raw[0], raw[1], raw[2], 0.0) < 0.02:
        return None
    if min(np.linalg.norm(raw[0] - raw[1]), np.linalg.norm(raw[0] - raw[2])) < 0.05:
        return None
    x = Parameter(raw.copy(), "apn")

    def f():
        return tsum(triplet_batch_term(x, [[0, 1, 2]], 0.0))

    return f, [x]


def _family_ktuplet(rng, margin):
    k = int(rng.integers(4, 6))
    raw = rng.normal(size=(k, 5))
    unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    order = np.argsort([np.linalg.norm(unit[0] - unit[j]) for j in range(1, k)])
    raw = np.concatenate([raw[:1], raw[1:][order]])
    unit = np.concatenate([unit[:1], unit[1:][order]])
    dists = [np.linalg.norm(unit[0] - unit[j]) for j in range(1, k)]
    if min(dists) < 0.05 or min(np.diff(dists)) < 0.02:
        return None
    for j in range(k - 2):
        if _hinge_clearance(unit[0], unit[j + 1], unit[j + 2], margin) < 0.02:
            return None
    x = Parameter(raw.copy(), "tuple")

    def f():
        return tsum(ktuplet_batch_term(l2_normalize(x), [list(range(k))], margin))

    return f, [x]


def test_gradcheck_families_within_tolerance():
    """Dense, recurrent, normalize, mask, and all three loss graphs pass
    central-difference checks (h=1e-5, max relative error < 1e-4) over at
    least 100 random configurations in under 30 seconds."""
    rng = np.random.default_rng(424242)
    families = [
        ("dense", _family_dense, 18),
        ("recurrent", _family_recurrent, 18),
        ("normalize", _family_normalize, 15),
        ("mask", _family_mask, 15),
        ("triplet", lambda r: _family_triplet(r, 0.2), 15),
        ("softmargin", _family_softmargin, 15),
        ("ktuplet", lambda r: _family_ktuplet(r, 0.2), 15),
    ]
    t0 = time.time()
    checked = 0
    for name, make, quota in families:
        done = attempts = 0
        while done < quota:
            attempts += 1
            assert attempts < 40 * quota, f"{name} keeps hitting kink filters"
            built = make(rng)
            if built is None:
                continue
            f, params = built
            report = grad_check(f, params, h=1e-5, tol=1e-4)
            assert report.passed, (
                f"{name} config {done}: max rel error {report.max_rel_error:.2e}")
            done += 1
            checked += 1
    elapsed = time.time() - t0
    assert checked >= 100
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"


# --- criterion 2: loss range bounds and k=3 equivalence ---


def test_loss_range_bounds_and_k3_equivalence():
    """Unit triples stay inside [0, 2+m], the antipodal construction attains
    the bound exactly, and a 3-tuple equals the triplet loss bit for bit."""
    rng = np.random.default_rng(2026)
    margin = 0.2
    bound = ktuplet_upper_bound(3, margin)
    triples = _unit_rows(rng, 3 * 10**5, 8).reshape(10**5, 3, 8)
    idx = np.arange(3 * 10**5).reshape(10**5, 3)
    v = triplet_batch_term(Tensor(triples.reshape(-1, 8)), idx, margin).data
    assert v.shape == (10**5,)
    assert np.all((0.0 <= v) & (v <= bound))

    e = np.zeros(8)
    e[0] = 1.0
    worst = triplet_batch_term(Tensor(np.stack([e, -e, e])), [[0, 1, 2]], margin)
    assert worst.data[0] == bound

    rows = triples[:10**4].reshape(-1, 8)
    x_tri, x_tup = Parameter(rows.copy(), "tri"), Parameter(rows.copy(), "tup")
    tri = triplet_batch_term(x_tri, idx[:10**4], margin)
    tup = ktuplet_batch_term(x_tup, idx[:10**4], margin)
    assert np.array_equal(tup.data, tri.data)
    tsum(tri).backward()
    tsum(tup).backward()
    assert np.array_equal(x_tup.grad, x_tri.grad)


# --- criterion 3: dropout-off paths reproduce the deterministic baseline ---


def _tiny_net(dropout):
    mods = [
        ModalitySpec("vec", "vector", 5, hidden_dim=6),
        ModalitySpec("seq", "sequence", 4, hidden_dim=6, samples=2),
    ]
    return ConditionalNet(mods, ["goal", "stim"], embed_dim=8,
                          dropout_rate=dropout, seed=13)


def test_dropout_off_paths_match_deterministic_baseline():
    """The mc = 0 embedding is the deterministic forward bit for bit; a
    rate-0 stochastic mc=50 sweep matches baseline mAP to 1e-12."""
    net = _tiny_net(0.3)
    rng = np.random.default_rng(5)
    payloads = {"vec": rng.normal(size=5), "seq": rng.normal(size=(6, 4))}
    with autodiff.no_grad():
        det = np.array(net.forward(payloads, "goal").data)
    out = mc_embed(net, payloads, "goal", 0, seed=9)
    assert np.array_equal(out.mean, det)
    assert not out.variance.any()

    ds = synth_generate(items=36, seed=2, **preset_args("noiseless"))
    cfg = RunConfig(embed_dim=8, hidden_dim=8, dropout=0.0, frame_samples=2,
                    epochs=2, decay_start=1)
    net0 = build_net(ds, cfg)
    items = [(it.id, it.payloads) for it in ds.items]
    labels = ds.labels_for("goal")
    ids, embedded = embed_prefixes(net0, items, "goal", [0, 50], 3)
    rows = mc_sweep(ids, [0, 50], embedded, labels)
    base, mc50 = rows
    assert mc50["mc"] == 50 and base["mc"] == 0
    assert abs(mc50["macro_map"] - base["macro_map"]) <= 1e-12
    assert abs(mc50["micro_map"] - base["micro_map"]) <= 1e-12


# --- criterion 4: MC estimate converges at the sampling rate ---


def test_mc_variance_shrinks_at_sampling_rate(study):
    """On a trained net with dropout 0.1, the across-repetition variance of
    the mean embedding shrinks by a factor in [2.5, 6] going mc 10 -> 40."""
    seed0 = study["seeds"][0]
    net = seed0["net"]
    items = seed0["test_items"][:8]

    def spread(mc):
        # both settings reuse the rep blocks, so the extra passes are the
        # only difference; averaging items steadies the 20-rep estimate
        per_item = []
        for item in items:
            means = [mc_embed(net, item.payloads, HIGH_NOISE, mc, 10_000 + 128 * r).mean
                     for r in range(20)]
            per_item.append(np.var(np.stack(means), axis=0).mean())
        return float(np.mean(per_item))

    ratio = spread(10) / spread(40)
    assert 2.5 <= ratio <= 6.0, f"variance ratio {ratio:.2f}"


# --- criterion 5: mining vs exhaustive brute force ---


def _oracle_batch_hard(d, labels):
    out = []
    for a in range(len(labels)):
        best_p, dp = -1, -np.inf
        best_n, dn = -1, np.inf
        for j in range(len(labels)):
            if j == a:
                continue
            if labels[j] == labels[a]:
                if d[a, j] > dp:
                    best_p, dp = j, d[a, j]
            elif d[a, j] < dn:
                best_n, dn = j, d[a, j]
        if best_p >= 0:
            out.append((a, best_p, best_n))
    return np.array(out, dtype=np.intp)


def _oracle_semi_hard(d_row, d_ap, neg_idx):
    beyond = [(d_row[j], j) for j in neg_idx if d_row[j] > d_ap]
    if beyond:
        return min(beyond)[1]
    if len(neg_idx):
        return max((d_row[j], -j) for j in neg_idx)[1] * -1
    return -1


def test_mining_matches_brute_force():
    """Batch-hard triplets and the semi-hard window pick agree exactly with
    O(n^2) oracles on 1000 random batches of up to 50 items."""
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(4, 51))
        c = int(rng.integers(2, 6))
        labels = rng.integers(0, c, size=n)
        labels[:2] = 0
        labels[2] = 1
        emb = rng.normal(size=(n, 4))
        d = pairwise_distances(emb)

        assert np.array_equal(batch_hard_triplets(emb, labels),
                              _oracle_batch_hard(d, labels))

        expected = []
        for a in range(n):
            neg_idx = [j for j in range(n) if labels[j] != labels[a]]
            for p in range(a + 1, n):
                if labels[p] != labels[a]:
                    continue
                picked = semi_hard_negative(d[a], d[a, p], labels != labels[a])
                want = _oracle_semi_hard(d[a], d[a, p], neg_idx)
                assert picked == want
                if want >= 0:
                    expected.append((a, p, want))
        drawn = semi_hard_draw(d, labels, cap=10**9, rng=RngStream(1, 1))
        if expected:
            assert np.array_equal(drawn, np.array(expected, dtype=np.intp))
        else:
            assert drawn is None


# --- criterion 6: evaluation vs a hand-computed fixture ---

# two-dimensional points chosen so every rank order is checkable by eye
_FIX_IDS = ["a0", "a1", "a2", "b3", "b4"]
_FIX_EMB = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.1], [1.0, -0.75], [1.0, -0.2]])
_FIX_LABELS = ["A", "A", "A", "B", "B"]
_FIX_APS = {"a0": 5 / 6, "a1": 5 / 12, "a2": 1.0, "b3": 1.0, "b4": 0.5}


def test_evaluation_matches_hand_fixture():
    """evaluate reproduces a fully hand-computed five-item fixture to 1e-12,
    and micro equals macro on balanced classes to 1e-9."""
    report = evaluate(_FIX_IDS, _FIX_EMB, _FIX_LABELS)
    got = {r["id"]: r["ap"] for r in report.per_query}
    for qid, want in _FIX_APS.items():
        assert got[qid] == pytest.approx(want, abs=1e-12)
    assert report.micro_map == pytest.approx(0.75, abs=1e-12)
    assert report.macro_map == pytest.approx(0.75, abs=1e-12)
    assert report.top1 == pytest.approx(3 / 5, abs=1e-12)

    rng = np.random.default_rng(31)
    n_class, per = 4, 5
    emb = rng.normal(size=(n_class * per, 6))
    labels = [f"c{i // per}" for i in range(n_class * per)]
    ids = [f"q{i}" for i in range(n_class * per)]
    balanced = evaluate(ids, emb, labels)
    assert balanced.micro_map == pytest.approx(balanced.macro_map, abs=1e-9)


# --- criteria 7-10: the desk-scale study ---


def test_mc_gain_tracks_notion_noise(study):
    """Median mc=50 gain over the deterministic baseline is non-negative for
    both notions and at least as large on the noisier notion."""
    gaps = {}
    for notion in (LOW_NOISE, HIGH_NOISE):
        per_seed = [_macro_at(study["seeds"][s], notion, 50)
                    - _macro_at(study["seeds"][s], notion, 0)
                    for s in STUDY_SEEDS]
        gaps[notion] = float(np.median(per_seed))
    assert gaps[LOW_NOISE] >= -1e-12
    assert gaps[HIGH_NOISE] >= -1e-12
    assert gaps[HIGH_NOISE] >= gaps[LOW_NOISE] - 1e-12
    assert study["elapsed"] < 600.0, f"study took {study['elapsed']:.0f}s"


def test_joint_net_non_inferior_to_specialized(study):
    """One jointly trained conditional net stays within 2 macro mAP points
    (median over seeds) of per-notion specialized nets."""
    for notion in (LOW_NOISE, HIGH_NOISE):
        diffs = [study["seeds"][s]["notions"][notion]["specialized_macro"]
                 - _macro_at(study["seeds"][s], notion, 50)
                 for s in STUDY_SEEDS]
        assert float(np.median(diffs)) <= 0.02 + 1e-12, (
            f"{notion}: specialized ahead by {np.median(diffs) * 100:.2f} points")


def test_map_vs_mc_curve_non_decreasing(study):
    """The median mAP-vs-mc curve on the noisy notion never drops by more
    than 0.5 points between consecutive sweep settings."""
    curves = [[_macro_at(study["seeds"][s], HIGH_NOISE, mc) for mc in MC_GRID]
              for s in STUDY_SEEDS]
    median_curve = np.median(np.array(curves), axis=0)
    deltas = np.diff(median_curve)
    assert (deltas >= -0.005 - 1e-12).all(), (
        f"curve {np.round(median_curve, 4).tolist()} dips {deltas.min() * 100:.2f} points")


def test_noisy_notion_has_higher_uncertainty(study):
    """dataset_uncertainty ranks the noisy notion above the clean one in at
    least two of three seeds."""
    wins = sum(
        study["seeds"][s]["notions"][HIGH_NOISE]["uncertainty"]
        > study["seeds"][s]["notions"][LOW_NOISE]["uncertainty"]
        for s in STUDY_SEEDS)
    assert wins >= 2, f"only {wins}/3 seeds ordered correctly"


# --- criterion 11: same-seed runs are byte-identical ---


def test_same_seed_runs_byte_identical(tmp_path, monkeypatch):
    """Two full train+eval pipeline runs with one seed leave byte-identical
    checkpoints, histories, and reports behind."""
    cfg = {"epochs": 6, "embed_dim": 8, "hidden_dim": 8, "decay_start": 3,
           "batch_size": 64, "triplet_cap": 100, "p_classes": 2,
           "k_per_class": 2, "frame_samples": 2, "seed": 4}
    for name in ("one", "two"):
        d = tmp_path / name
        d.mkdir()
        (d / "cfg.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(d)
        assert main(["synth", "--preset", "noiseless", "--items", "36",
                     "--seed", "5", "--out", "data.jsonl"]) == 0
        assert main(["train", "--dataset", "data.jsonl", "--config", "cfg.json",
                     "--out", "run"]) == 0
        assert main(["eval", "--dataset", "data.jsonl",
                     "--checkpoint", "run/checkpoint.json", "--notion", "goal",
                     "--mc", "8", "--seed", "3", "--out", "report.json"]) == 0
    for rel in ("run/checkpoint.json", "run/history.json", "report.json"):
        first = (tmp_path / "one" / rel).read_bytes()
        second = (tmp_path / "two" / rel).read_bytes()
        assert first == second, f"{rel} differs between same-seed runs"
