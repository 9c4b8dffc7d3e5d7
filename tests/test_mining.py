"""Mining against exhaustive brute-force oracles."""

import numpy as np
import pytest

from mcretrieval import MiningError, RngStream, SamplingError, ValidationError, mining
from mcretrieval.mining import (
    batch_hard_triplets,
    embed_in_chunks,
    pairwise_distances,
    pk_sample,
    semi_hard_draw,
    semi_hard_negative,
    session_draws,
)


class TestPairwiseDistances:
    def test_orthonormal_pair(self):
        d = pairwise_distances(np.eye(2))
        np.testing.assert_allclose(d[0, 1], np.sqrt(2.0), atol=1e-15)

    def test_matches_naive_loop(self, monkeypatch):
        rng = np.random.default_rng(0)
        e = rng.normal(size=(17, 5))
        monkeypatch.setattr(mining, "BLOCK_BYTES", 4 * e.size * 8)  # force 4-row blocks
        d = pairwise_distances(e)
        for i in range(17):
            for j in range(17):
                assert d[i, j] == pytest.approx(np.linalg.norm(e[i] - e[j]), abs=1e-12)

    def test_exactly_symmetric_zero_diagonal(self, monkeypatch):
        rng = np.random.default_rng(1)
        e = rng.normal(size=(40, 8))
        monkeypatch.setattr(mining, "BLOCK_BYTES", 7 * e.size * 8)  # force 7-row blocks
        d = pairwise_distances(e)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_query_rows_equal_full_matrix_rows(self, monkeypatch):
        rng = np.random.default_rng(2)
        e = rng.normal(size=(30, 6))
        full = pairwise_distances(e)
        rows = [29, 0, 7, 7, 13]
        monkeypatch.setattr(mining, "BLOCK_BYTES", 3 * e.size * 8)
        got = pairwise_distances(e, rows)
        assert got.shape == (5, 30)
        assert got.tobytes() == full[rows].tobytes()


class TestPkSample:
    def test_layout_and_no_replacement(self):
        labels = ["a"] * 5 + ["b"] * 5 + ["c"] * 5
        batch = pk_sample(labels, p=2, k=4, rng=RngStream(3, 0))
        assert len(batch.indices) == 8
        assert len(set(batch.indices.tolist())) == 8
        assert len(batch.classes) == 2
        for c, chunk in zip(batch.classes, batch.indices.reshape(2, 4)):
            assert all(labels[i] == c for i in chunk)

    def test_uniform_over_classes(self):
        labels = ["a", "a", "b", "b", "c", "c", "d", "d"]
        rng = RngStream(17, 0)
        counts = {c: 0 for c in "abcd"}
        n = 10_000
        for _ in range(n):
            for c in pk_sample(labels, p=2, k=2, rng=rng).classes:
                counts[c] += 1
        for c in counts:
            assert abs(counts[c] / n - 0.5) < 0.02

    def test_deficient_classes_reported(self):
        labels = ["a"] * 4 + ["b"] * 1 + ["c"] * 2
        with pytest.raises(SamplingError) as e:
            pk_sample(labels, p=3, k=3, rng=RngStream(0, 0))
        assert set(e.value.deficient_classes) == {"b", "c"}

    def test_reproducible(self):
        labels = ["a"] * 6 + ["b"] * 6 + ["c"] * 6
        a = pk_sample(labels, 2, 3, RngStream(5, 9))
        b = pk_sample(labels, 2, 3, RngStream(5, 9))
        assert np.array_equal(a.indices, b.indices)

    @pytest.mark.parametrize("vocab,want", [
        (["b", "a", "c9", "c10"], ["a", "b", "c10", "c9"]),
        ([3, 1.5, 10, 2], [1.5, 2, 3, 10]),
        (["b", 10, "a", 2], [2, 10, "a", "b"]),
    ])
    def test_class_order_numbers_then_text(self, vocab, want):
        # only strings or only numbers: sorted() order, so checkpoints do not
        # move; a mixed vocabulary puts numbers first instead of raising TypeError
        labels = [c for c in vocab for _ in range(3)]
        picks = RngStream(4, 4).choice(len(vocab), size=len(vocab), replace=False)
        batch = pk_sample(labels, len(vocab), 2, RngStream(4, 4))
        assert batch.classes == [want[i] for i in picks]


def brute_force_batch_hard(emb, labels):
    # scan every candidate pair per anchor, lowest index wins ties
    n = len(labels)
    d = np.array([[np.linalg.norm(emb[i] - emb[j]) for j in range(n)] for i in range(n)])
    out = []
    for a in range(n):
        best_p, best_pd = -1, -1.0
        best_n, best_nd = -1, np.inf
        for j in range(n):
            if j == a:
                continue
            if labels[j] == labels[a]:
                if d[a, j] > best_pd:
                    best_p, best_pd = j, d[a, j]
            elif d[a, j] < best_nd:
                best_n, best_nd = j, d[a, j]
        if best_p >= 0 and best_n >= 0:
            out.append((a, best_p, best_n))
    return out


class TestBatchHard:
    def test_hand_built_case(self):
        emb = np.array([[0.0], [1.0], [0.4], [2.0]])
        labels = ["x", "x", "y", "y"]
        got = batch_hard_triplets(emb, labels)
        want = [(0, 1, 2), (1, 0, 2), (2, 3, 0), (3, 2, 1)]
        assert [tuple(t) for t in got] == want

    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(4, 20))
            emb = rng.normal(size=(n, 4))
            labels = [str(l) for l in rng.integers(0, 4, size=n)]
            if len(set(labels)) < 2:
                continue
            try:
                got = [tuple(t) for t in batch_hard_triplets(emb, labels)]
            except MiningError:
                assert not brute_force_batch_hard(emb, labels)
                continue
            assert got == brute_force_batch_hard(emb, labels)

    def test_single_class_rejected(self):
        with pytest.raises(MiningError):
            batch_hard_triplets(np.eye(3), ["a", "a", "a"])

    def test_all_singletons_rejected(self):
        with pytest.raises(MiningError):
            batch_hard_triplets(np.eye(3), ["a", "b", "c"])

    def test_singleton_anchor_skipped(self):
        emb = np.array([[0.0], [1.0], [5.0]])
        got = [tuple(t) for t in batch_hard_triplets(emb, ["x", "x", "y"])]
        assert got == [(0, 1, 2), (1, 0, 2)]


def brute_force_semi_hard(dist_row, dap, neg_idx, margin):
    # explicit three-stage rule: window, then beyond-positive, then farthest
    window = [j for j in neg_idx if dap < dist_row[j] < dap + margin]
    if window:
        return min(window, key=lambda j: (dist_row[j], j))
    beyond = [j for j in neg_idx if dist_row[j] > dap]
    if beyond:
        return min(beyond, key=lambda j: (dist_row[j], j))
    return max(neg_idx, key=lambda j: (dist_row[j], -j))


class TestSemiHardNegative:
    def test_window_example(self):
        # negatives at 0.55/0.65/0.9 with the positive at 0.5: 0.55 wins
        row = np.array([0.0, 0.5, 0.55, 0.65, 0.9])
        mask = np.array([False, False, True, True, True])
        assert semi_hard_negative(row, 0.5, mask) == 2

    def test_fallback_nearest_beyond(self):
        row = np.array([0.0, 0.5, 0.75, 0.9])
        mask = np.array([False, False, True, True])
        assert semi_hard_negative(row, 0.5, mask) == 2

    def test_fallback_overall_farthest(self):
        row = np.array([0.0, 0.5, 0.3, 0.4])
        mask = np.array([False, False, True, True])
        assert semi_hard_negative(row, 0.5, mask) == 3

    def test_no_negatives(self):
        assert semi_hard_negative(np.zeros(3), 0.1, np.zeros(3, dtype=bool)) == -1

    def test_matches_staged_oracle(self):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            n = int(rng.integers(3, 30))
            row = np.abs(rng.normal(size=n))
            mask = rng.random(n) < 0.5
            if not mask.any():
                continue
            dap = float(np.abs(rng.normal()))
            got = semi_hard_negative(row, dap, mask)
            want = brute_force_semi_hard(row, dap, np.flatnonzero(mask).tolist(), 0.2)
            assert got == want


def mine_epoch(labels, sessions, embed, rng, sessions_per_draw=3, chunk_size=512, triplet_cap=400):
    """One epoch of training.train's per-draw mining steps over a fixed embedding function."""
    for items in session_draws(len(labels), sessions, sessions_per_draw, rng):
        d = pairwise_distances(embed_in_chunks(items, embed, chunk_size))
        batch = semi_hard_draw(d, [labels[i] for i in items], triplet_cap, rng)
        if batch is not None:
            yield np.asarray(items, dtype=np.intp)[batch]


def loop_batch_hard(d, labels):
    """The per-anchor loop batch_hard_triplets replaced, over the same distances."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    eye = np.eye(len(labels), dtype=bool)
    triplets = []
    for a in range(len(labels)):
        pos_mask = same[a] & ~eye[a]
        if not pos_mask.any():
            continue
        pos = int(np.argmax(np.where(pos_mask, d[a], -np.inf)))
        neg = int(np.argmin(np.where(~same[a], d[a], np.inf)))
        triplets.append((a, pos, neg))
    return np.array(triplets, dtype=np.intp)


def loop_semi_hard_draw(dist, labels, cap, rng):
    """The per-pair loop semi_hard_draw replaced: its picks, its order and its shuffle."""
    labs = np.asarray(labels)
    same = labs[:, None] == labs[None, :]
    triplets = []
    for a in range(len(labs)):
        neg_idx = np.flatnonzero(~same[a])
        for p in range(a + 1, len(labs)):
            if not same[a, p] or neg_idx.size == 0:
                continue
            dists = dist[a, neg_idx]
            beyond = dists > dist[a, p]
            if beyond.any():
                pick = np.argmin(np.where(beyond, dists, np.inf))
            else:
                pick = np.argmax(dists)
            triplets.append((a, p, int(neg_idx[pick])))
    if not triplets:
        return None
    if len(triplets) > cap:
        rng.shuffle(triplets)
        triplets = triplets[:cap]
    return np.array(triplets, dtype=np.intp)


def tie_heavy_draws(count, seed):
    """Random item sets with rounded coordinates (many exact distance ties) and 1-6 classes."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 40))
        labels = rng.integers(0, int(rng.integers(1, 7)), size=n)
        emb = np.round(rng.normal(size=(n, int(rng.integers(1, 4)))), 1)
        yield rng, emb, labels


def few_rows_per_block(monkeypatch, rng, n):
    """Patch BLOCK_BYTES to 1-5 rows of n distances; returns the row count per block."""
    rows = int(rng.integers(1, 6))
    monkeypatch.setattr(mining, "BLOCK_BYTES", rows * n * 8)
    return rows


class TestVectorisedMinersMatchLoops:
    def test_semi_hard_draw_matches_pair_loop(self, monkeypatch):
        seen = {"capped": 0, "single_class": 0, "none": 0, "many_blocks": 0}
        for k, (rng, emb, labels) in enumerate(tie_heavy_draws(1200, 41)):
            d = pairwise_distances(emb)
            cap = int(rng.integers(1, 80))
            rows = few_rows_per_block(monkeypatch, rng, len(labels))
            seen["many_blocks"] += int(np.triu(labels[:, None] == labels, 1).sum()) > rows
            mine, ref = RngStream(k, 5), RngStream(k, 5)
            got = semi_hard_draw(d, labels, cap, mine)
            want = loop_semi_hard_draw(d, labels, cap, ref)
            if want is None:
                assert got is None
                seen["none"] += 1
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert mine.uniform() == ref.uniform()  # same stream state afterwards
            seen["single_class"] += len(set(labels.tolist())) == 1
            seen["capped"] += want is not None and len(want) == cap
        assert min(seen.values()) >= 50, seen

    def test_batch_hard_matches_anchor_loop(self, monkeypatch):
        mined = many_blocks = 0
        for rng, emb, labels in tie_heavy_draws(1400, 43):
            want = loop_batch_hard(pairwise_distances(emb), labels)
            rows = few_rows_per_block(monkeypatch, rng, len(labels))
            if len(set(labels.tolist())) < 2 or not want.size:
                with pytest.raises(MiningError):
                    batch_hard_triplets(emb, labels)
                continue
            got = batch_hard_triplets(emb, labels)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            mined += 1
            many_blocks += len(want) > rows
        assert mined >= 1000 and many_blocks >= 900, (mined, many_blocks)


class TestMixedTypeLabels:
    # "1" and 1 are two classes to the dataset reader, evaluate and pk_sample
    labels = ["1", "1", 1, 1, "2", 2]
    emb = np.array([[0.0], [0.1], [5.0], [5.1], [10.0], [10.1]])

    def assert_same_class_positives(self, triplets):
        assert len(triplets)
        for a, p, n in triplets:
            assert self.labels[a] == self.labels[p] != self.labels[n]

    def test_semi_hard_draw(self):
        d = pairwise_distances(self.emb)
        self.assert_same_class_positives(semi_hard_draw(d, self.labels, 100, RngStream(0, 1)))

    def test_batch_hard(self):
        self.assert_same_class_positives(batch_hard_triplets(self.emb, self.labels))


class TestSemiHardEpoch:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.n = 60
        self.emb = rng.normal(size=(self.n, 6))
        self.labels = [str(l) for l in rng.integers(0, 5, size=self.n)]
        self.sessions = [f"s{i % 6}" for i in range(self.n)]
        self.embed = lambda idx: self.emb[np.asarray(idx, dtype=int)]

    def test_every_item_embedded_once_per_epoch(self):
        seen = []
        embed = lambda idx: (seen.extend(idx), self.emb[np.asarray(idx, dtype=int)])[1]
        list(mine_epoch(self.labels, self.sessions, embed, RngStream(1, 0),
                        sessions_per_draw=2, chunk_size=16, triplet_cap=1000))
        assert sorted(seen) == list(range(self.n))

    def test_reproducible_from_seed(self):
        knobs = dict(sessions_per_draw=2, chunk_size=64, triplet_cap=50)
        a = list(mine_epoch(self.labels, self.sessions, self.embed, RngStream(2, 1), **knobs))
        b = list(mine_epoch(self.labels, self.sessions, self.embed, RngStream(2, 1), **knobs))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_cap_401_pairs_to_400(self):
        # class sizes 14,14,14,14,9,2 give 4*91 + 36 + 1 = 401 unordered pairs
        sizes = [14, 14, 14, 14, 9, 2]
        labels = [f"c{i}" for i, s in enumerate(sizes) for _ in range(s)]
        n = len(labels)
        rng = np.random.default_rng(8)
        emb = rng.normal(size=(n, 4))
        batches = list(mine_epoch(labels, ["s0"] * n, lambda idx: emb[np.asarray(idx, int)], RngStream(3, 3),
                                  sessions_per_draw=3, chunk_size=512, triplet_cap=400))
        assert len(batches) == 1
        assert batches[0].shape == (400, 3)

    def test_uncapped_pair_count(self):
        sizes = [3, 2]
        labels = [f"c{i}" for i, s in enumerate(sizes) for _ in range(s)]
        emb = np.random.default_rng(9).normal(size=(5, 3))
        (batch,) = mine_epoch(labels, ["s"] * 5, lambda idx: emb[np.asarray(idx, int)], RngStream(4, 0),
                              triplet_cap=400)
        assert batch.shape == (3 + 1, 3)  # C(3,2) + C(2,2)

    def test_triplet_labels_valid(self):
        for batch in mine_epoch(self.labels, self.sessions, self.embed, RngStream(5, 0),
                                sessions_per_draw=2, chunk_size=32, triplet_cap=500):
            for a, p, n in batch:
                assert self.labels[a] == self.labels[p] and self.labels[a] != self.labels[n]

    def test_sessionless_partition(self, monkeypatch):
        seen = []
        embed = lambda idx: (seen.extend(idx), self.emb[np.asarray(idx, dtype=int)])[1]
        monkeypatch.setattr(mining, "SYNTHETIC_SESSION_SIZE", 13)
        list(mine_epoch(self.labels, None, embed, RngStream(6, 0), sessions_per_draw=2, triplet_cap=1000))
        assert sorted(seen) == list(range(self.n))

    def test_single_class_draw_skipped_without_error(self):
        labels = ["a"] * 8
        emb = np.random.default_rng(10).normal(size=(8, 3))
        out = list(mine_epoch(labels, ["s"] * 8, lambda idx: emb[np.asarray(idx, int)], RngStream(7, 0)))
        assert out == []

    def test_session_draws_use_rng_groups_then_order(self, monkeypatch):
        # sessionless: one permutation partitions the items, a second orders the groups
        monkeypatch.setattr(mining, "SYNTHETIC_SESSION_SIZE", 13)
        rng = RngStream(8, 0)
        perm = rng.permutation(self.n)
        groups = [perm[i : i + 13].tolist() for i in range(0, self.n, 13)]
        order = rng.permutation(len(groups))
        want = [[i for g in order[s : s + 2] for i in groups[g]] for s in range(0, len(groups), 2)]
        assert list(session_draws(self.n, None, 2, RngStream(8, 0))) == want

    def test_session_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            next(session_draws(self.n, self.sessions[:-1], 3, RngStream(9, 0)))
