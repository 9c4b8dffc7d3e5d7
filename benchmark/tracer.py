"""Layer spans and counters recorded from outside the program.

install() replaces each layer's public functions in the namespaces where
their callers look them up (training.semi_hard_draw, cli.load_checkpoint,
ConditionalNet.forward, Tensor.backward, ...) with wrappers that record a
span: name, start, end and the index of the enclosing span. Spans stay in
memory and are written out once, when the run ends; uninstall() puts the
original functions back. Spans inside the program are not recorded here.
Spans are timed in process CPU time, the clock the end-to-end times use.
"""

import functools
import json
import os
import time

from mcretrieval import autodiff, cli, evaluation, mining, model, optim, rng, training, uncertainty

# span name -> [(namespace, attribute), ...] where its callers look it up.
# The cli.* and training.train spans are the roots a round is made of.
SPANS = {
    "training.train": [(training, "train")],
    "cli.train": [(cli, "cmd_train")],
    "cli.embed": [(cli, "cmd_embed")],
    "cli.sweep": [(cli, "cmd_sweep")],
    "cli.uncertainty": [(cli, "cmd_uncertainty")],
    "cli.eval": [(cli, "cmd_eval")],
    "cli.retrieve": [(cli, "cmd_retrieve")],
    "mining.semi_hard_draw": [(training, "semi_hard_draw")],
    "mining.batch_hard": [(training, "batch_hard_triplets")],
    "mining.pk_sample": [(training, "pk_sample")],
    "mining.embed_in_chunks": [(training, "embed_in_chunks")],
    "mining.pairwise_distances": [(training, "pairwise_distances"), (mining, "pairwise_distances"),
                                  (evaluation, "pairwise_distances")],
    "model.forward_batch": [(model.ConditionalNet, "forward_batch")],
    "model.forward": [(model.ConditionalNet, "forward")],
    "model.save_checkpoint": [(training, "save_checkpoint")],
    "model.load_checkpoint": [(cli, "load_checkpoint")],
    "autodiff.backward": [(autodiff.Tensor, "backward")],
    "losses.objective": [(training, "triplet_batch_term"), (training, "batch_objective"),
                         (training, "mask_penalty")],
    "optim.step": [(optim.Adam, "step")],
    "uncertainty.mc_embed": [(uncertainty, "mc_embed")],
    "uncertainty.write_embeddings": [(cli, "write_embeddings")],
    "uncertainty.read_embeddings": [(cli, "read_embeddings")],
    "evaluation.evaluate": [(cli, "evaluate"), (evaluation, "evaluate")],
    "data.read_dataset": [(cli, "read_dataset")],
}

# calls too frequent and too short to time one by one; they are only counted
COUNTED = {
    "model.frame_index_calls": (model, "sample_frame_indices"),
    "rng.streams": (rng.RngStream, "__init__"),
}

COUNTERS = [
    "mining.draws", "mining.skipped_draws", "mining.triplets", "mining.pairwise_distances_calls",
    "model.forward_batch_calls", "model.frame_index_calls", "model.forward_calls",
    "model.save_checkpoint_calls", "model.checkpoint_bytes", "autodiff.backward_calls",
    "optim.steps", "rng.streams", "uncertainty.passes_computed", "uncertainty.passes_distinct",
    "evaluation.queries",
]


class Tracer:
    """Nested wall-clock spans and counters for one run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._patched = []
        self._distinct = set()  # (notion, mode, stream) passes seen in the current root span

    def _wrap(self, owner, attr, name, after=None):
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            if parent is None:
                tracer._distinct.clear()
            index = len(tracer.spans)
            span = [name, time.process_time(), 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.process_time()
                tracer._stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _count(self, owner, attr, key):
        original = owner.__dict__[attr]
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _add(self, key, n=1):
        self.counts[key] += n

    def _after_semi_hard(self, args, result):
        self._add("mining.draws")
        if result is None:
            self._add("mining.skipped_draws")
        else:
            self._add("mining.triplets", len(result))

    def _after_mc_embed(self, args, result):
        # embed_dataset calls mc_embed(net, payloads, notion, mc, seed, mode, renormalize)
        _, _, notion, mc, seed, mode = args[:6]
        if mode == autodiff.DISABLED:
            keys = [(notion, mode, seed)]
        else:
            keys = [(notion, mode, seed + j) for j in range(mc)]
        self._add("uncertainty.passes_computed", len(keys))
        new = set(keys) - self._distinct
        self._distinct |= new
        self._add("uncertainty.passes_distinct", len(new))

    def _after_save(self, args, result):
        self._add("model.save_checkpoint_calls")
        self._add("model.checkpoint_bytes", os.path.getsize(args[1]))

    def install(self):
        after = {
            "mining.semi_hard_draw": self._after_semi_hard,
            "mining.batch_hard": lambda a, r: self._add("mining.triplets", len(r)),
            "mining.pairwise_distances": lambda a, r: self._add("mining.pairwise_distances_calls"),
            "model.forward_batch": lambda a, r: self._add("model.forward_batch_calls"),
            "model.forward": lambda a, r: self._add("model.forward_calls"),
            "model.save_checkpoint": self._after_save,
            "autodiff.backward": lambda a, r: self._add("autodiff.backward_calls"),
            "optim.step": lambda a, r: self._add("optim.steps"),
            "uncertainty.mc_embed": self._after_mc_embed,
            "evaluation.evaluate": lambda a, r: self._add("evaluation.queries", r.queries),
        }
        for name, sites in SPANS.items():
            for owner, attr in sites:
                self._wrap(owner, attr, name, after.get(name))
        for key, (owner, attr) in COUNTED.items():
            self._count(owner, attr, key)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def root_seconds(self):
        return sum(end - start for _, start, end, parent in self.spans if parent is None)

    def layer_seconds(self):
        """{span name: (inclusive seconds, self seconds)} summed over all spans."""
        total = dict.fromkeys(SPANS, 0.0)
        children = dict.fromkeys(SPANS, 0.0)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent is not None:
                children[self.spans[parent][0]] += end - start
        return {name: (total[name], total[name] - children[name]) for name in SPANS}

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)


def per_layer_names():
    """Every per-layer metric name, in report order, with its unit and direction."""
    out = []
    for name in SPANS:
        out.append((f"{name}_s", "s", "lower"))
        out.append((f"{name}_self_s", "s", "lower"))
    for key in COUNTERS:
        higher = key in ("mining.triplets", "evaluation.queries")
        out.append((key, "bytes" if key.endswith("_bytes") else "count",
                    "higher" if higher else "lower"))
    out += [("uncertainty.useful_pass_ratio", "ratio", "higher"),
            ("trace.coverage", "ratio", "higher"),
            ("trace.rounds", "count", "higher"),
            ("trace.overhead_s", "s", "lower")]
    return out
