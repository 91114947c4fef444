"""Span recorder for the traced benchmark run.

`Recorder.instrument()` wraps public functions and methods of the `meed`
modules from outside: each call becomes a span (name, start, end, parent)
kept in memory, and a few boundaries also record exact counts. `train()`
and the metrics look these names up at call time, so nothing under `src/`
changes. `restore()` puts every original back, which the untraced cycles
between traced ones rely on.
"""

from __future__ import annotations

import functools
import logging
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Optional

from meed import trainer

# (span name, module, attribute). A dotted attribute is a method.
TARGETS = (
    ("autodiff.backward", "meed.autodiff", "backward"),
    ("core.forward_var", "meed.core", "Mlp.forward_var"),
    ("core.predict", "meed.core", "Mlp.predict"),
    ("sampler.gumbel", "meed.sampler", "sample_gumbel_batch"),
    ("sampler.relaxed_topk", "meed.sampler", "relaxed_topk_var"),
    ("sampler.hard_topk", "meed.sampler", "hard_topk"),
    ("sampler.hard_topk_batch", "meed.sampler", "hard_topk_batch"),
    ("explainer.score", "meed.explainer", "ExplainerNet.score"),
    ("explainer.score_var", "meed.explainer", "ExplainerNet.score_var"),
    ("explainer.fuse_prior", "meed.explainer", "fuse_prior_var"),
    ("approximators.cross_entropy", "meed.approximators", "cross_entropy_var"),
    ("approximators.sliced_wasserstein", "meed.approximators", "sliced_wasserstein_var"),
    ("trainer.train", "meed.trainer", "train"),
    ("trainer.approximator_step", "meed.trainer", "approximator_step"),
    ("trainer.explainer_step", "meed.trainer", "explainer_step"),
    ("trainer.prior_scores", "meed.trainer", "compute_prior_scores"),
    ("trainer.checkpoint_save", "meed.trainer", "save_checkpoint"),
    ("data.train_given_model", "meed.data", "train_given_model"),
    ("metrics.evaluate", "meed.metrics", "evaluate_explainer"),
    ("metrics.fs_m", "meed.metrics", "fidelity_selected_model"),
    ("metrics.fu_m", "meed.metrics", "fidelity_unselected_model"),
    ("metrics.fs_a", "meed.metrics", "fidelity_selected_approx"),
    ("metrics.fu_a", "meed.metrics", "fidelity_unselected_approx"),
    ("metrics.sen", "meed.metrics", "sensitivity"),
    ("metrics.sanity_model", "meed.metrics", "sanity_tests"),
    ("metrics.tps", "meed.metrics", "time_per_sample"),
)
# Model calls made while a prior span is open are counted, not spanned.
MODEL_CALLS = (("meed.data", "MlpModel.evaluate"), ("meed.data", "MlpModel.gradient"))
COUNT_SPAN = "trace.count"  # bookkeeping time, excluded from its parent's self time


def reachable_nodes(root) -> int:
    """Graph nodes `autodiff.backward(root)` visits."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class UniformFallbacks(logging.Handler):
    """Counts prior rows that fell back to uniform scores (baselines logs each)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.n = 0

    def emit(self, record):
        if "falling back to uniform" in record.getMessage():
            self.n += 1


class Recorder:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = defaultdict(list)
        self._stack = []
        self._open = defaultdict(int)
        self._patched = []       # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def parent_name(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def _wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if note is not None:
                parent = self.parent_name()
                count = self.begin(COUNT_SPAN)
                note(parent, args)
                self.end(count)
            return out
        return wrapper

    def _counting(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open["trainer.prior_scores"]:
                self.counts["prior_model_calls"].append(1)
            return fn(*args, **kwargs)
        return wrapper

    # -- exact counts at boundaries ------------------------------------------
    def _note_backward(self, parent, args):
        self.counts["nodes:" + parent].append(reachable_nodes(args[0]))

    def _note_prior(self, _parent, args):
        self.counts["prior_rows"].append(len(args[0]))

    def _note_checkpoint(self, _parent, args):
        self.counts["checkpoint_bytes"].append(os.path.getsize(args[1]))

    # -- patching ------------------------------------------------------------
    def _patch(self, module: str, attr: str, make) -> None:
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(sys.modules[module], owner_name)
            original = owner.__dict__[leaf]
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, make(original))
            return
        original = getattr(sys.modules[module], leaf)
        wrapped = make(original)
        # Rebind every `from ... import` copy too, so callers see the wrapper.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "meed" and getattr(mod, leaf, None) is original:
                self._patched.append((mod, leaf, original))
                setattr(mod, leaf, wrapped)

    def instrument(self) -> None:
        notes = {"autodiff.backward": self._note_backward,
                 "trainer.prior_scores": self._note_prior,
                 "trainer.checkpoint_save": self._note_checkpoint}
        for name, module, attr in TARGETS:
            self._patch(module, attr, lambda fn, n=name: self._wrap(n, fn, notes.get(n)))
        for cls in trainer.Optimizer.__subclasses__():
            if "step" in cls.__dict__:
                self._patch("meed.trainer", f"{cls.__name__}.step",
                            lambda fn: self._wrap("trainer.optimizer_step", fn))
        for module, attr in MODEL_CALLS:
            self._patch(module, attr, self._counting)

    def restore(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------
    def layer_times(self, root: str, within: Optional[str] = None) -> dict:
        """name -> (calls, total seconds, self seconds), over the spans under
        top-level spans called `root` and, given `within`, under a span of
        that name too."""
        child = [0.0] * len(self.spans)
        top = [0] * len(self.spans)
        inside = [within is None] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            top[i] = i if parent < 0 else top[parent]
            if parent >= 0:   # a parent's span precedes its children's
                child[parent] += end - start
                inside[i] = inside[parent] or self.spans[parent][0] == within
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if self.spans[top[i]][0] != root or not inside[i]:
                continue
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, self_s + end - start - child[i])
        return out

    def write(self, path: str) -> None:
        """One tab-separated line per span: name, start, end, parent index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
