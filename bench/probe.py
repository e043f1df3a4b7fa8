"""Wrappers around the program's public functions.

Every run installs the step hooks, which time each step and keep its
loss. A traced run also wraps each layer's public functions in spans
and counts work at the same boundaries. Nothing under ``src/`` changes:
the wrappers replace the module and class attributes for the duration
of one stage call and are removed afterwards.

A step is one ``alternating_step`` call, or one derived-model training
batch from ``DerivedModel.forward`` through ``Adam.step``.
"""

from __future__ import annotations

import os
import sys
import time

from collections import Counter, defaultdict

from confadapt import checkpoint, data, losses, optim, pipeline, search, space, supernet, tensor

# (span name, module defining the function, attribute); every binding of
# the function in the loaded confadapt modules is wrapped, because the
# modules call each other through names imported with ``from ... import``
FUNCTIONS = [
    ("pipeline.stage", pipeline, "pretrain_supernet"),
    ("pipeline.stage", pipeline, "adapt_supernet"),
    ("pipeline.stage", pipeline, "derive_model"),
    ("pipeline.corpus_ter", pipeline, "corpus_ter"),
    ("search.alternating_step", search, "alternating_step"),
    ("search.sample_weights", search, "sample_weights"),
    ("search.penalized_loss", search, "penalized_loss"),
    ("space.expected_param_count", space, "expected_param_count"),
    ("losses.hybrid_batch_loss", losses, "hybrid_batch_loss"),
    ("losses.ctc_loss", losses, "ctc_loss"),
    ("losses.attention_ce_loss", losses, "attention_ce_loss"),
    ("losses.greedy_decode", losses, "greedy_decode"),
    ("tensor.backward", tensor, "backward"),
    ("optim.zero_all", optim, "zero_all"),
]
METHODS = [
    ("supernet.mixed_forward", supernet.ConformerSupernet, "mixed_forward"),
    ("supernet.forward", supernet.DerivedModel, "forward"),
    ("supernet.forward_decoder", supernet.DerivedModel, "forward_decoder"),
    ("optim.Adam.step", optim.Adam, "step"),
    ("checkpoint.save", checkpoint.Checkpoint, "save"),
]
# generators: one span per batch handed out, i.e. the time a loop waits
GENERATORS = [
    ("data.iter_batches", data, "iter_batches"),
]
SPAN_NAMES = sorted({name for name, _, _ in FUNCTIONS + METHODS + GENERATORS})
# counts made at span boundaries, beside the per-span call counts
COUNT_NAMES = (
    "tensor.tape_nodes",
    "tensor.tape_nodes.loss",
    "losses.greedy_decode.rows_computed",
    "losses.greedy_decode.emitted_tokens",
    "checkpoint.save.bytes",
)
TAPE_WALK = "bench.tape_walk"


def _bindings(fn):
    """Every (module, attribute) of the loaded confadapt package bound to ``fn``."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "confadapt" or name.startswith("confadapt.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, attr))
    return out


def op_nodes(roots):
    """Ids of the recorded op nodes reachable from ``roots`` through the tape."""
    seen = set()
    ops = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            ops.add(id(node))
        stack.extend(node._parents)
    return ops


class Probe:
    """Hooks for one stage call; use as a context manager around it."""

    def __init__(self, trace=False):
        self.trace = trace
        self.step_s = []        # duration of each step, in order
        self.step_losses = []   # loss values of each step, as a tuple
        self.step = None        # id of the step in progress, if any
        self.steps_begun = 0
        self._step_start = None
        self._train_step = False
        # traced run only
        self.spans = []         # (id, name, start, end, parent id, step id)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter({name: 0 for name in COUNT_NAMES})
        self._stack = []        # open spans: [id, child seconds]
        self._next_id = 0
        self._forward_outputs = []
        self._undo = []

    # installation ----------------------------------------------------

    def __enter__(self):
        try:
            if self.trace:
                self._install_spans()
            self._install_step_hooks()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _install_spans(self):
        for name, mod, attr in FUNCTIONS:
            fn = getattr(mod, attr)
            wrapped = self._span(name, fn, *self._extras(name))
            for owner, bound in _bindings(fn):
                self._patch(owner, bound, wrapped)
        for name, cls, attr in METHODS:
            self._patch(cls, attr, self._span(name, getattr(cls, attr), *self._extras(name)))
        for name, mod, attr in GENERATORS:
            fn = getattr(mod, attr)
            wrapped = self._span_generator(name, fn)
            for owner, bound in _bindings(fn):
                self._patch(owner, bound, wrapped)

    def _install_step_hooks(self):
        # installed after the spans, so a step opens before its first span
        self._patch(pipeline, "alternating_step", self._search_step(pipeline.alternating_step))
        cls = supernet.DerivedModel
        self._patch(cls, "forward", self._train_step_begin(cls.forward))
        self._patch(pipeline, "backward", self._train_step_loss(pipeline.backward))
        self._patch(optim.Adam, "step", self._train_step_end(optim.Adam.step))

    # steps -----------------------------------------------------------

    def _begin_step(self):
        self.step = self.steps_begun
        self.steps_begun += 1
        self._step_start = time.perf_counter()

    def _end_step(self):
        self.step_s.append(time.perf_counter() - self._step_start)
        self.step = None
        self._step_start = None

    def _search_step(self, fn):
        def alternating_step(*args, **kwargs):
            self._begin_step()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.step = None
                raise
            self._end_step()
            self.step_losses.append(tuple(result))
            return result
        return alternating_step

    def _train_step_begin(self, fn):
        def forward(*args, **kwargs):
            self._begin_step()
            self._train_step = True
            return fn(*args, **kwargs)
        return forward

    def _train_step_loss(self, fn):
        def backward(loss):
            self.step_losses.append((float(loss.data.reshape(-1)[0]),))
            return fn(loss)
        return backward

    def _train_step_end(self, fn):
        def step(*args, **kwargs):
            result = fn(*args, **kwargs)
            # a search step calls Adam.step twice; only a derived step ends here
            if self._train_step:
                self._train_step = False
                self._end_step()
            return result
        return step

    # spans -----------------------------------------------------------

    def _open(self):
        self._stack.append([self._next_id, 0.0])
        self._next_id += 1

    def _close(self, name, start, end):
        sid, child_s = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        self.spans.append((sid, name, start, end, parent, self.step))

    def _span(self, name, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start, time.perf_counter())
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _span_generator(self, name, fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._open()
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self._stack.pop()
                    return
                except BaseException:
                    self._close(name, start, time.perf_counter())
                    raise
                self._close(name, start, time.perf_counter())
                yield item
        return wrapper

    # counts ----------------------------------------------------------

    def _extras(self, name):
        """(before, after) callbacks that count work at a span boundary."""
        return {
            "tensor.backward": (self._count_tape, None),
            "supernet.mixed_forward": (None, self._keep_outputs),
            "supernet.forward": (None, self._keep_outputs),
            "supernet.forward_decoder": (None, self._count_rows),
            "losses.greedy_decode": (None, self._count_emitted),
            "checkpoint.save": (None, self._count_bytes),
        }.get(name, (None, None))

    def _keep_outputs(self, args, out):
        self._forward_outputs.extend((out.enc, out.ctc_logprobs, out.dec_logits))

    def _count_tape(self, args):
        # the walk is a span of its own, so its time is not charged to the caller
        loss = args[0]
        self._open()
        start = time.perf_counter()
        reach = op_nodes([loss])
        forward = op_nodes(self._forward_outputs)
        self._forward_outputs = []
        self.counts["tensor.tape_nodes"] += len(reach)
        self.counts["tensor.tape_nodes.loss"] += len(reach - forward)
        self._close(TAPE_WALK, start, time.perf_counter())

    def _count_rows(self, args, logits):
        # logits are (batch, positions, vocab): one decoder row per input position
        self.counts["losses.greedy_decode.rows_computed"] += int(logits.shape[0] * logits.shape[1])

    def _count_emitted(self, args, hyp):
        self.counts["losses.greedy_decode.emitted_tokens"] += len(hyp.ids) + (not hyp.truncated)

    def _count_bytes(self, args, result):
        self.counts["checkpoint.save.bytes"] += os.path.getsize(args[1])

    def exact_counts(self):
        """Counts that must repeat exactly for the same inputs."""
        out = {f"{name}.calls": self.calls[name] for name in SPAN_NAMES}
        out.update(self.counts)
        return out
