"""Fully connected inference network with a replaceable first layer.

The model is a plain list of (weights, bias) layers with ReLU between them
and linear logits at the end, trained with mini-batch Adam on softmax
cross-entropy.  Training is deterministic for a fixed seed: He-uniform
initialization, shuffle order, and any pool draws all come from one seeded
generator, and all arithmetic runs in the weight dtype (float32).  Every
training runs with numpy's OpenBLAS pinned to one thread
(``BLAS_THREADS``), so repeated runs produce bitwise-identical weights on
the same numpy/BLAS build and CPU kernel, whatever
``OPENBLAS_NUM_THREADS`` says; another build or kernel can round the
matrix products differently and so change the weights.  Under a BLAS
without OpenBLAS's thread-count functions training runs unpinned, and the
weights then depend on its thread count too.

The Adam update runs in place on flat buffers, in blocks of ``ADAM_BLOCK``
elements that stay in cache, with the same float32 operations per element
as the per-tensor update.  Every ``MOMENT_FLUSH_EVERY`` steps it zeroes the
first moments below ``MOMENT_FLOOR`` (1e-30), which would otherwise decay
into slow float32 subnormals wherever a gradient stays exactly zero.  The
floor moves no weight: with c1 >= 0.1 and a denominator >= eps, a moment
below it moves its weight by at most lr * 1e-21 per step, under half an
ulp of any weight with |w| > 3.4e-17 at lr <= 1e-3, and a gradient that
reaches a zeroed moment again absorbs the lost remainder when
|g| >= 3.4e-22.  Under those two conditions the weights are bitwise those
of unfloored Adam.

One trainer, ``_train_core``, trains every network: a stack of K
networks of identical shape in lockstep, their weights (K, out, in)
arrays in one flat buffer and their products batched matmuls, one GEMM
per network.  Each network has its own seeded generator, best-epoch
snapshot and divergence check, and its weights are bitwise those of
training it alone: a single training is a stack of one.

The first layer L0 doubles as the target of the compression regression:
its pre-activations are what the re-expanders reconstruct.  Heads
(everything after L0) read ``head_inputs``, the float32 ReLU of such
pre-activations, and can be retrained on re-expanded ones, either one
per compression level or as a single head trained across a pool of levels,
with optional validation-split early stopping that keeps the best epoch
(including the unchanged starting point).  The per-level fine-tunes of
one call to ``finetune_head`` train as one stack, so a head does not
depend on which levels share its call.
"""

import contextlib
import ctypes
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, NumericalError
from .tensor_stats import as_rows

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_DECAY_FACTOR = 0.1
ADAM_BLOCK = 1 << 16
MOMENT_FLOOR = 1e-30
MOMENT_FLUSH_EVERY = 16


def _openblas_thread_functions():
    """numpy's OpenBLAS (get, set) thread-count functions, or (None, None).

    The symbol names follow numpy's build config (``scipy-openblas`` adds
    the ``scipy_`` prefix, a ``USE64BITINT`` build the ``64_`` suffix), and
    they resolve through numpy's own extension module, which links that
    library: nothing is searched for on disk.
    """
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 prints its config only
        return None, None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    name = blas.get("name", "")
    if "openblas" not in name:
        return None, None
    prefix = "scipy_" if name.startswith("scipy") else ""
    suffix = "64_" if "USE64BITINT" in blas.get("openblas configuration",
                                                "") else ""
    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
        get = getattr(lib, prefix + "openblas_get_num_threads" + suffix)
        set_ = getattr(lib, prefix + "openblas_set_num_threads" + suffix)
    except (OSError, AttributeError):
        return None, None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


class _BlasThreads:
    """numpy's OpenBLAS thread count, pinned to one thread while any
    training, fit or evaluation runs.

    ``one_thread()`` is reference-counted under a lock: the first holder
    saves the current count and sets 1, the last one to leave restores the
    saved count, so trainings that overlap in several threads never race
    on the process-wide setting.  ``setter`` is None when numpy's BLAS has
    no OpenBLAS thread-count functions; ``one_thread()`` then changes
    nothing.
    """

    def __init__(self):
        self.getter, self.setter = _openblas_thread_functions()
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = None

    @contextlib.contextmanager
    def one_thread(self):
        setter = self.setter
        if setter is None:
            yield
            return
        with self._lock:
            if self._holders == 0:
                self._saved = self.getter()
                setter(1)
            self._holders += 1
        try:
            yield
        finally:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    setter(self._saved)


BLAS_THREADS = _BlasThreads()


@dataclass
class TrainConfig:
    """Adam hyperparameters plus scheduling and early-stopping options.

    Adam (Kingma & Ba, 2015) runs with the fixed module constants
    ``ADAM_BETA1`` = 0.9, ``ADAM_BETA2`` = 0.999 and ``ADAM_EPS`` = 1e-8.
    ``lr_decay_at`` multiplies the learning rate by ``LR_DECAY_FACTOR``
    (0.1) from that epoch onward.  ``val_fraction`` > 0 holds out a seeded
    validation split, tracks accuracy on it after every epoch, and returns
    the best snapshot; an epoch must beat the current best to be adopted,
    so a run that never improves returns the initial weights.
    """

    epochs: int = 30
    learning_rate: float = 1e-3
    batch_size: int = 32
    seed: int = 0
    lr_decay_at: int = None
    val_fraction: float = 0.0

    def __post_init__(self):
        if self.epochs < 0 or self.learning_rate < 0 or self.batch_size < 1:
            raise ValueError("epochs and learning_rate must be non-negative "
                             "and batch_size positive")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")


@dataclass
class MlpModel:
    """Ordered (weights, bias) layers; ReLU between layers, linear logits."""

    layers: list

    def __post_init__(self):
        if not self.layers:
            raise DimensionError("a model needs at least one layer")
        for i in range(1, len(self.layers)):
            prev_out = self.layers[i - 1][0].shape[0]
            cur_in = self.layers[i][0].shape[1]
            if prev_out != cur_in:
                raise DimensionError("layer %d expects %d inputs but the "
                                     "previous layer emits %d"
                                     % (i, cur_in, prev_out))

    @property
    def layer_sizes(self):
        return [self.layers[0][0].shape[1]] + \
            [w.shape[0] for w, _ in self.layers]

    @property
    def dtype(self):
        return self.layers[0][0].dtype


def init_mlp(layer_sizes, seed):
    """He-uniform initialized model with zero biases."""
    if len(layer_sizes) < 2:
        raise DimensionError("need at least an input and an output size")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        b = np.zeros(fan_out, dtype=np.float32)
        layers.append((w.astype(np.float32), b))
    return MlpModel(layers)


def _forward_layers(layers, a):
    for i, (w, b) in enumerate(layers):
        a = a @ w.T + b
        if i < len(layers) - 1:
            a = np.maximum(a, 0)
    return a


def forward(model, x):
    """Logits for one input or a batch of row vectors."""
    return forward_from_layer(model, 0, x)


def forward_from_layer(model, start_layer, x):
    """Forward pass entering at ``start_layer``.

    ``start_layer=0`` is the ordinary forward pass, after a cast to the
    weight dtype.  For ``start_layer>=1`` the input is interpreted as the
    pre-activation that layer ``start_layer - 1`` would have produced: its
    ``head_inputs`` enter the remaining layers.
    """
    if not 0 <= start_layer < len(model.layers):
        raise DimensionError("start_layer %d outside [0, %d)"
                             % (start_layer, len(model.layers)))
    a, single = as_rows(x, model.layers[start_layer][0].shape[1],
                        dtype=None)
    a = (head_inputs(a, model.dtype) if start_layer > 0
         else a.astype(model.dtype, copy=False))
    out = _forward_layers(model.layers[start_layer:], a)
    return out[0] if single else out


def accuracy(model, x, labels):
    """Fraction of argmax predictions matching the labels."""
    return float(np.mean(forward(model, x).argmax(axis=1) == labels))


def _stack_views(flat, layers, n_heads):
    """(w, b) views into ``flat``, each ``(n_heads,) + shape`` of the
    layer's, packed layer by layer."""
    views = []
    start = 0
    for w, b in layers:
        pair = []
        for arr in (w, b):
            size = n_heads * arr.size
            pair.append(flat[start:start + size].reshape((n_heads,)
                                                          + arr.shape))
            start += size
        views.append(tuple(pair))
    return views


def _batch_loss_grads(layers, xb, yb, grads=None):
    """Softmax cross-entropy loss and per-layer gradients for one batch.

    Works on one network (``xb`` of shape (b, n), ``yb`` (b,)) or on a
    stack of K networks of identical shape, trained in lockstep: weights
    (K, out, in), biases (K, out), ``xb`` (K, b, n) and ``yb`` (K, b).  The
    products are batched matmuls, one GEMM per network, and the reductions
    run along each network's own axes, so every network's loss and
    gradients are bitwise those of its own 2-d pass.  ``grads``, when
    given, is a list of (w, b) arrays shaped like ``layers`` that receives
    the gradients in place; otherwise new ones are allocated.  Returns
    (loss, grads), the loss one value per network.
    """
    if grads is None:
        grads = [(np.empty_like(w), np.empty_like(b)) for w, b in layers]
    acts = [xb]
    a = xb
    for i, (w, b) in enumerate(layers):
        a = a @ w.swapaxes(-1, -2)
        a += b[..., None, :]
        if i < len(layers) - 1:
            np.maximum(a, 0, out=a)
        acts.append(a)
    # The logits are not needed by the backward pass, so the softmax
    # overwrites them.
    rows = np.arange(yb.shape[-1])
    target = (rows, yb) if yb.ndim == 1 else \
        (np.arange(len(yb))[:, None], rows, yb)
    p = acts.pop()
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    loss = -np.mean(np.log(p[target] + 1e-30), axis=-1)
    g = p
    g[target] -= 1.0
    g /= len(rows)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw, gb = grads[i]
        np.matmul(g.swapaxes(-1, -2), acts[i], out=gw)
        np.sum(g, axis=-2, out=gb)
        if i > 0:
            g = g @ w
            g *= acts[i] > 0
    return loss, grads


class _FlatAdam:
    """Adam on one flat parameter buffer, updated in place.

    The caller writes each gradient into the flat buffer ``grad``; ``m``
    holds the first moments.  ``step(lr)`` applies one update, elementwise
    in the order of the per-tensor update
    ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``.  It runs the same
    in-place ufuncs over blocks of ``ADAM_BLOCK`` elements of the flat
    buffers, so the working set of each pass stays in cache; every element
    gets the same float32 operations as in one whole-buffer pass.  The
    scratch of a pass spans one block, not the buffer: Adam holds 16 bytes
    per float32 parameter (weight, gradient and both moments).

    Every ``MOMENT_FLUSH_EVERY`` steps, first moments with
    |m| < ``MOMENT_FLOOR`` are set to zero, block by block: without that,
    the moments of weights whose gradient stays exactly zero (dead units,
    unlit pixels) shrink by ``ADAM_BETA1`` per step into float32
    subnormals, on which every pass runs several times slower.  A moment
    that survives a flush shrinks by at most 0.9**16 (about 0.185) before
    the next one, so m and lr * m / c1 stay normal for any lr >= 1e-7.
    """

    def __init__(self, params):
        self.grad = np.empty_like(params)
        self.m = np.zeros_like(params)
        block = min(ADAM_BLOCK, params.size)
        step = np.empty(block, dtype=params.dtype)
        denom = np.empty(block, dtype=params.dtype)
        small = np.empty(block, dtype=bool)
        v = np.zeros_like(params)
        self._blocks = []
        for s in range(0, params.size, ADAM_BLOCK):
            n = min(ADAM_BLOCK, params.size - s)
            self._blocks.append(
                tuple(a[s:s + n] for a in (params, self.grad, self.m, v))
                + (step[:n], denom[:n], small[:n]))
        self._t = 0

    def step(self, lr):
        self._t += 1
        c1 = 1.0 - ADAM_BETA1 ** self._t
        c2 = 1.0 - ADAM_BETA2 ** self._t
        for params, grad, m, v, step, denom, _ in self._blocks:
            m *= ADAM_BETA1
            np.multiply(1.0 - ADAM_BETA1, grad, out=step)
            m += step
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, grad, out=step)
            step *= grad
            v += step
            np.divide(m, c1, out=step)
            np.multiply(lr, step, out=step)
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            params -= step
        if self._t % MOMENT_FLUSH_EVERY == 0:
            for _, _, m, _, _, magnitude, small in self._blocks:
                np.abs(m, out=magnitude)
                np.less(magnitude, MOMENT_FLOOR, out=small)
                np.copyto(m, 0.0, where=small)


def _train_core(layers, pools, labels, cfgs):
    """Adam training of K networks of identical shape, side by side.

    Network k starts from ``layers`` and trains on the aligned input pools
    ``pools[k]`` (each one representation of the same samples, labelled by
    ``labels``, in the weights' dtype) with ``cfgs[k]``; the configs may
    differ only in their seed.  A pool in another dtype is refused, since
    gathering it into a batch would cast it silently.  Each network draws
    from its own seeded generator, exactly as it would alone: its
    validation split, its epoch order and, for more than one pool, one
    pool per batch (no draw is made for a single pool, so the single-pool
    case consumes exactly the same random stream as plain training).
    Batches are gathered from the pools through each network's rows, so
    no fit rows are copied.

    The K networks run in lockstep: their weights are (K, out, in) views
    into one flat buffer, the products are batched matmuls
    (``_batch_loss_grads``) and ``_FlatAdam`` updates the buffer in place,
    block by block, flooring tiny first moments (see the module docstring
    for the bound and the conditions under which the weights equal
    unfloored Adam's bitwise).  Every network's weights and losses are
    bitwise those of training it alone, however the networks are grouped.
    Each network keeps its own best-epoch snapshot and its own divergence
    check.  BLAS runs on one thread throughout (``BLAS_THREADS``).
    Returns one (layers, per-epoch losses) pair per network, its layers
    views into one buffer.
    """
    cfg = cfgs[0]
    if len(pools) != len(cfgs) or any(replace(c, seed=cfg.seed) != cfg
                                      for c in cfgs):
        raise ValueError("stacked networks need one pool list and one "
                         "config each, alike but for the seed")
    dtype = layers[0][0].dtype
    if any(np.asarray(p).dtype != dtype for ps in pools for p in ps):
        raise DimensionError("training pools must be in the weights' "
                             "dtype %s" % dtype)
    n_heads = len(cfgs)
    with BLAS_THREADS.one_thread():
        params = np.concatenate([np.repeat(a[None], n_heads, axis=0).ravel()
                                 for pair in layers for a in pair])
        stack = _stack_views(params, layers, n_heads)
        adam = _FlatAdam(params)
        grads = _stack_views(adam.grad, layers, n_heads)
        rngs = [np.random.default_rng(c.seed) for c in cfgs]
        n = len(labels)

        fit_rows = np.broadcast_to(np.arange(n), (n_heads, n))
        val_sets = None
        if cfg.val_fraction > 0.0:
            n_val = int(round(cfg.val_fraction * n))
            perms = [rng.permutation(n) for rng in rngs]
            fit_rows = np.stack([perm[n_val:] for perm in perms])
            val_sets = [([p[perm[:n_val]] for p in head_pools],
                         labels[perm[:n_val]])
                        for perm, head_pools in zip(perms, pools)]

        def head_layers(views, k):
            return [(w[k], b[k]) for w, b in views]

        def val_accuracy(k):
            val_pools, val_labels = val_sets[k]
            hits = 0.0
            for p in val_pools:
                logits = _forward_layers(head_layers(stack, k), p)
                hits += float(np.mean(logits.argmax(axis=1) == val_labels))
            return hits / len(val_pools)

        best = best_val = None
        if val_sets is not None:
            best = _stack_views(params.copy(), layers, n_heads)
            best_val = [val_accuracy(k) for k in range(n_heads)]

        n_fit = fit_rows.shape[1]
        n_in = layers[0][0].shape[1]
        losses = [[] for _ in range(n_heads)]
        for epoch in range(cfg.epochs):
            lr = cfg.learning_rate
            if cfg.lr_decay_at is not None and epoch >= cfg.lr_decay_at:
                lr = lr * LR_DECAY_FACTOR
            rows = np.take_along_axis(
                fit_rows, np.stack([rng.permutation(n_fit) for rng in rngs]),
                axis=1)
            totals = np.zeros(n_heads)
            for start in range(0, n_fit, cfg.batch_size):
                idx = rows[:, start:start + cfg.batch_size]
                xb = np.empty((n_heads, idx.shape[1], n_in), params.dtype)
                for k, (rng, head_pools) in enumerate(zip(rngs, pools)):
                    pool = (rng.integers(len(head_pools))
                            if len(head_pools) > 1 else 0)
                    # "clip" gathers straight into xb[k], where the
                    # default mode would buffer; every row is in range.
                    np.take(head_pools[pool], idx[k], axis=0, out=xb[k],
                            mode="clip")
                loss, _ = _batch_loss_grads(stack, xb, labels[idx], grads)
                totals += loss.astype(np.float64) * idx.shape[1]
                adam.step(lr)
            for k in range(n_heads):
                epoch_loss = float(totals[k] / n_fit)
                if not np.isfinite(epoch_loss):
                    raise NumericalError(
                        "training diverged: epoch %d loss is %r (seed %d)"
                        % (epoch, epoch_loss, cfgs[k].seed))
                losses[k].append(epoch_loss)
            if val_sets is not None:
                for k in range(n_heads):
                    va = val_accuracy(k)
                    if va > best_val[k]:
                        best_val[k] = va
                        for (bw, bb), (w, b) in zip(best, stack):
                            bw[k] = w[k]
                            bb[k] = b[k]
        final = stack if best is None else best
        return [(head_layers(final, k), losses[k]) for k in range(n_heads)]


def train(model, x, labels, cfg):
    """Train a model on labeled inputs; returns (model, per-epoch losses)."""
    x = np.asarray(x).astype(model.dtype, copy=False)
    labels = np.asarray(labels)
    if len(x) != len(labels):
        raise DimensionError("inputs and labels must have equal length")
    [(layers, losses)] = _train_core(model.layers, [[x]], labels, [cfg])
    return MlpModel(layers), losses


def head_inputs(values, dtype):
    """What a head reads: the ReLU of pre-activations, in ``dtype``.

    The ReLU is taken in the input's precision, then the cast, so a
    float64 reconstruction rounds once.  This is the one rule every head
    input obeys: ``forward_from_layer`` applies it on entry after layer 0,
    and the pipeline's evaluation applies it once to each reconstruction
    it scores; the trainers take their pools as made.
    """
    return np.maximum(values, 0).astype(dtype, copy=False)


def head_model(model):
    """The model with its first layer removed, copied."""
    if len(model.layers) < 2:
        raise DimensionError("model has no head beyond its first layer")
    return MlpModel([(w.copy(), b.copy()) for w, b in model.layers[1:]])


def finetune_head(head, pools, labels, cfg):
    """Continue training copies of ``head``, one per entry of ``pools``.

    ``pools`` maps a compression size k to its head inputs, as
    ``head_inputs`` makes them in the head's dtype; the copy for k trains
    on them as given, with seed ``cfg.seed + k`` and every other setting
    of ``cfg``.  The copies train as one stack in lockstep
    (``_train_core``), each bitwise as it would alone, so a head does not
    depend on which sizes share its call.
    Returns the trained heads keyed like ``pools``.
    """
    sizes = list(pools)
    trained = _train_core(head.layers,
                          [[pools[k]] for k in sizes],
                          np.asarray(labels),
                          [replace(cfg, seed=cfg.seed + k) for k in sizes])
    return {k: MlpModel(layers) for k, (layers, _) in zip(sizes, trained)}


# Nothing in the package calls this; it is kept because the benchmark traces
# it under ``pipeline``.
def train_head_on_z(z, labels, head_sizes, cfg):
    """Train a fresh classifier that consumes compressed features directly."""
    z = np.asarray(z)
    if head_sizes[0] != z.shape[1]:
        raise DimensionError("head input size %d does not match n_z=%d"
                             % (head_sizes[0], z.shape[1]))
    return train(init_mlp(head_sizes, cfg.seed), z, labels, cfg)[0]


def train_multi_rho_head(model, pools, labels, cfg):
    """One head trained across re-expanded pools from several sizes.

    ``pools`` maps each compression size to the head inputs of that
    size's re-expanded training matrix (``head_inputs``, all aligned to
    the same samples), read as given.  Each mini-batch draws one pool
    uniformly, so the head amortizes over every size.  A single-entry
    mapping reduces exactly to ``finetune_head(head_model(model),
    {0: ...}, ...)``.
    """
    if not pools:
        raise ValueError("pools must contain at least one compression size")
    [(layers, _)] = _train_core(head_model(model).layers,
                                [[pools[k] for k in sorted(pools)]],
                                np.asarray(labels), [cfg])
    return MlpModel(layers)
