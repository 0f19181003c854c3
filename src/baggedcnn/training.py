"""Single-model training: sparse categorical cross-entropy, Adam, epoch loop.

Loss is reported as the batch mean; gradients from the network are summed
over the batch, so the fused softmax+loss gradient is (probs - onehot)/B.
"""

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import layers, network
from .data import write_csv
from .errors import InputError, NumericError
from .layers import softmax
from .metrics import check_labels

PROB_FLOOR = 1e-12  # clamp before log so confident-wrong predictions stay finite


def sparse_cce(probs, labels):
    """Mean over the batch of -log(probs[i, labels[i]])."""
    probs = np.asarray(probs)
    labels = check_labels(labels, probs.shape[-1])
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def softmax_cce(logits, labels):
    """Fused softmax + loss: (mean loss, probs, dLogits=(probs-onehot)/B)."""
    probs = softmax(logits)
    labels = check_labels(labels, probs.shape[-1])
    b = len(labels)
    loss = sparse_cce(probs, labels)
    dlogits = probs.copy()
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    return loss, probs, dlogits.astype(logits.dtype, copy=False)


@dataclass
class AdamState:
    """Per-parameter moment accumulators; t counts completed steps."""

    m: dict
    v: dict
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eta: float = 0.001
    epsilon: float = 1e-8

    @classmethod
    def fresh(cls, params, beta1=0.9, beta2=0.999, eta=0.001, epsilon=1e-8):
        return cls(
            m={k: np.zeros_like(v) for k, v in params.items()},
            v={k: np.zeros_like(v) for k, v in params.items()},
            beta1=beta1, beta2=beta2, eta=eta, epsilon=epsilon,
        )


def _adam_update(state, theta, g, m, v):
    """Adam's update of theta from its gradient g, in place, and of its
    moments m and v: the operations of the textbook form in its order, so
    the same bits.  An array of more than `layers.BLOCK_VALUES` values runs
    in the blocks of rows of `layers.row_blocks`, so each block's arrays
    stay in cache.  Returns whether the new theta is finite."""
    t = state.t
    b1, b2 = state.beta1, state.beta2
    finite = True
    big = theta.size > layers.BLOCK_VALUES  # so at least 1-d
    for rows in layers.row_blocks(len(theta), theta[0].size) if big else [...]:
        th, gr, mo, ve = theta[rows], g[rows], m[rows], v[rows]
        mo *= b1
        work = np.multiply(gr, 1 - b1)
        mo += work
        ve *= b2
        np.square(gr, out=work)
        work *= 1 - b2
        ve += work
        # work = sqrt(vhat + eps); new = eta * mhat / work, then theta - new
        np.divide(ve, 1 - b2**t, out=work)
        work += state.epsilon
        np.sqrt(work, out=work)
        new = mo / (1 - b1**t)
        new *= state.eta
        new /= work
        np.subtract(th, new, out=th)
        finite &= bool(np.isfinite(th).all())
    return finite


_NON_FINITE_GRADIENT = "non-finite gradient for parameter {!r}"
_NON_FINITE_VALUE = "non-finite value in parameter {!r} after an Adam step"


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises instead
def adam_step(params, grads, state: AdamState):
    """One update: moment EMAs, bias correction, step of size
    eta/sqrt(vhat + eps) * mhat (epsilon inside the root).  Returns
    (parameters, state).  A non-finite gradient or new parameter raises
    NumericError naming the parameter, the first in params' order.

    grads is either a mapping of gradients, or the backward of a
    `network.forward_vjp` pass bound to its upstream.  Given a mapping,
    the step is out of place: it returns new parameter arrays, writes
    neither params nor grads, and a non-finite gradient raises before its
    parameter's moments move.  Given the backward, it drives it and
    updates params in place, each piece as the backward hands it on, so
    no full set of gradients is held (`network.forward_vjp`); it returns
    params itself, and its verdict comes after the whole pass.  Both forms
    run one in-place update (`_adam_update`), the same bits.
    """
    state.t += 1
    if isinstance(grads, Mapping):
        out = {}
        for key, theta in params.items():
            g = np.asarray(grads[key])
            if not np.all(np.isfinite(g)):
                raise NumericError(_NON_FINITE_GRADIENT.format(key))
            out[key] = theta.copy()
            if not _adam_update(state, out[key], g, state.m[key], state.v[key]):
                raise NumericError(_NON_FINITE_VALUE.format(key))
        return out, state
    bad_grads, bad_values = set(), set()

    def update(key, rows, g):
        if not np.all(np.isfinite(g)):
            bad_grads.add(key)
        elif not _adam_update(state, params[key][rows], g, state.m[key][rows],
                              state.v[key][rows]):
            bad_values.add(key)

    grads(update=update)
    for key in params:
        if key in bad_grads:
            raise NumericError(_NON_FINITE_GRADIENT.format(key))
        if key in bad_values:
            raise NumericError(_NON_FINITE_VALUE.format(key))
    return params, state


def integer_at_least(low):
    """Rule of an integer setting: a Python or numpy integer >= low."""
    return (lambda v, owner: isinstance(v, (int, np.integer)) and v >= low), f"an integer >= {low}"


_POSITIVE = (lambda v, owner: 0 < v < math.inf), "a finite number above 0"  # NaN fails too
_DECAY = (lambda v, owner: 0 <= v < 1), "in [0, 1)"

# TrainConfig field -> (ok, must): ok(value, owner) is true of a good value,
# and must says what one is.  The CLI checks its settings by the same rules.
RULES = {"epochs": integer_at_least(0), "batch_size": integer_at_least(1), "eta": _POSITIVE,
         "beta1": _DECAY, "beta2": _DECAY, "epsilon": _POSITIVE, "seed": integer_at_least(0)}


def check_rules(owner, rules):
    """InputError naming the first field of owner whose value breaks its rule."""
    for name, (ok, must) in rules.items():
        value = getattr(owner, name)
        if not ok(value, owner):
            raise InputError(f"{name} must be {must}, got {value!r}")


def check_lengths(images, labels):
    """InputError unless there is one label per image."""
    if len(images) != len(labels):
        raise InputError(f"{len(images)} images but {len(labels)} labels")


def check_training_set(images, labels):
    """InputError unless the set is not empty, there is one label per image
    and the images are floating point: the parameters take their dtype."""
    if len(labels) == 0:
        raise InputError("training set is empty")
    check_lengths(images, labels)
    if not np.issubdtype(images.dtype, np.floating):
        raise InputError(f"training images must be floating point, got {images.dtype}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    eta: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        check_rules(self, RULES)


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)

    def to_csv(self, path):
        columns = (self.train_loss, self.train_acc, self.val_loss, self.val_acc)
        write_csv(path, ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"],
                  ([i + 1] + [f"{c[i]:.6f}" if i < len(c) else "" for c in columns]
                   for i in range(len(self.train_loss))))


def evaluate(model, params, images, labels):
    """(mean loss, accuracy) over a labeled set; the loss is summed per
    `network.PREDICT_BATCH` rows."""
    labels = check_labels(labels, model.n_classes)
    if len(labels) == 0:
        raise InputError("evaluation set is empty")
    check_lengths(images, labels)
    probs = network.predict_probs(model, [params], images)[0]
    n, step = len(labels), network.PREDICT_BATCH
    loss = sum(sparse_cce(probs[rows], labels[rows]) * len(labels[rows])
               for rows in (slice(lo, lo + step) for lo in range(0, n, step)))
    return loss / n, int((probs.argmax(axis=1) == labels).sum()) / n


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises instead
def train_submodel(model, images, labels, config: TrainConfig, val=None):
    """Train one CNN from scratch; returns (params, history).

    Fully deterministic given config.seed: initialization, per-epoch
    shuffling, and batching all derive from it.  The trailing partial batch
    is trained, not dropped.
    Parameters large enough to overflow a forward or backward pass raise
    NumericError at the softmax or Adam step's finiteness check.
    """
    check_training_set(images, labels)
    labels = check_labels(labels, model.n_classes)
    params = network.init_params(model, config.seed, dtype=images.dtype)
    state = AdamState.fresh(params, config.beta1, config.beta2, config.eta, config.epsilon)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    history = TrainHistory()
    n = len(labels)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0
        for lo in range(0, n, config.batch_size):
            sel = order[lo : lo + config.batch_size]
            xb, yb = images[sel], labels[sel]
            logits, bwd = network.forward_vjp(model, params, xb)
            loss, probs, dlogits = softmax_cce(logits, yb)
            # updates params in place as the backward makes each gradient
            params, state = adam_step(params, functools.partial(bwd, dlogits), state)
            epoch_loss += loss * len(sel)
            epoch_correct += int((probs.argmax(axis=1) == yb).sum())
        history.train_loss.append(epoch_loss / n)
        history.train_acc.append(epoch_correct / n)
        if val is not None:
            vloss, vacc = evaluate(model, params, val[0], val[1])
            history.val_loss.append(vloss)
            history.val_acc.append(vacc)
    return params, history
