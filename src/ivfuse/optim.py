"""Trainable parameters and the AdamW update rule.

A ``Parameter`` is a leaf ``Tensor`` that also carries its name, its
first/second moment accumulators and a per-parameter step counter, so
checkpoints can restore the optimizer mid-run exactly; ops take it as any
other tensor. The moments are allocated at the first ``adamw_step``, so a
model that is only run holds its values alone.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8
ADAMW_WEIGHT_DECAY = 0.01


class Parameter(Tensor):
    """Named leaf tensor that requires grad, with optimizer state. ``m`` and
    ``v`` are None until the first ``adamw_step`` (or a checkpoint's
    moments) sets them; a parameter never stepped is saved with zero
    moments."""

    __slots__ = ("name", "m", "v", "step")

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.m = None
        self.v = None
        self.step = 0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, step={self.step})"


def adamw_step(params, lr: float, weight_decay: float = ADAMW_WEIGHT_DECAY) -> None:
    """One decoupled-weight-decay Adam step over ``params``.

    Decay is applied to the incoming parameter value before the moment
    update is subtracted; gradients are left untouched for the caller to
    zero. Every parameter must have a populated gradient. A parameter whose
    moments are None starts them at zero.
    """
    b1, b2 = ADAMW_BETAS
    for p in params:
        if p.grad is None:
            raise ValueError(f"adamw_step: parameter {p.name!r} has no gradient")
    for p in params:
        g = p.grad
        if p.m is None:
            p.m, p.v = np.zeros_like(p.data), np.zeros_like(p.data)
        p.step += 1
        t = p.step
        p.m = b1 * p.m + (1.0 - b1) * g
        p.v = b2 * p.v + (1.0 - b2) * (g * g)
        mhat = p.m / (1.0 - b1 ** t)
        vhat = p.v / (1.0 - b2 ** t)
        new = p.data * (1.0 - lr * weight_decay)
        new -= lr * mhat / (np.sqrt(vhat) + ADAMW_EPS)
        p.data = new


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
