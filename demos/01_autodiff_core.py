"""The numeric core: tensors, the op set, and reverse-mode gradients.

Builds a tiny computation, checks one gradient against finite differences,
and shows the AdamW update shrinking a quadratic.
"""

import numpy as np

from ivfuse.optim import Parameter, adamw_step, zero_grads
from ivfuse.tensor import Tensor, reduce_sum, sigmoid, softmax

print("== forward ops ==")
x = Tensor([[1.0, -2.0], [0.5, 3.0]])
print("softmax rows:", softmax(x, axis=-1).data)
print("sigmoid(0) :", sigmoid(Tensor([0.0])).data)

print("\n== reverse mode ==")
w = Tensor([3.0], requires_grad=True)
loss = reduce_sum(w * w)          # d/dw (w^2) = 2w
loss.backward()
print("grad of sum(w*w) at w=3:", w.grad, "(expected [6])")

# finite-difference sanity on a composite expression
w2 = Tensor([0.3, -0.7], requires_grad=True)
reduce_sum(sigmoid(w2 * w2)).backward()
eps = 1e-6
numeric = []
for i in range(2):
    for sign in (+1, -1):
        probe = np.array([0.3, -0.7])
        probe[i] += sign * eps
        val = reduce_sum(sigmoid(Tensor(probe) * Tensor(probe))).item()
        numeric.append(val)
fd = [(numeric[0] - numeric[1]) / (2 * eps), (numeric[2] - numeric[3]) / (2 * eps)]
print("analytic:", w2.grad, " finite-diff:", np.round(fd, 8))

print("\n== AdamW on a quadratic ==")
p = Parameter("w", np.array([5.0, -4.0]))
for step in range(300):
    loss = reduce_sum(p * p)
    loss.backward()
    adamw_step([p], lr=0.05, weight_decay=0.0)
    zero_grads([p])
    if step % 100 == 0:
        print(f"step {step:3d}: w = {np.round(p.data, 4)}")
print("final:", np.round(p.data, 4), "(driving toward the origin)")
