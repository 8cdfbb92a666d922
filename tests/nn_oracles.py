"""Reference implementations of the array kernels in unmixlab.nn.

adam_step is Adam over a dict of named parameters, one parameter at a
time: the form that nn.apply_gradients runs once over the flat parameter
vector. The tests require the two to agree bit for bit.
"""

import numpy as np

from unmixlab.nn import AdamState, DivergenceError


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; returns the new parameter values.

    The state is advanced in place (moments and step counter); each
    parameter's moments are the next slice of the flat state.m and state.v
    in the dict's iteration order. Mismatched names or shapes raise
    ValueError and non-finite gradients DivergenceError, before any state
    is touched.
    """
    if set(params) != set(grads):
        raise ValueError("parameter and gradient name sets differ")
    for name, g in grads.items():
        if np.asarray(g).shape != np.asarray(params[name]).shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient in {name}")
    if state.m is None:
        size = sum(np.asarray(p).size for p in params.values())
        state.m, state.v = np.zeros(size), np.zeros(size)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    new_params: dict[str, np.ndarray] = {}
    start = 0
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        sl = slice(start, start + g.size)
        start = sl.stop
        m = state.m[sl].reshape(g.shape)
        v = state.v[sl].reshape(g.shape)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / c1
        v_hat = v / c2
        new_params[name] = p - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_params
