"""Reference forms of the LU dressing and the measurement, kept as test oracles.

The library reaches each qubit with integer reshapes and one ``np.dot`` per
step; these bodies reach it with ``np.tensordot`` and ``np.moveaxis``, and
draw the dressing three uniforms at a time with ``np.exp`` phases.  Both must
give the same bits, so state files written from a seed keep their bytes.
"""
import math

import numpy as np

from entdex.properties import _BASIS_VECTORS, PROBABILITY_FLOOR


def tensordot_apply_local_unitary(psi, u):
    """Amplitudes of U_0 (x) ... (x) U_{N-1} |psi>, one tensordot per qubit."""
    n = psi.n_qubits
    t = psi.vec.reshape([2] * n)
    for q, m in enumerate(u.matrices):
        t = np.moveaxis(np.tensordot(m, t, axes=([1], [q])), 0, q)
    return t.reshape(-1)


def tensordot_measure_qubit(psi, q, basis):
    """(probability, post-state amplitudes) per kept outcome, by tensordot."""
    n = psi.n_qubits
    t = psi.vec.reshape([2] * n)
    outcomes = []
    for v in _BASIS_VECTORS[basis]:
        w = np.tensordot(v.conj(), t, axes=([0], [q]))
        prob = float(np.vdot(w, w).real)
        if prob < PROBABILITY_FLOOR:
            continue
        post = np.moveaxis(np.tensordot(v, w, axes=0), 0, q)
        outcomes.append((prob, post.reshape(-1) / math.sqrt(prob)))
    return outcomes


def looped_local_unitary_matrices(n, rng):
    """The n Haar matrices, drawn three uniforms at a time with numpy phases."""
    mats = []
    for _ in range(n):
        u, phi_frac, lam_frac = rng.random(3)
        theta = 2.0 * math.acos(math.sqrt(float(u)))
        phi = 2.0 * math.pi * float(phi_frac)
        lam = 2.0 * math.pi * float(lam_frac)
        c = math.cos(theta / 2.0)
        s = math.sin(theta / 2.0)
        mats.append(
            np.array(
                [
                    [c, -np.exp(1j * lam) * s],
                    [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
                ],
                dtype=np.complex128,
            )
        )
    return mats
