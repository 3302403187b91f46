"""Recover the finest tensor factorization of a pure state and assign its class.

Detection principle: for a globally pure state, the marginal on a subset S is
itself pure exactly when S is a tensor factor, and the finest factorization
into such factors is unique.  It is found by a Schmidt peel along nested
views of the input, one level per qubit, so no subsets are enumerated.  A
level of 2^12 entries or more with two or more candidate blocks contracts
itself, block by block, with the state each block takes on the level's
heavy row: by Eckart-Young the overlap F of that chain bounds the purity
defect of every block it keeps by 1 - F^2 (G. Vidal, quant-ph/0301063, for
the successive Schmidt decompositions).  The purity defect is subadditive,
so the one block left last, whichever it is, is often decided by the
defects of the others; only the rest pay cut tests.  Blocks whose cut it decided only on a
row are certified on the caller's state, read in place, by the same chain
or by a cut test.  A cut with 6 qubits or more on each side is decided in
O(2^N) between a lower bound (Cauchy interlacing) and an upper bound
(Eckart-Young) on its defect; only a defect between them, or a narrower
cut, pays the exact marginal purity, about 2^(N + k) work for a smaller side
of k qubits.  The index is E = N - p for p blocks.

Density matrices go through the same peel: rho = rho_A (x) rho_B exactly
when rho realigned across A|B, rows (r_A, c_A) and columns (r_B, c_B), has
rank 1 (K. Chen and L.-A. Wu, quant-ph/0205017).  So the peel reads rho's
entries in memory order as a state of 2N qubits, site q being qubit q's row
and column bits, and ``tol`` bounds the purity defect 1 - tr(rho^2) of a
marginal of that state or of a pure one.  It scales as the square of the
perturbation that entangles the marginal.  A failed certification raises
FactorizationError on both paths.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .partitions import as_partition, index_of
from .states import (
    DEFAULT_TOL,
    DensityMatrix,
    PureState,
    _adopt,
    _cut_matrix,
    integer,
    marginal_purity,
    partial_trace,  # noqa: F401  perfbench/tracing.py wraps entdex.classify.partial_trace
    qubit_subset,
)

LABEL_SEPARABLE = "fully separable"
Blocks = tuple[tuple[int, ...], ...]


class FactorizationError(RuntimeError):
    """A block found by the peel failed certification: its marginal on the
    input state, or on rho's entries read as a state of 2N qubits, has a
    purity defect above tol, so the tolerance is numerically borderline for
    this state."""


@dataclass(frozen=True)
class ClassReport:
    """Classification result: block structure, shape, and index E = N - p."""

    n_qubits: int
    blocks: tuple[tuple[int, ...], ...]
    shape: tuple[int, ...]
    index: int
    label: str
    tolerance_used: float
    warning: str | None = None


@dataclass(frozen=True)
class Ensemble:
    """Probability-weighted terms, each an integer partition or a pure state."""

    n_qubits: int
    terms: tuple[tuple[float, Union[tuple[int, ...], PureState]], ...]

    def __post_init__(self) -> None:
        n = integer(self.n_qubits, 1, "n_qubits must be a positive integer, got {!r}")
        norm_terms = []
        total = 0.0
        for prob, payload in self.terms:
            if isinstance(prob, bool) or not isinstance(prob, numbers.Real):
                raise ValueError(f"probability {prob!r} is not a real number")
            try:
                prob = float(prob)
            except OverflowError:  # an integer beyond the float range
                prob = math.inf if prob > 0 else -math.inf
            if not 0.0 < prob <= 1.0:
                raise ValueError(f"probabilities must lie in (0, 1], got {prob}")
            total += prob
            if isinstance(payload, PureState):
                if payload.n_qubits != n:
                    raise ValueError(f"state term has {payload.n_qubits} qubits, expected {n}")
            else:
                payload = as_partition(payload)
                if sum(payload) != n:
                    raise ValueError(f"partition term {payload} does not sum to {n}")
            norm_terms.append((prob, payload))
        if abs(total - 1.0) > DEFAULT_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        object.__setattr__(self, "terms", tuple(norm_terms))


def _check_tol(tol: float) -> float:
    # a float first: the Real check alone takes about 0.7 us per call
    real = isinstance(tol, float) or (isinstance(tol, numbers.Real) and not isinstance(tol, bool))
    if not (real and math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    return float(tol)


# allowance for rounding in a bound on a defect: 64 units of 2**-52 per qubit of the vector
_ROUNDING_PER_QUBIT = 64 * 2.0**-52


def _product_overlap(level: np.ndarray, groups: list[list[int]], covectors: Iterable[np.ndarray],
                     total: float, budget: float):
    """The contraction chain of ``level`` (2^n entries of squared norm
    ``total``, bits 0..n-1 in memory order) with <phi_B| of ``covectors``,
    each on the bits of its group of ``groups`` in increasing order: for each
    block in turn, whether its contraction was kept, and F so far.  F =
    |t|^2 / (total |phi|^2), for t the level contracted with the kept
    covectors, is the level's overlap with a product state; so by
    Eckart-Young F <= sigma_1^2 across the cut of each kept block and of
    their union, and each has a defect of at most 1 - F^2.  A contraction is
    kept while 1 - F^2 <= ``budget``.  The level is read as it lies when the
    other bits lead and the groups follow them in some order, and is else
    reordered once, the groups in turn after the other bits; each step
    multiplies a covector into one contiguous slab per value of the bits
    before its group."""
    n = level.size.bit_length() - 1
    placed = sorted(groups)  # as the level lies, if the groups tile its last bits in order
    lying = [p for group in placed for p in group]
    free = n - len(lying)
    if lying == list(range(free, n)):
        t = level.reshape(-1)
    else:
        inner = {*lying}
        placed = groups
        order = [p for p in range(n) if p not in inner] + [p for group in groups for p in group]
        t = level.reshape([2] * n).transpose(order).reshape(-1)
    axes = [2**free] + [2 ** len(group) for group in placed]  # t's, in memory order
    left, weight, overlap = [None] + placed, total, 1.0
    for group, u in zip(groups, covectors):
        k = left.index(group)
        before = math.prod(axes[:k])
        after = t.size // (before * len(u))
        c = t.reshape(before, len(u)) @ u if after == 1 else u @ t.reshape(before, len(u), after)
        w = weight * float(np.vdot(u, u).real)
        f = float(np.vdot(c, c).real) / w
        kept = 1.0 - f * f <= budget
        if kept:
            t, weight, overlap = c, w, f
            del left[k], axes[k]
        del c  # a skipped contraction is not held while the next covector is read
        yield kept, overlap


def _normalized(view: np.ndarray, total: float) -> PureState:
    """``view / sqrt(total)``, its entries in memory order, as a PureState that
    holds the one scaled copy, scaled as float64 pairs and then flattened."""
    scaled = view.view(np.float64) * (1.0 / math.sqrt(total))
    return _adopt(scaled.view(np.complex128).reshape(-1))


# a level of at least this many entries runs the product-overlap chain; on a
# smaller one the cut tests cost less than the chain's numpy calls
_CHAIN_SIZE = 2**12

# the bounds decide cuts whose smaller side has at least this many qubits;
# below it the exact Gram matrix costs less than the bounds' numpy calls
_BOUND_SIDE = 6


def _cut_bounds(view: np.ndarray, keep: list[int]) -> tuple[float, float]:
    """(lower, upper) bounds on the purity defect of the cut ``keep`` | rest of
    ``view`` (any norm and shape; its 2^n entries in memory order are bits
    0..n-1), in O(view.size) work on one contiguous (side, rest) copy m.
    With row weights w, the heaviest row k and c = m m_k^H: the 2x2
    Gram matrix of row k and of the row farthest from it is a principal
    submatrix of m m^H, so by Cauchy interlacing its smaller eigenvalue over
    sum(w) is at most p_2 <= 1 - p_1 <= 1 - sum(p^2).  Row k after one power
    step, v = c^H m, gives F = |m v|^2 / (|v|^2 sum(w)) <= p_1, so by
    Eckart-Young the defect is at most 1 - F^2."""
    m = np.ascontiguousarray(_cut_matrix(view, keep))  # the reorder may be a strided view
    flat = m.view(np.float64)
    w = np.einsum("ij,ij->i", flat, flat)
    k = int(w.argmax())
    c = m @ m[k].conj()
    c2 = c.real**2 + c.imag**2
    far = w - c2 / w[k]  # each row's squared distance from row k's span
    i = int(far.argmax())
    total = float(w.sum())
    # the smaller eigenvalue as determinant over the larger, which does not cancel
    low = w[k] * far[i] / ((w[k] + w[i]) / 2 + math.hypot((w[k] - w[i]) / 2, math.sqrt(c2[i])))
    low = float(low) / total
    v = c.conj() @ m
    t = m @ v.conj()
    overlap = float(np.vdot(t, t).real) / (float(np.vdot(v, v).real) * total)
    return low, 1.0 - overlap**2


def _union_bound(defects: list[float], allowance: float) -> float:
    """A bound on the defect of a union of blocks, from theirs and one more
    ``allowance`` for the reading it is compared with: the purity defect is
    the Tsallis q = 2 entropy, which is subadditive (K. M. R. Audenaert,
    J. Math. Phys. 48, 083507 (2007))."""
    return sum(max(d, 0.0) + allowance for d in defects) + allowance


def _levels(state: Union[PureState, DensityMatrix]) -> list[tuple]:
    """The peel's top-down pass: (view, total, defect, column) of levels
    0..N-2.  Level 0 is the input and level j + 1 the heaviest row of level j
    over site j (ties to the first), a view of the input.  Site j's Gram
    matrix G gives the total tr G, the scale-invariant defect
    1 - |G|^2 / tr(G)^2 and the heavy row's column of G.  A pure level's rows
    are its two halves a and b, so G = [[<a,a>, <b,a>], [<a,b>, <b,b>]] takes
    three dot products; rho's rows 2a + b, of site j's row bit a and column
    bit b, are reordered into one copy and multiplied by its conjugate."""
    levels = []
    if isinstance(state, DensityMatrix):
        view = state.mat
        for _ in range(state.n_qubits - 1):
            quad = view.reshape(2, len(view) // 2, 2, -1)
            rows = quad.transpose(0, 2, 1, 3).reshape(4, -1)
            gram = rows @ rows.conj().T
            weights = gram.diagonal().real.tolist()
            k = weights.index(max(weights))
            total = sum(weights)
            defect = 1.0 - float(np.vdot(gram, gram).real) / total**2
            levels.append((view, total, defect, gram[:, k]))
            view = quad[k // 2, :, k % 2]
        return levels
    view = state.vec
    for _ in range(state.n_qubits - 1):
        h = len(view) // 2
        a, b = view[:h], view[h:]
        w0, w1 = float(np.vdot(a, a).real), float(np.vdot(b, b).real)
        c = complex(np.vdot(a, b))
        total = w0 + w1
        defect = 1.0 - (w0 * w0 + w1 * w1 + 2.0 * (c.real * c.real + c.imag * c.imag)) / total**2
        if w1 > w0:
            levels.append((view, total, defect, [c.conjugate(), w1]))
            view = b
        else:
            levels.append((view, total, defect, [w0, c]))
            view = a
    return levels


def _covectors(levels: list[tuple], j: int, blocks: list[tuple[int, ...]], bits: int):
    """<phi_B| of each block of row j + 1 of the peel's ``levels`` in turn: a
    single site's is the Gram column of its own level, and any other block's
    (the last site's too, which has no level) is the slice of the row
    through the row's largest entry."""
    n = len(levels) + 1
    row, size, at = levels[j + 1][0], bits * (n - j - 1), None
    for block in blocks:
        if len(block) == 1 and block[0] < n - 1:
            yield np.conj(levels[block[0]][3])
            continue
        if at is None:
            # a heavy row of a positive rho is a diagonal block, so its largest entry is on
            # its diagonal; a row of a non-positive rho may have a zero diagonal
            i = int(abs(row.diagonal()).argmax()) if bits == 2 else None
            peak = i * (len(row) + 1) if i is not None and row[i, i] else int(abs(row).argmax())
            at = [(peak >> (size - 1 - p)) & 1 for p in range(size)]  # for rho, row bits then column bits
            grid = row.reshape([2] * size)
        index = at.copy()
        for q in block:
            for w in (0, size // bits)[:bits]:
                index[q - j - 1 + w] = slice(None)
        yield np.conj(grid[tuple(index)]).reshape(-1)


def _chain(levels: list[tuple], j: int, blocks: list[tuple[int, ...]], bits: int, budget: float,
           settled) -> tuple[float | None, list[tuple[int, ...]], bool]:
    """One product-overlap chain on level j of the peel's ``levels`` over
    ``blocks``, blocks of its row, in order: 1 - F^2 of the blocks it kept,
    or None; the blocks it neither kept nor settled, in order; and whether
    it settled the last block.  It stops at its second skip, and before the
    last block when it kept every other one: ``settled`` of their bound
    then decides the last, which is not contracted."""
    view, total, _, _ = levels[j]
    width = len(levels) + 1 - j
    groups = [[q - j + w for w in (0, width)[:bits] for q in sorted(block)] for block in blocks]
    steps = _product_overlap(view, groups, _covectors(levels, j, blocks, bits), total, budget)
    bound, left = None, []
    for i, block in enumerate(blocks):
        if i == len(blocks) - 1 and not left and bound is not None and settled([bound]):
            return bound, left, True
        if len(left) == 2:
            return bound, left + blocks[i:], False
        kept, overlap = next(steps)
        if kept:
            bound = 1.0 - overlap * overlap
        else:
            left.append(block)
    return bound, left, False


def _factorize(state: Union[PureState, DensityMatrix], tol: float) -> tuple[Blocks, bool]:
    """Certified finest blocks of ``state`` in canonical order, and whether
    any decision was near tol.

    Site q is qubit q: bit q of ``psi.vec``, or bits q and N + q (its row
    and column bits) of ``rho.mat``.  Top-down, ``_levels`` follows the
    heaviest rows, views of the input, and reads site j's Gram matrix once
    per level: from three dot products of a pure level's halves, or from
    rho's reordered rows.  Bottom-up: a tensor factor of level j that leaves
    out site j is a factor of each of its rows, so every block of level j + 1
    is a block of level j or a piece of site j's block, and only the former
    is pure on level j; a lone block is site j's complement.

    On a level with two or more blocks and ``_CHAIN_SIZE`` entries or more,
    ``_chain`` runs one ``_product_overlap`` on level j, a 1-D view of psi or
    a strided 2-D view of rho read in place, over the blocks in ``found``'s
    order with the head (the block of site j + 1) last.  Each block it keeps has a defect of at
    most 1 - F^2, within tol after the rounding allowance, so its test would
    have passed it, not near.  ``defects`` decides the others' cuts: a cut
    with ``_BOUND_SIDE`` bits or more on each side passes on
    ``_cut_bounds``' upper bound, or is rejected, not near, on its lower
    bound above 10 tol; else marginal purity decides it on ``psi`` or on the
    level's normalized PureState, built only then.  A block whose cut only a
    row decided is certified on level 0 by the same chain, or by ``defects``
    without the lower bound; a defect above tol raises FactorizationError.

    Each level is one pure vector, on which the defect D is subadditive
    (``_union_bound``), so two decisions need no test.  Site j's complement
    is the union of the blocks, so when every other block passed, D(last) >=
    D(site j) minus theirs, the kept blocks' union counted once at 1 - F^2;
    above 10 tol the last block joins site j, not near, as its test would
    have ruled.  The chain leaves that block for last, whichever it is, and
    does not contract it when every other block was kept.  In certification
    the last undecided block is the complement of the others, so it passes
    untested when the defects of the others (site 0's or those kept on level
    0, 1 - F^2 for the blocks the chain kept, and the blocks tested before
    it) sum within tol.  Blocks keep ``found``'s order, so the merged head,
    each cut's reorder and the block a failed certification names are the
    same as when every block was tested.
    """
    tol = _check_tol(tol)
    n, mixed = state.n_qubits, isinstance(state, DensityMatrix)
    bits = 2 if mixed else 1  # of the vector per qubit
    allowance = _ROUNDING_PER_QUBIT * bits * n
    levels = _levels(state)
    top = None if mixed else state  # level 0 as a PureState, once a cut test needs it

    def defects(j, blocks, certify=False):
        nonlocal top
        view, total, _, _ = levels[j]
        width, level = n - j, (None if j else top)
        for block in blocks:
            # the block's bits at level j: for rho, its row bits and its column bits
            keep = [q - j + w for w in (0, width)[:bits] for q in block]
            if min(len(keep), bits * width - len(keep)) >= _BOUND_SIDE:
                low, high = _cut_bounds(view, keep)
                if high + allowance <= tol:
                    yield high + allowance
                    continue
                if low - allowance > 10.0 * tol and not certify:
                    yield low - allowance
                    continue
            if level is None:
                level = _normalized(view, total)
                top = top if j else level  # for certification
            yield 1.0 - marginal_purity(level, keep)

    found, near, spent = [(n - 1,)], False, []
    for j in reversed(range(len(levels))):
        defect = levels[j][2]
        if defect <= tol:
            found = [(j,)] + found
            continue
        near = near or tol < defect <= 10.0 * tol
        if len(found) == 1:  # a lone block is site j's complement, with site j's defect
            found = [(j,) + found[0]]
            continue

        # site j's complement is the union of the blocks, so by subadditivity
        # D(last) >= defect - sum(D(other blocks)) when every other block passed
        def joins(spent):
            return defect - _union_bound(spent, allowance) - allowance > 10.0 * tol

        # the head last: site j's partner is most often site j + 1's block
        blocks = found[1:] + found[:1]
        bound, left, settled = None, blocks, False
        if levels[j][0].size >= _CHAIN_SIZE:
            bound, left, settled = _chain(levels, j, blocks, bits, tol - allowance, joins)
        spent, joined = ([] if bound is None else [bound]), ({found[0]} if settled else set())
        tests = defects(j, left)
        for i, block in enumerate(left, 1):
            if i == len(left) and not joined and joins(spent):
                joined.add(block)
                break
            d = next(tests)
            near = near or tol < d <= 10.0 * tol
            if d > tol:
                joined.add(block)
            else:
                spent.append(d)
        del tests  # with the normalized level it may hold
        # in found's order, so the merged head is the same as when every block was tested
        head = (j,) + tuple(q for block in found if block in joined for q in block)
        found = [head] + [block for block in found if block not in joined]
    # two blocks have one cut, which level 0 decided on the input itself
    if len(found) > 2:
        # the defects of the blocks decided on the input: site 0's, or those kept on level 0
        if levels[0][2] <= tol:
            spent = [levels[0][2]]
            # a block the chain settled passes: it is the others' complement
            bound, undecided, _ = _chain(levels, 0, found[1:], bits, tol - allowance,
                                         lambda more: _union_bound(spent + more, allowance) <= tol)
            spent += [] if bound is None else [bound]
        else:
            undecided = found[:1]
        tests = defects(0, undecided, certify=True)
        for i, block in enumerate(undecided, 1):
            # the last block is the others' complement: its defect is at most theirs summed
            if i == len(undecided) and _union_bound(spent, allowance) <= tol:
                break
            defect = next(tests)
            if defect > tol:
                raise FactorizationError(
                    f"block {block} has purity defect {defect:.3e} > tol={tol:g} on the "
                    "input; the tolerance is numerically borderline for this state"
                )
            spent.append(defect)
    return tuple(sorted(tuple(sorted(b)) for b in found)), near


def finest_factorization(psi: PureState, tol: float = DEFAULT_TOL) -> Blocks:
    """Blocks of the finest tensor factorization, in canonical order."""
    return _factorize(psi, tol)[0]


def minimal_pure_subset(psi: PureState, i: int, tol: float = DEFAULT_TOL) -> tuple[int, ...]:
    """The block of qubit ``i``: the smallest S containing i with a pure marginal."""
    (i,) = qubit_subset([i], psi.n_qubits)
    return next(b for b in finest_factorization(psi, tol) if i in b)


def entanglement_index(psi: PureState, tol: float = DEFAULT_TOL) -> int:
    """E = N - p for the finest factorization into p blocks."""
    return psi.n_qubits - len(finest_factorization(psi, tol))


def classify(psi: PureState, tol: float = DEFAULT_TOL) -> ClassReport:
    """Full classification: blocks, shape, index, and class label."""
    blocks, near = _factorize(psi, tol)
    shape = tuple(sorted(map(len, blocks), reverse=True))
    index = psi.n_qubits - len(blocks)
    label = LABEL_SEPARABLE if index == 0 else f"entangled class E={index}"
    warning = (
        "near-threshold purity defect within 10x tolerance; "
        "classification may be sensitive to tol"
        if near
        else None
    )
    return ClassReport(
        n_qubits=psi.n_qubits,
        blocks=blocks,
        shape=shape,
        index=index,
        label=label,
        tolerance_used=float(tol),
        warning=warning,
    )


def ensemble_index(e: Ensemble, tol: float = DEFAULT_TOL) -> float:
    """Probability-weighted index over a given decomposition.

    Partition terms contribute their exact N - p; state terms are
    classified at ``tol`` first.  The result depends on the decomposition
    supplied; no search over alternative decompositions is attempted.
    """
    tol = _check_tol(tol)
    total = 0.0
    for prob, payload in e.terms:
        if isinstance(payload, PureState):
            total += prob * entanglement_index(payload, tol)
        else:
            total += prob * index_of(payload)
    return total


def mixed_product_split(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> Blocks:
    """Finest product splitting of a density matrix, by ``classify``'s peel
    and certification on rho's entries in place: ``tol`` bounds the same
    purity defect, and a block that fails certification raises
    FactorizationError.  At tol = 0 the split of an exact product rests on
    the rounding of its last bits.  Returns block structure only; whether a
    block is entangled is not determined for mixed inputs.
    """
    return _factorize(rho, tol)[0]
