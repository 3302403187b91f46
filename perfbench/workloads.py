"""The four workloads: seeded inputs, one operation, and its ground truth.

Every input is built from the workload seed, and every expected result is
derived here from how the input was constructed, never from the program's
own answer.  ``check`` is the only judge of an operation; ``wrong`` turns a
right expectation into a wrong one, so each run can show that ``check`` is
not vacuous.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

Blocks = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Op:
    kind: str
    arg: Any
    expect: Any


def canonical(blocks) -> Blocks:
    return tuple(sorted(tuple(sorted(int(q) for q in b)) for b in blocks))


def permuted_blocks(shape, perm) -> Blocks:
    """Blocks laid out contiguously in shape order, then qubit q moved to perm[q]."""
    blocks, start = [], 0
    for w in shape:
        blocks.append([perm[q] for q in range(start, start + w)])
        start += w
    return canonical(blocks)


def wrong(op: Op) -> Op:
    """The same op with an expectation its right answer cannot meet."""
    if isinstance(op.expect, int):
        return replace(op, expect=op.expect + 1)
    n = sum(len(b) for b in op.expect)
    if len(op.expect) == n:
        return replace(op, expect=(tuple(range(n)),))
    return replace(op, expect=tuple((q,) for q in range(n)))


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """All integer partitions of n, built independently of the program."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, largest), 0, -1) for rest in partitions(n - p, p)]


def _perm(rng: np.random.Generator, n: int) -> list[int]:
    return [int(x) for x in rng.permutation(n)]


class ClassifyLarge:
    """One op: one library ``classify(state)`` on a dressed GHZ block product."""

    name = "classify-large"
    # All five shapes at each N, N=9 twice, then 9 more GHZ_10 and 7 more
    # GHZ_12 ops: 41 per cycle.  The op latencies fall into groups with wide
    # gaps between them, and a percentile on a gap swings with every input.
    # Here the 10 GHZ_10 ops hold about ranks 16-26 of 41, around the
    # median, and the 8 GHZ_12 ops about ranks 33-41, around p90.  A GHZ_N
    # scan reads every subset, so its cost does not depend on the
    # permutation.
    widths = (9, 9, 10, 11, 12)
    extra = ((10, 9), (12, 7))
    cycle_len = 5 * len(widths) + sum(k for _, k in extra)
    pool_cycles = 10
    traced_cycles = 2

    def __init__(self, prog, workdir: Path) -> None:
        self.prog = prog
        # The random partitions are drawn once, not from the seed: their cost
        # ranges from N to 2**N kernel calls, so seeded draws would move the
        # median from seed to seed.  The seed draws permutations and dressing.
        draw = np.random.default_rng(0)
        options = {n: partitions(n) for n in set(self.widths)}
        self.random_shapes = [
            [options[n][int(draw.integers(len(options[n])))] for n in self.widths]
            for _ in range(self.pool_cycles)
        ]

    def make_ops(self, rng: np.random.Generator, cycles: int) -> list[Op]:
        ops = []
        for c in range(cycles):
            shapes = []
            for n, random_shape in zip(self.widths, self.random_shapes[c % self.pool_cycles]):
                shapes += [(n,), (n - n // 2, n // 2), (n - 1, 1), random_shape, (1,) * n]
            shapes += [(n,) for n, k in self.extra for _ in range(k)]
            for shape in shapes:
                n = sum(shape)
                perm = _perm(rng, n)
                state, _ = self.prog.ghz_product(shape, perm=perm, lu_seed=int(rng.integers(2**32)))
                ops.append(Op("classify", state, permuted_blocks(shape, perm)))
        return ops

    def run(self, op: Op):
        return self.prog.classify(op.arg)

    def check(self, op: Op, report) -> bool:
        n = op.arg.n_qubits
        shape = tuple(sorted((len(b) for b in op.expect), reverse=True))
        return (
            report.blocks == op.expect
            and report.shape == shape
            and report.index == n - len(op.expect)
        )


class VerifySmall:
    """One op: one ``run_property_suite(pid, max_n=6, trials, seed)`` call.

    Trials differ per suite so that each op costs about the same; otherwise
    the median would sit on the boundary between two suites' latencies.
    """

    name = "verify-small"
    max_n = 6
    trials = {1: 40, 2: 16, 3: 8, 4: 4}
    cycle_len = len(trials)
    pool_cycles = 2000
    traced_cycles = 30

    def __init__(self, prog, workdir: Path) -> None:
        self.prog = prog

    def make_ops(self, rng: np.random.Generator, cycles: int) -> list[Op]:
        ops = []
        for _ in range(cycles):
            for pid, trials in self.trials.items():
                seed = int(rng.integers(2**31))
                cases = 2 * trials if pid == 3 else trials
                ops.append(Op("suite", (pid, trials, seed), cases))
        return ops

    def run(self, op: Op):
        pid, trials, seed = op.arg
        return self.prog.run_property_suite(pid, max_n=self.max_n, trials=trials, seed=seed)

    def check(self, op: Op, report) -> bool:
        return (
            report.property_id == op.arg[0]
            and report.cases_run == op.expect
            and not report.failures
        )


class MixedSplit:
    """One op: one ``mixed_product_split(rho)`` on a qubit-permuted product
    of random mixed blocks of rank 1-3."""

    name = "mixed-split"
    # Each shape's cost is fixed by its layout, and the costs fall into
    # groups with wide gaps between them.  20 more (7) ops and 4 more (4, 4)
    # ops put the median among the 21 (7) ops (about ranks 7-29 of 35) and
    # p90 among the 5 (4, 4) ops (ranks 30-34), not on a gap.
    shapes = (
        (3, 3), (4, 2), (2, 2, 1, 1),
        (4, 3), (3, 2, 2), (7,),
        (4, 4), (3, 3, 2), (5, 3), (2, 2, 2, 2), (8,),
    ) + ((7,),) * 20 + ((4, 4),) * 4
    cycle_len = len(shapes)
    pool_cycles = 4
    traced_cycles = 1

    def __init__(self, prog, workdir: Path) -> None:
        self.prog = prog
        # One fixed qubit layout per shape.  How early the subset scan finds a
        # split depends on the layout, so a seeded layout would make the cost
        # of a cycle vary from seed to seed; the seed draws the blocks.
        layouts = np.random.default_rng(0)
        layout = {shape: _perm(layouts, sum(shape)) for shape in dict.fromkeys(self.shapes)}
        self.perms = [layout[shape] for shape in self.shapes]

    @staticmethod
    def _random_block(rng: np.random.Generator, width: int) -> np.ndarray:
        rank = int(rng.integers(1, min(3, 2**width) + 1))
        g = rng.normal(size=(2**width, rank)) + 1j * rng.normal(size=(2**width, rank))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    def make_ops(self, rng: np.random.Generator, cycles: int) -> list[Op]:
        ops = []
        for _ in range(cycles):
            for shape, perm in zip(self.shapes, self.perms):
                mat = np.ones((1, 1), dtype=np.complex128)
                for w in shape:
                    mat = np.kron(mat, self._random_block(rng, w))
                n = sum(shape)
                # output axis perm[q] is fed by input axis q, on both row and column sides
                inv = [int(x) for x in np.argsort(perm)]
                t = mat.reshape([2] * (2 * n)).transpose(inv + [n + q for q in inv])
                rho = self.prog.density_matrix(t.reshape(2**n, 2**n))
                ops.append(Op("split", rho, permuted_blocks(shape, perm)))
        return ops

    def run(self, op: Op):
        return self.prog.mixed_product_split(op.arg)

    def check(self, op: Op, blocks) -> bool:
        return tuple(map(tuple, blocks)) == op.expect


class CliRoundtrip:
    """One op: one ``python -m entdex make`` or ``classify --json`` subprocess,
    alternating, on block products of width <= 2 with N = 15 or 17."""

    name = "cli-roundtrip"
    # Per cycle: classify N=15 < make N=15 < 2 x classify N=17 < 2 x make
    # N=17.  The median then falls inside the N=17 classify group and p90
    # inside the N=17 make group.  An N=16 make costs about as much as an
    # N=17 classify, and with N=16 in the cycle the median fell in that
    # mixed group and swung twice as much as ops_per_s from run to run.
    widths = (15, 17, 17)
    cycle_len = 2 * len(widths)
    pool_cycles = 20
    traced_cycles = 1
    max_qubits = max(widths)
    timeout_s = 120

    def __init__(self, prog, workdir: Path) -> None:
        # pair counts are drawn once, not from the seed, so every run has the
        # same mix of classify costs; the seed draws permutations and dressing
        draw = np.random.default_rng(0)
        self.pairs = [[int(draw.integers(n // 2 + 1)) for n in self.widths] for _ in range(self.pool_cycles)]
        self.state_path = workdir / "state.json"
        self.truth_path = workdir / "state.truth.json"
        self.env = dict(os.environ, ENTDEX_MAX_QUBITS=str(self.max_qubits))
        self.shim = str(Path(__file__).with_name("cli_shim.py"))
        self.tracer = None

    def make_ops(self, rng: np.random.Generator, cycles: int) -> list[Op]:
        ops = []
        for c in range(cycles):
            for n, pairs in zip(self.widths, self.pairs[c % self.pool_cycles]):
                shape = (2,) * pairs + (1,) * (n - 2 * pairs)
                perm = _perm(rng, n)
                argv = [
                    "make",
                    "--partition", ",".join(map(str, shape)),
                    "--perm", ",".join(map(str, perm)),
                    "--lu-seed", str(int(rng.integers(2**31))),
                    "-o", str(self.state_path),
                ]
                expect = permuted_blocks(shape, perm)
                ops.append(Op("make", argv, expect))
                ops.append(Op("classify", ["classify", str(self.state_path), "--json"], expect))
        return ops

    def run(self, op: Op):
        if self.tracer is None:
            cmd, env = [sys.executable, "-m", "entdex", *op.arg], self.env
        else:
            spans = self.state_path.with_name("spans.json")
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, self.shim, str(spans), *op.arg]
            env = dict(self.env, PERFBENCH_SPAWNED_AT=repr(time.monotonic()))
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=self.timeout_s)
        if self.tracer is not None:
            self.tracer.merge(json.loads(spans.read_text()), self.tracer.op)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
        return done

    def check(self, op: Op, done) -> bool:
        if done.returncode != 0:
            return False
        truth = json.loads(self.truth_path.read_text())
        n = sum(len(b) for b in op.expect)
        shape = sorted((len(b) for b in op.expect), reverse=True)
        truth_ok = (
            tuple(map(tuple, truth["blocks"])) == op.expect
            and truth["shape"] == shape
            and truth["expected_index"] == n - len(op.expect)
        )
        if op.kind == "make":
            return truth_ok
        doc = json.loads(done.stdout)
        return (
            truth_ok
            and tuple(map(tuple, doc["blocks"])) == op.expect
            and doc["shape"] == shape
            and doc["index"] == n - len(op.expect)
        )


WORKLOADS = {w.name: w for w in (ClassifyLarge, VerifySmall, CliRoundtrip, MixedSplit)}
