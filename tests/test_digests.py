"""CLI outputs, and classify results near tol, stay byte-identical across commits.

One SHA-256 per group of runs is pinned in ``tests/digests.json``:

- ``make`` state files, sidecars and stdout, plus ``classify --json``
  stdout, for all 66 partitions with N <= 8, LU-dressed and permuted;
- the same for one partition each of N = 15 and N = 17;
- ``verify --json`` stdout for three suite configurations;
- the blocks, ``warning`` and ``FactorizationError`` text of ``classify``
  on 300 seeded noisy products, where a decision may sit near ``tol``;
- the blocks or ``FactorizationError`` text of ``mixed_product_split`` at
  ``tol`` 1e-9 and 1e-7 on 200 seeded mixed products, most of them noisy.
  ``tol`` = 0 is left out: there the split of an exact product is decided
  by the rounding of its last bits.

An intended output change is recorded by running, from the repository root::

    PYTHONPATH=src python tests/test_digests.py --record

and is then reviewed as a diff of ``tests/digests.json``.  The file also
names the numpy version and BLAS it was recorded with, since the last bits
of LU-dressed amplitudes depend on them.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from entdex import cli
from entdex.classify import FactorizationError, classify, mixed_product_split
from entdex.construct import ghz_product
from entdex.partitions import enumerate_partitions
from entdex.states import density_matrix, pure_state, to_density
from test_classify import mixed_towards_full_rank, permute_density, random_mixed_block

DIGESTS = Path(__file__).with_name("digests.json")
RECORD_COMMAND = "PYTHONPATH=src python tests/test_digests.py --record"
WIDE_PARTITIONS = ((5, 4, 3, 2, 1), (5, 4, 3, 3, 2))  # N = 15 and N = 17
VERIFY_RUNS = (
    ("--suite", "all", "--max-n", "6", "--trials", "40", "--seed", "1"),
    ("--suite", "all", "--max-n", "8", "--trials", "30", "--seed", "7"),
    ("--suite", "3", "--max-n", "5", "--trials", "50", "--seed", "3"),
)


def _stdout(*args: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(args))
    assert rc == 0, f"entdex {' '.join(args)} exited {rc}"
    return out.getvalue().encode()


def _make_and_classify(h, parts: tuple[int, ...], seed: int) -> None:
    # run in the working directory, so stdout names the same relative path
    n = sum(parts)
    perm = [(seed - i) % n for i in range(n)]
    joined = ",".join
    h.update(_stdout("make", "--partition", joined(map(str, parts)), "--lu-seed", str(seed),
                     "--perm", joined(map(str, perm)), "-o", "state.json"))
    h.update(Path("state.json").read_bytes())
    h.update(Path("state.truth.json").read_bytes())
    h.update(_stdout("classify", "--json", "state.json"))


def _noisy_products(h) -> None:
    # N 1-9, LU-dressed and permuted, moved by 1e-6 to 3e-4 in a random direction
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        options = enumerate_partitions(n)
        shape = options[int(rng.integers(len(options)))]
        perm = [int(x) for x in rng.permutation(n)]
        state, _ = ghz_product(shape, perm=perm, lu_seed=int(rng.integers(2**32)))
        noise = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        eps = 10 ** rng.uniform(-6.0, np.log10(3e-4))
        vec = state.vec + eps * noise / np.linalg.norm(noise)
        try:
            report = classify(pure_state(vec / np.linalg.norm(vec)))
            h.update(repr((report.blocks, report.warning)).encode())
        except FactorizationError as exc:
            h.update(str(exc).encode())


def _noisy_mixed_products(h) -> None:
    # N 2-8, blocks of random rank 1-3, maximally mixed or dressed GHZ, permuted;
    # two of three moved by 1e-6 to 3e-4 towards a random full-rank state
    rng = np.random.default_rng(2026)
    for i in range(200):
        n = int(rng.integers(2, 9))
        mat, left = np.ones((1, 1)), n
        while left:
            width = int(rng.integers(1, left + 1))
            left -= width
            kind = int(rng.integers(3))
            if kind == 0:
                block = random_mixed_block(rng, width)
            elif kind == 1:
                block = np.eye(2**width) / 2**width
            else:
                block = to_density(ghz_product([width], lu_seed=int(rng.integers(2**32)))[0]).mat
            mat = np.kron(mat, block)
        if i % 3:
            mat = mixed_towards_full_rank(rng, mat, 10 ** rng.uniform(-6.0, np.log10(3e-4)))
        rho = density_matrix(permute_density(mat, [int(x) for x in rng.permutation(n)]))
        for tol in (1e-9, 1e-7):
            try:
                h.update(repr(mixed_product_split(rho, tol)).encode())
            except FactorizationError as exc:
                h.update(str(exc).encode())


def compute_digests(workdir: Path) -> dict[str, str]:
    """Hex SHA-256 of each group of CLI outputs, with files written in ``workdir``."""
    digests = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        h = hashlib.sha256()
        small = [parts for n in range(1, 9) for parts in enumerate_partitions(n)]
        for seed, parts in enumerate(small):
            _make_and_classify(h, parts, seed)
        digests["make, classify --json: N <= 8"] = h.hexdigest()
        with mock.patch.dict(os.environ, {cli.ENV_MAX_QUBITS: "20"}):
            for parts in WIDE_PARTITIONS:
                h = hashlib.sha256()
                _make_and_classify(h, parts, seed=7)
                digests[f"make, classify --json: N = {sum(parts)}"] = h.hexdigest()
    finally:
        os.chdir(cwd)
    h = hashlib.sha256()
    _noisy_products(h)
    digests["classify: 300 noisy dressed products"] = h.hexdigest()
    h = hashlib.sha256()
    _noisy_mixed_products(h)
    digests["mixed_product_split: 200 mixed products at tol 1e-9, 1e-7"] = h.hexdigest()
    for args in VERIFY_RUNS:
        digests["verify --json " + " ".join(args)] = hashlib.sha256(
            _stdout("verify", "--json", *args)
        ).hexdigest()
    return digests


def _environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def test_cli_outputs_match_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    now = compute_digests(tmp_path)
    changed = sorted(k for k in recorded["digests"].keys() | now.keys()
                     if recorded["digests"].get(k) != now.get(k))
    assert not changed, (
        f"CLI outputs changed for {changed}; recorded with {recorded['environment']}, "
        f"run with {_environment()}. If the change is intended, re-record with "
        f"`{RECORD_COMMAND}` and review the diff of {DIGESTS.name}."
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {RECORD_COMMAND}")
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"environment": _environment(), "digests": compute_digests(Path(tmp))}
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
