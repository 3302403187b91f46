"""Command-line front end: state/ensemble file I/O and the four subcommands.

File formats are UTF-8 JSON.  A state file is::

    {"format_version": 1, "bit_order": "q0-most-significant",
     "n": 3, "amplitudes": [[re, im], ...]}          # exactly 2**n pairs

An ensemble file is::

    {"format_version": 1, "n": 4,
     "terms": [{"p": 0.5, "partition": [2, 2]},
               {"p": 0.5, "state": {...state file body...}}]}

``entdex make`` also writes a ``<output>.truth.json`` sidecar recording the
ground-truth blocks, shape, and expected index of the constructed state, so
round-trip harnesses never have to re-derive them.

Exit codes: 0 success; 1 invalid arguments or malformed input, including a
norm defect inside an ensemble file (index); 2 norm defect beyond repair
(classify) or write failure (make); 3 a factorization block failed
certification (classify, index); 4 property-suite failures (verify).  The
handlers raise and ``main`` maps each exception to its exit code.  stdout
carries results only; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from itertools import chain
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .classify import Ensemble, FactorizationError, classify, ensemble_index
from .construct import ghz_product
from .partitions import (
    as_partition,
    enumerate_partitions,
    index_of,
    partition_count,
)
from .properties import PROPERTY_IDS, run_property_suite
from .states import DEFAULT_MAX_QUBITS, DEFAULT_TOL, MAX_QUBITS_CEILING, PureState, integer

FORMAT_VERSION = 1
BIT_ORDER = "q0-most-significant"
ENV_MAX_QUBITS = "ENTDEX_MAX_QUBITS"

# load-time norm policy: silent renormalize, warn and renormalize, refuse
NORM_SILENT = 1e-6
NORM_WARN = 1e-3

# amplitudes per write: at any N, the floats and text of one chunk stay a
# small fraction of the file
CHUNK_PAIRS = 2048
# one [re, im] pair as json.dumps(indent=2) lays it out inside the document
_PAIR = "    [\n      %r,\n      %r\n    ]"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INCONSISTENT = 3
EXIT_SUITE_FAILED = 4


class FileFormatError(ValueError):
    """The file is not a well-formed state/ensemble document."""


class NormDefectError(ValueError):
    """The stored amplitudes are too far from normalized to trust."""


def _dumps(doc: Any) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FileFormatError(message)


def _load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise FileFormatError(f"{path} is not valid JSON: nested too deeply") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer with too many digits
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc


def _parse_header(doc: Any, kind: str, max_qubits: int, where: str) -> int:
    _require(isinstance(doc, dict), f"{where}: {kind} must be a JSON object")
    version = doc.get("format_version", FORMAT_VERSION)
    _require(type(version) is int and version == FORMAT_VERSION, f"{where}: unsupported format_version")
    try:
        n = integer(doc.get("n"), 1, "n must be a positive integer")
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from None
    _require(n <= max_qubits, f"{where}: n={n} exceeds the qubit cap of {max_qubits}")
    return n


def _parse_state_body(doc: Any, max_qubits: int, where: str) -> tuple[np.ndarray, int]:
    n = _parse_header(doc, "state", max_qubits, where)
    if "bit_order" in doc:
        _require(doc["bit_order"] == BIT_ORDER, f"{where}: bit_order must be {BIT_ORDER!r}")
    amps = doc.get("amplitudes")
    _require(isinstance(amps, list) and len(amps) == 2**n, f"{where}: amplitudes must be a list of exactly 2**n pairs")
    # exact types: JSON yields no int or float subclass other than bool
    if not (
        all(type(pair) is list and len(pair) == 2 for pair in amps)
        and set(map(type, chain.from_iterable(amps))) <= {int, float}
    ):
        k = next(k for k, pair in enumerate(amps) if not _is_numeric_pair(pair))
        raise FileFormatError(f"{where}: amplitude {k} must be a [re, im] numeric pair")
    try:
        vec = np.array(amps, dtype=np.float64).view(np.complex128).reshape(-1)
    except OverflowError as exc:  # an integer beyond the float range
        raise FileFormatError(f"{where}: amplitudes must be finite") from exc
    _require(bool(np.all(np.isfinite(vec))), f"{where}: amplitudes must be finite")
    return vec, n


def _is_numeric_pair(pair: Any) -> bool:
    return type(pair) is list and len(pair) == 2 and all(type(x) in (int, float) for x in pair)


def _state_from_raw(vec: np.ndarray, n: int, where: str) -> tuple[PureState, list[str]]:
    # as PureState reads it: huge finite amplitudes give an inf norm, a norm defect, not a warning
    flat = vec.view(np.float64)
    with np.errstate(over="ignore"):
        nrm = math.sqrt(np.vdot(flat, flat))
    defect = abs(nrm - 1.0)
    warnings: list[str] = []
    if defect > NORM_WARN:
        raise NormDefectError(
            f"{where}: norm defect {defect:.3e} exceeds {NORM_WARN}; refusing to renormalize"
        )
    if defect > NORM_SILENT:
        warnings.append(f"{where}: norm defect {defect:.3e}; renormalizing")
    return PureState(n, vec / nrm), warnings


def load_state_file(
    path: str | Path, max_qubits: int = DEFAULT_MAX_QUBITS
) -> tuple[PureState, list[str]]:
    """Read a state file, applying the load-time norm policy.

    Returns the state and any warnings to surface; raises FileFormatError for
    malformed documents and NormDefectError when the norm is beyond repair.
    """
    vec, n = _parse_state_body(_load_json(path), max_qubits, str(path))
    return _state_from_raw(vec, n, str(path))


def save_state_file(path: str | Path, psi: PureState) -> None:
    """Write a state file, byte for byte as ``_dumps`` of the whole document.

    The amplitudes go out CHUNK_PAIRS at a time, so neither the document nor
    its text is ever held whole.  json writes a float with ``float.__repr__``
    and the amplitudes are finite, so ``%r`` gives json's bytes.
    """
    head = _dumps(
        {"format_version": FORMAT_VERSION, "bit_order": BIT_ORDER, "n": psi.n_qubits, "amplitudes": []}
    )
    with open(path, "w", encoding="utf-8") as f:
        # the header ends in '"amplitudes": []'; open that list for the pairs
        f.write(head.removesuffix("]\n}\n") + "\n")
        for start in range(0, psi.dim, CHUNK_PAIRS):
            flat = psi.vec[start : start + CHUNK_PAIRS].view(np.float64).tolist()
            if start:
                f.write(",\n")
            f.write(",\n".join([_PAIR] * (len(flat) // 2)) % tuple(flat))
        f.write("\n  ]\n}\n")


def truth_sidecar_path(output: str | Path) -> Path:
    return Path(output).with_suffix(".truth.json")


def load_ensemble_file(
    path: str | Path, max_qubits: int = DEFAULT_MAX_QUBITS
) -> tuple[Ensemble, list[str]]:
    """Read an ensemble file: probability-weighted partitions and/or states.

    Raises FileFormatError for malformed documents, including a state term
    whose norm is beyond repair.
    """
    doc = _load_json(path)
    where = str(path)
    n = _parse_header(doc, "ensemble", max_qubits, where)
    raw_terms = doc.get("terms")
    _require(isinstance(raw_terms, list) and raw_terms, f"{where}: terms must be a nonempty list")
    warnings: list[str] = []
    parsed: list[tuple[float, Any]] = []
    for k, term in enumerate(raw_terms):
        _require(isinstance(term, dict), f"{where}: term {k} must be an object")
        prob = term.get("p")
        _require(
            isinstance(prob, (int, float)) and not isinstance(prob, bool) and 0.0 < prob <= 1.0,
            f"{where}: term {k}: p must lie in (0, 1]",
        )
        has_partition = "partition" in term
        has_state = "state" in term
        _require(has_partition != has_state, f"{where}: term {k} needs exactly one of partition | state")
        if has_partition:
            raw = term["partition"]
            _require(isinstance(raw, list), f"{where}: term {k}: partition must be a list")
            try:  # as_partition holds the integer rule for parts
                parts = as_partition(raw)
            except ValueError as exc:
                raise FileFormatError(f"{where}: term {k}: {exc}") from exc
            _require(sum(parts) == n, f"{where}: term {k}: partition must sum to n={n}")
            parsed.append((float(prob), parts))
        else:
            vec, state_n = _parse_state_body(term["state"], max_qubits, f"{where}: term {k}")
            _require(state_n == n, f"{where}: term {k}: state has n={state_n}, expected {n}")
            try:
                psi, t_warn = _state_from_raw(vec, state_n, f"{where}: term {k}")
            except NormDefectError as exc:  # a defective term makes the file malformed
                raise FileFormatError(str(exc)) from exc
            warnings.extend(t_warn)
            parsed.append((float(prob), psi))
    total = sum(p for p, _ in parsed)
    _require(abs(total - 1.0) <= 1e-6, f"{where}: probabilities sum to {total!r}, expected 1")
    # bridge the looser file tolerance to the strict in-memory invariant
    parsed = [(p / total, payload) for p, payload in parsed]
    return Ensemble(n, tuple(parsed)), warnings


def _format_parts(parts: Sequence[int]) -> str:
    return "[" + ",".join(str(p) for p in parts) + "]"


def _class_report_doc(report) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n": report.n_qubits,
        "blocks": [list(b) for b in report.blocks],
        "shape": list(report.shape),
        "p": len(report.blocks),
        "index": report.index,
        "label": report.label,
        "tolerance_used": report.tolerance_used,
        "warning": report.warning,
    }


def _cmd_partitions(args: argparse.Namespace, max_qubits: int) -> int:
    if args.counts:
        count = partition_count(args.n)
        if args.json:
            sys.stdout.write(_dumps({"format_version": FORMAT_VERSION, "n": args.n, "count": count}))
        else:
            print(count)
        return EXIT_OK
    rows = enumerate_partitions(args.n)
    if args.json:
        doc = {
            "format_version": FORMAT_VERSION,
            "n": args.n,
            "count": len(rows),
            "partitions": [
                {"parts": list(parts), "p": len(parts), "e": index_of(parts)} for parts in rows
            ],
        }
        sys.stdout.write(_dumps(doc))
    else:
        for parts in rows:
            print(f"{_format_parts(parts)}  p={len(parts)}  E={index_of(parts)}")
    return EXIT_OK


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{what} must be a comma-separated integer list: {text!r}") from exc


def _cmd_make(args: argparse.Namespace, max_qubits: int) -> int:
    shape = as_partition(_parse_int_list(args.partition, "--partition"))
    assignment = None
    if args.assign:
        assignment = [_parse_int_list(chunk, "--assign block") for chunk in args.assign.split(";")]
    perm = _parse_int_list(args.perm, "--perm") if args.perm else None
    state, blocks = ghz_product(
        shape,
        assignment=assignment,
        perm=perm,
        lu_seed=args.lu_seed,
        max_qubits=max_qubits,
    )
    truth = {
        "format_version": FORMAT_VERSION,
        "n": state.n_qubits,
        "blocks": [list(b) for b in blocks],
        "shape": list(shape),
        "expected_index": index_of(shape),
    }
    try:
        save_state_file(args.output, state)
        truth_sidecar_path(args.output).write_text(_dumps(truth), encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.output} (n={state.n_qubits}, expected E={truth['expected_index']})")
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace, max_qubits: int) -> int:
    psi, warnings = load_state_file(args.file, max_qubits=max_qubits)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    report = classify(psi, tol=args.tol)
    if report.warning:
        print(f"warning: {report.warning}", file=sys.stderr)
    if args.json:
        sys.stdout.write(_dumps(_class_report_doc(report)))
    else:
        print("blocks=" + ",".join(_format_parts(b) for b in report.blocks))
        print(f"shape={_format_parts(report.shape)} p={len(report.blocks)} E={report.index}")
        print(f"{report.label}, E={report.index}")
    return EXIT_OK


def _cmd_index(args: argparse.Namespace, max_qubits: int) -> int:
    ensemble, warnings = load_ensemble_file(args.ensemble, max_qubits=max_qubits)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    value = ensemble_index(ensemble)
    print(f"{value:.12g}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, max_qubits: int) -> int:
    suites = list(PROPERTY_IDS) if args.suite == "all" else [int(args.suite)]
    if args.max_n > max_qubits:
        raise ValueError(f"--max-n {args.max_n} exceeds the qubit cap of {max_qubits}")
    reports = [
        run_property_suite(pid, max_n=args.max_n, trials=args.trials, seed=args.seed)
        for pid in suites
    ]
    if args.json:
        doc = {
            "format_version": FORMAT_VERSION,
            "reports": [dataclasses.asdict(r) for r in reports],
        }
        sys.stdout.write(_dumps(doc))
    else:
        for r in reports:
            print(
                f"property {r.property_id}: cases={r.cases_run} "
                f"failures={len(r.failures)} max_deviation={r.max_deviation:.3g}"
            )
            for f in r.failures:
                print(f"  {f}")
    return EXIT_OK if all(not r.failures for r in reports) else EXIT_SUITE_FAILED


class _Parser(argparse.ArgumentParser):
    # the contract pins invalid flags to exit code 1, not argparse's 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entdex", description="N-qubit entanglement class toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partitions", parents=[], help="list partitions of n with p and E")
    p_part.add_argument("n", type=int)
    p_part.add_argument("--counts", action="store_true", help="print only the partition count")
    p_part.add_argument("--json", action="store_true")
    p_part.set_defaults(handler=_cmd_partitions)

    p_make = sub.add_parser("make", help="construct a block-product state file")
    p_make.add_argument("--partition", required=True, help="block widths, e.g. 3,2")
    p_make.add_argument("--assign", help="qubit blocks, e.g. '0,1,2;3,4'")
    p_make.add_argument("--lu-seed", type=int, dest="lu_seed", help="per-qubit Haar dressing seed")
    p_make.add_argument("--perm", help="qubit permutation, e.g. 2,0,1,3,4")
    p_make.add_argument("-o", "--output", required=True)
    p_make.set_defaults(handler=_cmd_make)

    p_cls = sub.add_parser("classify", help="classify a state file")
    p_cls.add_argument("file")
    p_cls.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(handler=_cmd_classify)

    p_idx = sub.add_parser("index", help="index of an ensemble file")
    p_idx.add_argument("--ensemble", required=True)
    p_idx.set_defaults(handler=_cmd_index)

    p_ver = sub.add_parser("verify", help="run the property suites")
    p_ver.add_argument("--suite", required=True, choices=["1", "2", "3", "4", "all"])
    p_ver.add_argument("--max-n", type=int, default=6, dest="max_n")
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(handler=_cmd_verify)

    return parser


def _effective_max_qubits() -> int:
    raw = os.environ.get(ENV_MAX_QUBITS)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MAX_QUBITS} must be an integer, got {raw!r}")
    if not 2 <= value <= MAX_QUBITS_CEILING:
        raise ValueError(f"{ENV_MAX_QUBITS} must be in [2, {MAX_QUBITS_CEILING}], got {value}")
    return value


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, _effective_max_qubits())
    except (FactorizationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, FactorizationError):
            return EXIT_INCONSISTENT
        return EXIT_IO if isinstance(exc, NormDefectError) else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
