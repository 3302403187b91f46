"""CLI behavior: subcommands, exit codes, file formats, output stability."""
import contextlib
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entdex import cli
from entdex.classify import FactorizationError
from entdex.construct import ghz, ghz_product
from entdex.partitions import enumerate_partitions
from entdex.properties import PropertyReport
from entdex.states import PureState


def run(capsys, *args):
    rc = cli.main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_state(path, amplitudes, n=None, **extra):
    n = n if n is not None else int(math.log2(len(amplitudes)))
    doc = {
        "format_version": 1,
        "bit_order": "q0-most-significant",
        "n": n,
        "amplitudes": [[float(np.real(a)), float(np.imag(a))] for a in amplitudes],
    }
    doc.update(extra)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestPartitionsCommand:
    def test_rows_for_four(self, capsys):
        rc, out, err = run(capsys, "partitions", "4")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[0] == "[4]  p=1  E=3"
        assert lines[-1] == "[1,1,1,1]  p=4  E=0"
        assert err == ""

    def test_counts_flag(self, capsys):
        rc, out, _ = run(capsys, "partitions", "5", "--counts")
        assert rc == 0
        assert out.strip() == "7"
        rc, out, _ = run(capsys, "partitions", "5", "--counts", "--json")
        assert rc == 0
        assert json.loads(out) == {"format_version": 1, "n": 5, "count": 7}

    def test_invalid_n(self, capsys):
        rc, out, err = run(capsys, "partitions", "0")
        assert rc == 1
        assert out == ""
        assert "error" in err

    def test_json_document(self, capsys):
        rc, out, _ = run(capsys, "partitions", "4", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["format_version"] == 1
        assert doc["count"] == 5
        assert doc["partitions"][0] == {"parts": [4], "p": 1, "e": 3}


class TestMakeAndClassify:
    def test_round_trip_against_sidecar(self, capsys, tmp_path):
        for n in range(1, 8):
            for shape in enumerate_partitions(n):
                for seed in (1, 2, 3, 4, 5):
                    out_file = tmp_path / f"s{n}_{seed}.json"
                    rc, _, _ = run(
                        capsys,
                        "make",
                        "--partition",
                        ",".join(map(str, shape)),
                        "--lu-seed",
                        str(seed),
                        "-o",
                        str(out_file),
                    )
                    assert rc == 0
                    truth = json.loads((tmp_path / f"s{n}_{seed}.truth.json").read_text())
                    rc, out, _ = run(capsys, "classify", str(out_file), "--json")
                    assert rc == 0
                    report = json.loads(out)
                    assert report["shape"] == truth["shape"]
                    assert report["index"] == truth["expected_index"]
                    assert report["blocks"] == truth["blocks"]

    def test_make_writes_expected_header(self, capsys, tmp_path):
        out_file = tmp_path / "s.json"
        rc, out, _ = run(capsys, "make", "--partition", "3,2", "-o", str(out_file))
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert doc["format_version"] == 1
        assert doc["bit_order"] == "q0-most-significant"
        assert doc["n"] == 5
        assert len(doc["amplitudes"]) == 32
        truth = json.loads((tmp_path / "s.truth.json").read_text())
        assert truth["expected_index"] == 3

    def test_make_with_assign_and_perm(self, capsys, tmp_path):
        out_file = tmp_path / "s.json"
        rc, _, _ = run(
            capsys,
            "make",
            "--partition",
            "2,1",
            "--assign",
            "0,2;1",
            "--perm",
            "0,1,2",
            "-o",
            str(out_file),
        )
        assert rc == 0
        truth = json.loads((tmp_path / "s.truth.json").read_text())
        assert truth["blocks"] == [[0, 2], [1]]

    def test_classify_separable_text(self, capsys, tmp_path):
        state = write_state(tmp_path / "zero.json", [1.0, 0.0])
        rc, out, _ = run(capsys, "classify", str(state))
        assert rc == 0
        assert "fully separable, E=0" in out

    def test_classify_text_shape_line(self, capsys, tmp_path):
        out_file = tmp_path / "s.json"
        run(capsys, "make", "--partition", "2,2,1", "-o", str(out_file))
        rc, out, _ = run(capsys, "classify", str(out_file))
        assert rc == 0
        assert "shape=[2,2,1] p=3 E=2" in out

    def test_make_invalid_shapes(self, capsys, tmp_path):
        for bad in ("0,2", "1,2", "x", ""):
            rc, _, err = run(capsys, "make", "--partition", bad, "-o", str(tmp_path / "x.json"))
            assert rc == 1, bad
            assert "error" in err

    def test_make_assignment_mismatch(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "make", "--partition", "2,2", "--assign", "0;1,2,3",
            "-o", str(tmp_path / "x.json"),
        )
        assert rc == 1
        assert "error" in err

    def test_make_write_failure(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "make", "--partition", "2", "-o", str(tmp_path / "missing" / "x.json")
        )
        assert rc == 2
        assert "error" in err

    def test_make_to_existing_directory(self, capsys, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        for output in (str(target), str(target) + "/", str(tmp_path / "missing") + "/"):
            rc, out, err = run(capsys, "make", "--partition", "2", "-o", output)
            assert rc == 2
            assert "error: cannot write output" in err
            assert out == ""
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []


class TestClassifyErrors:
    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc, _, err = run(capsys, "classify", str(p))
        assert rc == 1
        assert "error" in err

    def test_truncated_amplitudes(self, capsys, tmp_path):
        p = tmp_path / "short.json"
        p.write_text(json.dumps({"n": 2, "amplitudes": [[1.0, 0.0]]}))
        rc, _, err = run(capsys, "classify", str(p))
        assert rc == 1

    def test_wrong_bit_order(self, capsys, tmp_path):
        p = write_state(tmp_path / "bo.json", [1.0, 0.0])
        doc = json.loads(p.read_text())
        doc["bit_order"] = "q0-least-significant"
        p.write_text(json.dumps(doc))
        rc, _, _ = run(capsys, "classify", str(p))
        assert rc == 1

    def test_unsupported_format_version(self, capsys, tmp_path):
        # like n, the version is an exact integer: true and 1.0 equal 1 but are refused
        for version in (2, True, 1.0):
            p = write_state(tmp_path / "fv.json", [1.0, 0.0], format_version=version)
            rc, _, err = run(capsys, "classify", str(p))
            assert rc == 1 and "unsupported format_version" in err, version

    def test_norm_warn_band_renormalizes(self, capsys, tmp_path):
        scale = 1.0 + 5e-4  # defect within (1e-6, 1e-3]: warn and proceed
        p = write_state(tmp_path / "warn.json", [scale, 0.0])
        rc, out, err = run(capsys, "classify", str(p))
        assert rc == 0
        assert "warning" in err
        assert "fully separable" in out

    def test_norm_defect_refused(self, capsys, tmp_path):
        p = write_state(tmp_path / "far.json", [1.05, 0.0])
        rc, _, err = run(capsys, "classify", str(p))
        assert rc == 2
        assert "norm defect" in err

    def test_zero_vector_refused_by_norm_defect(self, capsys, tmp_path):
        p = write_state(tmp_path / "zero.json", [0.0, 0.0, 0.0, 0.0])
        rc, out, err = run(capsys, "classify", str(p))
        assert rc == 2
        assert out == ""
        assert "norm defect 1.000e+00" in err

    def test_factorization_failure_maps_to_exit_3(self, capsys, tmp_path, monkeypatch):
        p = write_state(tmp_path / "s.json", [1.0, 0.0])

        def boom(psi, tol):
            raise FactorizationError("synthetic overlap")

        monkeypatch.setattr(cli, "classify", boom)
        rc, _, err = run(capsys, "classify", str(p))
        assert rc == 3
        assert "overlap" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_invalid_tol_exits_1(self, capsys, tmp_path, tol):
        p = write_state(tmp_path / "s.json", [1.0, 0.0])
        rc, out, err = run(capsys, "classify", str(p), "--tol", tol)
        assert rc == 1
        assert out == ""
        assert "tol must be finite and non-negative" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("n", [2.0, True, "3", 0, None])
def test_header_n_is_an_exact_positive_integer(capsys, tmp_path, n):
    # states.integer's rule, for the n of a state file and of an ensemble file
    state = tmp_path / "s.json"
    state.write_text(json.dumps({"n": n, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}), encoding="utf-8")
    ensemble = tmp_path / "e.json"
    ensemble.write_text(json.dumps({"n": n, "terms": [{"p": 1.0, "partition": [1]}]}), encoding="utf-8")
    for args in (["classify", str(state)], ["index", "--ensemble", str(ensemble)]):
        rc, out, err = run(capsys, *args)
        assert rc == 1 and out == "", args
        assert "n must be a positive integer" in err and "Traceback" not in err, args


class TestHostileInput:
    """Inputs that once ended in a Python traceback exit with one error line."""

    HUGE = b"1" + b"0" * 400  # an integer beyond the float range
    STATE = b'{"n": 1, "amplitudes": [[%s, 0], [0, 0]]}'
    BODIES = {
        "int-overflow": STATE % HUGE,
        "too-many-digits": STATE % (b"1" * 5000),
        "deep-nesting": b"[" * 200_000 + b"]" * 200_000,
        "non-utf8": STATE % b'"\xff"',
    }

    @pytest.mark.parametrize("command", ["classify", "index"])
    @pytest.mark.parametrize("kind", sorted(BODIES))
    def test_exits_1(self, capsys, tmp_path, command, kind):
        body = self.BODIES[kind]
        p = tmp_path / "f.json"
        if command == "classify":
            args = ["classify", str(p)]
        else:
            args = ["index", "--ensemble", str(p)]
            if body.startswith(b"{"):
                body = b'{"n": 1, "terms": [{"p": 1, "state": %s}]}' % body
        p.write_bytes(body)
        rc, out, err = run(capsys, *args)
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "bad",
        [[0, False], ["0.5", 0], [0, 0, 0], {"re": 0, "im": 0}, 0],
        ids=["bool", "numeric-string", "three-elements", "object", "bare-number"],
    )
    def test_rejects_non_numeric_pair(self, capsys, tmp_path, bad):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"n": 1, "amplitudes": [[1, 0], bad]}))
        rc, out, err = run(capsys, "classify", str(p))
        assert rc == 1
        assert out == ""
        assert "amplitude 1 must be a [re, im] numeric pair" in err

    def test_integer_amplitudes_parse(self, capsys, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"n": 1, "amplitudes": [[0, 0], [1, 0]]}))
        rc, out, _ = run(capsys, "classify", str(p))
        assert rc == 0
        assert "fully separable" in out

    @pytest.mark.parametrize("command, code", [("classify", 2), ("index", 1)])
    def test_huge_finite_amplitudes_are_a_norm_defect(self, capsys, tmp_path, command, code):
        # their squared norm overflows: it reads inf, a norm defect, and numpy
        # warns of nothing (under filterwarnings = error a warning would raise)
        state = b'{"n": 1, "amplitudes": [[1e308, 1e308], [1e308, 0]]}'
        p = tmp_path / "f.json"
        if command == "classify":
            args = ["classify", str(p)]
        else:
            args = ["index", "--ensemble", str(p)]
            state = b'{"n": 1, "terms": [{"p": 1, "state": %s}]}' % state
        p.write_bytes(state)
        rc, out, err = run(capsys, *args)
        assert rc == code
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "norm defect inf" in err


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)


def _mutated(draw, doc, keys):
    """``doc``, or ``doc`` with the entry at one of ``keys`` replaced or dropped."""
    if draw(st.booleans()):
        return doc
    key = draw(st.sampled_from(keys))
    target = doc
    for k in key[:-1]:
        target = target[k]
    if draw(st.booleans()):
        target[key[-1]] = draw(_DOCS)
    else:
        del target[key[-1]]
    return doc


@st.composite
def _near_state(draw, n=None):
    n = draw(st.integers(1, 3)) if n is None else n
    amps = np.array(draw(st.lists(st.floats(-1, 1), min_size=2 ** (n + 1), max_size=2 ** (n + 1))))
    if draw(st.booleans()) and np.linalg.norm(amps) > 0:
        amps = amps / np.linalg.norm(amps)
    doc = {"n": n, "amplitudes": amps.reshape(-1, 2).tolist()}
    if draw(st.booleans()):
        doc["format_version"] = 1
        doc["bit_order"] = "q0-most-significant"
    keys = [("n",), ("amplitudes",), *[("amplitudes", k, j) for k in range(2**n) for j in (0, 1)]]
    return _mutated(draw, doc, keys + [(k,) for k in ("format_version", "bit_order") if k in doc])


@st.composite
def _near_ensemble(draw):
    n = draw(st.integers(1, 4))
    count = draw(st.integers(1, 3))
    terms = []
    for _ in range(count):
        if draw(st.booleans()):
            terms.append({"p": 1 / count, "partition": list(draw(st.sampled_from(enumerate_partitions(n))))})
        else:
            terms.append({"p": 1 / count, "state": draw(_near_state(n))})
    keys = [("n",), ("terms",), *[("terms", k, f) for k, t in enumerate(terms) for f in t]]
    return _mutated(draw, {"format_version": 1, "n": n, "terms": terms}, keys)


class TestArbitraryDocuments:
    """Every JSON document ends in an exit code from 0 to 4, never an exception."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.one_of(_DOCS, _near_state(), _near_ensemble()))
    def test_documented_exit_code(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            for args in (["classify", str(path)], ["index", "--ensemble", str(path)]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(args)
                assert type(rc) is int and 0 <= rc <= 4
                if rc != 0:
                    assert out.getvalue() == ""
                    assert any(line.startswith("error: ") for line in err.getvalue().splitlines())


class TestIndexCommand:
    def _ensemble(self, tmp_path, terms, n=4):
        p = tmp_path / "e.json"
        p.write_text(json.dumps({"format_version": 1, "n": n, "terms": terms}))
        return p

    def test_uniform_partitions_of_four(self, capsys, tmp_path):
        terms = [{"p": 0.2, "partition": list(parts)} for parts in enumerate_partitions(4)]
        rc, out, _ = run(capsys, "index", "--ensemble", str(self._ensemble(tmp_path, terms)))
        assert rc == 0
        assert out.strip() == "1.6"

    def test_single_full_block(self, capsys, tmp_path):
        p = self._ensemble(tmp_path, [{"p": 1.0, "partition": [6]}], n=6)
        rc, out, _ = run(capsys, "index", "--ensemble", str(p))
        assert rc == 0
        assert out.strip() == "5"

    def test_state_terms(self, capsys, tmp_path):
        bell = ghz(2)
        terms = [
            {"p": 0.5, "partition": [1, 1]},
            {
                "p": 0.5,
                "state": {
                    "n": 2,
                    "amplitudes": [[float(a.real), float(a.imag)] for a in bell.vec],
                },
            },
        ]
        rc, out, _ = run(capsys, "index", "--ensemble", str(self._ensemble(tmp_path, terms, n=2)))
        assert rc == 0
        assert out.strip() == "0.5"

    def test_bad_probability_sum(self, capsys, tmp_path):
        terms = [{"p": 0.5, "partition": [4]}, {"p": 0.4, "partition": [2, 2]}]
        rc, _, err = run(capsys, "index", "--ensemble", str(self._ensemble(tmp_path, terms)))
        assert rc == 1
        assert "error" in err

    def test_partition_not_summing_to_n(self, capsys, tmp_path):
        terms = [{"p": 1.0, "partition": [3]}]
        rc, _, _ = run(capsys, "index", "--ensemble", str(self._ensemble(tmp_path, terms)))
        assert rc == 1

    @pytest.mark.parametrize("parts", [[], [True], [2.5], [1, 2], [0]])
    def test_partition_is_refused_by_term(self, capsys, tmp_path, parts):
        # as_partition holds the rule for parts; its message names the term
        terms = [{"p": 1.0, "partition": parts}]
        rc, out, err = run(capsys, "index", "--ensemble", str(self._ensemble(tmp_path, terms, n=1)))
        assert rc == 1
        assert out == ""
        assert "term 0:" in err

    def test_term_with_both_payloads(self, capsys, tmp_path):
        terms = [{"p": 1.0, "partition": [4], "state": {"n": 4, "amplitudes": []}}]
        rc, _, _ = run(capsys, "index", "--ensemble", str(self._ensemble(tmp_path, terms)))
        assert rc == 1

    def test_norm_defect_in_state_term_exits_1(self, capsys, tmp_path):
        terms = [{"p": 1.0, "state": {"n": 1, "amplitudes": [[1.05, 0.0], [0.0, 0.0]]}}]
        rc, out, err = run(capsys, "index", "--ensemble", str(self._ensemble(tmp_path, terms, n=1)))
        assert rc == 1
        assert out == ""
        assert "norm defect" in err

    def test_factorization_failure_maps_to_exit_3(self, capsys, tmp_path, monkeypatch):
        p = self._ensemble(tmp_path, [{"p": 1.0, "partition": [2, 2]}])

        def boom(ensemble):
            raise FactorizationError("synthetic certification failure")

        monkeypatch.setattr(cli, "ensemble_index", boom)
        rc, out, err = run(capsys, "index", "--ensemble", str(p))
        assert rc == 3
        assert out == ""
        assert "certification" in err


class TestVerifyCommand:
    def test_all_suites_clean(self, capsys):
        rc, out, err = run(
            capsys, "verify", "--suite", "all", "--max-n", "4", "--trials", "10", "--seed", "7"
        )
        assert rc == 0
        assert out.count("property") == 4
        assert err == ""

    def test_single_suite_json(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--suite", "4", "--max-n", "3", "--trials", "10",
            "--seed", "1", "--json",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["reports"][0]["property_id"] == 4
        assert doc["reports"][0]["max_deviation"] == 0.0
        assert doc["reports"][0]["failures"] == []

    def test_invalid_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "9"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "invalid choice" in captured.err

    def test_failures_exit_4(self, capsys, monkeypatch):
        def fake_suite(pid, max_n, trials, seed):
            return PropertyReport(pid, trials, ("trial 0: synthetic failure",), 1.0)

        monkeypatch.setattr(cli, "run_property_suite", fake_suite)
        rc, out, _ = run(capsys, "verify", "--suite", "1", "--max-n", "4", "--trials", "5", "--seed", "1")
        assert rc == 4
        assert "synthetic failure" in out

    def test_max_n_exceeding_cap(self, capsys):
        rc, _, err = run(capsys, "verify", "--suite", "1", "--max-n", "19")
        assert rc == 1
        assert "error" in err


class TestEnvCap:
    def test_cap_applies_to_make(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_MAX_QUBITS, "3")
        rc, _, err = run(capsys, "make", "--partition", "3,1", "-o", str(tmp_path / "x.json"))
        assert rc == 1
        assert "cap" in err

    def test_cap_raises_limit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_MAX_QUBITS, "16")
        rc, _, _ = run(capsys, "make", "--partition", "15", "-o", str(tmp_path / "x.json"))
        assert rc == 0

    def test_cap_raises_verify_max_n(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_MAX_QUBITS, "16")
        rc, out, _ = run(capsys, "verify", "--suite", "1", "--max-n", "16", "--trials", "2")
        assert rc == 0
        assert "failures=0" in out

    def test_invalid_values_rejected(self, capsys, monkeypatch):
        for bad in ("25", "1", "abc"):
            monkeypatch.setenv(cli.ENV_MAX_QUBITS, bad)
            rc, _, err = run(capsys, "partitions", "3")
            assert rc == 1
            assert cli.ENV_MAX_QUBITS in err

    def test_cap_applies_to_ensemble_files(self, capsys, tmp_path, monkeypatch):
        p = tmp_path / "e.json"
        p.write_text(json.dumps({"n": 4, "terms": [{"p": 1.0, "partition": [4]}]}))
        monkeypatch.setenv(cli.ENV_MAX_QUBITS, "3")
        rc, out, err = run(capsys, "index", "--ensemble", str(p))
        assert rc == 1 and out == ""
        assert "n=4 exceeds the qubit cap of 3" in err

    def test_cap_applies_to_classify(self, capsys, tmp_path, monkeypatch):
        vec = np.zeros(16)
        vec[0] = 1.0
        p = write_state(tmp_path / "four.json", vec)
        monkeypatch.setenv(cli.ENV_MAX_QUBITS, "3")
        rc, _, err = run(capsys, "classify", str(p))
        assert rc == 1
        assert "cap" in err


class TestOutputStability:
    def test_classify_json_byte_identical(self, capsys, tmp_path):
        out_file = tmp_path / "s.json"
        run(capsys, "make", "--partition", "2,2", "--lu-seed", "3", "-o", str(out_file))
        _, first, _ = run(capsys, "classify", str(out_file), "--json")
        _, second, _ = run(capsys, "classify", str(out_file), "--json")
        assert first == second

    def test_make_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "make", "--partition", "3,1", "--lu-seed", "11", "-o", str(a))
        run(capsys, "make", "--partition", "3,1", "--lu-seed", "11", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.truth.json").read_bytes() == (tmp_path / "b.truth.json").read_bytes()

    def test_verify_json_byte_identical(self, capsys):
        args = ("verify", "--suite", "all", "--max-n", "3", "--trials", "5", "--seed", "2", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_partitions_json_byte_identical(self, capsys):
        _, first, _ = run(capsys, "partitions", "6", "--json")
        _, second, _ = run(capsys, "partitions", "6", "--json")
        assert first == second


class TestStateFileHelpers:
    def test_save_load_round_trip(self, tmp_path):
        state, _ = cli.ghz_product([2, 1], lu_seed=4)
        path = tmp_path / "rt.json"
        cli.save_state_file(path, state)
        loaded, warnings = cli.load_state_file(path)
        assert warnings == []
        np.testing.assert_allclose(loaded.vec, state.vec, atol=1e-15)

    def test_silent_renormalization_below_threshold(self, tmp_path):
        vec = np.array([1.0 + 5e-7, 0.0])
        p = write_state(tmp_path / "tiny.json", vec)
        loaded, warnings = cli.load_state_file(p)
        assert warnings == []
        assert abs(np.linalg.norm(loaded.vec) - 1.0) < 1e-12

    def test_truth_sidecar_path(self):
        assert cli.truth_sidecar_path("out/s.json").name == "s.truth.json"
        assert cli.truth_sidecar_path("plain").name == "plain.truth.json"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "{kind} must be a JSON object"),
            ({"format_version": 2, "n": 1}, "unsupported format_version"),
            ({"n": 0}, "n must be a positive integer"),
            ({"n": True}, "n must be a positive integer"),
            ({"n": 2.0}, "n must be a positive integer"),
            ({"n": 15}, "n=15 exceeds the qubit cap of 14"),
            ({"n": "3"}, "n must be a positive integer"),
            ({"n": None}, "n must be a positive integer"),
        ],
    )
    def test_state_and_ensemble_headers_share_their_messages(self, tmp_path, doc, message):
        for kind, load in (("state", cli.load_state_file), ("ensemble", cli.load_ensemble_file)):
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(cli.FileFormatError) as info:
                load(path)
            assert str(info.value) == f"{path}: " + message.format(kind=kind)

    def test_bit_order_is_checked_in_state_headers_only(self, tmp_path):
        doc = {"bit_order": "q0-least-significant", "n": 1}
        path = tmp_path / "e.json"
        path.write_text(json.dumps({**doc, "terms": [{"p": 1.0, "partition": [1]}]}), encoding="utf-8")
        assert cli.load_ensemble_file(path)[0].n_qubits == 1
        path.write_text(json.dumps({**doc, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}), encoding="utf-8")
        with pytest.raises(cli.FileFormatError, match="bit_order must be 'q0-most-significant'"):
            cli.load_state_file(path)


def _whole_document_state_file(psi):
    """Reference encoder: the state file as one json.dumps of the document."""
    doc = {
        "format_version": 1,
        "bit_order": "q0-most-significant",
        "n": psi.n_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.vec],
    }
    return json.dumps(doc, indent=2) + "\n"


def _hand_built_state():
    vec = np.array([complex(-0.0, 1e-05), complex(5e-324, -0.0), complex(1 / 3, -2.5e-17), 0j])
    vec[3] = math.sqrt(1.0 - float(np.vdot(vec, vec).real))
    return PureState(2, vec)


class TestStateFileWriter:
    """save_state_file writes exactly the bytes of the whole-document encoder."""

    def assert_matches_reference(self, path, psi):
        cli.save_state_file(path, psi)
        assert path.read_bytes() == _whole_document_state_file(psi).encode("utf-8")

    def test_dressed_permuted_partitions(self, tmp_path):
        rng = np.random.default_rng(6)
        cases = 0
        for n in range(1, 9):
            for shape in enumerate_partitions(n):
                perm = [int(q) for q in rng.permutation(n)]
                state, _ = ghz_product(shape, perm=perm, lu_seed=int(rng.integers(2**32)))
                self.assert_matches_reference(tmp_path / "s.json", state)
                cases += 1
        assert cases == 66

    @pytest.mark.parametrize(
        "psi",
        [PureState(1, np.array([1.0, 0.0])), PureState(1, np.array([0.6, -0.8j])), _hand_built_state()],
        ids=["basis1", "signed-zero1", "hand-built2"],
    )
    def test_float_reprs(self, tmp_path, psi):
        self.assert_matches_reference(tmp_path / "s.json", psi)

    # 2**13 pairs against a chunk just below, at and just above that, and the module's own
    @pytest.mark.parametrize("chunk", [2**13 - 1, 2**13, 2**13 + 1, cli.CHUNK_PAIRS])
    def test_chunk_boundaries(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "CHUNK_PAIRS", chunk)
        state, _ = ghz_product((7, 6), perm=list(range(12, -1, -1)), lu_seed=13)
        self.assert_matches_reference(tmp_path / "s.json", state)

    @pytest.mark.parametrize("lu_seed", [None, 16], ids=["bare", "dressed"])
    def test_write_memory_below_a_quarter_of_the_file(self, tmp_path, lu_seed):
        state, _ = ghz_product((16,), lu_seed=lu_seed, max_qubits=16)
        path = tmp_path / "s.json"
        tracemalloc.start()
        try:
            cli.save_state_file(path, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4


def test_stdout_carries_results_only(capsys, tmp_path):
    rc, out, err = run(capsys, "classify", str(tmp_path / "missing.json"))
    assert rc == 1
    assert out == ""
    assert err != ""
