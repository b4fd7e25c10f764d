"""In-process tests of the command-line interface: exit codes and report shape."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quivrep import builders, cli, hom, linalg, opmodels, verify
from quivrep.config import TOL
from quivrep.textio import format_matrix

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

KRONECKER_REP = """\
quiver K2
vertex 1
vertex 2
arrow a: 1 -> 2
arrow b: 1 -> 2
dim 1 = 2
dim 2 = 2
mat a = [[1, 0]; [0, 1]]
mat b = [[0, 0]; [1, 0]]
"""

CYCLE_REP = """\
quiver C3
vertex 1
vertex 2
vertex 3
arrow a1: 1 -> 2
arrow a2: 2 -> 3
arrow a3: 3 -> 1
dim 1 = 1
dim 2 = 1
dim 3 = 0
mat a1 = [[1]]
"""


@pytest.fixture
def rep_file(tmp_path):
    def write(text, name="input.rep"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run_lines(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code = cli.run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_analyze_text(rep_file, capsys):
    code, out = run_lines(capsys, ["analyze", rep_file(KRONECKER_REP)])
    assert code == 0
    assert "end_dim: 2" in out
    assert "transitive: false" in out
    assert "indecomposable: true" in out


def test_analyze_json(rep_file, capsys):
    code, report = run_json(capsys, ["analyze", rep_file(KRONECKER_REP)])
    assert code == 0
    assert report["end_dim"] == 2
    assert report["dims"] == {"1": 2, "2": 2}
    assert report["verdict"] == "indecomposable"
    assert report["max_residual"] <= 1e-8


def test_analyze_a_zero_arrow_between_dimension_8_spaces(rep_file, capsys):
    zero = "[" + "; ".join(["[" + ", ".join(["0"] * 8) + "]"] * 8) + "]"
    text = f"quiver A2\nvertex 1\nvertex 2\narrow a: 1 -> 2\ndim 1 = 8\ndim 2 = 8\nmat a = {zero}\n"
    code, report = run_json(capsys, ["analyze", rep_file(text)])
    assert code == 0
    assert report["end_dim"] == 128 and report["verdict"] == "decomposable"


def test_analyze_decomposable_emits_witness(rep_file, capsys):
    text = KRONECKER_REP.replace("mat b = [[0, 0]; [1, 0]]", "mat b = [[1, 0]; [0, 2]]")
    code, report = run_json(capsys, ["analyze", rep_file(text)])
    assert code == 0
    assert report["verdict"] == "decomposable"
    assert "idempotent_witness" in report
    assert report["idempotent_witness"].startswith("hom 1 = [[")


def test_analyze_without_a_witness_is_still_decomposable(rep_file, capsys, monkeypatch):
    # rank 2 of End's trace form is the certificate; the witness is evidence on top
    monkeypatch.setattr(hom, "IDEM_TRIALS", 0)
    text = KRONECKER_REP.replace("mat b = [[0, 0]; [1, 0]]", "mat b = [[1, 0]; [0, 2]]")
    code, report = run_json(capsys, ["analyze", rep_file(text)])
    assert code == 0
    assert report["verdict"] == "decomposable" and "idempotent_witness" not in report


def test_analyze_missing_file(capsys):
    assert cli.run(["analyze", "/nonexistent/path.rep"]) == 2


def test_analyze_malformed_file(rep_file, capsys):
    assert cli.run(["analyze", rep_file("vertex 1\nvertex 1\n")]) == 2


def test_reflect_at_sink(rep_file, capsys):
    code, report = run_json(
        capsys, ["reflect", rep_file(KRONECKER_REP), "--vertex", "2", "--dir", "plus", "--verify-end-iso"]
    )
    assert code == 0
    assert report["dims_before"] == {"1": 2, "2": 2}
    assert report["dims_after"]["2"] == 2
    assert report["end_iso"]["ok"] is True
    assert report["end_iso"]["dims_equal"] is True
    assert "arrow a~: 2 -> 1" in report["reflected"]


def test_reflect_error_codes(rep_file, capsys):
    path = rep_file(KRONECKER_REP)
    # unknown vertex is a parse-level error
    assert cli.run(["reflect", path, "--vertex", "9", "--dir", "plus"]) == 2
    # vertex 1 is a source, so the forward reflection is a precondition failure
    assert cli.run(["reflect", path, "--vertex", "1", "--dir", "plus"]) == 3
    # bad direction never reaches the command
    assert cli.run(["reflect", path, "--vertex", "2", "--dir", "sideways"]) == 2


def test_build_jordan(capsys):
    code, report = run_json(capsys, ["build", "--family", "d4tilde", "--op", "jordan:2"])
    assert code == 0
    assert report["end_dim"] == 2
    assert report["indecomposable"] is True
    assert report["dims"]["5"] == 4


def test_build_from_matrix_file(tmp_path, capsys):
    mat = tmp_path / "op.mat"
    mat.write_text(format_matrix(np.diag([1.0, 2.0])))
    code, report = run_json(capsys, ["build", "--family", "e6tilde", "--op", f"file:{mat}"])
    assert code == 0
    assert report["verdict"] == "decomposable"


def test_build_antilde(capsys):
    code, report = run_json(capsys, ["build", "--family", "antilde", "--op", "jordan:2"])
    assert code == 0
    assert report["end_dim"] == 2
    assert report["arrow_a"] != report["arrow_b"]


def test_build_bad_operator_literals(rep_file, capsys):
    assert cli.run(["build", "--family", "d4tilde", "--op", "jordan:zero"]) == 2
    assert cli.run(["build", "--family", "d4tilde", "--op", "jordan:0"]) == 2
    assert cli.run(["build", "--family", "d4tilde", "--op", "hankel:3"]) == 2
    assert cli.run(["build", "--family", "other", "--op", "jordan:2"]) == 2  # argparse choice
    capsys.readouterr()
    # a non-finite number is a parse error, rejected before any operator is built
    for op in ("jordan:2:inf", "jordan:1:nan+1j", "file:" + rep_file("[[1, nan]; [0, 1]]\n", "op.txt")):
        assert cli.run(["build", "--family", "d4tilde", "--op", op]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite"), err


def test_cycle_command(rep_file, capsys):
    code, report = run_json(capsys, ["cycle", rep_file(CYCLE_REP)])
    assert code == 0
    assert report["criterion"] is True
    assert report["direct_transitive"] is True
    assert report["agree"] is True
    assert report["components"] == ["1,2"]


def test_cycle_on_higher_dims_skips_components(rep_file, capsys):
    text = """\
quiver C2
vertex 1
vertex 2
arrow a1: 1 -> 2
arrow a2: 2 -> 1
dim 1 = 2
dim 2 = 2
mat a1 = [[1, 0]; [0, 1]]
mat a2 = [[0, 1]; [0, 0]]
"""
    code, report = run_json(capsys, ["cycle", rep_file(text)])
    assert code == 0
    assert report["criterion"] is False
    assert "components" not in report


def test_opmodel_full_report(capsys):
    code, report = run_json(
        capsys,
        [
            "opmodel", "--pair", "shift-rank-one",
            "--lambda", "seq:reciprocal", "--w", "seq:reciprocal", "--n", "6",
            "--density", "--four-subspace", "--phi",
        ],
    )
    assert code == 0
    assert report["sigma_min_a"] > 0
    assert report["density"]["dense"] is True
    assert report["four_subspace"]["agree"] is True
    assert report["phi"]["surjective"] is True


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_solves_end_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, hom, "hom_basis")
    code, report = run_json(capsys, ["analyze", str(GOLDEN_INPUTS / "kron-jordan.txt")])
    assert code == 0 and report["end_dim"] >= 1
    assert len(calls) == 1


def test_opmodel_solves_each_end_once(monkeypatch, capsys):
    # one End for the four-subspace system, one for the pair
    calls = _count_calls(monkeypatch, hom, "hom_basis")
    code, report = run_json(
        capsys,
        [
            "opmodel", "--pair", "shift-rank-one", "--lambda", "seq:reciprocal",
            "--w", "seq:one-minus-pow:2", "--n", "4", "--four-subspace", "--phi",
        ],
    )
    assert code == 0 and report["phi"]["surjective"] is True
    assert len(calls) == 2


def test_opmodel_four_subspace_phi_factors_the_system_once(monkeypatch, capsys):
    pair = opmodels.kron_pair_shift_rank_one("seq:reciprocal", "seq:one-minus-pow:2", 4)
    # End of the pair's Kronecker rep is factored at the same 16 x 16 shape, so
    # the factorizations are told apart by the cutoff each one used
    cutoff = opmodels.subspace_system_end(opmodels.four_subspace_from_pair(pair)).tol_used
    cutoffs = []
    original = linalg.nullspace_with_values

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        cutoffs.append(out[1])
        return out

    monkeypatch.setattr(linalg, "nullspace_with_values", counted)
    code, report = run_json(
        capsys,
        [
            "opmodel", "--pair", "shift-rank-one", "--lambda", "seq:reciprocal",
            "--w", "seq:one-minus-pow:2", "--n", "4", "--four-subspace", "--phi",
        ],
    )
    assert code == 0 and report["four_subspace"]["agree"] is True
    assert cutoffs.count(cutoff) == 1


def test_opmodel_density_with_overflowing_weights(capsys):
    code, report = run_json(
        capsys,
        [
            "opmodel", "--pair", "shift-rank-one",
            "--lambda", "seq:exp-neg-pow:3:odd", "--w", "seq:hrr", "--n", "2", "--density",
        ],
    )
    assert code == 0
    assert report["density"]["dense"] is True
    assert report["density"]["weight_ratio_square_summable"] is False


def test_opmodel_error_codes(capsys):
    base = ["opmodel", "--pair", "shift-rank-one", "--w", "seq:reciprocal", "--n", "4"]
    # repeated diagonal value violates the construction hypothesis
    assert cli.run(base + ["--lambda", "seq:const:1"]) == 3
    # malformed sequence literal
    assert cli.run(base + ["--lambda", "seq:wat"]) == 2
    # n below the window minimum
    assert cli.run(["opmodel", "--pair", "shift-rank-one", "--lambda", "seq:reciprocal",
                    "--w", "seq:reciprocal", "--n", "0"]) == 2


def test_common_flag_validation(rep_file, capsys):
    path = rep_file(KRONECKER_REP)
    assert cli.run(["analyze", path, "--seed", "-1"]) == 2
    assert cli.run(["analyze", path, "--tol", "0"]) == 2
    assert cli.run(["analyze", path, "--tol", "-3"]) == 2
    for tol in ("inf", "1e400"):
        capsys.readouterr()
        assert cli.run(["analyze", path, "--tol", tol]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


def test_argparse_level_exits(capsys):
    assert cli.run(["frobnicate"]) == 2
    assert cli.run([]) == 2
    assert cli.run(["-h"]) == 0
    capsys.readouterr()


def test_verify_small_run_json(capsys):
    code, report = run_json(capsys, ["verify", "--suite", "cyclic", "--trials", "2", "--seed", "3"])
    assert code == 0
    assert report["ok"] is True
    assert report["failed"] == 0
    assert report["total_checks"] == len(report["suites"]["cyclic"]["checks"])


def test_verify_repeat_runs_are_byte_identical(capsys):
    argv = ["verify", "--suite", "reflection", "--trials", "3", "--seed", "7"]
    code1, out1 = run_lines(capsys, argv)
    code2, out2 = run_lines(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_failure_exit_code(capsys, monkeypatch):
    def forced(trials, seed):
        return [verify.Check("forced", False, "boom")]

    monkeypatch.setitem(verify.SUITES, "cyclic", forced)
    code, out = run_lines(capsys, ["verify", "--suite", "cyclic"])
    assert code == 1
    assert "FAIL forced" in out


def test_verify_counts_only_a_precondition_error_as_the_cycle_rejection(monkeypatch):
    real = builders.build_an_tilde_noncyclic

    def standin(orientation, a, b):
        if orientation.name == "C3":
            raise RuntimeError("a bug, not a rejection")
        return real(orientation, a, b)

    monkeypatch.setattr(builders, "build_an_tilde_noncyclic", standin)
    with pytest.raises(RuntimeError, match="a bug"):
        verify.suite_builders(1, 7)


def test_text_rendering_of_check_lines(capsys):
    code, out = run_lines(capsys, ["verify", "--suite", "cyclic", "--trials", "2"])
    assert code == 0
    for line in out.splitlines():
        if line.strip().startswith("ok  "):
            break
    else:
        raise AssertionError("no check lines rendered")


def test_verify_operator_suite_renders_as_json(capsys):
    code, report = run_json(capsys, ["verify", "--suite", "operator", "--trials", "2"])
    assert code == 0
    assert report["ok"] is True


def test_non_finite_sequence_number_is_a_usage_error(capsys):
    argv = ["opmodel", "--pair", "shift-rank-one", "--lambda", "seq:const:nan",
            "--w", "seq:reciprocal", "--n", "4"]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.startswith("error: non-finite number")


def test_a_deeply_nested_list_literal_reads_like_the_flat_one(capsys):
    reports = []
    for w in ("seq:" + "list:[1]:" * 3000 + "reciprocal", "seq:list:[1]:reciprocal"):
        code, report = run_json(capsys, ["opmodel", "--pair", "shift-rank-one", "--lambda", w,
                                         "--w", "seq:const:1", "--n", "3", "--density"])
        assert code == 0
        del report["command"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_an_input_that_exhausts_memory_is_a_precondition_failure(rep_file, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 381. GiB for an array with shape (160000, 160000)")

    monkeypatch.setattr(hom, "_assemble", exhausted)
    assert cli.run(["analyze", rep_file(KRONECKER_REP)]) == 3
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("w, n", [("seq:hrr", "7"), ("seq:exp-neg-pow:3:odd", "700")])
def test_weight_overflow_is_a_precondition_failure(capsys, w, n):
    argv = ["opmodel", "--pair", "bilateral", "--lambda", "seq:const:1", "--w", w, "--n", n]
    assert cli.run(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_subspaces_near_the_top_of_the_double_range_keep_their_rank(capsys):
    # sigma_max * max(shape) exceeds the double range here; the cutoff must not
    code, report = run_json(capsys, ["opmodel", "--pair", "bilateral", "--lambda", "seq:const:1e308",
                                     "--w", "seq:const:1e308", "--n", "2", "--four-subspace"])
    assert code == 0
    assert report["four_subspace"]["sub_dims"] == [5, 5, 5, 5]
    assert report["four_subspace"]["end_dim"] == 5


def test_analyze_with_an_overflowing_system_is_a_precondition_failure(rep_file, capsys):
    # the arms of vertex 2 fill 2 of its 3 columns, so its block stays in the
    # system, whose sigma_max overflows
    text = KRONECKER_REP.split("dim 1")[0] + (
        "dim 1 = 1\ndim 2 = 3\nmat a = [[1e308]; [1e308]; [0]]\nmat b = [[0]; [1e308]; [1e308]]\n"
    )
    assert cli.run(["analyze", rep_file(text)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_analyze_near_the_top_of_the_double_range_answers_as_at_scale_one(rep_file, capsys):
    # [a b] determines vertex 2, so no system is factored: End = C as at scale 1
    text = KRONECKER_REP.split("dim 1")[0] + (
        "dim 1 = 1\ndim 2 = 2\nmat a = [[1e308]; [1e308]]\nmat b = [[0]; [1e308]]\n"
    )
    for scaled in (text, text.replace("e308", "")):
        code, report = run_json(capsys, ["analyze", rep_file(scaled)])
        assert code == 0
        assert report["end_dim"] == 1 and report["verdict"] == "indecomposable"


def test_a_system_that_overflows_as_it_is_assembled_warns_nothing(rep_file, src_env):
    # the loop's two terms add 1e308 to 1e308; the one line is the factorization's
    text = "quiver L\nvertex 1\narrow a: 1 -> 1\ndim 1 = 2\nmat a = [[1e308, 1e308]; [1e308, -1e308]]\n"
    proc = subprocess.run([sys.executable, "-m", "quivrep", "analyze", rep_file(text)],
                          capture_output=True, env=src_env, text=True, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "Warning" not in proc.stderr


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_analyze_with_a_non_finite_residual_is_a_precondition_failure(rep_file, capsys, fmt):
    # End is solved, but its intertwining residual overflows to inf
    rng = np.random.default_rng(1)
    a, b = (10.0 ** rng.uniform(279, 306, (3, 2)) for _ in range(2))
    text = ("quiver S\nvertex 1\nvertex 2\nvertex 3\narrow a: 1 -> 3\narrow b: 2 -> 3\n"
            f"dim 1 = 2\ndim 2 = 2\ndim 3 = 3\nmat a = {format_matrix(a)}\nmat b = {format_matrix(b)}\n")
    assert cli.run(["analyze", rep_file(text), "--format", fmt]) == 3
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_non_finite_report_value_is_a_precondition_failure(monkeypatch, capsys, fmt, value):
    monkeypatch.setitem(cli._COMMANDS, "verify", lambda args, echo: ({"value": value}, 0))
    assert cli.run(["verify", "--suite", "cyclic", "--format", fmt]) == 3
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error: ")


def test_run_restores_the_global_tolerance(rep_file, capsys):
    assert TOL.get() == 1e-9
    assert cli.run(["analyze", rep_file(KRONECKER_REP), "--tol", "1e-3"]) == 0
    assert TOL.get() == 1e-9
    assert cli.run(["analyze", "/nonexistent/path.rep", "--tol", "1e-3"]) == 2
    assert TOL.get() == 1e-9


SMALL_ARROW_CYCLE_REP = """\
quiver C3
vertex 1
vertex 2
vertex 3
arrow a1: 1 -> 2
arrow a2: 2 -> 3
arrow a3: 3 -> 1
dim 1 = 1
dim 2 = 1
dim 3 = 1
mat a1 = [[1]]
mat a2 = [[1e-6]]
mat a3 = [[0]]
"""


def test_tol_reaches_the_cycle_criterion(rep_file, capsys):
    path = rep_file(SMALL_ARROW_CYCLE_REP)
    code, report = run_json(capsys, ["cycle", path])
    assert code == 0
    assert report["criterion"] is True and report["agree"] is True
    code, report = run_json(capsys, ["cycle", path, "--tol", "1e-3"])
    assert code == 0
    assert report["tol"] == 1e-3
    assert report["criterion"] is False and report["agree"] is False
    assert TOL.get() == 1e-9


def test_a_closed_stdout_is_a_usage_error_without_a_traceback(src_env):
    proc = subprocess.Popen([sys.executable, "-m", "quivrep", "verify", "--suite", "all", "--seed", "7", "--format", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env, text=True)
    proc.stdout.close()  # the reader leaves before the report is written
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert err.splitlines() == ["error: standard output was closed before the report was written"]


@pytest.mark.parametrize(
    "argv, code, stream, line",
    [
        (["verify", "--suite", "all", "--trials", "0"], 2, "err", "error: --trials must be >= 1, got 0"),
        (["build", "--family", "d4tilde", "--op", "jordan:2:1:3"], 2, "err",
         "error: operator literal 'jordan:2:1:3'; expected jordan:k[:lam]"),
        (["opmodel", "--pair", "shift-rank-one", "--lambda", "seq:list:[0]:reciprocal", "--w", "seq:reciprocal",
          "--n", "3", "--density"], 0, "out", "  weight_ratio_square_summable: none"),
    ],
    ids=["zero-trials", "jordan-literal-with-three-fields", "none-in-text"],
)
def test_rarely_taken_report_and_error_paths(capsys, argv, code, stream, line):
    assert cli.run(argv) == code
    captured = capsys.readouterr()
    assert line in (captured.out if stream == "out" else captured.err).splitlines()
