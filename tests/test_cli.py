import contextlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from projconn.catalog import CHARTS
from projconn.cli import main
from projconn.expr import MAX_DEPTH, point_text
from projconn.geometry import load_spec, sample

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_human(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) >= 5
    assert any(line.startswith("euclidean3 (n=3") and "parallel xi" in line for line in lines)
    assert any("non-parallel xi" in line for line in lines)


def test_list_json(capsys):
    code, out, _ = run_cli(capsys, "list", "--json")
    assert code == 0
    entries = json.loads(out)
    assert isinstance(entries, list) and len(entries) >= 5
    names = {e["name"] for e in entries}
    assert "cylinder_s2xr" in names


def test_eval_shifted_curvature_component(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--manifold", "euclidean3",
        "--tensor", "riemann_tilde", "--point", "0,0,0",
    )
    assert code == 0
    assert "riemann_tilde[l=2,i=1,j=2,k=1] = -0.5625" in out


def test_eval_shifted_ricci_on_cylinder(capsys):
    point = f"{math.pi / 2},1.0,0.0"
    code, out, _ = run_cli(
        capsys, "eval", "--manifold", "cylinder_s2xr",
        "--tensor", "ricci_tilde", "--point", point,
    )
    assert code == 0
    assert "ricci_tilde[j=3,k=3] = 1.125" in out


def test_eval_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--manifold", "euclidean3",
        "--tensor", "ricci_tilde", "--point", "0,0,0", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["components"][0][0] == pytest.approx(9.0 / 8.0)
    assert payload["lambda"] == pytest.approx(-9.0 / 16.0)


def test_eval_point_with_negative_first_coordinate(capsys):
    # argparse alone reads "-0.3,0.2,0.1" as an option and exits 2
    spaced = run_cli(capsys, "eval", "--manifold", "euclidean3", "--tensor", "riemann_tilde",
                     "--point", "-0.3,0.2,0.1", "--json")
    joined = run_cli(capsys, "eval", "--manifold", "euclidean3", "--tensor", "riemann_tilde",
                     "--point=-0.3,0.2,0.1", "--json")
    assert spaced == joined
    assert spaced[0] == 0
    assert json.loads(spaced[1])["point"] == [-0.3, 0.2, 0.1]


def test_eval_unknown_tensor_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--manifold", "euclidean3",
        "--tensor", "by_any_other_name", "--point", "0,0,0",
    )
    assert code == 2
    assert "unknown tensor" in err


def test_eval_point_outside_box(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--manifold", "euclidean3",
        "--tensor", "gamma", "--point", "7,0,0",
    )
    assert code == 2
    assert "outside the sampling box" in err


def test_verify_flat_chart_all_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--manifold", "euclidean3", "--samples", "15",
    )
    assert code == 0
    assert "FAIL" not in out
    assert "PASS parallel_unit_xi" in out


def test_verify_negative_control_skips_and_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--manifold", "sphere3_bad_xi", "--samples", "15",
    )
    assert code == 0
    assert "SKIP" in out
    assert "FAIL" not in out


def test_verify_single_check_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--manifold", "cylinder_s2xr",
        "--samples", "15", "--check", "eq17", "--json",
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    rec = records[0]
    assert rec["check_id"] == "eq17"
    assert rec["pass"] is True
    for key in ("manifold", "samples", "seed", "residual_max", "residual_mean",
                "tolerance", "gate_status"):
        assert key in rec


def test_verify_counts_are_a_sign_and_ascii_digits(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--manifold", "euclidean3",
        "--samples", "+3", "--seed", "007", "--check", "eq17", "--json",
    )
    assert code == 0
    [rec] = json.loads(out)
    assert (rec["samples"], rec["seed"]) == (3, 7)


def test_verify_json_output_is_byte_identical(capsys):
    _, first, _ = run_cli(
        capsys, "verify", "--manifold", "cylinder_s2xr",
        "--samples", "12", "--json",
    )
    _, second, _ = run_cli(
        capsys, "verify", "--manifold", "cylinder_s2xr",
        "--samples", "12", "--json",
    )
    assert first == second


def test_verify_tolerance_override_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--manifold", "cylinder_s2xr", "--samples", "5",
        "--check", "thm2_1_ii", "--tol", "thm2_1_ii=1e-30",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_unknown_check_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--manifold", "euclidean3", "--check", "eq99",
    )
    assert code == 2
    assert err == "error: unknown check id(s): eq99\n"


@pytest.mark.parametrize(
    "command, name",
    [(["verify"], "torus"), (["verify"], "euclidean03"),
     (["eval", "--tensor", "gamma", "--point", "0,0,0"], "torus")],
)
def test_unknown_manifold_lists_the_catalog(capsys, command, name):
    code, _, err = run_cli(capsys, *command, "--manifold", name)
    assert code == 3
    assert err == (
        f"error: unknown catalog entry '{name}'; known: euclidean3, euclidean4, "
        "euclidean5, euclidean8, cylinder_s2xr, gssf_c1, gssf_c4, polar_r2xr2, "
        "warped_r3xr, sphere3_bad_xi\n"
    )


def test_verify_missing_file_input_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--file", "/no/such/file.manifold")
    assert code == 3


def test_verify_from_manifold_file(capsys):
    path = CHARTS / "euclidean3.manifold"
    code, out, _ = run_cli(
        capsys, "verify", "--file", str(path), "--samples", "10",
        "--check", "eq9_two_path",
    )
    assert code == 0
    assert "PASS" in out


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--manifold", "euclidean3", "--samples", "8",
        "--check", "eq12", "--json", "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out_path.read_text(encoding="utf-8"))[0]["check_id"] == "eq12"


def test_missing_manifold_argument(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2


BAD_LOG_CHART = """
name = bad_log
dim = 3
coords = x, y, z
g[0][0] = exp(2*log(x))
g[0][1] = 0
g[0][2] = 0
g[1][1] = 1
g[1][2] = 0
g[2][2] = 1
xi[0] = 0
xi[1] = 0
xi[2] = 1
box[0] = -1, 1
box[1] = -1, 1
box[2] = -1, 1
"""


def test_evaluation_error_exits_3_naming_point_and_subexpression(tmp_path, capsys):
    path = tmp_path / "bad_log.manifold"
    path.write_text(BAD_LOG_CHART, encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", "--file", str(path), "--samples", "5")
    assert code == 3
    assert "log of a non-positive value at (" in err and "'log(x)'" in err
    assert "np.float64" not in err
    code, _, err = run_cli(
        capsys, "eval", "--file", str(path), "--tensor", "riemann", "--point=-0.5,0,0",
    )
    assert code == 3
    assert err.strip() == "error: log of a non-positive value at (-0.5, 0.0, 0.0) in 'log(x)'"
    # A chunk is evaluated as a whole; the message still names the first bad
    # sample, here one inside the first chunk.
    path.write_text(BAD_LOG_CHART.replace("box[0] = -1, 1", "box[0] = -0.2, 1"), encoding="utf-8")
    samples = sample(load_spec(path), 40, seed=42)
    first_bad = int(np.flatnonzero(samples.points[:, 0] <= 0.0)[0])
    assert 0 < first_bad < samples.chunks()[0][1]
    code, _, err = run_cli(capsys, "verify", "--file", str(path), "--samples", "40")
    assert code == 3
    assert err.strip() == (
        f"error: log of a non-positive value at {point_text(samples.points[first_bad])} in 'log(x)'"
    )


def test_derivative_domain_error_at_a_late_sample_names_it(tmp_path, capsys):
    # g is finite everywhere, but its x-partial divides by zero where x = a,
    # the x coordinate of sample 149 of 200: in the second of two chunks,
    # which share one block of each table
    spec = load_spec(CHARTS / "euclidean3.manifold")
    samples = sample(spec, 200, seed=42)
    a = float(samples.points[149, 0])
    assert a > 0.0 and np.count_nonzero(samples.points[:, 0] == a) == 1
    assert samples.chunks()[1][0] <= 149 < samples.chunks()[1][1]
    path = tmp_path / "kink.manifold"
    path.write_text(_euclidean3_with("g[0][0] = 1", f"g[0][0] = 2 + sqrt((x - {a!r})^2)"),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--file", str(path))
    assert (code, out) == (3, "")
    assert err == (f"error: division by zero at {point_text(samples.points[149])} "
                   f"in '2*(x-{a!r})/(2*sqrt((x-{a!r})^2))'\n")


def test_not_spd_message_prints_plain_floats(tmp_path, capsys):
    path = tmp_path / "not_spd.manifold"
    path.write_text(BAD_LOG_CHART.replace("exp(2*log(x))", "x - 0.5"), encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", "--file", str(path), "--samples", "5")
    assert code == 3
    assert "metric is not positive definite at (" in err
    assert "np.float64" not in err


def test_asymmetric_metric_message_prints_plain_floats(euclidean3):
    from dataclasses import replace

    from projconn import expr as ex
    from projconn.geometry import SpecError, metric_at

    g = [list(row) for row in euclidean3.g]
    g[0][1] = ex.parse("x")
    spec = replace(euclidean3, g=tuple(tuple(row) for row in g))
    with pytest.raises(SpecError, match=r"not symmetric at \(0\.5, 0\.0, 0\.0\)") as err:
        metric_at(spec, np.array([0.5, 0.0, 0.0]))
    assert "np.float64" not in str(err.value)


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60,
    )


def test_module_entry_point_runs():
    proc = _python("-m", "projconn.cli", "list")
    assert proc.returncode == 0, proc.stderr
    assert "euclidean3 (n=3" in proc.stdout


def test_cli_import_does_not_load_scipy():
    proc = _python("-c", "import sys, projconn.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cold_verify_does_not_load_numpy_random():
    proc = _python("-c", (
        "import sys; from projconn.cli import main; "
        "code = main(['verify', '--manifold', 'euclidean3', '--samples', '5', '--json']); "
        "print(code, 'numpy.random' in sys.modules, file=sys.stderr)"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "0 False"


def test_closed_pipe_exits_quietly():
    # No reader at all: the read end is closed before the child starts, so
    # its first flush meets a broken pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "projconn.cli", "list"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


_JSON_CHART = {
    "name": "flat_json", "dim": 2, "coords": ["x", "y"],
    "g": [["1", "0"], ["0", "1"]], "xi": ["1", "0"], "box": [[-1, 1], [-1, 1]],
}


_OVERFLOWING_CHART = (CHARTS / "euclidean3.manifold").read_text(
    encoding="utf-8").replace("g[0][0] = 1", "g[0][0] = 1 + log(x - 1e999)")


def _euclidean3_with(old: str, new: str) -> str:
    return (CHARTS / "euclidean3.manifold").read_text(encoding="utf-8").replace(old, new)


_EVAL_GAMMA = ["eval", "--manifold", "euclidean3", "--tensor", "gamma"]
# SPD, but 1/g[0][0] overflows: G^-1 is not finite
_SUBNORMAL_CHART = _euclidean3_with("g[0][0] = 1\n", "g[0][0] = 1e-320\n")


_OVERFLOWING_PRODUCT = _euclidean3_with("g[0][0] = 1", "g[0][0] = 1 + x*x*x*x*x*x*x*x").replace(
    "box[0] = -1, 1", "box[0] = 1e40, 1e41")


def test_entry_that_overflows_through_products_exits_3(tmp_path, capsys):
    # no function or power overflows: the entry's value itself is infinite
    path = tmp_path / "overflow.manifold"
    path.write_text(_OVERFLOWING_PRODUCT, encoding="utf-8")
    entry = "'1+x*x*x*x*x*x*x*x'"
    code, out, err = run_cli(capsys, "eval", "--file", str(path), "--tensor", "gamma",
                             "--point", "5e40,0.5,0.5")
    assert (code, out, err) == (3, "", f"error: non-finite value at (5e+40, 0.5, 0.5) in {entry}\n")
    first = sample(load_spec(path), 200, seed=42).points[0]
    code, out, err = run_cli(capsys, "verify", "--file", str(path), "--json")
    assert (code, out, err) == (3, "", f"error: non-finite value at {point_text(first)} in {entry}\n")


# Two constants fold only to a finite value: d g[0][0] / dx is 1e308 + 1e308,
# left to the evaluation, which names it
_FOLDING_OVERFLOW = _euclidean3_with("g[0][0] = 1\n", "g[0][0] = 1 + 1e308*x + 1e308*x\n").replace(
    "box[0] = -1, 1", "box[0] = 0, 1e-300")
# finite tables and a finite G^-1, but pi = g xi overflows
_PI_OVERFLOW = _euclidean3_with("g[0][0] = 1\n", "g[0][0] = 1e308\n").replace(
    "xi[0] = 1\n", "xi[0] = 10\n")


@pytest.mark.parametrize("document, tensor, message", [
    (_FOLDING_OVERFLOW, "gamma", "non-finite value at {} in '1e+308+1e+308'"),
    (_PI_OVERFLOW, "torsion", "1-form pi = g xi is not finite at {}"),
], ids=["constant_fold", "pi"])
def test_overflow_from_finite_entries_exits_3(tmp_path, capsys, document, tensor, message):
    path = tmp_path / "overflow.manifold"
    path.write_text(document, encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", "--file", str(path), "--tensor", tensor,
                             "--point", "0,0,0")
    assert (code, out, err) == (3, "", f"error: {message.format('(0.0, 0.0, 0.0)')}\n")
    first = sample(load_spec(path), 200, seed=42).points[0]
    code, out, err = run_cli(capsys, "verify", "--file", str(path))
    assert (code, out, err) == (3, "", f"error: {message.format(point_text(first))}\n")


def test_verify_json_never_writes_a_non_finite_number(monkeypatch, capsys):
    from projconn import theorems
    from projconn.report import CheckReport

    report = CheckReport("eq17", "euclidean3", 1, 42, math.nan, math.nan, 1e-9, False, "passed")
    monkeypatch.setattr(theorems, "run_checks", lambda *args, **kwargs: [report])
    code, out, err = run_cli(capsys, "verify", "--manifold", "euclidean3", "--json")
    assert (code, out, err) == (3, "", "error: chart 'euclidean3': a report holds a non-finite value\n")


def test_eval_never_shows_a_non_finite_component_as_zero(monkeypatch, capsys):
    from projconn import cli

    nan_first = np.zeros((3, 3, 3))
    nan_first[0, 0, 0] = math.nan
    monkeypatch.setattr(cli, "_eval_tensor", lambda *args: (nan_first, "kij", {}))
    code, out, _ = run_cli(capsys, *_EVAL_GAMMA, "--point", "0,0,0")
    assert (code, out.splitlines()[1:]) == (0, ["gamma[k=1,i=1,j=1] = nan"])
    code, out, err = run_cli(capsys, *_EVAL_GAMMA, "--point", "0,0,0", "--json")
    assert (code, out, err) == (3, "", "error: gamma on 'euclidean3' at (0,0,0) holds a non-finite value\n")


@pytest.mark.parametrize("args, document, code, message", [
    (["verify"], _euclidean3_with("dim = 3", "dim = ٣"), 3,
     "cannot load manifold file: 'dim' must be an integer, got '٣'"),
    (["verify"], _euclidean3_with("box[0] = -1, 1", "box[0] = -١, 1_0"), 3,
     "cannot load manifold file: box[0] bounds must be numbers, got '-١, 1_0'"),
    ([*_EVAL_GAMMA, "--point", "٠.1,0,0"], None, 2,
     "--point must be comma separated reals, got '٠.1,0,0'"),
    ([*_EVAL_GAMMA, "--point", "1_0e-1,0,0"], None, 2,
     "--point must be comma separated reals, got '1_0e-1,0,0'"),
    (["verify", "--manifold", "euclidean3", "--tol", "eq17=1_0"], None, 2,
     "--tol value for 'eq17' is not a number, got '1_0'"),
], ids=["dim", "box", "point_digit", "point_separator", "tol"])
def test_numbers_outside_expressions_follow_the_number_rule(
    tmp_path, capsys, args, document, code, message
):
    if document is not None:
        path = tmp_path / "chart.manifold"
        path.write_text(document, encoding="utf-8")
        args = [*args, "--file", str(path)]
    returned, out, err = run_cli(capsys, *args)
    assert (returned, out, err) == (code, "", f"error: {message}\n")


def test_ascii_numbers_outside_expressions_still_load(tmp_path, capsys):
    path = tmp_path / "chart.manifold"
    path.write_text(_euclidean3_with("box[0] = -1, 1", "box[0] = -1e0, +1.0"), encoding="utf-8")
    assert load_spec(path).box[0] == (-1.0, 1.0)
    code, out, _ = run_cli(capsys, *_EVAL_GAMMA, "--point", "+1e-1,0,-0.0", "--json")
    assert code == 0 and json.loads(out)["point"] == [0.1, 0.0, -0.0]


def test_superscript_entry_exits_3_with_one_line(tmp_path, capsys):
    path = tmp_path / "chart.manifold"
    path.write_text(_euclidean3_with("g[1][1] = 1", "g[1][1] = ²"), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--file", str(path))
    assert (code, out) == (3, "")
    assert err == "error: cannot load manifold file: g[1][1]: unexpected character '²' (at character 1)\n"


def _deep_chart(entry: str) -> str:
    """euclidean3 with g[1][1] = entry and xi = d_z, so that an entry in x
    leaves the field parallel and every check passing."""
    return (CHARTS / "euclidean3.manifold").read_text(encoding="utf-8").replace(
        "g[1][1] = 1", f"g[1][1] = {entry}").replace(
        "xi[0] = 1", "xi[0] = 0").replace("xi[2] = 0", "xi[2] = 1")


def _quotient_chain(levels: int) -> str:
    inner = "x"
    for _ in range(levels):
        inner = f"2+0.1*x/({inner})"
    return f"1+0.1*x/({inner})"


# shape -> (entry of size k, the largest k that parses).  An atom is depth 1;
# each parenthesis, call, unary minus and operator node adds one.
_DEEP_ENTRIES = {
    "parens": (lambda k: "(" * k + "1 + 0.1*x^2" + ")" * k, MAX_DEPTH - 1),
    "sum": (lambda k: "1" + " + 0.001*x" * k, MAX_DEPTH - 2),
    "product": (lambda k: "(2 + x)" + "*1.001" * k, MAX_DEPTH - 2),
    "sin": (lambda k: "2 + " + "sin(" * k + "x" + ")" * k, MAX_DEPTH - 2),
    "neg": (lambda k: "2 + " + "-" * k + "x", MAX_DEPTH - 2),
    "quotient": (_quotient_chain, (MAX_DEPTH - 4) // 2),
}


@pytest.mark.parametrize("shape", _DEEP_ENTRIES)
def test_entry_at_the_depth_limit_verifies_and_evaluates(tmp_path, capsys, shape):
    entry, k = _DEEP_ENTRIES[shape]
    path = tmp_path / "deep.manifold"
    path.write_text(_deep_chart(entry(k)), encoding="utf-8")
    assert run_cli(capsys, "verify", "--file", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "eval", "--file", str(path), "--tensor", "riemann_tilde",
                           "--point", "0.3,0.2,0.1")
    assert code == 0 and out


@pytest.mark.parametrize(
    "args, document, code, message",
    [
        (["verify", "--manifold", "euclidean3", "--samples", "0"], None, 2,
         "--samples must be at least 1"),
        (["verify", "--manifold", "euclidean3", "--samples", "-3"], None, 2,
         "--samples must be at least 1"),
        (["verify", "--manifold", "euclidean3", "--seed", "-1"], None, 2,
         "--seed must be non-negative"),
        (["verify", "--manifold", "euclidean3", "--samples", "10000000000000"], None, 3,
         "--samples 10000000000000 is too many"),
        (["verify", "--manifold", "euclidean3", "--samples", "100000000000000000"], None, 3,
         "--samples 100000000000000000 is too many"),
        (["verify", "--manifold", "euclidean3", "--samples", "10000000000000000000"], None, 3,
         "--samples 10000000000000000000 is too many"),
        (["verify", "--manifold", "euclidean3", "--samples", "٣"], None, 2,
         "--samples must be an integer, got '٣'"),
        (["verify", "--manifold", "euclidean3", "--seed", "١_0"], None, 2,
         "--seed must be an integer, got '١_0'"),
        (["verify", "--manifold", "euclidean3", "--samples", "1_0"], None, 2,
         "--samples must be an integer, got '1_0'"),
        (["verify", "--manifold", "euclidean3", "--seed", "4.0"], None, 2,
         "--seed must be an integer, got '4.0'"),
        (["verify", "--manifold", "euclidean3", "--samples", " 3"], None, 2,
         "--samples must be an integer, got ' 3'"),
        (["verify"], (CHARTS / "euclidean3.manifold").read_text(encoding="utf-8")
         .replace("box[2] = -1, 1", "box[2] = 1, -1"), 3, "empty sampling box for coordinate 'z'"),
        (["verify"], json.dumps(dict(_JSON_CHART, box=[[-1], [-1, 1]])), 3, "box[0] must be a pair"),
        (["verify"], json.dumps(dict(_JSON_CHART, g="1")), 3, "'g' must be a list of lists"),
        (["verify"], json.dumps(dict(_JSON_CHART, coords=5)), 3, "'coords' must be a list of names"),
        (["verify", "--check", "eq17"], json.dumps(_JSON_CHART), 3,
         "operation requires dimension > 2"),
        (["eval", "--tensor", "projective", "--point", "0,0"], json.dumps(_JSON_CHART), 3,
         "operation requires dimension > 2"),
        (["verify", "--manifold", "euclidean3", "--tol", "eq17=nan"], None, 2,
         "--tol value for 'eq17' is not a number, got 'nan'"),
        (["verify", "--manifold", "euclidean3", "--tol", "eq17=1e400"], None, 2,
         "--tol value for 'eq17' must be finite and non-negative"),
        (["verify", "--manifold", "euclidean3", "--tol", "eq17=-1"], None, 2,
         "--tol value for 'eq17' must be finite and non-negative"),
        (["verify", "--manifold", "euclidean3", "--check", ","], None, 2,
         "--check names no check"),
        (["verify"], json.dumps(dict(_JSON_CHART, dim=2.7)), 3, "'dim' must be an integer"),
        (["verify"], (CHARTS / "euclidean3.manifold").read_text(encoding="utf-8")
         .replace("box[0] = -1, 1", "box[0] = -1, inf"), 3,
         "box[0] bounds must be numbers, got '-1, inf'"),
        (["verify"], (CHARTS / "euclidean3.manifold").read_text(encoding="utf-8")
         .replace("box[0] = -1, 1", "box[0] = -1, 1e400"), 3,
         "box[0] bounds and their difference must be finite"),
        (["verify"], (CHARTS / "euclidean3.manifold").read_text(encoding="utf-8")
         .replace("box[0] = -1, 1", "box[0] = -1e308, 1e308"), 3,
         "box[0] bounds and their difference must be finite"),
        (["verify"], _OVERFLOWING_CHART, 3, "number out of range"),
        (["eval", "--tensor", "gamma", "--point", "0,0,0"], _OVERFLOWING_CHART, 3,
         "number out of range"),
        (["eval", "--tensor", "gamma", "--point", "0.5,0.5,0.5"], _SUBNORMAL_CHART, 3,
         "metric inverse is not finite at (0.5, 0.5, 0.5)"),
        (["eval", "--json", "--tensor", "gamma", "--point", "0.5,0.5,0.5"], _SUBNORMAL_CHART, 3,
         "metric inverse is not finite at (0.5, 0.5, 0.5)"),
        (["verify", "--json"], _SUBNORMAL_CHART, 3, "metric inverse is not finite at ("),
        (["list", "--out", "{tmp}"], None, 3, "cannot write --out file"),
        (["list", "--out", "{tmp}/missing/list.txt"], None, 3, "cannot write --out file"),
        (["verify"], b"\xff" + (CHARTS / "euclidean3.manifold").read_bytes(), 3,
         "cannot load manifold file: 'utf-8' codec can't decode"),
        (["verify"], _euclidean3_with("g[0][0] = 1", "g[0][0] = 1 + x^²"), 3,
         "g[0][0]: unexpected character '²' (at character 7)"),
        (["eval", "--tensor", "gamma", "--point", "0,0,0"],
         _euclidean3_with("g[0][0] = 1", "g[0][0] = 1 + ٣*x^2"), 3,
         "g[0][0]: unexpected character '٣' (at character 5)"),
        (["verify"], json.dumps(dict(_JSON_CHART, parallel_xi_expected=None)), 3,
         "parallel_xi_expected must be true or false"),
        (["verify"], json.dumps(dict(_JSON_CHART, parallel_xi_expected=0)), 3,
         "parallel_xi_expected must be true or false"),
        *[(["verify"], _deep_chart(entry(k + 1)), 3, f"nested deeper than {MAX_DEPTH} levels")
          for entry, k in _DEEP_ENTRIES.values()],
        (["eval", "--tensor", "gamma", "--point", "0,0,0"],
         _deep_chart("(" * 2000 + "1" + ")" * 2000), 3, f"nested deeper than {MAX_DEPTH} levels"),
        (["verify"], json.dumps(dict(_JSON_CHART)).replace(
            '[["1", "0"], ["0", "1"]]', "[" * 50000 + "]" * 50000), 3,
         "invalid JSON document: nested too deeply"),
    ],
    ids=["samples_zero", "samples_negative", "seed_negative", "samples_beyond_memory",
         "samples_beyond_address_space", "samples_beyond_array_size",
         "samples_arabic_indic_digit",
         "seed_arabic_indic_digit_underscore", "samples_underscore", "seed_decimal_point",
         "samples_space", "empty_box", "short_box_pair",
         "g_not_a_list", "coords_not_a_list", "verify_planar_eq17", "eval_planar_projective",
         "tol_nan", "tol_overflows", "tol_negative", "check_names_none", "dim_not_integral",
         "box_infinite", "box_overflows", "box_width_overflows", "verify_number_overflows",
         "eval_number_overflows", "eval_subnormal_metric", "eval_json_subnormal_metric",
         "verify_json_subnormal_metric", "out_is_a_directory", "out_directory_missing",
         "file_not_utf8", "superscript_exponent", "arabic_indic_digit", "parallel_flag_null",
         "parallel_flag_number",
         *[f"{shape}_past_depth_limit" for shape in _DEEP_ENTRIES], "eval_parens_2000",
         "json_nested_50000"],
)
def test_bad_input_ends_with_a_message(tmp_path, capsys, args, document, code, message):
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    if document is not None:
        path = tmp_path / "chart.manifold"
        if isinstance(document, bytes):
            path.write_bytes(document)
        else:
            path.write_text(document, encoding="utf-8")
        args = [*args, "--file", str(path)]
    try:
        returned = main(args)
    except (Exception, SystemExit) as err:
        pytest.fail(f"{type(err).__name__} escaped main: {err}")
    err = capsys.readouterr().err
    assert returned == code, err
    assert "Traceback" not in err
    assert any(line.startswith("error: ") and message in line for line in err.splitlines()), err


def test_module_entry_point_exit_codes():
    # one usage error (exit 2) and one input error (exit 3) through a real
    # interpreter; both start before either is waited for
    cases = [
        (["verify", "--manifold", "euclidean3", "--samples", "0"], 2, "--samples must be at least 1"),
        (["verify", "--manifold", "torus"], 3, "unknown catalog entry 'torus'"),
    ]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    with contextlib.ExitStack() as stack:
        procs = [
            stack.enter_context(subprocess.Popen(
                [sys.executable, "-m", "projconn.cli", *args],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
            ))
            for args, _, _ in cases
        ]
        for proc, (_, code, message) in zip(procs, cases):
            _, stderr = proc.communicate(timeout=60)
            assert proc.returncode == code, stderr
            assert "Traceback" not in stderr
            assert any(
                line.startswith("error: ") and message in line for line in stderr.splitlines()
            ), stderr
