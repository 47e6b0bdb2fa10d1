"""End-to-end CLI tests.

Each invocation checks the exit code and the flat key=value envelope;
numeric payloads must round-trip through the printed 17 significant
digits to the exact doubles the library computes.  ``run_cli`` calls
``cli.main`` in the test process, so the tier-1 statement tracer sees
the CLI too.  Three tests start a Python process because the process is
what they check: the console-script launcher, the modules a cold chain
imports, and a runtime with numpy alone.
"""

import io
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest

import pelliptic
import pelliptic.cli as cli
import pelliptic.eigen as eg
import pelliptic.elliptic as el
import pelliptic.fourier as fr
import pelliptic.qtheta as qt

REPO = Path(__file__).resolve().parents[1]
# the directory that holds the imported pelliptic package
PKG_PARENT = str(Path(pelliptic.__file__).resolve().parents[1])


def cli_env(bin_dir=None):
    """Environment for a child process.

    PYTHONPATH starts with the absolute directory of the imported package,
    so the child imports the same pelliptic from any working directory;
    bin_dir, if given, goes first on PATH.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PKG_PARENT, env.get("PYTHONPATH")])
    )
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    return env


def run_cli(*args, cwd=None):
    """``pelliptic *args`` through ``cli.main`` in this process, in cwd if
    given: the exit code (a ``SystemExit`` gives its code), stdout and
    stderr, as ``subprocess.run`` reports them."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    try:
        if cwd is not None:
            os.chdir(cwd)
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(here)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def parse_envelope(stdout):
    out = {}
    for line in stdout.splitlines():
        key, _, val = line.partition("=")
        if key == "warning":
            out.setdefault("warning", []).append(val)
        else:
            out[key] = val
    return out


def test_kp_documented_values():
    r = run_cli("kp", "--p", "2", "--mu", "0")
    assert r.returncode == 0
    env = parse_envelope(r.stdout)
    assert env["command"] == "kp"
    assert abs(float(env["value"]) - 1.5707963) < 1e-6
    assert abs(float(env["value"]) - math.pi / 2.0) < 1e-13

    r = run_cli("kp", "--p", "3", "--mu", "0")
    assert abs(float(parse_envelope(r.stdout)["value"]) - 1.2091996) < 1e-6


def test_kp_out_of_domain_exits_2():
    r = run_cli("kp", "--p", "2", "--mu", "1.5")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error=")


def test_kp_series_agrees_with_quadrature():
    a = run_cli("kp", "--p", "2.5", "--mu", "0.5", "--method", "quad")
    b = run_cli("kp", "--p", "2.5", "--mu", "0.5", "--method", "series")
    va = float(parse_envelope(a.stdout)["value"])
    vb = float(parse_envelope(b.stdout)["value"])
    assert abs(va - vb) < 1e-12
    assert float(parse_envelope(a.stdout)["error_estimate"]) < 1e-10


def test_kp_value_roundtrips_to_library_double():
    r = run_cli("kp", "--p", "2", "--mu", "0.5")
    assert float(parse_envelope(r.stdout)["value"]) == el.kp(2.0, 0.5)


def test_snp_envelope():
    r = run_cli("snp", "--p", "2.5", "--mu", "0.6", "--y", "1.3")
    assert r.returncode == 0
    env = parse_envelope(r.stdout)
    assert float(env["value"]) == el.snp(2.5, 0.6, 1.3)
    assert env["period_index"] == "0"


def test_snp_bad_float_exits_1():
    r = run_cli("snp", "--p", "2", "--mu", "0.5", "--y", "abc")
    assert r.returncode == 1


def test_eigen_envelope_and_samples():
    r = run_cli("eigen", "--p", "2", "--mu", "0.5", "--n", "2", "--x-samples", "5")
    assert r.returncode == 0
    env = parse_envelope(r.stdout)
    e = eg.eigenpair(2.0, 0.5, 2)
    assert float(env["lambda"]) == e.lam
    assert float(env["amplitude"]) == e.amplitude
    assert float(env["alpha"]) == e.alpha
    # 5 samples on [0, 1]; the ends are boundary zeros
    assert float(env["x_4"]) == 1.0
    assert float(env["phi_0"]) == 0.0
    assert float(env["phi_4"]) == 0.0
    assert "x_5" not in env


def test_eigen_tiny_modulus_exits_0():
    # mu**p underflows to 0 at mu = 1e-200; alpha needs no division by it
    r = run_cli("eigen", "--p", "2", "--mu", "1e-200", "--n", "1")
    assert r.returncode == 0, r.stderr
    env = parse_envelope(r.stdout)
    assert float(env["alpha"]) == eg.eigenpair(2.0, 1e-200, 1).alpha


def test_tau_envelope():
    r = run_cli("tau", "--p", "2", "--mu", "0.5", "--kmax", "5")
    assert r.returncode == 0
    env = parse_envelope(r.stdout)
    assert float(env["tau_1"]) == fr.tau_k(2.0, 0.5, 1)
    assert float(env["tau_5"]) == fr.tau_k(2.0, 0.5, 5)
    assert abs(float(env["tau_2"])) < 1e-12
    assert float(env["tail_bound"]) > 0.0
    assert "tau_6" not in env


def test_q0_documented_value():
    r = run_cli("q0")
    assert r.returncode == 0
    assert abs(float(parse_envelope(r.stdout)["value"]) - 0.768062) < 1e-4


def test_mu0_close_to_one():
    r = run_cli("mu0")
    env = parse_envelope(r.stdout)
    assert 0.0 < float(env["one_minus_value"]) < 1e-7


def test_s_matches_library():
    r = run_cli("s", "--q", "0.3", "--sign", "1")
    assert float(parse_envelope(r.stdout)["value"]) == qt.fraenkel_s(0.3, 1)


def test_certify_p2sharp_documented_pass():
    r = run_cli("certify", "--criterion", "p2sharp", "--mu-const", "0.9909")
    assert r.returncode == 0
    env = parse_envelope(r.stdout)
    assert env["verdict"] == "PASS"
    assert env["criterion"] == "p2-sharp"
    assert env["caveats"].startswith("S(q)=")


def test_certify_requires_modulus_set():
    r = run_cli("certify", "--criterion", "firstcond", "--p", "2")
    assert r.returncode == 1


def test_certify_modulus_flags_exclusive():
    r = run_cli(
        "certify", "--criterion", "firstcond", "--p", "2",
        "--mu-const", "0.5", "--mu-list", "0.1,0.2",
    )
    assert r.returncode == 1


@pytest.mark.parametrize("p", ["3", "nan"])
def test_certify_p2sharp_rejects_p_other_than_2(p):
    # the sharp criterion is certified at p = 2 only, and its envelope
    # echoes no p, so any other p is refused rather than ignored
    r = run_cli("certify", "--criterion", "p2sharp", "--p", p, "--mu-const", "0.5")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error=p must lie in [2, 2], got ")


@pytest.mark.parametrize(
    "criterion, extra",
    [("firstcond", ("--p", "2")), ("p2sharp", ())],
)
def test_certify_kmax_rejected_outside_invert(criterion, extra):
    # only the coefficient test truncates, so an explicit --kmax elsewhere
    # is refused rather than silently ignored
    r = run_cli(
        "certify", "--criterion", criterion, *extra,
        "--mu-const", "0.5", "--kmax", "5",
    )
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error=") and r.stderr.count("\n") == 1
    assert "--kmax" in r.stderr


def test_eigen_negative_x_samples_exits_2():
    r = run_cli("eigen", "--p", "2", "--mu", "0.5", "--n", "1", "--x-samples", "-3")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error=x_samples must be an integer in [0, inf)")


def test_certify_near_one_exits_0_and_nonconvergence_exits_3():
    r = run_cli("certify", "--criterion", "p2sharp", "--mu-const", "0.9999999999")
    assert r.returncode == 0
    assert parse_envelope(r.stdout)["verdict"] == "INCONCLUSIVE"
    # the w_p tail build refuses below p = 1.05
    r = run_cli("tau", "--p", "1.03", "--mu", "0.5", "--kmax", "3")
    assert r.returncode == 3
    assert r.stderr.startswith("error=")
    # K_p is the quadrature this close to p = 1 too
    r = run_cli("kp", "--p", "1.02", "--mu", "0.5")
    assert r.returncode == 0
    # against the exact decimal: the double nearest it is an ulp (1.4e-14) off
    value = Decimal(float(parse_envelope(r.stdout)["value"]))
    assert abs(value - Decimal("96.13032680143358913363")) < Decimal("1e-14")


def test_certify_grid_emits_warning():
    r = run_cli(
        "certify", "--criterion", "firstcond", "--p", "2", "--mu-grid", "0.1:0.9:5"
    )
    assert r.returncode == 0
    env = parse_envelope(r.stdout)
    assert env["verdict"] == "PASS"
    assert any("sampled nodes only" in w for w in env["warning"])


def test_certify_bad_grid_syntax_exits_1():
    for grid in ("0.1:0.9", "0.1:x:5"):
        r = run_cli(
            "certify", "--criterion", "firstcond", "--p", "2", "--mu-grid", grid
        )
        assert r.returncode == 1
        assert f"grid must be lo:hi:n, got {grid!r}" in r.stderr, grid


def test_certify_invert_report_consistent():
    r = run_cli(
        "certify", "--criterion", "invert", "--p", "2",
        "--mu-list", "0.1,0.2,0.3", "--kmax", "7",
    )
    env = parse_envelope(r.stdout)
    assert env["verdict"] == "PASS"
    lhs, rhs, margin = (float(env[k]) for k in ("lhs", "rhs", "margin"))
    assert margin == rhs - lhs
    assert env["truncation_K"] == "7"


GOLDEN = json.loads((REPO / "tests" / "data" / "cli_envelopes.json").read_text())


def capture(args, cwd):
    """One golden record: the exit code and stdout of ``pelliptic *args``
    run in cwd, and the text of the CSV that a ``--out`` argument names."""
    r = run_cli(*args, cwd=cwd)
    record = {"args": list(args), "returncode": r.returncode, "stdout": r.stdout}
    if "--out" in args:
        record["csv"] = (Path(cwd) / args[args.index("--out") + 1]).read_text()
    return record


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["args"]))
def test_default_envelopes_match_golden(case, tmp_path):
    # the default CLI output, byte for byte; ``python tests/test_cli.py``
    # (with ``src`` on the path) prints the file from the current code
    assert capture(case["args"], tmp_path) == case


def test_main_runs_several_commands_in_one_process():
    # main reuses one parser across calls; each call must still parse its
    # own arguments and print its own envelope
    cases = {" ".join(c["args"]): c for c in GOLDEN}
    for args in ("q0", "certify --criterion p2sharp --mu-const 0.9909", "s --q 0.3"):
        r, case = run_cli(*args.split()), cases[args]
        assert (r.returncode, r.stdout) == (case["returncode"], case["stdout"]), args
    for bad in ([], ["bogus"], ["kp", "--p", "2"]):
        assert run_cli(*bad).returncode == 1
    assert run_cli("s", "--q", "0.3").stdout == cases["s --q 0.3"]["stdout"]


def test_module_run_as_main_exits_with_the_code_of_main(monkeypatch):
    # ``python -m pelliptic.cli`` passes main's return value to sys.exit;
    # runpy warns if the module is already imported, so drop it first
    monkeypatch.delitem(sys.modules, "pelliptic.cli")
    for args, code in (("s --q 0.3", 0), ("kp --p 2 --mu 1.5", 2)):
        monkeypatch.setattr(sys, "argv", ["pelliptic", *args.split()])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("pelliptic.cli", run_name="__main__")
        assert exc.value.code == code, args


def test_region_writes_csv(tmp_path):
    out = tmp_path / "region.csv"
    r = run_cli("region", "--pgrid", "5", "--mugrid", "5", "--out", str(out))
    assert r.returncode == 0
    env = parse_envelope(r.stdout)
    assert env["rows"] == "25"
    lines = out.read_text().splitlines()
    assert lines[0] == "one_over_p,mu,kp,inside"
    assert len(lines) == 26
    inside = sum(int(line.split(",")[3]) for line in lines[1:])
    assert str(inside) == env["inside_count"]


def test_region_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ra = run_cli("region", "--pgrid", "4", "--mugrid", "4", "--out", str(a))
    rb = run_cli("region", "--pgrid", "4", "--mugrid", "4", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    # stdout differs only in the --out echo
    sa = ra.stdout.replace(str(a), "OUT")
    sb = rb.stdout.replace(str(b), "OUT")
    assert sa == sb


def test_region_unwritable_out_exits_1(tmp_path):
    out = tmp_path / "missing" / "region.csv"
    r = run_cli("region", "--pgrid", "2", "--mugrid", "2", "--out", str(out))
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error=")
    assert "Traceback" not in r.stderr


def test_stdout_byte_identical_between_runs():
    a = run_cli("kp", "--p", "2.5", "--mu", "0.85")
    b = run_cli("kp", "--p", "2.5", "--mu", "0.85")
    assert a.stdout == b.stdout and a.stdout != ""


def test_selftest_passes():
    r = run_cli("selftest")
    assert r.returncode == 0
    env = parse_envelope(r.stdout)
    assert env["selftest"] == "ok"
    assert env["failures"] == "0"
    assert int(env["checks"]) >= 10


def test_selftest_failure_exits_4(monkeypatch):
    checks = cli._selftest_checks

    def broken():
        raise AssertionError("fails on purpose")

    monkeypatch.setattr(cli, "_selftest_checks", lambda: [*checks(), broken])
    r = run_cli("selftest")
    assert r.returncode == 4
    env = parse_envelope(r.stdout)
    assert env["selftest"] == "fail"
    assert env["failures"] == "1"
    assert env["check_broken"].startswith("FAIL:")
    assert env["check_kp_closed_form"] == "ok"


def test_usage_errors_exit_1():
    assert run_cli().returncode == 1
    assert run_cli("bogus").returncode == 1
    assert run_cli("kp", "--p", "2").returncode == 1
    # q0 is bisected down to adjacent doubles and takes no tolerance
    r = run_cli("q0", "--tol", "1e-10")
    assert r.returncode == 1 and "unrecognized arguments: --tol" in r.stderr
    # an empty field fails float(), so an empty or blank list is malformed too
    for mus in ("", ",", " ", "0.1,"):
        r = run_cli("certify", "--criterion", "firstcond", "--mu-list", mus)
        assert r.returncode == 1 and "bad modulus list" in r.stderr, mus


def test_console_script_installed(tmp_path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["pelliptic"]
    module, _, func = target.partition(":")
    # the launcher an installer writes for the declared entry point
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "pelliptic"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    launcher.chmod(0o755)
    env = cli_env(bin_dir)
    exe = shutil.which("pelliptic", path=env["PATH"])
    assert exe == str(launcher)
    r = subprocess.run(
        [exe, "kp", "--p", "2", "--mu", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert r.returncode == 0, r.stderr
    assert abs(float(parse_envelope(r.stdout)["value"]) - math.pi / 2.0) < 1e-13


def test_cold_pipeline_imports_no_module():
    # the first cold chain of a process (eigenpair, residual, eigenfunction,
    # both certificates on fresh moduli) imports nothing that `import
    # pelliptic` did not: a lazy import such as np.unique's numpy.ma would
    # land its one-off cost on the first timed call
    code = """
import sys
import numpy as np
import pelliptic
before = set(sys.modules)
ms = pelliptic.ModulusSet.explicit((0.37, 0.81))
e = pelliptic.eigenpair(2.7, 0.37, 1)
pelliptic.first_integral_residual(e, np.linspace(0.0, 1.0, 101))
for x in (0.13, 0.5, 0.87):
    pelliptic.eigenfunction_eval(e, x)
pelliptic.certify_firstcond(2.7, ms)
pelliptic.certify_invertibility(2.7, ms, K=21)
print(sorted(set(sys.modules) - before))
"""
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env()
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_runtime_needs_numpy_only():
    # the selftest and the five demos, with every test-only dependency
    # made unimportable: the library's runtime is numpy alone
    demos = sorted(str(d) for d in (REPO / "demos").glob("*.py"))
    assert len(demos) == 5
    code = f"""
import runpy, sys
for name in ("scipy", "mpmath", "hypothesis", "pytest"):
    sys.modules[name] = None
import pelliptic
from pelliptic import cli
assert cli.main(["selftest"]) == 0
for demo in {demos!r}:
    runpy.run_path(demo, run_name="__main__")
"""
    r = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert r.returncode == 0, r.stderr
    assert "selftest=ok" in r.stdout


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = [capture(case["args"], tmp) for case in GOLDEN]
    print(json.dumps(records, indent=1))
