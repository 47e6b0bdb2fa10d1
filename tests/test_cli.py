"""End-to-end CLI tests, through subprocess unless noted.

Each invocation checks the exit code and the flat key=value envelope;
numeric payloads must round-trip through the printed 17 significant
digits to the exact doubles the library computes.
"""

import json
import math
import os
import shutil
import subprocess
import sys
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
    """Environment for a CLI child process.

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


CLI_MODULE = (sys.executable, "-m", "pelliptic.cli")


def run_cli(*args, cwd=None, command=CLI_MODULE, env=None):
    return subprocess.run(
        [*command, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env() if env is None else env,
    )


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


def test_certify_saturation_exits_3():
    r = run_cli("certify", "--criterion", "p2sharp", "--mu-const", "0.9999999999")
    assert r.returncode == 3
    assert r.stderr.startswith("error=")


def test_certify_grid_emits_warning():
    r = run_cli(
        "certify", "--criterion", "firstcond", "--p", "2", "--mu-grid", "0.1:0.9:5"
    )
    assert r.returncode == 0
    env = parse_envelope(r.stdout)
    assert env["verdict"] == "PASS"
    assert any("sampled nodes only" in w for w in env["warning"])


def test_certify_bad_grid_syntax_exits_1():
    r = run_cli(
        "certify", "--criterion", "firstcond", "--p", "2", "--mu-grid", "0.1:0.9"
    )
    assert r.returncode == 1


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


def assert_fields_match(got, ref, where):
    """Equal keys in equal order; numbers to 1e-13 + 1e-12 |ref|, any
    other value exactly."""
    assert [k for k, _ in got] == [k for k, _ in ref], where
    for (key, a), (_, b) in zip(got, ref):
        if a == b:
            continue
        try:
            fa, fb = float(a), float(b)
        except ValueError:
            fa = fb = None
        assert fb is not None, f"{where}: {key}={a!r}, golden {b!r}"
        assert abs(fa - fb) <= 1e-13 + 1e-12 * abs(fb), f"{where}: {key}={a}, was {b}"


def fields(text):
    return [line.partition("=")[::2] for line in text.splitlines()]


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["args"]))
def test_default_envelopes_match_golden(case, tmp_path):
    # envelopes of the default CLI output, captured before the tanh-sinh
    # level loops and the sn_p inversion paths were merged; drifts are
    # listed in CHANGES.md
    r = run_cli(*case["args"], cwd=tmp_path)
    assert r.returncode == case["returncode"], r.stderr
    assert_fields_match(fields(r.stdout), fields(case["stdout"]), "stdout")
    if "csv" in case:
        rows = (tmp_path / "region.csv").read_text().splitlines()
        ref = case["csv"].splitlines()
        assert len(rows) == len(ref)
        for i, (row, ref_row) in enumerate(zip(rows, ref)):
            header = ref[0].split(",")
            assert_fields_match(
                list(zip(header, row.split(","))),
                list(zip(header, ref_row.split(","))),
                f"csv row {i}",
            )


def test_main_runs_several_commands_in_one_process(capsys):
    # main reuses one parser across calls; each call must still parse its
    # own arguments and print its own envelope
    cases = {" ".join(c["args"]): c for c in GOLDEN}
    for args in ("q0", "certify --criterion p2sharp --mu-const 0.9909", "s --q 0.3"):
        case = cases[args]
        assert cli.main(args.split()) == case["returncode"]
        out = capsys.readouterr().out
        assert_fields_match(fields(out), fields(case["stdout"]), args)
    for bad in ([], ["bogus"], ["kp", "--p", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 1
    capsys.readouterr()
    assert cli.main(["s", "--q", "0.3"]) == 0
    out = capsys.readouterr().out
    assert_fields_match(fields(out), fields(cases["s --q 0.3"]["stdout"]), "s")


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


def test_usage_errors_exit_1():
    assert run_cli().returncode == 1
    assert run_cli("bogus").returncode == 1
    assert run_cli("kp", "--p", "2").returncode == 1
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
    r = run_cli("kp", "--p", "2", "--mu", "0", command=[exe], env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert abs(float(parse_envelope(r.stdout)["value"]) - math.pi / 2.0) < 1e-13
