import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypercert import QuadratureError, ball_volume
from hypercert.cli import DEFAULT_SAMPLES, DEFAULT_SEED, PRIME_LIMIT

LOG3 = math.log(3.0)
SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*argv):
    """Run the interpreter on argv in a fresh process, which prints Python warnings as pytest does not."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


class TestConstants:
    def test_json_values(self, cli):
        result = cli("--format", "json", "constants")
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert 168.601 <= obj["lambda1"] < 168.602
        assert obj["valenceBound"] == 314
        assert 0.73 <= obj["BHalfEps"] < 0.74
        assert set(obj) == {
            "BHalfEps", "bHalfEps", "dHalfEps", "lambda0", "lambda1",
            "lambda1Noncompact", "lambda1CompactP2", "valenceQuotient",
            "valenceBound", "quadratureTolerance",
        }

    def test_human_contains_same_numbers(self, cli):
        json_out = json.loads(cli("--format", "json", "constants").output)
        human = cli("constants").output
        assert format(json_out["lambda1"], ".17g") in human
        assert format(json_out["bHalfEps"], ".17g") in human

    def test_csv_shape(self, cli):
        result = cli("--format", "csv", "constants")
        lines = result.output.strip().splitlines()
        assert lines[0] == "name,value"
        assert len(lines) == 11

    def test_valence_ignores_the_slack_option(self, cli):
        # the reference valence is checked at the default slack, as reference_valence_bound is;
        # at 0.1 the condition (c) check would refuse it
        obj = json.loads(cli("--format", "json", "--slack", "0.1", "constants").output)
        assert obj["valenceBound"] == 314 and 314.6 < obj["valenceQuotient"] < 314.7

    def test_determinism(self, cli):
        a = cli("--format", "json", "constants").output
        b = cli("--format", "json", "constants").output
        assert a == b


class TestVerify:
    def test_exit_zero_and_certificate(self, cli):
        result = cli("--format", "json", "verify")
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["cellCount"] == 47
        assert obj["certifiedC"] > 0.496
        phis = [c["phiLo"] for c in obj["cells"]]
        assert phis.index(min(phis)) + 1 == 45

    def test_output_file(self, cli, tmp_path):
        target = tmp_path / "cert.json"
        result = cli("--format", "json", "--output", str(target), "verify")
        assert result.exit_code == 0
        assert json.loads(target.read_text())["cellCount"] == 47

    @pytest.mark.parametrize("where", ["missing-dir/cert.json", "."])
    def test_unwritable_output_exits_two(self, cli, tmp_path, where):
        result = cli("--output", str(tmp_path / where), "verify")
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.splitlines()[-1].startswith("hypercert: error: cannot write --output")

    def test_human_bytes(self, cli):
        digest = hashlib.sha256(cli("verify").stdout.encode()).hexdigest()
        assert digest == "b46f359b67fb8d3060d5507b956aa2568551157886578e701b3df61eb68cd12e"


class TestCertify:
    def test_reference_parameters_succeed(self, cli):
        result = cli(
            "--format", "json", "certify",
            "--epsilon", "1.0986122886681098", "--R", "2.3472245773362196", "--c", "0.496",
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["certifiedC"] > 0.496

    def test_aliases(self, cli):
        result = cli("--format", "json", "certify",
                        "--epsilon", "log3", "--R", "log3-paper", "--c", "0.496")
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["epsilon"] == pytest.approx(LOG3, abs=1e-15)
        assert obj["R"] == pytest.approx(2 * LOG3 + 0.15, abs=1e-15)

    @pytest.mark.parametrize("c", [("--c", "-1e-3"), ("--c=-1e-3",)], ids=["separate", "joined"])
    def test_negative_exponent_target(self, cli, c):
        # argparse alone reads the separate -1e-3 as an unknown option
        result = cli("--format", "json", *CERTIFY_REF, *c)
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["certifiedC"] > 0.0

    def test_unreachable_target_exits_one(self, cli):
        result = cli("certify", "--epsilon", "log3", "--R", "log3-paper", "--c", "1.0")
        assert result.exit_code == 1
        assert "witness" in result.output

    def test_invalid_window_exits_two(self, cli):
        result = cli("certify", "--epsilon", "1.0", "--R", "1.9", "--c", "0.1")
        assert result.exit_code == 2

    def test_unparseable_epsilon_exits_two(self, cli):
        result = cli("certify", "--epsilon", "ln3", "--R", "2.3", "--c", "0.1")
        assert result.exit_code == 2


class TestOptimize:
    def test_single_point_grid(self, cli):
        result = cli("--format", "json", "optimize",
                        "--epsilon", "log3", "--grid", "log3-paper", "--c-tol", "1e-3")
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["best"]["valenceBound"] == 314
        assert len(obj["entries"]) == 1

    def test_csv_output(self, cli):
        result = cli("--format", "csv", "optimize",
                        "--epsilon", "log3", "--grid", "log3-paper", "--c-tol", "1e-3")
        lines = result.output.strip().splitlines()
        assert lines[0] == "R,certifiedC,valenceBound"
        assert len(lines) == 2

    def test_json_reports_the_gap(self, cli):
        result = cli("--format", "json", "optimize", "--epsilon", "log3", "--grid", "3")
        obj = json.loads(result.output)
        assert all(0.0 <= e["gap"] <= 1e-5 for e in obj["entries"])
        assert obj["best"] == min(obj["entries"], key=lambda e: e["valenceBound"])

    def test_small_epsilon_certifies_a_positive_c(self, cli):
        # exited 1: the cap on c lies below c_tol, and the bisection over c ended at c = 0
        result = cli("--format", "json", "optimize", "--epsilon", "0.01", "--grid", "1")
        assert result.exit_code == 0
        assert json.loads(result.output)["best"]["certifiedC"] > 0.0

    def test_bad_epsilon_is_blamed_on_epsilon(self, cli):
        # said "cannot parse grid '3'", as radius_grid ran inside the grid parser's try
        result = cli("optimize", "--epsilon", "nan", "--grid", "3")
        assert result.exit_code == 2
        assert "hypercert: error: epsilon must be finite and positive" in result.output
        assert "grid" not in result.output

    def test_c_tol_below_float_spacing(self, cli):
        # used to bisect forever
        assert cli("optimize", "--epsilon", "log3", "--grid", "1",
                      "--c-tol", "1e-17").exit_code == 0

    @pytest.mark.parametrize("args", [
        ("--epsilon", "0.001", "--grid", "3"),
        ("--epsilon", "log3", "--grid", "1", "--c-tol", "1"),
    ], ids=["negative-cap", "cap-below-c_tol"])
    def test_no_positive_c_exits_one(self, cli, args):
        # the first printed valenceBound=-6 as best and exited 0, the second ended in a
        # ZeroDivisionError, as --epsilon 0.01 --grid 1 did
        result = cli("optimize", *args)
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "no positive lower bound" in result.output
        assert "optimization failed: certification failed at every grid point" in result.output

    def test_every_radius_failing_is_one_stderr_line(self, cli):
        result = cli("optimize", "--epsilon", "0.001", "--grid", "3")
        assert result.exit_code == 1 and result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith("optimization failed: certification failed at every grid point: R=")
        assert line.count("no positive lower bound") == 3

    SKIPPING = ("optimize", "--epsilon", "1.0", "--grid", "9", "--max-depth", "1")

    def test_skipped_radii_json(self, cli):
        obj = json.loads(cli("--format", "json", *self.SKIPPING).stdout)
        assert [s["R"] for s in obj["skipped"]] == [2.05, 2.1, 2.15]
        assert all("max depth 1 exhausted" in s["reason"] for s in obj["skipped"])
        assert len(obj["entries"]) == 6

    def test_skipped_radii_are_plain_stderr_lines(self, cli):
        args = ["--format", "csv", *self.SKIPPING]
        proc = run_python("-m", "hypercert.cli", *args)
        assert proc.returncode == 0
        assert "UserWarning" not in proc.stderr and ".py:" not in proc.stderr
        assert [line.split(":")[1] for line in proc.stderr.splitlines()] == [
            " skipping R=2.05", " skipping R=2.1", " skipping R=2.15"]
        assert proc.stdout == cli(*args).stdout


class TestBound:
    def test_general_case(self, cli):
        result = cli("--format", "json", "bound",
                        "--volume", "1.0", "--cusped", "false", "--prime", "3")
        obj = json.loads(result.output)
        assert 168.601 <= obj["homologyBound"] < 168.602
        assert obj["coefficientName"] == "lambda1"
        assert obj["smallRankBound"] == 11.0

    def test_noncompact_case(self, cli):
        obj = json.loads(cli("--format", "json", "bound",
                                "--volume", "2.0", "--cusped", "true", "--prime", "5").output)
        assert obj["coefficientName"] == "lambda1Noncompact"
        assert 2 * 168.132 <= obj["homologyBound"] < 2 * 168.133

    def test_compact_mod2_case(self, cli):
        obj = json.loads(cli("--format", "json", "bound",
                                "--volume", "1.0", "--cusped", "false", "--prime", "2").output)
        assert obj["coefficientName"] == "lambda1CompactP2"

    @pytest.mark.parametrize("word, name", [
        ("true", "lambda1Noncompact"), ("TRUE", "lambda1Noncompact"), ("1", "lambda1Noncompact"),
        ("on", "lambda1Noncompact"), ("Yes", "lambda1Noncompact"), ("false", "lambda1"),
        ("F", "lambda1"), ("0", "lambda1"), ("off", "lambda1"), ("no", "lambda1"),
    ])
    def test_cusped_boolean_words(self, cli, word, name):
        obj = json.loads(cli("--format", "json", "bound", "--volume", "1.0", "--cusped", word,
                             "--prime", "3").stdout)
        assert obj["coefficientName"] == name

    def test_prime_above_the_exact_range_names_the_limit(self, cli):
        result = cli("bound", "--volume", "1", "--prime", str(PRIME_LIMIT))
        assert result.exit_code == 2
        assert f"hypercert: error: prime must be below {PRIME_LIMIT}" in result.stderr

    def test_integral_floats_stay_floats(self, cli):
        obj = json.loads(cli("--format", "json", "bound", "--volume", "1").output)
        assert isinstance(obj["volume"], float) and isinstance(obj["smallRankBound"], float)

    def test_rank_mode(self, cli):
        result = cli("--format", "json", "bound",
                        "--volume", "1.0", "--cusped", "false", "--prime", "3",
                        "--epsilon", "log3", "--R", "log3-paper", "--c", "0.496")
        obj = json.loads(result.output)
        assert obj["valenceBound"] == 314
        assert 168.781 <= obj["rankBound"] < 168.782

    def test_rank_mode_report_file(self, cli, tmp_path):
        target = tmp_path / "report.json"
        result = cli("--format", "json", "--output", str(target), "bound",
                        "--volume", "1.0", "--cusped", "false", "--prime", "3",
                        "--epsilon", "log3", "--R", "log3-paper", "--c", "0.496")
        assert result.exit_code == 0
        obj = json.loads(target.read_text())
        assert obj["valenceBound"] == 314
        assert obj["certificate"]["certifiedC"] > 0.496


CERTIFY_REF = ("certify", "--epsilon", "log3", "--R", "reference")


@pytest.mark.parametrize("args", [
    pytest.param(("bound", "--volume", "-1.0"), id="bound-negative-volume"),
    pytest.param(("bound", "--volume", "1.0", "--epsilon", "log3"), id="bound-partial-rank-flags"),
    pytest.param(("bound", "--volume", "1.0", "--prime", "4"), id="bound-composite-prime"),
    pytest.param(("bound", "--volume", "1", "--prime", "318665857834031151167461"),
                 id="bound-prime-strong-pseudoprime-to-37"),
    pytest.param(("bound", "--volume", "1", "--prime", "3317044064679887385961981"),
                 id="bound-prime-strong-pseudoprime-to-41"),
    pytest.param(("bound", "--volume", "1", "--cusped", "maybe"), id="bound-cusped-maybe"),
    pytest.param(("bound", "--volume", "1", "--epsilon", "log3", "--R", "reference", "--c", "nan"),
                 id="bound-rank-c-nan"),
    pytest.param((*CERTIFY_REF, "--c", "0.496", "--max-depth", "0"), id="certify-max-depth-0"),
    pytest.param((*CERTIFY_REF, "--c", "nan"), id="certify-c-nan"),
    pytest.param(("optimize", "--epsilon", "log3", "--grid", "2.3", "--max-depth", "0"),
                 id="optimize-max-depth-0"),
    pytest.param(("optimize", "--epsilon", "log3", "--grid", "2.3", "--c-tol", "0"),
                 id="optimize-c-tol-0"),
    pytest.param(("optimize", "--epsilon", "log3", "--grid", "2.3", "--c-tol", "-1"),
                 id="optimize-c-tol-negative"),
    pytest.param(("optimize", "--epsilon", "log3", "--grid", "2.3", "--c-tol", "nan"),
                 id="optimize-c-tol-nan"),
    pytest.param(("optimize", "--epsilon", "log3", "--grid", ","), id="optimize-empty-grid"),
    pytest.param(("optimize", "--epsilon", "log3", "--grid", "0"), id="optimize-grid-0"),
    pytest.param(("mc-check", "--shape", "cap", "--samples", "0"), id="mc-check-samples-0"),
    pytest.param(("mc-check", "--shape", "ball", "--sam", "10"), id="mc-check-option-prefix"),
    pytest.param(("mc-check", "--shape", "ball", "--samples", "10", "--seed", "-1"),
                 id="mc-check-seed-negative"),
    pytest.param(("mc-check", "--shape", "ball", "--params", "400"), id="mc-check-ball-overflow"),
    pytest.param(("mc-check", "--shape", "icecream", "--params", "1,800"),
                 id="mc-check-icecream-far"),
    pytest.param(("mc-check", "--shape", "phi", "--params", "800.5,1,800"), id="mc-check-phi-far"),
    pytest.param(("--quad-tol", "nan", "constants"), id="quad-tol-nan"),
    pytest.param(("--slack", "nan", "verify"), id="slack-nan"),
    pytest.param(("--slack", "inf", "verify"), id="slack-inf"),
])
def test_invalid_input_exits_two(cli, args):
    result = cli(*args)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output


class TestMcCheck:
    def test_icecream_defaults_small_sample(self, cli):
        result = cli("--format", "json", "mc-check", "--shape", "icecream",
                        "--samples", "40000", "--seed", "7")
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["within3Sigma"] is True
        assert obj["samples"] == 40000 and obj["seed"] == 7

    def test_cap_with_params(self, cli):
        result = cli("--format", "json", "mc-check", "--shape", "cap",
                        "--params", "1.0,0.5", "--samples", "40000", "--seed", "3")
        obj = json.loads(result.output)
        assert obj["closedForm"] == pytest.approx(0.6694232433005802, abs=1e-12)
        assert obj["within3Sigma"] is True

    @pytest.mark.parametrize("samples", ["1", "2"])
    def test_zero_standard_error_json_is_valid(self, cli, samples):
        # with no hit the standard error is 0 and the deviation infinite
        result = cli("--format", "json", "mc-check", "--shape", "cap", "--samples", samples)
        assert result.exit_code == 1

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        obj = json.loads(result.stdout, parse_constant=reject)
        assert obj["standardError"] == 0.0
        assert obj["deviationSigmas"] is None
        assert obj["within3Sigma"] is False
        human = cli("mc-check", "--shape", "cap", "--samples", samples)
        assert "deviationSigmas  inf" in human.stdout

    def test_zero_hits_is_one_plain_stderr_line(self, cli):
        args = ["mc-check", "--shape", "cap", "--samples", "1"]
        proc = run_python("-m", "hypercert.cli", *args)
        assert proc.returncode == 1
        assert "no hits" in proc.stderr
        assert "UserWarning" not in proc.stderr and ".py:" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == cli(*args).stdout

    def test_ball_is_exact(self, cli):
        obj = json.loads(cli("--format", "json", "mc-check", "--shape", "ball",
                                "--params", "0.8", "--samples", "1000").output)
        assert obj["deviationSigmas"] == 0.0
        assert obj["standardError"] == 0.0 and isinstance(obj["standardError"], float)

    @pytest.mark.parametrize("radius", ["8", "20"])
    def test_ball_far_from_basepoint(self, cli, radius):
        # an absolute on-sheet tolerance rejected the sampler's own points, with exit 2
        result = cli("--format", "json", "mc-check", "--shape", "ball",
                        "--params", radius, "--samples", "20000")
        assert result.exit_code == 0
        assert json.loads(result.output)["within3Sigma"] is True

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: mcoracle._dist cancels ~1e86-sized terms 100 from the basepoint, "
        "so the ball's distances there are noise and the 3-sigma check fails"))
    def test_ball_of_radius_100_is_exact(self, cli):
        result = cli("--format", "json", "mc-check", "--shape", "ball", "--params", "100", "--samples", "20000")
        assert result.exit_code == 0
        assert json.loads(result.output)["deviationSigmas"] == 0.0

    @pytest.mark.parametrize("w", ["800", "-800"])
    def test_cap_with_far_plane(self, cli, w):
        # the cap's axis point only sets a direction, so a far plane is not an overflow
        result = cli("--format", "json", "mc-check", "--shape", "cap",
                        "--params", f"1,{w}", "--samples", "20000")
        assert result.exit_code == 0, result.output
        obj = json.loads(result.stdout)
        assert obj["closedForm"] == (0.0 if w == "800" else ball_volume(1.0))
        assert obj["mean"] == obj["closedForm"]

    def test_bad_params_exit_two(self, cli):
        result = cli("mc-check", "--shape", "lens", "--params", "0.5,0.7,3.0")
        assert result.exit_code == 2
        result = cli("mc-check", "--shape", "cap", "--params", "1.0")
        assert result.exit_code == 2

    def test_determinism(self, cli):
        args = ["--format", "json", "mc-check", "--shape", "cone", "--samples", "20000", "--seed", "5"]
        assert cli(*args).output == cli(*args).output

    @pytest.mark.parametrize("option", ["--seed", "--samples"])
    def test_no_global_sample_or_seed_option(self, cli, option):
        # mc-check's own --samples and --seed are the one way to set them
        result = cli(option, "5", "mc-check", "--shape", "ball")
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output

    def test_sample_and_seed_take_no_environment_variable(self, cli, monkeypatch):
        args = ["--format", "json", "mc-check", "--shape", "ball"]
        plain = cli(*args)
        monkeypatch.setenv("HYPERCERT_SEED", "1")
        monkeypatch.setenv("HYPERCERT_SAMPLES", "1")
        result = cli(*args)
        assert (result.exit_code, result.output) == (0, plain.output)
        obj = json.loads(plain.output)
        assert (obj["samples"], obj["seed"]) == (DEFAULT_SAMPLES, DEFAULT_SEED)


class TestQuadratureFailure:
    @pytest.mark.parametrize("args", [
        ["constants"],
        ["bound", "--volume", "1"],
        ["optimize", "--epsilon", "log3", "--grid", "1"],
    ], ids=["constants", "bound", "optimize"])
    def test_exits_nonzero(self, cli, args):
        # bound and optimize used to end on a QuadratureError traceback
        result = cli("--quad-tol", "1e-300", *args)
        assert result.exit_code == 1
        assert "quadrature failure" in result.output
        assert not isinstance(result.exception, QuadratureError)

    def test_underflowed_tau_exits_one(self, cli):
        # tau(eps/2) underflows to 0, which used to end in a ZeroDivisionError
        result = cli("optimize", "--epsilon", "1e-10", "--grid", "1")
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.startswith("quadrature failure: ")
        assert len(result.output.splitlines()) == 1


class TestEnvironmentOverrides:
    # HYPERCERT_<COMMAND>_<OPTION> for each of the 19 subcommand options
    SUBCOMMAND_OPTIONS = {
        "CERTIFY": "EPSILON RADIUS TARGET_C MAX_DEPTH",
        "OPTIMIZE": "EPSILON GRID MAX_DEPTH C_TOL",
        "BOUND": "VOLUME CUSPED PRIME EPSILON RADIUS TARGET_C MAX_DEPTH",
        "MC_CHECK": "SHAPE PARAMS SAMPLES SEED",
    }
    SUBCOMMAND_VARS = [f"HYPERCERT_{command}_{option}"
                       for command, options in SUBCOMMAND_OPTIONS.items() for option in options.split()]

    @pytest.mark.parametrize("args", [
        ["mc-check", "--shape", "phi", "--samples", "2000"],
        ["optimize", "--epsilon", "1.0", "--grid", "3"],
        ["bound", "--volume", "2.0"],
        ["verify"],
        ["constants"],
    ])
    def test_subcommand_options_take_no_environment_variable(self, cli, monkeypatch, tmp_path, args):
        # were they read, each "1" would change the run (one sample, max depth 1, cusped, prime 1),
        # and so would each former global variable: json output, written to a file, with a
        # quadrature tolerance that fails and a slack that fails verify
        assert len(self.SUBCOMMAND_VARS) == 19
        plain = cli(*args)
        assert plain.exit_code == 0
        target = tmp_path / "out"
        for var, value in {**dict.fromkeys(self.SUBCOMMAND_VARS, "1"), "HYPERCERT_FORMAT": "json",
                           "HYPERCERT_OUTPUT": str(target), "HYPERCERT_QUAD_TOL": "1e-300",
                           "HYPERCERT_SLACK": "0.1"}.items():
            monkeypatch.setenv(var, value)
        result = cli(*args)
        assert (result.exit_code, result.stdout, result.stderr) == (0, plain.stdout, plain.stderr)
        assert not target.exists()

    def test_required_option_not_taken_from_environment(self, cli, monkeypatch):
        monkeypatch.setenv("HYPERCERT_MC_CHECK_SHAPE", "ball")
        result = cli("mc-check")
        assert result.exit_code == 2 and "--shape" in result.output


# run with -S, without site-packages: verify and constants need only the standard library
IMPORT_PROBE = """
import contextlib, io, sys
import hypercert.cli
for args in (["verify"], ["constants"]):
    with contextlib.redirect_stdout(io.StringIO()):
        hypercert.cli.main(args)
print(sorted({name.partition(".")[0] for name in sys.modules}
             - sys.stdlib_module_names - {"__main__", "hypercert"}))
"""


class TestImports:
    def test_cli_loads_neither_scipy_nor_numpy(self):
        proc = run_python("-S", "-c", IMPORT_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_mcoracle_names_still_resolve(self):
        import hypercert
        from hypercert import estimate_volume, mcoracle

        assert hypercert.mcoracle is mcoracle
        assert hypercert.BASEPOINT is mcoracle.BASEPOINT
        assert estimate_volume is mcoracle.estimate_volume
        with pytest.raises(AttributeError):
            hypercert.no_such_name

    def test_lazy_names_are_mcoracle_all(self):
        import hypercert
        from hypercert import assert_on_sheet, mcoracle

        assert set(hypercert._MCORACLE_NAMES) == set(mcoracle.__all__)
        assert assert_on_sheet is mcoracle.assert_on_sheet

    def test_star_import_keeps_mcoracle_names(self):
        namespace = {}
        exec("from hypercert import *", namespace)
        assert {"estimate_volume", "BASEPOINT", "McEstimate", "phi", "b_ratio"} <= set(namespace)
