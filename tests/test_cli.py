import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from hypercert.cli import main

LOG3 = math.log(3.0)


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


class TestConstants:
    def test_json_values(self, runner):
        result = invoke(runner, "--format", "json", "constants")
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

    def test_human_contains_same_numbers(self, runner):
        json_out = json.loads(invoke(runner, "--format", "json", "constants").output)
        human = invoke(runner, "constants").output
        assert format(json_out["lambda1"], ".17g") in human
        assert format(json_out["bHalfEps"], ".17g") in human

    def test_csv_shape(self, runner):
        result = invoke(runner, "--format", "csv", "constants")
        lines = result.output.strip().splitlines()
        assert lines[0] == "name,value"
        assert len(lines) == 11

    def test_determinism(self, runner):
        a = invoke(runner, "--format", "json", "constants").output
        b = invoke(runner, "--format", "json", "constants").output
        assert a == b


class TestVerify:
    def test_exit_zero_and_certificate(self, runner):
        result = invoke(runner, "--format", "json", "verify")
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["cellCount"] == 47
        assert obj["certifiedC"] > 0.496
        phis = [c["phiLo"] for c in obj["cells"]]
        assert phis.index(min(phis)) + 1 == 45

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "cert.json"
        result = invoke(runner, "--format", "json", "--output", str(target), "verify")
        assert result.exit_code == 0
        assert json.loads(target.read_text())["cellCount"] == 47


class TestCertify:
    def test_reference_parameters_succeed(self, runner):
        result = invoke(
            runner, "--format", "json", "certify",
            "--epsilon", "1.0986122886681098", "--R", "2.3472245773362196", "--c", "0.496",
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["certifiedC"] > 0.496

    def test_aliases(self, runner):
        result = invoke(runner, "--format", "json", "certify",
                        "--epsilon", "log3", "--R", "log3-paper", "--c", "0.496")
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["epsilon"] == pytest.approx(LOG3, abs=1e-15)
        assert obj["R"] == pytest.approx(2 * LOG3 + 0.15, abs=1e-15)

    def test_unreachable_target_exits_one(self, runner):
        result = runner.invoke(main, ["certify", "--epsilon", "log3", "--R", "log3-paper", "--c", "1.0"])
        assert result.exit_code == 1
        assert "witness" in result.output

    def test_invalid_window_exits_two(self, runner):
        result = runner.invoke(main, ["certify", "--epsilon", "1.0", "--R", "1.9", "--c", "0.1"])
        assert result.exit_code == 2

    def test_unparseable_epsilon_exits_two(self, runner):
        result = runner.invoke(main, ["certify", "--epsilon", "ln3", "--R", "2.3", "--c", "0.1"])
        assert result.exit_code == 2


class TestOptimize:
    def test_single_point_grid(self, runner):
        result = invoke(runner, "--format", "json", "optimize",
                        "--epsilon", "log3", "--grid", "log3-paper", "--c-tol", "1e-3")
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["best"]["valenceBound"] == 314
        assert len(obj["entries"]) == 1

    def test_csv_output(self, runner):
        result = invoke(runner, "--format", "csv", "optimize",
                        "--epsilon", "log3", "--grid", "log3-paper", "--c-tol", "1e-3")
        lines = result.output.strip().splitlines()
        assert lines[0] == "R,certifiedC,valenceBound"
        assert len(lines) == 2


class TestBound:
    def test_general_case(self, runner):
        result = invoke(runner, "--format", "json", "bound",
                        "--volume", "1.0", "--cusped", "false", "--prime", "3")
        obj = json.loads(result.output)
        assert 168.601 <= obj["homologyBound"] < 168.602
        assert obj["coefficientName"] == "lambda1"
        assert obj["smallRankBound"] == 11.0

    def test_noncompact_case(self, runner):
        obj = json.loads(invoke(runner, "--format", "json", "bound",
                                "--volume", "2.0", "--cusped", "true", "--prime", "5").output)
        assert obj["coefficientName"] == "lambda1Noncompact"
        assert 2 * 168.132 <= obj["homologyBound"] < 2 * 168.133

    def test_compact_mod2_case(self, runner):
        obj = json.loads(invoke(runner, "--format", "json", "bound",
                                "--volume", "1.0", "--cusped", "false", "--prime", "2").output)
        assert obj["coefficientName"] == "lambda1CompactP2"

    def test_rank_mode(self, runner):
        result = invoke(runner, "--format", "json", "bound",
                        "--volume", "1.0", "--cusped", "false", "--prime", "3",
                        "--epsilon", "log3", "--R", "log3-paper", "--c", "0.496")
        obj = json.loads(result.output)
        assert obj["valenceBound"] == 314
        assert 168.781 <= obj["rankBound"] < 168.782

    def test_rank_mode_report_file(self, runner, tmp_path):
        target = tmp_path / "report.json"
        result = invoke(runner, "--format", "json", "--output", str(target), "bound",
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
    pytest.param(("mc-check", "--shape", "cap", "--samples", "0"), id="mc-check-samples-0"),
    pytest.param(("--samples", "0", "mc-check", "--shape", "ball"), id="global-samples-0"),
    pytest.param(("--seed", "-1", "mc-check", "--shape", "ball", "--samples", "10"),
                 id="global-seed-negative"),
    pytest.param(("--quad-tol", "nan", "constants"), id="quad-tol-nan"),
    pytest.param(("--slack", "nan", "verify"), id="slack-nan"),
    pytest.param(("--slack", "inf", "verify"), id="slack-inf"),
])
def test_invalid_input_exits_two(runner, args):
    result = runner.invoke(main, list(args))
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output


class TestMcCheck:
    def test_icecream_defaults_small_sample(self, runner):
        result = invoke(runner, "--format", "json", "--samples", "40000", "--seed", "7",
                        "mc-check", "--shape", "icecream")
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["within3Sigma"] is True
        assert obj["samples"] == 40000 and obj["seed"] == 7

    def test_cap_with_params(self, runner):
        result = invoke(runner, "--format", "json", "--samples", "40000", "--seed", "3",
                        "mc-check", "--shape", "cap", "--params", "1.0,0.5")
        obj = json.loads(result.output)
        assert obj["closedForm"] == pytest.approx(0.6694232433005802, abs=1e-12)
        assert obj["within3Sigma"] is True

    @pytest.mark.filterwarnings("ignore:estimate_volume. no hits")
    @pytest.mark.parametrize("samples", ["1", "2"])
    def test_zero_standard_error_json_is_valid(self, runner, samples):
        # with no hit the standard error is 0 and the deviation infinite
        result = runner.invoke(main, ["--format", "json", "--samples", samples,
                                      "mc-check", "--shape", "cap"])
        assert result.exit_code == 1

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        obj = json.loads(result.stdout, parse_constant=reject)
        assert obj["standardError"] == 0.0
        assert obj["deviationSigmas"] is None
        assert obj["within3Sigma"] is False
        human = runner.invoke(main, ["--samples", samples, "mc-check", "--shape", "cap"])
        assert "deviationSigmas  inf" in human.stdout

    def test_ball_is_exact(self, runner):
        obj = json.loads(invoke(runner, "--format", "json", "--samples", "1000",
                                "mc-check", "--shape", "ball", "--params", "0.8").output)
        assert obj["deviationSigmas"] == 0.0

    def test_bad_params_exit_two(self, runner):
        result = runner.invoke(main, ["mc-check", "--shape", "lens", "--params", "0.5,0.7,3.0"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["mc-check", "--shape", "cap", "--params", "1.0"])
        assert result.exit_code == 2

    def test_determinism(self, runner):
        args = ["--format", "json", "--samples", "20000", "--seed", "5",
                "mc-check", "--shape", "cone"]
        assert invoke(runner, *args).output == invoke(runner, *args).output

    def test_local_sample_and_seed_flags(self, runner):
        via_group = invoke(runner, "--format", "json", "--samples", "20000", "--seed", "5",
                           "mc-check", "--shape", "cone").output
        via_local = invoke(runner, "--format", "json", "mc-check", "--shape", "cone",
                           "--samples", "20000", "--seed", "5").output
        assert via_group == via_local


class TestQuadratureFailure:
    def test_constants_exits_nonzero(self, runner):
        result = runner.invoke(main, ["--quad-tol", "1e-30", "constants"])
        assert result.exit_code == 1
        assert "quadrature" in result.output.lower()


class TestEnvironmentOverrides:
    def test_format_from_env(self, runner):
        result = runner.invoke(main, ["constants"], env={"HYPERCERT_FORMAT": "json"},
                               catch_exceptions=False)
        obj = json.loads(result.output)
        assert obj["valenceBound"] == 314


SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_PROBE = """
import sys
from click.testing import CliRunner
import hypercert.cli
for args in (["verify"], ["constants"]):
    assert CliRunner().invoke(hypercert.cli.main, args).exit_code == 0, args
print(sorted(m for m in ("scipy", "numpy") if m in sys.modules))
"""


class TestImports:
    def test_cli_loads_neither_scipy_nor_numpy(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_mcoracle_names_still_resolve(self):
        import hypercert
        from hypercert import estimate_volume, mcoracle

        assert hypercert.mcoracle is mcoracle
        assert hypercert.BASEPOINT is mcoracle.BASEPOINT
        assert estimate_volume is mcoracle.estimate_volume
        with pytest.raises(AttributeError):
            hypercert.no_such_name

    def test_star_import_keeps_mcoracle_names(self):
        namespace = {}
        exec("from hypercert import *", namespace)
        assert {"estimate_volume", "BASEPOINT", "McEstimate", "phi", "b_ratio"} <= set(namespace)
