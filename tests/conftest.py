import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Optional

import pytest

from hypercert import QuadratureConfig, reference_params
from hypercert.cli import main


@pytest.fixture(scope="session")
def ref_params():
    return reference_params()


@pytest.fixture(scope="session")
def quad_cfg():
    return QuadratureConfig()


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    exception: Optional[SystemExit]  # None when main returned

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


@pytest.fixture()
def cli():
    """Run the command line in-process: cli("--format", "json", "verify") returns a CliResult.

    Only SystemExit is caught, so any other exception fails the test with its traceback."""

    def run(*argv: str) -> CliResult:
        stdout, stderr, exception = io.StringIO(), io.StringIO(), None
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                main(list(argv))
            except SystemExit as exc:
                exception = exc
        code = 0 if exception is None or exception.code is None else exception.code
        return CliResult(code, stdout.getvalue(), stderr.getvalue(), exception)

    return run
