"""The README's library example and CLI block run as documented."""
import ast
import re
import shlex
from pathlib import Path

import numpy as np

from qcog.cli import main
from qcog.framefit import RESIDUAL_LIMIT
from qcog.ingest import fixture_path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# the documented exit code of each command in the CLI block; 0 for the rest
FINDINGS = {"check-classical": 2, "check-order": 2, "check-contraction": 2}


def fenced_block(heading, language):
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example(capsys):
    exec(fenced_block("## Library example", "python"), {})
    residuals, last_row = capsys.readouterr().out.splitlines()
    assert all(r <= RESIDUAL_LIMIT for r in ast.literal_eval(residuals))
    row = np.array(last_row.strip("[]").split(), dtype=float)
    assert np.max(np.abs(row - [0.45, 0.17, 0.38])) <= 1e-6


def test_cli_block(tmp_path, capsys):
    fix = str(fixture_path("table1.json").parent)
    commands = [shlex.split(line.replace("$FIX", fix))[1:]
                for line in fenced_block("## CLI", "sh").splitlines()
                if line.startswith("qcog ")]
    assert commands
    for argv in commands:
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        assert main(argv) == FINDINGS.get(argv[0], 0), argv
