"""Import contract: genpos needs nothing outside the standard library,
so neither ``import genpos`` nor any command loads numpy.

Each case runs in a fresh interpreter, so that the modules the test
process has loaded for itself do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from genpos import FamilySpec, generate
from genpos.cli import main, write_graph

_SRC = str(Path(__file__).resolve().parents[1] / "src")

# imports genpos, then runs genpos.cli.main on argv, and reports the
# modules that bare `import genpos` bound, the exit code, the output and
# whether numpy got loaded along the way
_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
import genpos
bound = sorted(sys.modules)
import genpos.cli
out = io.StringIO()
with redirect_stdout(out):
    code = genpos.cli.main(sys.argv[1:]) if sys.argv[1:] else None
print(json.dumps({"bound": bound, "code": code, "out": out.getvalue(),
                  "numpy": "numpy" in sys.modules}))
"""


def _probe(*argv):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_SRC + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(done.stdout)


def _masked(text):
    # the JSON timings differ from run to run
    lines = []
    for line in text.splitlines():
        if line.startswith("{"):
            payload = json.loads(line)
            payload.pop("elapsed_ms", None)
            line = json.dumps(payload)
        lines.append(line)
    return lines


@pytest.fixture
def c5(tmp_path):
    path = tmp_path / "c5.txt"
    write_graph(generate(FamilySpec.parse("cycle:5"))[0], str(path))
    return str(path)


def test_import_loads_every_module_but_not_numpy():
    # perfbench/layers.py wraps functions through sys.modules and needs
    # `import genpos` to bind every module, laws included
    report = _probe()
    assert not report["numpy"]
    for name in ("errors", "families", "graphs", "laws", "metric", "position", "srg"):
        assert f"genpos.{name}" in report["bound"]


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--invariant", "all", "--json"),
        ("compute", "--invariant", "dual"),
        ("srg",),
        ("gen", "--family", "cycle:5"),
    ],
    ids=["compute-all-json", "compute-dual", "srg", "gen"],
)
def test_solver_commands_run_without_numpy(argv, c5):
    if argv[0] != "gen":
        argv += ("-i", c5)
    report = _probe(*argv)
    assert report["code"] == 0 and report["out"]
    assert not report["numpy"]


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--invariant", "gp", "--json"),
        ("check", "--suite", "families"),
    ],
    ids=["oracle-gp-json", "check-families"],
)
def test_table_commands_run_without_numpy_and_print_the_same(argv, c5, capsys):
    # the oracle and the laws build their tables over all subsets as ints
    if argv[0] == "oracle":
        argv += ("-i", c5)
    report = _probe(*argv)
    assert not report["numpy"]
    code = main(list(argv))
    assert (report["code"], _masked(report["out"])) == (
        code,
        _masked(capsys.readouterr().out),
    )
