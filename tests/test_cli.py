import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genpos.laws
from genpos import FamilySpec, generate
from genpos.cli import format_graph, main, read_graph, write_graph
from genpos.errors import SpecError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_edge_list_round_trip(tmp_path):
    G, _ = generate(FamilySpec.parse("theta:2,3,3"))
    path = tmp_path / "theta.txt"
    write_graph(G, str(path))
    back = read_graph(str(path))
    assert back == G
    assert format_graph(back) == format_graph(G)


def test_reader_accepts_comments_and_blank_lines(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a triangle\n\n3 3\n0 1\n# middle\n0 2\n1 2\n")
    G = read_graph(str(path))
    assert G.n == 3 and G.m == 3


@pytest.mark.parametrize(
    "content",
    [
        "",
        "3\n",
        "3 2\n0 1\n",  # count mismatch
        "3 1\n1 0\n",  # u >= v
        "3 1\n0 3\n",  # out of range
        "3 1\n0 x\n",
        "3 1\n0 1 2\n",
        "-1 0\n",
        b"2 1\n0 1\n\xff\xfe\n",  # not UTF-8
        # int() reads the last endpoints as 10 and 2
        "11 10\n" + "".join(f"{i} {i + 1}\n" for i in range(9)) + "9 1_0\n",
        "3 2\n0 1\n1 \u0662\n",
        "x 1\n0 1\n",
        "3 2\n0 1\n0 1\n",  # duplicate edge
    ],
)
def test_reader_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(SpecError):
        read_graph(str(path))


def test_compute_duplicate_edge_exits_2(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text("3 2\n0 1\n0 1\n")
    code, _, err = run(capsys, "compute", "--invariant", "gp", "-i", str(path))
    assert code == 2 and err.startswith("error: ")
    assert "Traceback" not in err


def test_gen_family_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--family", "cycle:4")
    assert code == 0
    assert out == "4 4\n0 1\n0 3\n1 2\n2 3\n"


def test_gen_product_and_join(tmp_path, capsys):
    out_file = tmp_path / "p.txt"
    code, _, _ = run(
        capsys, "gen", "--product", "cartesian",
        "-a", "complete:2", "-b", "complete:2", "-o", str(out_file),
    )
    assert code == 0
    assert read_graph(str(out_file)).m == 4

    code, out, _ = run(capsys, "gen", "--join", "-a", "path:2", "-b", "edgeless:1")
    assert code == 0
    assert out.splitlines()[0] == "3 3"  # join of an edge and a point is a triangle


def test_gen_product_requires_both_factors(capsys):
    code, _, err = run(capsys, "gen", "--product", "strong", "-a", "path:3")
    assert code == 2
    assert "both -a and -b" in err


def test_gen_unknown_family_exits_2(capsys):
    code, _, err = run(capsys, "gen", "--family", "moebius:5")
    assert code == 2 and "unknown family" in err


def test_compute_plain_and_quiet(tmp_path, capsys):
    c5 = tmp_path / "c5.txt"
    run(capsys, "gen", "--family", "cycle:5", "-o", str(c5))
    code, out, _ = run(capsys, "compute", "--invariant", "dual", "-i", str(c5))
    assert code == 0
    assert out.splitlines() == ["dual = 2", "witness = 0 1", "method = branch_and_bound"]

    code, out, _ = run(capsys, "compute", "--invariant", "dual", "-i", str(c5), "--quiet")
    assert (code, out.strip()) == (0, "2")


def test_compute_json_schema(tmp_path, capsys):
    c5 = tmp_path / "c5.txt"
    run(capsys, "gen", "--family", "cycle:5", "-o", str(c5))
    code, out, _ = run(capsys, "compute", "--invariant", "gp", "-i", str(c5), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"] == {"n": 5, "m": 5}
    assert payload["invariant"] == "gp"
    assert payload["value"] == 3
    assert payload["witness"] == sorted(payload["witness"])
    assert payload["method"] == "branch_and_bound"
    assert payload["elapsed_ms"] >= 0


def test_compute_all_flat_json(tmp_path, capsys):
    f = tmp_path / "k3xk6.txt"
    run(capsys, "gen", "--product", "cartesian", "-a", "complete:3", "-b", "complete:6",
        "-o", str(f))
    code, out, _ = run(capsys, "compute", "--invariant", "all", "-i", str(f), "--json")
    assert code == 0
    assert json.loads(out) == {"gp": 7, "outer": 3, "total": 0, "dual": 6}

    code, out, _ = run(capsys, "compute", "--invariant", "all", "-i", str(f))
    assert (code, out) == (0, "gp = 7\nouter = 3\ntotal = 0\ndual = 6\n")
    code, out, _ = run(capsys, "compute", "--invariant", "all", "-i", str(f), "--quiet")
    assert (code, out) == (0, "7\n3\n0\n6\n")


@pytest.mark.parametrize("source", ["direct-product", "header-only"])
def test_compute_disconnected_exits_3(tmp_path, capsys, source):
    f = tmp_path / "disc.txt"
    if source == "direct-product":
        run(capsys, "gen", "--product", "direct", "-a", "complete:2", "-b", "complete:2",
            "-o", str(f))
    else:
        # far more vertices than edges: rejected before any graph is built
        f.write_text("3000000000 0\n")
    code, _, err = run(capsys, "compute", "--invariant", "gp", "-i", str(f))
    assert code == 3 and "connected" in err


def test_compute_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "compute", "--invariant", "gp", "-i", "/no/such/file")
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize("command", ["gen", "srg"])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    p3 = tmp_path / "p3.txt"
    run(capsys, "gen", "--family", "path:3", "-o", str(p3))
    source = ("--family", "path:3") if command == "gen" else ("-i", str(p3))
    target = str(tmp_path / "no_such_dir" / "g.txt")
    code, _, err = run(capsys, command, *source, "-o", target)
    assert code == 2 and "cannot write" in err
    assert "Traceback" not in err


def test_srg_emits_edge_list(tmp_path, capsys):
    p4 = tmp_path / "p4.txt"
    run(capsys, "gen", "--family", "path:4", "-o", str(p4))
    code, out, _ = run(capsys, "srg", "-i", str(p4))
    assert code == 0
    assert out == "4 1\n0 3\n"


def test_oracle_agrees_with_compute(tmp_path, capsys):
    c6 = tmp_path / "c6.txt"
    run(capsys, "gen", "--family", "cycle:6", "-o", str(c6))
    for invariant in ("gp", "total", "outer", "dual"):
        _, fast, _ = run(capsys, "compute", "--invariant", invariant, "-i", str(c6),
                         "--quiet")
        _, slow, _ = run(capsys, "oracle", "--invariant", invariant, "-i", str(c6),
                         "--quiet")
        assert fast == slow
    code, out, _ = run(capsys, "oracle", "--invariant", "dual", "-i", str(c6), "--json")
    assert code == 0 and json.loads(out)["method"] == "exhaustive"


def test_oracle_size_cap_exits_4(tmp_path, capsys):
    f = tmp_path / "p9.txt"
    run(capsys, "gen", "--family", "path:9", "-o", str(f))
    code, _, err = run(capsys, "oracle", "--invariant", "gp", "-i", str(f),
                       "--max-n", "8")
    assert code == 4 and "capped" in err


@pytest.mark.parametrize("n", [2**62, 2**63], ids=["memory", "overflow"])
def test_family_too_large_to_build_exits_4(capsys, n):
    # CPython refuses the graph's [0] * n before it allocates anything:
    # MemoryError for 2**62, OverflowError for 2**63
    code, _, err = run(capsys, "gen", "--family", f"edgeless:{n}")
    assert code == 4
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("option", ["--seed", "--max-n"])
@pytest.mark.parametrize("spelling", ["1_0", "+3", "٣"])
def test_integer_options_are_ascii_decimal(tmp_path, capsys, option, spelling):
    # int() reads these as 10, 3 and 3; graph files and family specs reject them
    c5 = tmp_path / "c5.txt"
    run(capsys, "gen", "--family", "cycle:5", "-o", str(c5))
    command = {
        "--seed": ["check", "--suite", "sufficient"],
        "--max-n": ["oracle", "--invariant", "gp", "-i", str(c5)],
    }[option]
    code, out, err = run(capsys, *command, option, spelling)
    assert code == 2 and out == ""
    assert f"error: argument {option}: invalid integer value: {spelling!r}" in err
    assert "_decimal" not in err and "Traceback" not in err


def test_negative_seed_still_runs(capsys):
    # the one integer parser keeps a leading '-', as for a file's counts
    code, out, _ = run(capsys, "check", "--suite", "sufficient", "--seed", "-1")
    assert code == 0 and out.splitlines()[-1] == "58 checks, 0 failures"


@pytest.mark.parametrize(
    "invariant, method",
    [("outer", "clique"), ("gp", "branch_and_bound"), ("dual", "branch_and_bound")],
)
def test_compute_on_a_large_star(tmp_path, capsys, invariant, method):
    # no search recurses: at Python's default limit every leaf is chosen
    star = tmp_path / "star.txt"
    run(capsys, "gen", "--family", "star:1200", "-o", str(star))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, err = run(capsys, "compute", "--invariant", invariant, "-i", str(star))
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0 and err == ""
    assert out.splitlines() == [
        f"{invariant} = 1200",
        "witness = " + " ".join(map(str, range(1, 1201))),
        f"method = {method}",
    ]


def test_check_suite_passes(capsys):
    code, out, _ = run(capsys, "check", "--suite", "sufficient")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].endswith("0 failures")
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_check_law_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(genpos.laws, "_adjacent_pair_literal", lambda G, D, x, y: False)
    code, out, _ = run(capsys, "check", "--suite", "structural")
    assert code == 1
    lines = out.splitlines()
    failed = [i for i, line in enumerate(lines) if line.startswith("FAIL ")]
    assert failed and lines[-1].endswith(f"{len(failed)} failures")
    assert any(lines[i].startswith("FAIL adjacent-pair-three-way @ ") for i in failed)
    for i in failed:
        prefix = "  counterexample: "
        assert lines[i + 1].startswith(prefix)
        replay = json.loads(lines[i + 1][len(prefix):])
        assert {"n", "edges"} <= set(replay)


@pytest.mark.parametrize("suite", ["products", "families"])
def test_check_json_report(capsys, suite):
    code, out, _ = run(capsys, "check", "--suite", suite, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == suite
    assert payload["failures"] == 0
    assert payload["checks"] == len(payload["reports"])
    sample = payload["reports"][0]
    assert {"law", "instance", "passed", "expected", "actual"} <= set(sample)


def test_check_json_reports_suite_time(capsys):
    code, out, _ = run(capsys, "check", "--suite", "sufficient", "--json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload["elapsed_ms"], float) and payload["elapsed_ms"] >= 0
    # the time is the suite's, not each report's
    assert all("elapsed_ms" not in r for r in payload["reports"])


@pytest.mark.parametrize(
    "argv",
    [("gen", "--family", "cycle:5"), ("check", "--suite", "sufficient", "--json")],
    ids=["gen", "check-json"],
)
def test_closed_stdout_exits_141_without_traceback(argv):
    # stdout is a pipe whose read end is closed before the child starts,
    # so its first write fails with EPIPE every time
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "genpos.cli", *argv],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(w)
    assert done.returncode == 141
    assert "Traceback" not in done.stderr


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "compute", "--invariant", "bogus", "-i", "x")[0] == 2
    assert run(capsys, "nosuchcommand")[0] == 2
    assert run(capsys)[0] == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "gen", "--help")[0] == 0
