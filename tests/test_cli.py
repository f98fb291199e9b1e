import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tokengraphs.cli
from tokengraphs import Graph, build_token_graph, decode_graph6, encode_graph6, complete_graph, lift_script, path_graph
from tokengraphs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_json(capsys):
    code, out, _ = run(capsys, "build", "-k", "2", "--graph6", "C~")
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 6 and blob["m"] == 12
    assert blob["regular"] is True and blob["planar"] is True
    assert blob["base_n"] == 4 and blob["k"] == 2
    assert decode_graph6(blob["graph6"]).degree_multiset() == (4,) * 6


def test_build_reads_connected_off_the_base(capsys):
    """F_k(g) is connected iff g is: 2K_2 and P_3 + K_2 give false at every k."""
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    for g in (two_k2, Graph(5, [(0, 1), (1, 2), (3, 4)]), complete_graph(4), path_graph(5)):
        for k in range(1, g.n):
            code, out, _ = run(capsys, "build", "-k", str(k), "--graph6", encode_graph6(g))
            assert code == 0
            connected = json.loads(out)["connected"]
            assert connected is build_token_graph(g, k).graph.is_connected()
            assert connected is g.is_connected()


def test_build_g6_and_dot(capsys):
    code, out, _ = run(capsys, "build", "-k", "2", "--graph6", "C~", "--out", "g6")
    assert code == 0
    assert decode_graph6(out.strip()).m == 12

    code, out, _ = run(capsys, "build", "-k", "2", "--graph6", "Cr", "--out", "dot")
    assert code == 0
    assert out.startswith("graph tokens {")
    assert 'label="{1,3}"' in out
    assert " -- " in out


def test_build_dot_writes_the_builds_edges_in_order(monkeypatch, capsys):
    """The dot comes from the neighbour lists, with no build, and reads as if
    written from the build: the labelled vertices, then its edges (u, v),
    u < v, in lexicographic order."""
    bases = [decode_graph6("Cr"), complete_graph(6), path_graph(9), Graph(7, [(0, 6), (1, 5), (2, 3)])]
    expected = []
    for g in bases:
        for k in range(1, g.n):
            tg = build_token_graph(g, k)
            lines = ["graph tokens {"]
            lines += [f'  v{r} [label="{label}"];' for r, label in enumerate(tg.vertex_labels())]
            lines += [f"  v{u} -- v{v};" for u, v in tg.graph.edges()]
            expected.append((g, k, "\n".join(lines + ["}"]) + "\n"))

    def refuse(*args):
        raise AssertionError("the dot is written without a build")

    monkeypatch.setattr(tokengraphs.cli, "build_token_graph", refuse)
    for g, k, want in expected:
        code, out, _ = run(capsys, "build", "-k", str(k), "--graph6", encode_graph6(g), "--out", "dot")
        assert code == 0 and out == want, (g.edges(), k)


def test_build_batch_from_file(tmp_path, capsys):
    src = tmp_path / "bases.g6"
    src.write_text("C~\nCr\n")
    code, out, _ = run(capsys, "build", "-k", "2", "--file", str(src))
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [b["n"] for b in lines] == [6, 6]


def test_canon_output(capsys):
    code, out, _ = run(capsys, "canon", "--graph6", "Cr")
    assert code == 0
    canonical = out.strip()
    assert decode_graph6(canonical).degree_multiset() == (2, 2, 2, 2)
    # idempotent: the canonical string is its own canonical form
    code, out, _ = run(capsys, "canon", "--graph6", canonical)
    assert out.strip() == canonical

    code, out, _ = run(capsys, "canon", "--graph6", "Cr", "--out", "json")
    blob = json.loads(out)
    assert blob["canonical"] == canonical
    assert sorted(blob["permutation"]) == [0, 1, 2, 3]
    assert blob["automorphism_order"] == 8


def test_planar_exit_codes(tmp_path, capsys):
    code, out, _ = run(capsys, "planar", "--graph6", "C~")
    assert code == 0
    assert "\tplanar\t" in out

    code, out, _ = run(capsys, "planar", "--graph6", "D~{")  # K_5
    assert code == 1
    assert "\tnon-planar\t" in out

    batch = tmp_path / "batch.g6"
    batch.write_text("C~\nD~{\n")
    code, out, _ = run(capsys, "planar", "--file", str(batch))
    assert code == 0  # batch mode reports per line, exit stays 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].endswith(("left-right", "euler-bound", "component-split"))


def test_planar_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nD~{\n"))
    code, out, _ = run(capsys, "planar")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_classify_regularity_json(capsys):
    code, out, _ = run(capsys, "classify", "regularity", "-k", "2", "--graph6", "C~")
    assert code == 0
    blob = json.loads(out)
    assert blob == {"regular": True, "case": "complete", "k": 2, "witness": None}

    # the witness, a record inside the verdict, prints as a nested object
    code, out, _ = run(capsys, "classify", "regularity", "-k", "2", "--graph6", "DhC")
    assert code == 0
    assert out == (
        '{"regular": false, "case": "not-regular", "k": 2, "witness": '
        '{"subset_a": [0, 3], "subset_b": [1, 3], "degree_a": 3, "degree_b": 4}}\n'
    )


def test_classify_planarity_json(capsys):
    code, out, _ = run(capsys, "classify", "planarity", "-k", "2", "--graph6", "DUW")
    assert code == 0
    assert out == (
        '{"planar": false, "method": "characterization", "reason": "no-maximal-supergraph", "k": 2}\n'
    )


def test_lift_json(tmp_path, capsys):
    script = tmp_path / "ops.txt"
    script.write_text("dv 3\nde 0 1\n")
    code, out, _ = run(
        capsys, "lift", "-k", "2", "--graph6", "C~", "--script", str(script)
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["verified"] is True
    assert blob["script"] == ["dv 3", "de 0 1"]
    assert [s["op"] for s in blob["steps"]] == ["dv 3", "de 0 1"]
    assert blob["steps"][0]["lifted"] == ["dv 5", "dv 4", "dv 3"]


def test_lift_lifts_the_script_once(tmp_path, monkeypatch, capsys):
    """The printed lift is the one verified: `lift_script` runs once."""
    calls = []

    def counted(*args):
        calls.append(args)
        return lift_script(*args)

    for where in ("tokengraphs.cli.lift_script", "tokengraphs.minors.lift_script"):
        monkeypatch.setattr(where, counted)
    script = tmp_path / "ops.txt"
    script.write_text("dv 0\n")
    code, out, _ = run(capsys, "lift", "-k", "2", "--graph6", "C~", "--script", str(script))
    assert code == 0 and json.loads(out)["verified"] is True
    assert len(calls) == 1


def test_lift_rejects_a_script_that_shrinks_the_base_too_far(tmp_path, capsys):
    script = tmp_path / "ops.txt"
    script.write_text("dv 0\ndv 0\n")
    code, out, err = run(capsys, "lift", "-k", "2", "--graph6", "C~", "--script", str(script))
    assert code == 2 and out == ""
    assert err == "error: script shrinks the base to n=2, outside the buildable range for k=2\n"


def test_search_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "search", "-k", "3", "--n-min", "6", "--n-max", "7", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    blob = json.loads(out_path.read_text())
    assert blob["k"] == 3
    assert blob["maximal"] == ["EHwg", "EMGg"]


def test_search_prints_report_by_default(capsys):
    code, out, _ = run(capsys, "search", "-k", "3", "--n-max", "6")
    assert code == 0
    assert json.loads(out)["maximal"] == ["EHwg", "EMGg"]


def test_search_accepts_and_ignores_jobs(capsys):
    argv = ("search", "-k", "3", "--n-min", "6", "--n-max", "7")
    reports = []
    for extra in ((), ("--jobs", "2")):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        blob = json.loads(out)
        blob.pop("elapsed_secs")
        reports.append(blob)
    assert reports[0] == reports[1]


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "build", "-k", "9", "--graph6", "C~")
    assert code == 2 and "error" in err

    code, _, err = run(capsys, "planar", "--graph6", "#nope")
    assert code == 2 and err

    code, _, err = run(capsys, "lift", "-k", "2", "--graph6", "C~", "--script", "/nonexistent/x")
    assert code == 2

    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_empty_stdin_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, _, err = run(capsys, "canon")
    assert code == 2 and "no input graphs" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("canon", "--graph6", ""), "empty input (byte 0)"),
        (("canon", "--file", ""), "No such file"),
        (("search", "-k", "2", "--n-max", "4", "--out", ""), "No such file"),
    ],
    ids=["graph6", "file", "out"],
)
def test_an_empty_flag_value_is_not_an_absent_flag(argv, message, monkeypatch, capsys):
    """An empty --graph6 or --file names no input, so stdin stays unread, and
    an empty --out names no file, so the report does not go to stdout."""
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert "Traceback" not in err


def test_non_ascii_input_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"D\xffW\n")
    for argv in (
        ("canon", "--file", str(bad)),
        ("lift", "-k", "2", "--graph6", "C~", "--script", str(bad)),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_non_ascii_graph6_argument_is_an_input_error(capsys):
    code, out, err = run(capsys, "planar", "--graph6", "B\u00e9")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_single_graph_commands_reject_several_graphs(tmp_path, monkeypatch, capsys):
    script = tmp_path / "ops.txt"
    script.write_text("de 0 1\n")
    for argv in (
        ("classify", "planarity", "-k", "2"),
        ("classify", "regularity", "-k", "2"),
        ("lift", "-k", "2", "--script", str(script)),
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO("DUW\nDUW\n"))
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: expected exactly one graph, got 2\n"


def test_search_has_no_file_mode(capsys):
    """Pruned mode extends each order's trees itself, so no graph6 stream is read."""
    with pytest.raises(SystemExit) as info:
        main(["search", "-k", "2", "--n-max", "5", "--from-file", "x"])
    out, err = capsys.readouterr()
    assert info.value.code == 2 and out == ""
    assert "unrecognized arguments: --from-file x" in err and "Traceback" not in err


def test_search_n_min_zero_is_not_ignored(capsys):
    code, out, err = run(capsys, "search", "-k", "2", "--n-min", "0", "--n-max", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: n=0 is below 2k=4")


def test_search_rejects_a_non_finite_budget(capsys):
    for budget in ("nan", "inf", "-5"):
        code, out, err = run(capsys, "search", "-k", "2", "--n-max", "5", "--budget-secs", budget)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "finite" in err


def test_search_rejects_an_empty_order_range(capsys):
    code, out, err = run(capsys, "search", "-k", "2", "--n-max", "3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "no order to search" in err


def test_canon_too_deep_for_the_search_is_an_input_error(tmp_path, capsys):
    """The labeller recurses once per individualised vertex: 999 here."""
    edgeless = tmp_path / "edgeless.g6"
    edgeless.write_text(encode_graph6(Graph(1000)) + "\n")
    code, out, err = run(capsys, "canon", "--file", str(edgeless))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "n=1000" in err


def run_child(code, stdin_bytes, close_stdout=False):
    """Run `code` in a fresh interpreter on this checkout's package; (returncode, stderr)."""
    src = str(Path(tokengraphs.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    if close_stdout:
        # the child cannot write before it has read all of stdin
        proc.stdout.close()
    _, err = proc.communicate(stdin_bytes, timeout=60)
    return proc.returncode, err.decode()


def test_interrupt_exits_130_without_a_traceback():
    code = (
        "import sys\n"
        "import tokengraphs.cli as cli\n"
        "def interrupted(args):\n"
        "    raise KeyboardInterrupt\n"
        "cli._cmd_canon = interrupted\n"
        "sys.exit(cli.main(['canon', '--graph6', 'C~']))\n"
    )
    returncode, err = run_child(code, b"")
    assert returncode == 130
    assert "Traceback" not in err
    assert err.strip() == "interrupted"


def test_closed_stdout_exits_141_quietly():
    code = "import sys, tokengraphs.cli as cli; sys.exit(cli.main(['build', '-k', '2', '--out', 'dot']))"
    returncode, err = run_child(code, b"C~\n", close_stdout=True)
    assert (returncode, err) == (141, "")
