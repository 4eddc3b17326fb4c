import io
import sys

import pytest

from retlab.cli import main
from retlab.graph_core import serialize_graph
from retlab.counting import serialize_lists

from conftest import fig5, reflexive_clique


def run_cli(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, h):
    p = tmp_path / name
    p.write_text(serialize_graph(h))
    return str(p)


def test_classify_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["classify", "-"], stdin="n 1\ne 0 0\n"
    )
    assert code == 0
    assert out == "component 0: Trivial\nverdict: FP\n"


def test_gen_pipe_to_classify(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["gen", "net"])
    assert code == 0
    code, out2, _ = run_cli(capsys, monkeypatch, ["classify", "-"], stdin=out)
    assert code == 0
    assert out2.endswith("verdict: SAT\n")


def test_count_modes(tmp_path, capsys, monkeypatch):
    from retlab.graph_core import graph

    g = write_graph(tmp_path, "g.graph", graph(1, []))
    h = write_graph(tmp_path, "h.graph", reflexive_clique(3))
    code, out, _ = run_cli(capsys, monkeypatch, ["count", "--mode", "hom", g, h])
    assert code == 0 and out == "3\n"
    # lists file
    lists = tmp_path / "l.lists"
    lists.write_text("l 0 0 1\n")
    code, out, _ = run_cli(
        capsys, monkeypatch,
        ["count", "--mode", "lhom", g, h, "--lists", str(lists)],
    )
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(
        capsys, monkeypatch, ["count", "--mode", "ret", g, h]
    )
    assert code == 0 and out == "3\n"


def test_hbis_verify_fig5(tmp_path, capsys, monkeypatch):
    path = write_graph(tmp_path, "fig5.graph", fig5())
    code, out, _ = run_cli(capsys, monkeypatch, ["hbis-verify", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS 14 vertices"
    assert len(lines) == 15  # one map line per vertex


def test_hbis_verify_failure(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["hbis-verify", "-"], stdin="n 2\ne 0 1\n"
    )
    assert code == 1
    assert out.startswith("FAIL")


def test_hbis_encode_sections(tmp_path, capsys, monkeypatch):
    path = write_graph(tmp_path, "fig5.graph", fig5())
    code, out, _ = run_cli(capsys, monkeypatch, ["hbis-encode", path])
    assert code == 0
    assert "csp Iv\n" in out and "csp Ie\n" in out and "graph Hve\n" in out
    assert out.count("\nn 14\n") == 1


def test_gen_families(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["gen", "x", "1", "0", "1"])
    assert code == 0 and out.startswith("n 4\n")
    code, out, _ = run_cli(capsys, monkeypatch, ["gen", "wr", "3"])
    assert code == 0 and out.startswith("n 4\n")
    code, out, _ = run_cli(
        capsys, monkeypatch, ["gen", "tec", "cycle", "5", "1", "3", "4"]
    )
    assert code == 0 and out.startswith("n 8\n")


def test_gadget_verify_kelk(tmp_path, capsys, monkeypatch):
    from retlab.gadget_lab import make_x_graph

    good = write_graph(tmp_path, "good.graph", make_x_graph(7, 0, 1))
    bad = write_graph(tmp_path, "bad.graph", make_x_graph(1, 0, 1))
    code, out, _ = run_cli(capsys, monkeypatch, ["gadget-verify", "kelk", good])
    assert code == 0 and out.startswith("PASS kelk")
    code, out, _ = run_cli(capsys, monkeypatch, ["gadget-verify", "kelk", bad])
    assert code == 1
    assert out == "FAIL kelk lhs=0 rhs=1\ncounterexample S=[0, 2, 3] T=[0, 2, 3]\n"
    # 17 vertices, past the old 16-vertex cap
    big = write_graph(tmp_path, "big.graph", make_x_graph(14, 0, 1))
    code, out, _ = run_cli(capsys, monkeypatch, ["gadget-verify", "kelk", big])
    assert code == 0 and out == "PASS kelk lhs=1 rhs=1\n"


def test_gadget_verify_cycle(tmp_path, capsys, monkeypatch):
    from conftest import reflexive_cycle

    path = write_graph(tmp_path, "c5.graph", reflexive_cycle(5))
    code, out, _ = run_cli(capsys, monkeypatch, ["gadget-verify", "cycle", path, "2"])
    assert code == 0
    assert out.startswith("PASS cycle-gadget lhs=2 rhs=2")


def test_types_table_deterministic(tmp_path, capsys, monkeypatch):
    from retlab.gadget_lab import make_x_graph

    path = write_graph(tmp_path, "x.graph", make_x_graph(1, 0, 1))
    code, out1, _ = run_cli(capsys, monkeypatch, ["types-table", path])
    code2, out2, _ = run_cli(capsys, monkeypatch, ["types-table", path])
    assert code == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 6
    assert all(line.startswith("type ") for line in out1.splitlines())
    # J(1, 1, 3) has 12 vertices: every line still carries its exact count
    code, out, _ = run_cli(capsys, monkeypatch, ["types-table", path, "--t", "3"])
    assert code == 0
    assert all(" n=" in line for line in out.splitlines())


def test_closed_set_limit_is_usage_error(tmp_path, capsys, monkeypatch):
    from retlab import gadget_lab

    path = write_graph(tmp_path, "x.graph", gadget_lab.make_x_graph(2, 2, 1))
    monkeypatch.setattr(gadget_lab, "MAX_CLOSED_SETS", 4)
    for argv in (["types-table", path], ["gadget-verify", "kelk", path]):
        code, out, err = run_cli(capsys, monkeypatch, argv)
        assert code == 2 and out == ""
        assert "more than 4 closed sets" in err


def test_cuts(tmp_path, capsys, monkeypatch):
    from retlab.graph_core import graph

    tri = write_graph(tmp_path, "tri.graph", graph(3, [(0, 1), (1, 2), (0, 2)]))
    code, out, _ = run_cli(
        capsys, monkeypatch,
        ["cuts", tri, "--terminals", "0", "1", "2", "-K", "3"],
    )
    assert code == 0
    assert out == "kmin 3\ncount 1\npromise ok\n"
    code, out, _ = run_cli(capsys, monkeypatch, ["cuts", tri])
    assert code == 0
    assert out == "kmax 2\ncount 3\n"


def test_malformed_input_is_usage_error(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, monkeypatch, ["classify", "-"], stdin="garbage\n"
    )
    assert code == 2
    assert "line 1" in err


def test_unknown_subcommand(capsys, monkeypatch):
    code, _, _ = run_cli(capsys, monkeypatch, ["frobnicate"])
    assert code == 2
