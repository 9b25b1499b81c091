"""CLI surface: commands, exit codes, JSON outputs."""

import inspect
import json
import re

import pytest

from qturan import verify as V
from qturan.bounds import CSV_COLUMNS
from qturan.cli import main
from qturan.search import count_classes


def test_q_command_family(capsys):
    assert main(["q", "turan:6,3"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^q\(G\)       8\.000000000000   \(residual \d\.\d\de[+-]\d\d\)$", out, re.M)
    assert "chain_q_vs_maxdeg" in out


def test_q_command_graph6(capsys):
    assert main(["q", "Bw"]) == 0
    out = capsys.readouterr().out
    assert "q(G)       4.0000" in out


def test_q_command_json(capsys, tmp_path):
    path = tmp_path / "q.json"
    assert main(["q", "book:3,2", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["n"] == 5 and payload["m"] == 9
    assert payload["q"] == pytest.approx(7.372281323269014, abs=1e-9)


def test_bad_input_exits_2(capsys):
    assert main(["q", "@@@bad"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["q", "turan:1,5"]) == 2  # constructor precondition
    assert main(["search", "12", "--forbid", "clique:3"]) == 2  # over cap, no corpus


def test_family_spec_over_the_order_cap_exits_2(capsys):
    # the parser refuses the spec; complete:100000000 is never built
    assert main(["q", "complete:100000000"]) == 2
    captured = capsys.readouterr()
    assert "family parameters must be at most 512" in captured.err
    assert captured.out == ""


def test_unknown_family_kind_lists_the_valid_kinds(capsys):
    assert main(["q", "h:12,3,2"]) == 2
    err = capsys.readouterr().err
    assert "error: unknown family kind 'h'; valid kinds: " in err
    kinds = err.strip().split("valid kinds: ")[1].split(", ")
    assert "turan" in kinds and "petersen" in kinds
    assert "h" not in kinds and "h_graph" not in kinds


@pytest.mark.parametrize(
    "argv",
    [
        ["q", "turan:7,3", "--eig-tol", "inf"],
        ["verify", "chain", "--n-max", "4", "--cmp-tol", "inf"],
        ["verify", "chain", "--n-max", "4", "--cmp-tol", "nan"],
    ],
)
def test_non_finite_tolerance_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "tolerances must be finite and strictly positive" in captured.err
    assert captured.out == ""


def test_search_command(capsys, tmp_path):
    path = tmp_path / "rep.json"
    assert main(["search", "7", "--forbid", "clique:4", "--mode", "q", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["max_q"] == pytest.approx(9.274917217635373, abs=1e-9)
    assert payload["scanned"] == 1044
    out = capsys.readouterr().out
    assert "scanned    1044" in out


def test_search_with_corpus(capsys, tmp_path):
    corpus = tmp_path / "two.g6"
    corpus.write_bytes(b"A_\nBw\n")  # off-order lines are ignored by the scan
    assert main(["search", "3", "--forbid", "clique:4", "--mode", "edges",
                 "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "ex_edges   3" in out
    assert "scanned    1" in out


def test_search_refuses_a_malformed_corpus_line(capsys, tmp_path):
    corpus = tmp_path / "bad.g6"
    corpus.write_bytes(b"Bw\nnotgraph6!!\nC~\n")
    path = tmp_path / "rep.json"
    assert main(["search", "3", "--forbid", "clique:4", "--corpus", str(corpus),
                 "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 2: ")
    assert captured.err.count("(byte offset") == 1
    assert captured.out == ""
    assert not path.exists()


def test_descent_command(capsys, tmp_path):
    path = tmp_path / "trace.json"
    assert main(["descent", "turan:12,3", "--eps", "0.1", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["stop_reason"] == "min_degree_exceeded"
    assert main(["descent", "star:10"]) == 0
    out = capsys.readouterr().out
    assert "stop=order_floor" in out


def test_descent_sigma_constraint(capsys):
    rc = main(["descent", "turan:12,3", "--eps", "0.1", "--sigma", "0.01"])
    assert rc == 2
    assert "sigma < epsilon/36" in capsys.readouterr().err


def test_verify_command(capsys):
    assert main(["verify", "facts"]) == 0
    assert "[facts]" in capsys.readouterr().out
    assert main(["verify", "chain", "--n-max", "5"]) == 0
    assert main(["verify", "graph6", "--n-max", "5"]) == 0


def _recording_stub(name, calls):
    """A stand-in for suite ``name`` with its signature: it records the
    keywords it was given and the arguments the suite would have run with."""
    sig = inspect.signature(V.SUITES[name])

    def stub(**kwargs):
        bound = sig.bind(**kwargs)
        bound.apply_defaults()
        calls.append((kwargs, bound.arguments))
        return V.VerifyResult(name, 0)

    stub.__signature__ = sig
    return stub


def test_verify_default_order_is_the_suite_signature_default(capsys, monkeypatch):
    # without --n-max the CLI passes no order, so the suite's own default applies
    for name, suite in sorted(V.SUITES.items()):
        params = inspect.signature(suite).parameters
        calls = []
        monkeypatch.setitem(V.SUITES, name, _recording_stub(name, calls))
        assert main(["verify", name]) == 0
        passed, ran = calls.pop()
        assert "n_max" not in passed, name
        if "n_max" in params:
            assert ran["n_max"] == params["n_max"].default, name
            assert main(["verify", name, "--n-max", "5"]) == 0
            assert calls.pop()[1]["n_max"] == 5, name
    assert "[q-turan] checked 0" in capsys.readouterr().out


def test_verify_csv(capsys, tmp_path):
    path = tmp_path / "hofmeister.csv"
    assert main(["verify", "hofmeister", "--n-max", "6", "--csv", str(path)]) == 0
    checked = sum(count_classes(n) for n in range(1, 7))
    assert f"checked {checked}:" in capsys.readouterr().out
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == checked + 1
    # --cmp-tol reaches the sweep: a loose tolerance turns slacks into equalities
    tight, loose = tmp_path / "tight.csv", tmp_path / "loose.csv"
    assert main(["verify", "chain", "--n-max", "5", "--csv", str(tight)]) == 0
    assert main(["verify", "chain", "--n-max", "5", "--cmp-tol", "0.5", "--csv", str(loose)]) == 0
    assert tight.read_text() != loose.read_text()


def test_verify_refuses_flags_it_would_ignore(capsys, tmp_path):
    # r < 2 is refused, as is an --n-max, --r or --csv the suite's signature lacks
    csv = tmp_path / "x.csv"
    for argv, names in [
        (["verify", "turan", "--r", "0"], ["'turan'", "r=0"]),
        (["verify", "q-turan", "--r", "-1"], ["'q-turan'", "r=-1"]),
        (["verify", "stability", "--r", "3", "--csv", str(csv)], ["'stability'", "--r", "--csv"]),
        (["verify", "facts", "--n-max", "3"], ["'facts'", "--n-max"]),
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert all(name in err for name in names), (argv, err)
    assert not csv.exists()
    assert main(["verify", "q-turan", "--n-max", "5", "--r", "3"]) == 0
    assert "[q-turan] checked 2: ok" in capsys.readouterr().out


@pytest.mark.parametrize("s, t, max_q, maximizers", [
    (2, 3, 9.464101615137753, ["G^vMNC"]),
    (3, 3, 10.605551275463991, ["G~vMNC", "G~~EMK"]),
])
def test_search_kst_plus_q_extremal(tmp_path, s, t, max_q, maximizers):
    # the q-extremal K_{s,t}^+-free graphs at n = 8, exact floats
    path = tmp_path / "rep.json"
    argv = ["search", "8", "--forbid", f"kstplus:{s},{t}", "--mode", "q", "--json", str(path)]
    assert main(argv) == 0
    payload = json.loads(path.read_text())
    assert payload["max_q"] == max_q
    assert payload["extremal_graphs"] == maximizers


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit) as ei:
        main(["verify", "nonsense"])
    assert ei.value.code == 2
