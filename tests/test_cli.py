"""CLI surface: commands, exit codes, JSON outputs."""

import argparse
import inspect
import json
import re

import pytest

from qturan import cli
from qturan import search as S
from qturan import verify as V
from qturan.cli import CSV_COLUMNS, main
from qturan.families import complete
from qturan.search import SearchReport, count_classes, extremal_q
from qturan.spectral import DEFAULT_TOL, Tolerance


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


def test_q_command_degrees(capsys, tmp_path):
    path = tmp_path / "q.json"
    assert main(["q", "turan:7,3", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "\nn, m       7, 16\n" in out and "\ndelta, Delta  4, 5\n" in out
    payload = json.loads(path.read_text())
    assert (payload["min_degree"], payload["max_degree"], payload["m"]) == (4, 5, 16)


def test_bad_input_exits_2(capsys):
    assert main(["q", "@@@bad"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["q", "turan:1,5"]) == 2  # constructor precondition
    assert main(["search", "12", "--forbid", "clique:3"]) == 2  # over cap, no corpus


@pytest.mark.parametrize("mode", ["edges", "q"])
def test_search_at_order_0_exits_2(capsys, mode):
    # the null graph is K_3-free but has no q, so no scan reports on order 0
    assert main(["search", "0", "--forbid", "clique:3", "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert "order must be positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("mode", ["edges", "q"])
@pytest.mark.parametrize("n, message", [
    ("-1", "order must be positive"),
    ("0", "order must be positive"),
    ("5", "corpus FILE holds no graph of order 5"),
])
def test_search_refuses_a_corpus_scan_of_nothing(capsys, tmp_path, mode, n, message):
    # no scan reports "every graph contains F" over no graph at all, and
    # no report is written
    corpus = tmp_path / "small.g6"
    corpus.write_bytes(b"Bw\nC~\n")  # orders 3 and 4
    path = tmp_path / "rep.json"
    argv = ["search", n, "--forbid", "clique:3", "--mode", mode, "--json", str(path)]
    assert main(argv + ["--corpus", str(corpus)]) == 2
    message = message.replace("FILE", str(corpus))
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == "" and not path.exists()


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
        ["q", "turan:7,3", "--cmp-tol", "inf"],
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


def test_search_never_ignores_cmp_tol(capsys, monkeypatch):
    # an edge scan compares edge counts exactly and takes no tolerance, so
    # the flag is refused rather than dropped
    argv = ["search", "6", "--forbid", "cycle:5", "--mode"]
    assert main(argv + ["edges", "--cmp-tol", "0.5"]) == 2
    captured = capsys.readouterr()
    assert "--cmp-tol" in captured.err and "edges" in captured.err
    assert captured.out == ""
    # a q scan gets the flag as its tolerance, and without it runs at its default
    calls = []
    report = SearchReport(6, "D~{", "q", None, None, [], 0, 0.0)
    q_row = S.COLUMNS["q"][:2] + (_recorder(extremal_q, calls, report),)
    monkeypatch.setitem(S.COLUMNS, "q", q_row)
    assert main(argv + ["q", "--cmp-tol", "0.5"]) == 0
    passed, ran = calls.pop()
    assert passed["tol"] == ran["tol"] == Tolerance(cmp_tol=0.5)
    assert main(argv + ["q"]) == 0
    passed, ran = calls.pop()
    assert "tol" not in passed and ran["tol"] == DEFAULT_TOL
    capsys.readouterr()
    for mode in ("edges", "q"):
        assert main(argv + [mode, "--cmp-tol", "inf"]) == 2, mode
        assert "tolerances must be finite and strictly positive" in capsys.readouterr().err
    assert not calls


def test_search_with_corpus(capsys, tmp_path):
    corpus = tmp_path / "two.g6"
    corpus.write_bytes(b"A_\nBw\n")  # off-order lines are ignored by the scan
    assert main(["search", "3", "--forbid", "clique:4", "--mode", "edges",
                 "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "ex_edges   3" in out
    assert "scanned    1" in out


def test_search_resolves_corpus_names_under_the_corpus_dir(capsys, tmp_path, monkeypatch):
    lib, work = tmp_path / "lib", tmp_path / "work"
    lib.mkdir()
    work.mkdir()
    (lib / "three.g6").write_bytes(b"Bw\n")  # K3
    other = tmp_path / "other.g6"
    other.write_bytes(b"B?\n")  # three isolated vertices
    monkeypatch.chdir(work)
    monkeypatch.setenv(S.CORPUS_DIR_ENV, str(lib))
    path = tmp_path / "rep.json"

    def scanned(corpus):
        argv = ["search", "3", "--forbid", "clique:3", "--json", str(path), "--corpus", corpus]
        assert main(argv) == 0
        return json.loads(path.read_text())["extremal_graphs"]

    # a relative name resolves under the directory: its one graph is K3
    assert scanned("three.g6") == []
    # an existing relative path wins over the directory
    (work / "three.g6").write_bytes(b"Bg\n")  # the path P3
    assert scanned("three.g6") == ["Bg"]
    # an absolute path is read as given, and never looked up in the directory
    assert scanned(str(other)) == ["B?"]
    capsys.readouterr()
    for missing in (str(tmp_path / "three.g6"), "missing.g6"):
        assert main(["search", "3", "--forbid", "clique:3", "--corpus", missing]) == 2
        assert "No such file" in capsys.readouterr().err


def test_search_modes_are_the_column_rows(capsys):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    (mode,) = [a for a in sub.choices["search"]._actions if a.dest == "mode"]
    assert mode.choices == sorted(S.COLUMNS)
    with pytest.raises(SystemExit) as ei:
        main(["search", "6", "--forbid", "clique:3", "--mode", "lambda"])
    assert ei.value.code == 2
    assert "invalid choice: 'lambda'" in capsys.readouterr().err


def test_search_mode_runs_its_row_scan(capsys, monkeypatch):
    # a third row runs its own scan, not extremal_q under its name
    calls = []
    report = SearchReport(4, "Bw", "recorded", None, None, [], 0, 0.0)
    row = S.COLUMNS["q"][:2] + (_recorder(S.extremal_edges, calls, report),)
    monkeypatch.setitem(S.COLUMNS, "recorded", row)
    assert main(["search", "4", "--forbid", "clique:3", "--mode", "recorded"]) == 0
    ((passed, ran),) = calls
    assert (ran["n"], ran["f"]) == (4, complete(3))
    assert "mode=recorded" in capsys.readouterr().out


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


def test_descent_refuses_eps_outside_the_criterion_range(capsys):
    rc = main(["descent", "turan:12,3", "--eps", "0.6"])
    assert rc == 2
    assert "epsilon must be in (0, 1/2)" in capsys.readouterr().err


def test_verify_command(capsys):
    assert main(["verify", "facts"]) == 0
    assert "[facts]" in capsys.readouterr().out
    assert main(["verify", "chain", "--n-max", "5"]) == 0
    assert main(["verify", "graph6", "--n-max", "5"]) == 0


def _recorder(fn, calls, result):
    """A stand-in for ``fn`` with its signature: it records the keywords it
    was given and the arguments ``fn`` would have run with, and returns
    ``result``."""
    sig = inspect.signature(fn)

    def stub(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((kwargs, bound.arguments))
        return result

    stub.__signature__ = sig
    return stub


def _recording_stub(name, calls):
    """A stand-in for suite ``name`` that reports one check, since a run of
    none is refused."""
    return _recorder(V.SUITES[name], calls, V.VerifyResult(name, 1))


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
    assert "[q-turan] checked 1" in capsys.readouterr().out


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
    # r < 2, r >= n_max and an n_max that leaves nothing to scan or check
    # are refused, as is an --n-max, --r, --csv or --cmp-tol the suite's
    # signature lacks
    csv = tmp_path / "x.csv"
    for argv, names in [
        (["verify", "turan", "--r", "0"], ["'turan'", "r=0"]),
        (["verify", "q-turan", "--r", "-1"], ["'q-turan'", "r=-1"]),
        (["verify", "q-turan", "--r", "8", "--n-max", "8"], ["'q-turan'", "r=8", "n_max=8"]),
        (["verify", "q-turan", "--n-max", "2"], ["'q-turan'", "n_max >= 3", "n_max=2"]),
        (["verify", "turan", "--n-max", "0"], ["'turan'", "n_max >= 3", "n_max=0"]),
        (["verify", "turan", "--n-max", "1"], ["'turan'", "n_max=1"]),
        (["verify", "turan", "--n-max", "2"], ["'turan'", "n_max=2"]),
        (["verify", "turan", "--r", "2", "--n-max", "2"], ["'turan'", "n_max=2"]),
        (["verify", "simonovits", "--n-max", "2"], ["'simonovits'", "checked nothing", "n_max=2"]),
        (["verify", "stability", "--n-max", "10"], ["'stability'", "n=9", "n_max=10"]),
        (["verify", "chain", "--n-max", "0"], ["'chain'", "checked nothing", "n_max=0"]),
        (["verify", "hofmeister", "--n-max", "0"], ["'hofmeister'", "n_max=0"]),
        (["verify", "stability", "--n-max", "0"], ["'stability'", "n_max=0"]),
        (["verify", "degree-power", "--n-max", "0"], ["'degree-power'", "n_max=0"]),
        (["verify", "merris", "--n-max", "1"], ["'merris'", "checked nothing", "n_max=1"]),
        (["verify", "lower-degree", "--n-max", "1"], ["'lower-degree'", "n_max=1"]),
        (["verify", "stability", "--r", "3", "--csv", str(csv)], ["'stability'", "--r", "--csv"]),
        (["verify", "facts", "--n-max", "3"], ["'facts'", "--n-max"]),
        (["verify", "turan", "--n-max", "5", "--cmp-tol", "0.5"], ["'turan'", "--cmp-tol"]),
        (["verify", "stability", "--n-max", "4", "--cmp-tol", "7"], ["'stability'", "--cmp-tol"]),
        (["verify", "facts", "--cmp-tol", "1e-9"], ["'facts'", "--cmp-tol"]),
        (["verify", "graph6", "--cmp-tol", "0.5"], ["'graph6'", "--cmp-tol"]),
        (["verify", "simonovits", "--cmp-tol", "0.5"], ["'simonovits'", "--cmp-tol"]),
        (["verify", "simonovits", "--r", "3"], ["'simonovits'", "--r"]),
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert all(name in err for name in names), (argv, err)
    assert not csv.exists()
    assert main(["verify", "q-turan", "--n-max", "5", "--r", "3"]) == 0
    assert "[q-turan] checked 2: ok" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "5", "--forbid", "clique:3", "--corpus", "{dir}"],
        ["q", "clique:3", "--json", "{dir}"],
    ],
)
def test_unreadable_or_unwritable_path_exits_2(capsys, tmp_path, argv):
    # a directory where a file is expected raises IsADirectoryError, an
    # OSError; exit 1 would claim a proven inequality failed
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    assert "error: " in capsys.readouterr().err


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
