import json
import re
from pathlib import Path

import pytest

from subexpr import coxeter, cyclespace, sweeps
from subexpr.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from subexpr.expressions import Expression, build_all_graphs


def write_spec(tmp_path, name="spec.json", **data):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


@pytest.fixture
def a2_spec(tmp_path):
    return write_spec(tmp_path,
                      coxeter_matrix=[[1, 3], [3, 1]],
                      generators=["s", "t"],
                      expression=["s", "t", "s", "t"])


def test_graph_outputs_and_determinism(a2_spec, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["graph", "--spec", a2_spec, "--out", str(out1)]) == EXIT_OK
    assert main(["graph", "--spec", a2_spec, "--out", str(out2)]) == EXIT_OK
    dots1 = sorted(p.name for p in out1.glob("graph_*.dot"))
    assert dots1 and dots1 == sorted(p.name for p in out2.glob("graph_*.dot"))
    for name in dots1 + ["stats.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    stats = json.loads((out1 / "stats.json").read_text())
    assert stats["expression"] == [0, 1, 0, 1]
    assert sum(e["n_vertices"] for e in stats["graphs"]) == 16


def test_graph_single_target(tmp_path):
    spec = write_spec(tmp_path,
                      coxeter_matrix=[[1, 3], [3, 1]],
                      generators=["s", "t"],
                      expression=["s", "t", "s", "t"],
                      target=[])
    out = tmp_path / "out"
    assert main(["graph", "--spec", spec, "--out", str(out)]) == EXIT_OK
    dot = (out / "graph_000.dot").read_text()
    assert dot.startswith("graph sub {")
    # bit-string vertex labels of the subexpressions multiplying to e
    assert 'label="0000"' in dot
    assert 'label="1111"' not in dot           # stst != e in A2


@pytest.mark.parametrize("name", ["graph_b2", "graph_a2t_identity"])
def test_graph_matches_golden_output(tmp_path, name):
    # the README's B2 spec (target "all") and (s1 s2 s3)^4 in A2~ with
    # target []: DOT files and stats.json byte for byte
    golden = Path(__file__).parent / "data" / name
    out = tmp_path / "out"
    assert main(["graph", "--spec", str(golden / "spec.json"),
                 "--out", str(out)]) == EXIT_OK
    want = sorted(p.name for p in golden.iterdir() if p.name != "spec.json")
    assert sorted(p.name for p in out.iterdir()) == want
    for fname in want:
        assert (out / fname).read_bytes() == (golden / fname).read_bytes(), fname


@pytest.mark.parametrize("what", ["connectivity", "span", "decompose"])
def test_verify_matches_golden_output(tmp_path, what):
    # the README's B2 spec (target "all"): report.json and, for decompose,
    # the certificates, byte for byte
    golden = Path(__file__).parent / "data" / "verify_b2"
    out = tmp_path / "out"
    assert main(["verify", what, "--spec", str(golden / "spec.json"),
                 "--out", str(out)]) == EXIT_OK
    want = sorted(p.name for p in (golden / what).iterdir())
    assert sorted(p.name for p in out.iterdir()) == want
    for fname in want:
        assert (out / fname).read_bytes() == \
            (golden / what / fname).read_bytes(), fname


def test_verify_decompose_uses_every_kind(tmp_path):
    # B2 s t s t s t s (target "all"): every certificate replays on its
    # class, and their cycles cover all seven kinds
    word = ["s1", "s2"] * 3 + ["s1"]
    spec = write_spec(tmp_path, type="B2", expression=word)
    out = tmp_path / "v"
    assert main(["verify", "decompose", "--spec", spec,
                 "--out", str(out)]) == EXIT_OK
    graphs = build_all_graphs(Expression(coxeter.named_system("B2"),
                                         (0, 1) * 3 + (0,)))
    kinds = set()
    for idx, g in enumerate(graphs):
        for entry in json.loads((out / f"certificate_{idx:03d}.json")
                                .read_text()):
            assert cyclespace.check_certificate(
                g, entry["cycles"], int(entry["target_edges"], 2))
            kinds.update(cyc["kind"] for cyc in entry["cycles"])
    assert kinds == {"Tr1", "Tr2", "Tr3", "Sq1", "Sq2", "Cyc1", "Cyc2"}


# every class of a 12-letter A2~ word
A2T_12_WORD = "s2 s3 s2 s1 s2 s1 s2 s3 s2 s3 s1 s3".split()


@pytest.mark.parametrize("spec", [
    "graph_b2", "graph_a2t_identity",
    {"type": "A2~", "expression": A2T_12_WORD, "target": "all"}],
    ids=["graph_b2", "graph_a2t_identity", "A2~-12"])
def test_graph_and_verify_span_report_one_family(tmp_path, spec):
    # graph's stats.json lists one length per generator that verify span
    # counts, and the same set of lengths
    if isinstance(spec, str):
        path = str(Path(__file__).parent / "data" / spec / "spec.json")
    else:
        path = write_spec(tmp_path, **spec)
    g_out, v_out = tmp_path / "g", tmp_path / "v"
    assert main(["graph", "--spec", path, "--out", str(g_out)]) == EXIT_OK
    assert main(["verify", "span", "--spec", path,
                 "--out", str(v_out)]) == EXIT_OK
    stats = json.loads((g_out / "stats.json").read_text())["graphs"]
    report = json.loads((v_out / "report.json").read_text())["classes"]
    assert len(stats) == len(report)
    for s, r in zip(stats, report):
        assert len(s["lengths"]) == r["n_generators"]
        assert sorted(set(s["lengths"])) == r["lengths"]


def test_verify_connectivity(a2_spec, tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "connectivity", "--spec", a2_spec,
                 "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] and all(e["connected"] for e in report["classes"])


def test_verify_span(tmp_path):
    spec = write_spec(tmp_path,
                      coxeter_matrix=[[1, 4], [4, 1]],
                      expression=["s1", "s2", "s1", "s2", "s1", "s2"])
    out = tmp_path / "v"
    assert main(["verify", "span", "--spec", spec, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["ok"]
    assert all(e["rank"] == e["dim"] for e in report["classes"])


# the first 17 letters of a random A2~ word with no letter twice in a row
# (random.Random(7)); its identity class has 4,120 vertices
L17_WORD = "s2 s1 s2 s3 s1 s3 s1 s2 s3 s1 s3 s1 s2 s1 s3 s2 s1".split()


def test_verify_span_long_identity_class(tmp_path):
    # the class whose global GF(2) rank took 92 s and 826 MB
    spec = write_spec(tmp_path, type="A2~", expression=L17_WORD, target=[])
    out = tmp_path / "v"
    assert main(["verify", "span", "--spec", spec, "--out", str(out)]) == EXIT_OK
    [entry] = json.loads((out / "report.json").read_text())["classes"]
    assert entry["n_vertices"] == 4120
    assert entry["ok"] and entry["rank"] == entry["dim"] == 35938
    assert "split_vertices" not in entry


def _fail_span_at_top(monkeypatch):
    """Make the link check leave each graph's top vertex split and
    certify rank 0, so that every class with a cycle fails."""
    monkeypatch.setattr(cyclespace, "link_check",
                        lambda g: (0, 0, {}, [g.n_vertices - 1], 0))


def test_verify_span_failure_names_the_split_vertex(tmp_path, capsys,
                                                    monkeypatch):
    spec = write_spec(tmp_path, type="B2",
                      expression=["s1", "s1", "s2", "s2"], target=[])
    _fail_span_at_top(monkeypatch)
    out = tmp_path / "v"
    assert main(["verify", "span", "--spec", spec,
                 "--out", str(out)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    witness = json.loads(err)
    # the identity class of s1 s1 s2 s2 is a square; its top vertex is 1111
    assert witness["split_vertices"] == ["1111"]
    assert not witness["ok"] and witness["rank"] == 0 < witness["dim"]
    report = json.loads((out / "report.json").read_text())
    assert report["classes"] == [witness]


def test_sweep_span_witness_carries_the_split_vertices(monkeypatch):
    _fail_span_at_top(monkeypatch)
    system = coxeter.named_system("B2")
    out = sweeps.check_word(system, (0, 0, 1, 1), "span")
    assert not out["ok"] and len(out["witness"]) == out["classes"] == 4
    # the first class is the identity's, the square 0000 < ... < 1111
    assert out["witness"][0] == {"dim": 1, "rank": 0, "vertex": "0000",
                                 "split_vertices": ["1111"]}


@pytest.mark.parametrize("command", ["graph", "table1"])
def test_split_link_graph_fails_cleanly(tmp_path, capsys, monkeypatch,
                                        command):
    # With no crossing resolved, the Tr/Sq leave link graphs split in
    # B2, in s t s t s t s and in shorter words that table1 sweeps. The
    # family is then not certified to span: one error line names the
    # split vertices, the exit code is 1, and graph writes no file.
    monkeypatch.setattr(cyclespace, "_resolve_crossing", lambda *args: [])
    spec = write_spec(tmp_path, type="B2",
                      expression=["s1", "s2"] * 3 + ["s1"])
    out = tmp_path / "out"
    argv = {"graph": ["graph", "--spec", spec, "--out", str(out)],
            "table1": ["sweep", "table1", "B2", "--max-len", "7"]}[command]
    assert main(argv) == EXIT_FAIL
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: link graphs split at \d+ of \d+ vertices:"
                        r"( [01]+)+\n", err), err
    assert not out.exists()


def test_failed_decompose_names_its_witness(tmp_path, capsys, monkeypatch):
    # With no crossing resolved, decompose stops at a vertex whose link
    # graph is split. One error line names the class, the target cycle's
    # edges and that vertex, the exit code is 1, and the certificates of
    # the classes before it are removed with the output directory.
    monkeypatch.setattr(cyclespace, "_resolve_crossing", lambda *args: [])
    spec = Path(__file__).parent / "data" / "verify_b2" / "spec.json"
    out = tmp_path / "out"
    assert main(["verify", "decompose", "--spec", str(spec),
                 "--out", str(out)]) == EXIT_FAIL
    err = capsys.readouterr().err
    m = re.fullmatch(r"error: class (\d+), target edges ([01]+): the walk "
                     r"stopped at vertex ([01]+): its link graph is split\n",
                     err)
    assert m, err
    assert not out.exists()
    idx, target, vertex = int(m[1]), int(m[2], 2), m[3]
    system = coxeter.named_system("B2")
    graphs = build_all_graphs(Expression(system, (0, 1) * 3))
    assert idx > 0                  # earlier classes wrote certificates
    g = graphs[idx]
    assert target in cyclespace.fundamental_cycles(g)
    assert vertex in cyclespace._bit_strings(g, cyclespace.link_check(g)[3])


def test_verify_decompose_writes_replayable_certificates(tmp_path):
    spec = write_spec(tmp_path,
                      coxeter_matrix=[[1, 4], [4, 1]],
                      expression=["s1", "s2", "s1", "s2", "s1", "s2"])
    out = tmp_path / "v"
    assert main(["verify", "decompose", "--spec", spec,
                 "--out", str(out)]) == EXIT_OK
    certs = sorted(out.glob("certificate_*.json"))
    assert certs
    payload = json.loads(certs[0].read_text())
    for entry in payload:
        assert set(entry) == {"target_edges", "cycles"}
        for cyc in entry["cycles"]:
            assert cyc["kind"] in ("Tr1", "Tr2", "Tr3", "Sq1", "Sq2",
                                   "Cyc1", "Cyc2")
            assert all(set(v) <= {"0", "1"} for v in cyc["vertices"])


def test_verify_decompose_is_deterministic(tmp_path):
    # Two runs in one process: the second meets the process-wide caches
    # warm, and each run reuses its system's dihedral contexts after the
    # first crossing of each root pair. The certificates must not differ.
    spec = write_spec(tmp_path,
                      coxeter_matrix=[[1, 4], [4, 1]],
                      generators=["s", "t"],
                      expression=["s", "t", "s", "t", "s", "t"],
                      target="all")
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    for out in (out1, out2):
        assert main(["verify", "decompose", "--spec", spec,
                     "--out", str(out)]) == EXIT_OK
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    kinds = {cyc["kind"] for p in out1.glob("certificate_*.json")
             for entry in json.loads(p.read_text()) for cyc in entry["cycles"]}
    assert {"Cyc1", "Cyc2"} <= kinds           # crossings were resolved


def test_table1_quick(capsys, tmp_path):
    out = tmp_path / "t"
    code = main(["sweep", "table1", "A1", "--max-len", "4", "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    rep = json.loads(text)
    assert rep["observed"] == [3] and rep["ok"]
    assert (out / "table1.json").read_text() == text


@pytest.mark.parametrize("argv, unseen", [
    (["B2", "--max-len", "0"], "3, 4, 6"),
    (["B2", "--max-len", "4"], "6"),
], ids=["B2-0", "B2-4"])
def test_table1_short_sweep_exits_usage(capsys, argv, unseen):
    # a sweep too short to meet the whole row is not a failure: the report
    # is printed, and one error line names the lengths it did not meet
    assert main(["sweep", "table1"] + argv) == EXIT_USAGE
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["expected"] == [3, 4, 6]
    assert set(rep["observed"]) < set(rep["expected"])
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"no cycle of length {unseen};" in captured.err


@pytest.mark.parametrize("argv, expected", [
    (["Bn", "--rank", "2", "--max-len", "7"], [3, 4, 6]),
    (["An", "--rank", "1", "--max-len", "4"], [3]),
], ids=["Bn-rank2", "An-rank1"])
def test_table1_row_follows_the_matrix(capsys, argv, expected):
    # Bn of rank 2 is B2 and An of rank 1 is A1: same matrix, same row
    assert main(["sweep", "table1"] + argv) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["expected"] == rep["observed"] == expected and rep["ok"]


def test_table1_length_outside_row_fails(monkeypatch, capsys):
    def report(type_name, rank, max_len, jobs):
        return {"type": type_name, "rank": rank, "max_len": max_len,
                "observed": [3, 7], "expected": [3], "ok": False}

    monkeypatch.setattr(sweeps, "table1_report", report)
    assert main(["sweep", "table1", "A1", "--max-len", "4"]) == EXIT_FAIL
    assert json.loads(capsys.readouterr().out)["observed"] == [3, 7]


def test_table1_unknown_type(capsys):
    assert main(["sweep", "table1", "Z9", "--max-len", "3"]) == EXIT_USAGE
    assert main(["sweep", "span", "Z9", "--max-len", "3"]) == EXIT_USAGE


def test_sweep_span_and_connectivity(capsys):
    assert main(["sweep", "span", "B2", "--max-len", "4"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["type"] == "B2" and rep["mode"] == "span"
    assert rep["words"] == 31 and rep["lengths"] == [3, 4]
    assert main(["sweep", "connectivity", "A2~", "--max-len", "6",
                 "--samples", "20", "--seed", "7", "--jobs", "2"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["words"] == 20 and rep["failures"] == []
    assert main(["sweep", "table1", "A1", "--samples", "5"]) == EXIT_USAGE


def test_bad_spec_file(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["graph", "--spec", missing, "--out",
                 str(tmp_path / "o")]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["graph", "--spec", str(bad), "--out",
                 str(tmp_path / "o")]) == EXIT_USAGE


def test_spec_without_matrix_or_type(tmp_path):
    spec = write_spec(tmp_path, expression=[])
    assert main(["graph", "--spec", spec, "--out",
                 str(tmp_path / "o")]) == EXIT_USAGE


def test_infinite_entries_and_type_spec(tmp_path):
    spec = write_spec(tmp_path,
                      coxeter_matrix=[[1, "inf"], ["inf", 1]],
                      expression=["s1", "s2", "s1"])
    out = tmp_path / "o"
    assert main(["graph", "--spec", spec, "--out", str(out)]) == EXIT_OK
    spec2 = write_spec(tmp_path, name="t.json", type="A2",
                       expression=["s1", "s2"])
    assert main(["graph", "--spec", spec2, "--out",
                 str(tmp_path / "o2")]) == EXIT_OK


def test_max_len_guard_and_eps_override(tmp_path):
    spec = write_spec(tmp_path,
                      coxeter_matrix=[[1, 3], [3, 1]],
                      expression=["s1", "s2", "s1", "s2"])
    assert main(["graph", "--spec", spec, "--max-len", "2",
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    # the tolerance is fixed: neither a spec key nor a flag may set it
    eps = coxeter.EPS
    with_eps = write_spec(tmp_path, name="eps.json",
                          coxeter_matrix=[[1, 3], [3, 1]],
                          expression=["s1", "s2"], eps=1e-8)
    assert main(["graph", "--spec", with_eps,
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--spec", spec, "--eps", "1e-8",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == EXIT_USAGE
    assert coxeter.EPS == eps


@pytest.mark.parametrize("data", [
    {"coxeter_matrix": [[1, 3], [4, 1]], "expression": ["s1"]},
    {"type": "Z9", "expression": []},
    {"type": "A2", "expression": ["s1", "s2"] * 13},
    {"type": "A0", "expression": []},
    {"type": "B1", "expression": []},
    {"type": "Dn", "rank": 2, "expression": []},
], ids=["non-symmetric", "unknown-type", "too-long", "A0", "B1", "Dn-rank2"])
def test_bad_input_exits_usage(tmp_path, capsys, data):
    spec = write_spec(tmp_path, **data)
    assert main(["verify", "span", "--spec", spec,
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["graph"], ["verify", "connectivity"],
                                     ["verify", "span"],
                                     ["verify", "decompose"]],
                         ids=["graph", "connectivity", "span", "decompose"])
def test_unrealized_target_exits_usage(tmp_path, capsys, command):
    # s1 s2 is no subexpression of (s1): no graph is certified
    spec = write_spec(tmp_path, type="A2", expression=["s1"],
                      target=["s1", "s2"])
    assert main(command + ["--spec", spec,
                           "--out", str(tmp_path / "o")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o" / "report.json").exists()
    assert not (tmp_path / "o").exists()       # --out is made after the build


@pytest.mark.parametrize("argv", [
    ["span", "B2", "--samples", "5", "--max-len", "0"],
    ["span", "B2", "--max-len", "-1"],
    ["span", "B2", "--samples", "-3"],
    ["connectivity", "B2", "--samples", "0"],
    ["table1", "B2", "--max-len", "-1"],
    ["span", "B2", "--jobs", "0"],
    ["table1", "A1", "--jobs", "-2"],
    ["connectivity", "Bn", "--rank", "1"],
    ["span", "Dn", "--rank", "2"],
], ids=["samples-max-len-0", "max-len-neg", "samples-neg", "samples-0",
        "table1-max-len-neg", "jobs-0", "table1-jobs-neg", "Bn-rank1",
        "Dn-rank2"])
def test_bad_sweep_numbers_exit_usage(monkeypatch, capsys, argv):
    # rejected before any word is checked, so no worker process starts
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(sweeps, "run_sweep", refuse)
    monkeypatch.setattr(sweeps, "table1_report", refuse)
    assert main(["sweep"] + argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
