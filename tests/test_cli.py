import io
import re
import sys

import pytest

from domlab import cli
from domlab.family_spec import family_graph
from domlab.graphs import complete
from domlab.predicates import is_ktrdp, is_ktrds
from domlab.solver import (DominationQuery, domatic_exact, gamma_exact,
                           gamma_naive)
from domlab.verify import CSV_COLUMNS, SweepConfig, run_sweep, write_csv


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_family(capsys):
    code, out, _ = run(["gamma", "--family", "prism:cycle:6", "--k", "2",
                        "--variant", "restrained"], capsys)
    assert code == 0
    assert "gamma = 8" in out


def test_gamma_certificate_one_based(capsys):
    code, out, _ = run(["gamma", "--family", "complete:6", "--certificate"],
                       capsys)
    assert code == 0
    assert "{1, 2}" in out


def test_gamma_certificate_kernel_and_naive(capsys):
    # the kernel prints the optimal set its search finds, the oracle the
    # first one in subset order
    code, out, _ = run(["gamma", "--family", "prism:cycle:6", "--k", "1",
                        "--certificate"], capsys)
    assert code == 0 and "gamma = 4 " in out
    assert "certificate: {2, 5, 8, 11}" in out
    # the printed set, 0-based
    assert is_ktrds(family_graph("prism:cycle:6"), {1, 4, 7, 10}, 1)
    code, out, _ = run(["gamma", "--family", "prism:cycle:6", "--k", "1",
                        "--naive", "--certificate"], capsys)
    assert code == 0 and "gamma = 4 " in out
    assert "certificate: {1, 4, 7, 10}" in out


def test_gamma_infeasible_exit_2(capsys):
    code, out, _ = run(["gamma", "--family", "cycle:5", "--k", "3"], capsys)
    assert code == 2
    assert "infeasible" in out


def test_domatic(capsys):
    code, out, _ = run(["domatic", "--family", "complete:6"], capsys)
    assert code == 0 and out == "domatic = 3  (k=1)\n"
    code, out, _ = run(["domatic", "--family", "cycle:5", "--k", "2"], capsys)
    assert code == 0 and "domatic = 1" in out


def test_domatic_certificate_is_a_ktrdp(capsys):
    code, out, _ = run(["domatic", "--family", "prism:cycle:6",
                        "--certificate"], capsys)
    assert code == 0 and out.startswith("domatic = 3  (k=1)\n")
    classes = re.findall(r"^class (\d+): \{([\d, ]+)\}$", out, re.M)
    assert [i for i, _ in classes] == ["1", "2", "3"]
    # the printed classes, 0-based
    part = [{int(v) - 1 for v in members.split(", ")} for _, members in classes]
    assert is_ktrdp(family_graph("prism:cycle:6"), part, 1)


def test_domatic_infeasible_exit_2(capsys):
    code, out, _ = run(["domatic", "--family", "cycle:5", "--k", "3"], capsys)
    assert code == 2
    assert out == "infeasible: min degree 2 < k=3\n"


def test_domatic_takes_no_variant(capsys):
    # every kTDP is a kTRDP, so there is one domatic number
    code, out, err = run(["domatic", "--family", "complete:6", "--variant",
                          "total"], capsys)
    assert code == 1 and out == ""
    assert "unrecognized arguments: --variant total" in err


def test_domatic_rejects_k_0(capsys):
    code, out, err = run(["domatic", "--family", "complete:6", "--k", "0"],
                         capsys)
    assert code == 1 and out == ""
    assert "k must be >= 1" in err


STATS = re.compile(r"^stats: (nodes|subsets)=(\d+) elapsed=\d+\.\d{3} ms$",
                   re.M)


@pytest.mark.parametrize("argv, work", [([], "nodes"), (["--naive"], "subsets")])
def test_gamma_stats(capsys, argv, work):
    g = family_graph("prism:cycle:6")
    solve = gamma_naive if argv else gamma_exact
    want = solve(DominationQuery(g, 2)).nodes_explored
    code, out, _ = run(["gamma", "--family", "prism:cycle:6", "--k", "2",
                        "--stats"] + argv, capsys)
    assert code == 0 and "gamma = 8" in out
    assert STATS.findall(out) == [(work, str(want))]
    code, out, _ = run(["gamma", "--family", "prism:cycle:6", "--k", "2"],
                       capsys)
    assert not STATS.findall(out)


def test_domatic_stats(capsys):
    want = domatic_exact(complete(6), 1).nodes_explored
    code, out, _ = run(["domatic", "--family", "complete:6", "--stats"],
                       capsys)
    assert code == 0 and "domatic = 3" in out
    assert STATS.findall(out) == [("nodes", str(want))]


def test_construct_petersen(capsys, tmp_path):
    out_file = tmp_path / "g.edges"
    code, _, _ = run(["construct", "prism:cycle:5", "-o", str(out_file)],
                     capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "10 15"
    assert len(lines) == 16


def test_usage_error_exit_1(capsys):
    code, _, err = run(["gamma", "--family", "bogus:9"], capsys)
    assert code == 1
    assert "bogus" in err
    code, _, _ = run(["gamma"], capsys)
    assert code == 1


def test_gamma_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("4 4\n0 1\n1 2\n2 3\n3 0\n"))
    code, out, _ = run(["gamma", "--input", "-", "--k", "1"], capsys)
    assert code == 0 and "gamma = 2" in out


def test_gamma_input_file_from_construct(capsys, tmp_path):
    path = tmp_path / "prism6.edges"
    code, _, _ = run(["construct", "prism:cycle:6", "-o", str(path)], capsys)
    assert code == 0
    code, out, _ = run(["gamma", "--input", str(path), "--k", "2"], capsys)
    assert code == 0 and "gamma = 8" in out


@pytest.mark.parametrize("spec", ["kpartite:2,,2", "bipartite:3,3,",
                                  "kpartite:,2,2,2"])
def test_construct_empty_list_item_exit_1(capsys, spec):
    code, out, err = run(["construct", spec], capsys)
    assert code == 1 and out == ""
    assert repr(spec.split(":")[1]) in err


def test_naive_flag_matches_kernel(capsys):
    code1, out1, _ = run(["gamma", "--family", "cycle:9"], capsys)
    code2, out2, _ = run(["gamma", "--family", "cycle:9", "--naive"], capsys)
    assert code1 == code2 == 0
    assert out1.split("(")[0] == out2.split("(")[0]


def test_verify_sections_csv(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, _, err = run(["verify-paper", "--sections", "cycles", "complete",
                        "--out", str(out_file)], capsys)
    assert code == 0
    header = out_file.read_text().splitlines()[0]
    assert header == ("instance,family,n,k,variant,solver,formula,"
                      "applicable,match,witness,runtime_ms")


def test_verify_prisms_reports_refutations(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, _, err = run(["verify-paper", "--sections", "prisms",
                        "--out", str(out_file)], capsys)
    # stated prism values contradicted by solver+oracle: honest exit 3
    assert code == 3
    assert "DISCREPANCY" in err
    assert "confirmed by independent oracle" in err


def test_verify_unknown_section(capsys):
    code, _, err = run(["verify-paper", "--sections", "nope"], capsys)
    assert code == 1


def test_verify_bare_sections_flag_exit_1(capsys):
    # a bare --sections names no section; it does not mean "all"
    code, out, err = run(["verify-paper", "--sections"], capsys)
    assert code == 1
    assert out == ""
    assert "argument --sections: expected at least one argument" in err


def test_verify_repeated_section(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, _, err = run(["verify-paper", "--sections", "complete", "cycles",
                        "complete", "--out", str(out_file)], capsys)
    assert code == 1
    assert "repeated sections: ['complete']" in err
    assert not out_file.exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_construct_kjoin_rejects_k_below_1(capsys, k):
    code, out, err = run(["construct", f"kjoin:cycle:4:complete:2:k={k}"],
                         capsys)
    assert code == 1
    assert out == "" and "1 <= k <= n(H)" in err


def test_guard_env_ignored_by_verify_honoured_by_gamma(capsys, monkeypatch,
                                                      tmp_path):
    monkeypatch.setenv("DOMLAB_GUARD_N", "9")
    # the sweep's sizes are fixed: a low cap neither skips rows nor hides
    # the three refutations
    code, _, err = run(["verify-paper", "--sections", "prisms",
                        "--out", str(tmp_path / "report.csv")], capsys)
    assert code == 3
    assert err.count("DISCREPANCY") == 3
    for inst in ("prism:cycle:5|k=2|gamma-t", "prism:path:8|k=1|gamma-r",
                 "prism:path:8|k=1|gamma-t"):
        assert f"DISCREPANCY {inst}:" in err
    code, _, err = run(["gamma", "--family", "cycle:12"], capsys)
    assert code == 1
    assert "DOMLAB_GUARD_N" in err


@pytest.mark.parametrize("argv, cap", [(["gamma", "--naive"], "naive_n=9"),
                                       (["domatic"], "domatic_n=9")])
def test_guard_env_honoured_by_naive_and_domatic(capsys, monkeypatch, argv,
                                                  cap):
    monkeypatch.setenv("DOMLAB_GUARD_N", "9")
    code, out, err = run(argv + ["--family", "cycle:12"], capsys)
    assert code == 1 and out == ""
    assert "DOMLAB_GUARD_N" in err and cap in err


def test_verify_markdown_rows_match_header(capsys, tmp_path):
    out_file = tmp_path / "report.md"
    code, _, _ = run(["verify-paper", "--sections", "complete", "--format",
                      "markdown", "--out", str(out_file)], capsys)
    assert code == 0
    table = [ln for ln in out_file.read_text().splitlines()
             if ln.startswith("|")]
    # instance ids contain "|", which a cell must escape
    widths = {len(re.split(r"(?<!\\)\|", ln)) for ln in table}
    assert len(table) > 2 and widths == {len(re.split(r"\|", table[0]))}


@pytest.mark.parametrize("flag", ["--oracle-random", "--property-random"])
def test_verify_rejects_negative_random_count(capsys, flag):
    code, _, err = run(["verify-paper", "--sections", "complete", flag, "-3"],
                       capsys)
    assert code == 1
    assert f"argument {flag}" in err and "'-3'" in err


def test_verify_rejects_non_integer_random_count(capsys):
    code, out, err = run(["verify-paper", "--sections", "complete",
                          "--oracle-random", "abc"], capsys)
    assert code == 1 and out == ""
    assert "argument --oracle-random" in err and "'abc'" in err


def sweep_csv(**config) -> str:
    buf = io.StringIO()
    write_csv(run_sweep(SweepConfig(**config)), buf)
    return buf.getvalue()


def test_verify_defaults_are_sweep_config_defaults(capsys):
    sections = ("oracle", "properties")
    code, out, _ = run(["verify-paper", "--sections", *sections], capsys)
    assert code == 0
    assert out == sweep_csv(sections=sections)
    assert len(out.splitlines()) > 2500


@pytest.mark.parametrize("flag, field, section", [
    ("--seed", "seed", "properties"),
    ("--oracle-random", "oracle_random", "oracle"),
    ("--property-random", "property_random", "properties")])
def test_verify_honours_explicit_zero(capsys, flag, field, section):
    # seed 0 draws property graphs on which a property row fails (exit 3)
    _, out, _ = run(["verify-paper", "--sections", section, flag, "0"],
                    capsys)
    assert out == sweep_csv(sections=(section,), **{field: 0})
    assert out != sweep_csv(sections=(section,))


def test_verify_property_random_zero_leaves_the_header(capsys):
    code, out, _ = run(["verify-paper", "--sections", "properties",
                        "--property-random", "0"], capsys)
    assert code == 0
    assert out.splitlines() == [",".join(CSV_COLUMNS)]
