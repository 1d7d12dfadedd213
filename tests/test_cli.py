"""End-to-end tests for the command-line interface.

Everything runs in-process through ``cli.main`` so exit codes and
stdout/stderr splits are observable without spawning subprocesses; the
exceptions rerun the verify report under ``python -O`` and run the
package as ``python -m permpaths``.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from permpaths import cli, formulas, oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- count -------------------------------------------------------------------


def test_python_m_permpaths_runs_the_cli():
    def run_m(*argv):
        return subprocess.run([sys.executable, "-m", "permpaths", *argv],
                              capture_output=True, text=True, timeout=60)

    ok = run_m("count", "--family", "p321-1", "--n", "5")
    assert (ok.returncode, ok.stdout) == (0, "27\n"), ok.stderr
    assert run_m("count", "--family", "p999-1", "--n", "5").returncode == 2


def test_count_formula(capsys):
    code, out, err = run(capsys, "count", "--family", "p321-2", "--n", "6")
    assert code == 0
    assert out == "133\n"


def test_count_both(capsys):
    code, out, err = run(
        capsys, "count", "--family", "p321-2", "--n", "6", "--mode", "both"
    )
    assert code == 0
    assert out == "133 / 133 / match\n"


def test_count_unknown_family(capsys):
    code, out, err = run(capsys, "count", "--family", "p999", "--n", "6")
    assert code == 2
    assert "unknown family" in err
    assert "p321-1" in err  # the known list is offered


def test_count_oracle_over_cap(capsys):
    code, out, err = run(
        capsys, "count", "--family", "p321-1", "--n", "12", "--mode", "oracle"
    )
    assert code == 3
    assert "resource limit" in err


def test_count_size_cap(capsys):
    """Every family prints its count at the cap (under Python's digit
    limit for int-to-str), and the size past it exits 3."""
    for family in sorted(formulas.FORMULAS):
        code, out, err = run(capsys, "count", "--family", family, "--n", str(cli.MAX_COUNT_N))
        assert code == 0 and out.strip().isdigit(), family
        code, out, err = run(capsys, "count", "--family", family, "--n", str(cli.MAX_COUNT_N + 1))
        assert code == 3 and out == "" and "resource limit" in err, family


def test_count_bad_n(capsys):
    for n in ("0", "-5"):
        for mode in ("formula", "oracle", "both"):
            code, out, err = run(capsys, "count", "--family", "p321-1", "--n", n, "--mode", mode)
            assert code == 2 and out == "", (n, mode)
            assert f"n must be a positive integer: {n}" in err, (n, mode)


def test_count_mismatch_exits_5(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "oracle_count", lambda family, n: 999)
    code, out, err = run(
        capsys, "count", "--family", "p321-2", "--n", "6", "--mode", "both"
    )
    assert code == 5
    assert "MISMATCH" in out


# -- biject ------------------------------------------------------------------


def test_biject_records(capsys):
    code, out, err = run(
        capsys, "biject", "--name", "kratt", "--input", "2 1 4 7 3 5 6"
    )
    assert code == 0
    assert out == "UUDDUUDUUUDDDD\n"


def test_biject_records_inverse(capsys):
    code, out, err = run(
        capsys, "biject", "--name", "kratt-inv", "--input", "UUDDUUDUUUDDDD"
    )
    assert code == 0
    assert out == "2 1 4 7 3 5 6\n"


def test_biject_roundtrip_flag(capsys):
    code, out, err = run(
        capsys, "biject", "--name", "kratt", "--input", "2 1 4 7 3 5 6",
        "--roundtrip",
    )
    assert code == 0
    assert "roundtrip: ok" in err


def test_biject_domain_violation_names_predicate(capsys):
    code, out, err = run(capsys, "biject", "--name", "kratt", "--input", "3 2 1")
    assert code == 4
    assert "domain violation [avoids-321]" in err


def test_biject_phi_requires_width(capsys):
    code, out, err = run(capsys, "biject", "--name", "phi", "--input", "2 1 3 4 5")
    assert code == 2
    assert "--i" in err


def test_biject_phi(capsys):
    code, out, err = run(
        capsys, "biject", "--name", "phi", "--input", "2 1 3 4 5", "--i", "2",
        "--roundtrip",
    )
    assert code == 0
    assert out == "2 1 3 5 4\n"


def test_biject_width_rejected_elsewhere(capsys):
    code, out, err = run(
        capsys, "biject", "--name", "kratt", "--input", "1 2", "--i", "2"
    )
    assert code == 2


def test_biject_decomposition_json(capsys):
    code, out, err = run(capsys, "biject", "--name", "one321", "--input", "3 2 1")
    assert code == 0
    assert json.loads(out) == {"rho": [2, 1], "sigma": [2, 1]}


def test_biject_two321_distinct(capsys):
    code, out, err = run(
        capsys, "biject", "--name", "two321-k", "--input", "4 2 3 1"
    )
    assert code == 0
    assert json.loads(out) == {"rho": [3, 2, 1], "sigma": [2, 1]}


def test_biject_two321_shared(capsys):
    code, out, err = run(
        capsys, "biject", "--name", "two321-b", "--input", "3 4 2 1 5",
        "--roundtrip",
    )
    assert code == 0
    assert json.loads(out) == {"rho": [2, 3, 1], "sigma": [2, 3, 1, 4]}


def test_biject_adjacent_json_param(capsys):
    code, out, err = run(capsys, "biject", "--name", "lemma11", "--input", "2 4 3 1")
    assert code == 0
    assert json.loads(out) == {"rho": [2, 1], "param": 1}


# -- enumerate ---------------------------------------------------------------


def test_enumerate_one_inversion(capsys):
    code, out, err = run(
        capsys, "enumerate", "--n", "3", "--filter", "pattern(2 1)==1"
    )
    assert code == 0
    assert out.splitlines() == ["1 3 2", "2 1 3"]


def test_enumerate_preset(capsys):
    code, out, err = run(
        capsys, "enumerate", "--n", "4", "--filter-preset", "last2up"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert all(int(l.split()[-2]) < int(l.split()[-1]) for l in lines)


def test_enumerate_preset_and_filter_conjoin(capsys):
    code, out, err = run(
        capsys, "enumerate", "--n", "4", "--filter-preset", "last2up",
        "--filter", "pattern(3 2 1)==1",
    )
    assert code == 0
    assert out.splitlines() == ["3 2 1 4", "4 2 1 3"]


def test_enumerate_dyck_bounded(capsys):
    code, out, err = run(
        capsys, "enumerate", "--n", "3", "--kind", "dyck",
        "--filter", "height<=2",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert "UUUDDD" not in lines


def test_enumerate_kind_mismatch(capsys):
    code, out, err = run(
        capsys, "enumerate", "--n", "3", "--filter", "height<=2"
    )
    assert code == 2
    assert "use --kind dyck" in err
    code, out, err = run(
        capsys, "enumerate", "--n", "3", "--kind", "dyck",
        "--filter", "first>=2",
    )
    assert code == 2
    assert "use --kind perm" in err


def test_enumerate_parse_error_positions(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "3", "--filter", "bogus")
    assert code == 2
    assert "position 0" in err
    code, out, err = run(
        capsys, "enumerate", "--n", "3",
        "--filter", "pattern(2 1)==1 && bogus",
    )
    assert code == 2
    assert "position 19" in err


# sha256 of stdout and the row count, recorded from the per-row predicates
# the filters replaced; any change to row content or order fails here
GOLDEN_ENUMERATE = [
    (
        ("--n", "7", "--filter", "pattern(3 2 1)==1"),
        429, "b88c87dd395f1773ea724a221f826be10f6b5b6646bca58515dc92aace4ae857",
    ),
    (
        ("--n", "6", "--filter", "pattern(1 3 2 4)==1 && first>=2"),
        61, "8f962a0077b5e24d95bd47847ec387f5ed3c9d28b6cccb96220d21ad8e79f80e",
    ),
    (
        ("--n", "6", "--filter", "first>=4"),
        360, "7a0b321fe9094677028bf42e40825917a6cec73c4dce5e0decaefb305ee13133",
    ),
    (
        ("--n", "6", "--filter", "last_inc(3) && pos_of_max<=4"),
        60, "51526c4c2060a93ea8491a33e3c3609a3e33b4c753856d71c1f92a1487958934",
    ),
    (
        ("--n", "7", "--filter-preset", "last2up", "--filter", "pattern(3 2 1)==2"),
        371, "2f2b7aac997b79cd9d43e17b1fb017d7f78882848947657a7621ed9f365154d8",
    ),
    (
        ("--n", "5"),
        120, "2ac3a09c1eea6867dea9b4505180cb83d6c187f2b693a233a14304405d182256",
    ),
    (
        ("--n", "0"),
        1, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    ),
    (
        ("--kind", "dyck", "--n", "7"),
        429, "eb691e5abfdff08b157834f69217375bc6a98f2d4d35a31743dcf6dab91572d9",
    ),
    (
        ("--kind", "dyck", "--n", "8", "--filter", "height<=3"),
        610, "c457c136131f8b9f12df45b589579adb95441d1aceadfcc883bfd8d54ff23d33",
    ),
    (
        ("--kind", "dyck", "--n", "0", "--filter", "height<=0"),
        1, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    ),
]


@pytest.mark.parametrize(
    "argv, rows, digest", GOLDEN_ENUMERATE, ids=[" ".join(a) for a, _, _ in GOLDEN_ENUMERATE]
)
def test_enumerate_golden_output(capsys, argv, rows, digest):
    code, out, err = run(capsys, "enumerate", *argv)
    assert code == 0
    assert out.count("\n") == rows
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- table -------------------------------------------------------------------


def test_table_csv(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_PERM_N", 3)
    code, out, err = run(
        capsys, "table", "--family", "simion-schmidt", "--nmax", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,family,formula,oracle,match"
    assert lines[1] == "1,simion-schmidt,1,1,true"
    assert lines[3] == "3,simion-schmidt,4,4,true"
    assert lines[4] == "4,simion-schmidt,8,,"
    assert lines[5] == "5,simion-schmidt,16,,"


def test_table_json(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_PERM_N", 3)
    code, out, err = run(
        capsys, "table", "--family", "p321-1", "--nmax", "4", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[2] == {
        "n": 3, "family": "p321-1", "formula": 1, "oracle": 1, "match": True
    }
    assert rows[3]["oracle"] is None and rows[3]["match"] is None


def test_table_mismatch_exits_5(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "oracle_count", lambda family, n: 0)
    code, out, err = run(capsys, "table", "--family", "p132-1", "--nmax", "3")
    assert code == 5
    assert "false" in out


def test_table_unknown_family(capsys):
    code, out, err = run(capsys, "table", "--family", "nope", "--nmax", "3")
    assert code == 2


def test_table_size_cap(capsys):
    nmax = str(cli.MAX_COUNT_N + 1)
    code, out, err = run(capsys, "table", "--family", "p132-1", "--nmax", nmax, "--format", "json")
    assert code == 3 and out == "" and "resource limit" in err
    for nmax in ("0", "-3"):
        for fmt in ("csv", "json"):
            code, out, err = run(capsys, "table", "--family", "p132-1", "--nmax", nmax, "--format", fmt)
            assert code == 2 and out == "", (nmax, fmt)
            assert f"n must be a positive integer: {nmax}" in err, (nmax, fmt)


# -- verify ------------------------------------------------------------------


def test_verify_series_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "series", "--nmax", "2")
    assert code == 0
    assert "[pass]" in out
    assert "0 failed" in out


# sha256 of the whole report: a refactor of the checks must leave every
# check name and detail line as it is
VERIFY_ALL_NMAX7_SHA256 = "0ffa1ea5ffe867eb41da8ad51758a16999e6eeb1c1324f7565d7b2433f8cbb26"


def test_verify_all_golden_output(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--nmax", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_NMAX7_SHA256


def test_verify_all_golden_output_under_python_O():
    """With asserts stripped every check still runs and passes."""
    code = "import sys; from permpaths import cli; sys.exit(cli.main(sys.argv[1:]))"
    run = subprocess.run(
        [sys.executable, "-O", "-c", code, "verify", "--suite", "all", "--nmax", "7"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == VERIFY_ALL_NMAX7_SHA256


def test_verify_reports_failures(capsys, monkeypatch):
    from permpaths import verify as verify_mod

    def broken(nmax):
        raise verify_mod.VerificationError("forced failure for the test")

    monkeypatch.setitem(
        verify_mod._CHECKS, "series", [("bounded-height", broken)]
    )
    code, out, err = run(capsys, "verify", "--suite", "series", "--nmax", "2")
    assert code == 5
    assert "[FAIL]" in out


def test_verify_nmax_cap(capsys):
    from permpaths import verify as verify_mod

    code, out, err = run(
        capsys, "verify", "--suite", "series", "--nmax", str(verify_mod.MAX_NMAX + 1)
    )
    assert code == 3
    assert "resource limit" in err and out == ""


def test_verify_rejects_bool_nmax(capsys, monkeypatch):
    from permpaths import verify as verify_mod

    real = verify_mod.run_suite
    # argparse only yields ints, so hand run_suite the bool a caller could pass
    monkeypatch.setattr(verify_mod, "run_suite", lambda suite, nmax: real(suite, nmax == 1))
    code, out, err = run(capsys, "verify", "--suite", "series", "--nmax", "1")
    assert code == 2
    assert "nmax must be an integer" in err


# -- output redirection ------------------------------------------------------


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, err = run(
        capsys, "count", "--family", "p321-2", "--n", "6", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "133\n"
