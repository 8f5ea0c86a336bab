"""Command-line interface: subcommand wiring, formats, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import dlknot

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlknot import essential_count, important_subsets, parse
from dlknot.cli import main
from dlknot.moves import ALL_KINDS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInvariants:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "invariants", "U1+ D+ D+ O1+ D+")
        assert code == 0
        assert "degree: 3" in out and "essential_count: 3" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "invariants", "U1+ D+ D+ O1+ D+", "--json")
        rec = json.loads(out)
        assert rec["degree"] == 3 and rec["crossings"] == 1

    def test_no_essential(self, capsys):
        _, out, _ = run(capsys, "invariants", "U1+ O1+", "--no-essential", "--json")
        assert json.loads(out)["essential_count"] is None

    def test_bad_input(self, capsys):
        code, _, err = run(capsys, "invariants", "wat")
        assert code == 2 and "error" in err

    def test_many_classes(self, capsys):
        # 1,200 lines in 1,200 classes (a class is a sign and a set of
        # winding intervals): the class search stops once nothing is left
        # to remove, instead of recursing through every remaining class.
        word = " ".join(
            [f"U{i}+ D+ D-" for i in range(1, 301)] + [f"O{i}+ D+ D-" for i in range(1, 301)]
        )
        for text, count in [(word, 0), (word + " D+ D+", 2)]:
            assert essential_count(parse(text)) == count
            code, out, _ = run(capsys, "invariants", text, "--json")
            assert code == 0 and json.loads(out)["essential_count"] == count

    def test_class_per_line(self, capsys):
        # One class per line, and every class is needed: the class search
        # goes 1,200 classes deep without recursing.
        text = " ".join(f"U{i}+ D+ O{i}+" for i in range(1, 1201))
        d = parse(text)
        assert essential_count(d) == 1200
        assert important_subsets(d, limit=1)[0].cardinality == 1200
        code, out, _ = run(capsys, "invariants", text, "--json")
        assert code == 0 and json.loads(out)["essential_count"] == 1200


class TestProjectionCommands:
    def test_project_fixed_point(self, capsys):
        text = "U1+ D+ D- O1+"
        code, out, _ = run(capsys, "project", text)
        assert code == 0 and out.strip() == text

    def test_strip(self, capsys):
        _, out, _ = run(capsys, "strip", "U1+ D+ D+ O1+ D+")
        assert out.strip() == "U1+ O1+"

    def test_remove_with_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.txt"
        code, out, _ = run(
            capsys, "remove", "U1+ D- O1+ D+", "--trace-file", str(trace)
        )
        assert code == 0 and "D" not in out.splitlines()[0]
        code2, out2, _ = run(capsys, "replay", str(trace))
        assert code2 == 0 and out2.splitlines()[0] == out.splitlines()[0]


class TestTables:
    def test_catalog_tsv(self, capsys):
        code, out, _ = run(capsys, "catalog", "4")
        assert code == 0 and len(out.strip().splitlines()) == 2

    def test_catalog_json(self, capsys):
        _, out, _ = run(capsys, "catalog", "3", "--json")
        rows = json.loads(out)
        assert len(rows) == 2 and all(r["degree"] == 3 for r in rows)

    def test_stretch(self, capsys):
        code, out, _ = run(capsys, "stretch", "1", "3", "2")
        assert code == 0 and len(out.strip().splitlines()) == 3

    def test_link_family(self, capsys):
        _, out, _ = run(capsys, "link-family", "3", "--json")
        assert [r["essential_count"] for r in json.loads(out)] == [2, 4, 6]


class TestLinks:
    def test_convert(self, capsys):
        _, out, _ = run(capsys, "link-convert", "U1+ C+ C- O1+")
        assert out.strip() == "U1+ D+ D- O1+"

    def test_separable_yes(self, capsys, tmp_path):
        cert = tmp_path / "c.txt"
        code, out, _ = run(
            capsys, "link-separable", "U1+ C- O1+ C+", "--certificate", str(cert)
        )
        assert code == 0 and "separable" in out
        assert cert.exists()

    def test_certificate_replays(self, capsys, tmp_path):
        # Crossing ids out of first-occurrence order: the certificate's
        # crossing steps must still name the right crossings on replay.
        cert = tmp_path / "c.txt"
        code, _, _ = run(
            capsys, "link-separable", "U2+ C- U1+ O2+ O1+ C+", "--certificate", str(cert)
        )
        assert code == 0
        code, out, err = run(capsys, "replay", str(cert))
        assert code == 0 and err == "" and "D" not in out

    def test_separable_no(self, capsys):
        code, out, _ = run(capsys, "link-separable", "U1+ C+ C+ O1+ C- C-")
        assert code == 1 and "parity 2" in out


class TestSearchAndApply:
    def test_search_hit(self, capsys, tmp_path):
        trace = tmp_path / "s.txt"
        code, _, _ = run(
            capsys,
            "search",
            "U1+ D+ O1+ D-",
            "U1+ D+ O1+ D- D+ D-",
            "--max-moves",
            "2",
            "--trace-file",
            str(trace),
        )
        assert code == 0
        code2, out2, _ = run(capsys, "replay", str(trace))
        assert code2 == 0 and "D" in out2

    def test_search_miss_exit_code(self, capsys):
        code, out, _ = run(capsys, "search", "U1+ O1+", "D+", "--max-moves", "1")
        assert code == 1 and "not found" in out

    def test_search_restricted_kinds(self, capsys):
        code, _, _ = run(
            capsys,
            "search",
            "U1+ D+ O1+ D-",
            "U1+ D+ O1+ D- D+ D-",
            "--kinds",
            "DlPairAdd5",
        )
        assert code == 0

    def test_search_both_from_stdin(self, capsys, monkeypatch):
        # One stdin cannot hold both words; the second read would be empty.
        monkeypatch.setattr("sys.stdin", io.StringIO("U1+ O1+"))
        code, out, err = run(capsys, "search", "-", "-", "--max-moves", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "stdin" in err

    def test_search_bad_kind(self, capsys):
        # An empty list names the kind '', which is bad input like any
        # other; of two unknown kinds the least is named.
        for kinds, name in (("Nope", "Nope"), ("", ""), (",", ""), ("Nope,Zed", "Nope")):
            code, out, err = run(capsys, "search", "U1+ O1+", "U1+ O1+", "--kinds", kinds)
            assert code == 2 and out == "", kinds
            assert err == f"error: unknown move kind {name!r}\n", kinds

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["essential", "U1+ D+ O1+ D-", "--limit", "0"], "limit must be at least 1"),
            (["essential", "U1+ D+ O1+ D-", "--limit", "-3"], "limit must be at least 1"),
            (["search", "U1+ O1+", "U1+ O1+", "--max-moves", "-1"], "max_moves=-1"),
            (["search", "U1+ O1+", "D+ D-", "--max-len", "-1"], "max_len=-1"),
        ],
        ids=["limit-zero", "limit-negative", "max-moves-negative", "max-len-negative"],
    )
    def test_bad_bounds(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    def test_apply(self, capsys):
        code, out, _ = run(
            capsys, "apply", "U1+ O1+", "CrossingSliding crossing_id=1 direction=1"
        )
        assert code == 0 and out.count("D") == 4

    @pytest.mark.parametrize(
        "diagram, move, message",
        [
            ("U1+ O1+", "CrossingSliding crossing_id=1", "missing parameter"),
            ("U1+ O1+", "R1Add kind=3", "missing parameter"),
            ("", "R1Remove pos=0", "out of range"),
            ("", "DlSlide4 pos=0", "out of range"),
            ("", "DlPairCancel5 pos=0", "out of range"),
            ("", "R2Remove pos1=0 pos2=0", "out of range"),
            ("U1+ O1+", "CrossingSliding crossing_id=9 direction=1", "unknown crossing"),
            ("U1+ O1+", "Nope pos=0", "unknown move kind 'Nope'"),
            ("U1+ O1+", "DlPairAdd5 pos=9 pos=0 sign=1", "repeated move parameter"),
            ("U1+ O1+", "DlPairAdd5 pos=0 pos=x sign=1", "repeated move parameter"),
            # Integers only as to_line writes them.
            ("U1+ O1+", "DlPairAdd5 pos=0_1 sign=1", "out of range"),
            ("U1+ O1+", "DlPairAdd5 pos=\u0663 sign=1", "out of range"),
            ("U1+ O1+", "DlPairAdd5 pos=0 sign=+1", "bad DlPairAdd5 sign"),
            ("U1+ O1+", "DlPairAdd5 pos=0 sign=1_0", "bad DlPairAdd5 sign"),
            ("U1+ O1+", "DlPairAdd5 pos=0 sign=1 foo=3", "takes no parameter 'foo'"),
            ("U1+ O1+", "DlPairAdd5 =3 pos=0 sign=1", "takes no parameter ''"),
            ("U1+ O1+", "R1Remove pos=0 order=UO", "takes no parameter 'order'"),
        ],
        ids=[
            "missing-parameter",
            "kind-parameter",
            "R1Remove-empty",
            "DlSlide4-empty",
            "DlPairCancel5-empty",
            "R2Remove-empty",
            "unknown-crossing",
            "unknown-kind",
            "repeated-parameter",
            "repeated-parameter-mixed-values",
            "underscore-position",
            "arabic-indic-position",
            "plus-sign",
            "underscore-sign",
            "extra-parameter",
            "empty-parameter-name",
            "parameter-of-another-kind",
        ],
    )
    def test_apply_bad_move(self, capsys, diagram, move, message):
        code, out, err = run(capsys, "apply", diagram, move)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize(
        "content, message",
        [
            ("{}", "trace JSON"),
            ('{"start": 5, "steps": []}', "trace start"),
            ('{"start": "U1+ O1+", "steps": {}}', "trace JSON"),
            ('{"start": "U1+ O1+", "steps": [{"kind": "R1Add"}]}', "trace JSON"),
            ('{"start": "U1+ O1+", "steps": [{"kind": 3, "params": {}}]}', "trace JSON"),
            # Both readers refuse an unknown kind at read, before replay.
            ('{"start": "U1+ O1+", "steps": [{"kind": "Nope", "params": {}}]}',
             "error: unknown move kind 'Nope'"),
            ("U1+ O1+\nNope pos=0", "error: unknown move kind 'Nope'"),
            ('{"start": "U1+ O1+", "steps": [{"kind": "R1Add", "params": {"kind": 3}}]}',
             "missing parameter"),
            ("{", "Expecting"),
            ("{bad", "error: bad trace JSON: Expecting property name enclosed in double quotes: "
                     "line 1 column 2 (char 1)\n"),
            ('{"start": "U1+ O1+", "steps": [{"kind": "DlPairAdd5", "params": {"pos": '
             + "1" * 5000 + ', "sign": 1}}]}', "error: bad trace JSON: an integer has too many digits\n"),
            ('{"steps": ' + "[" * 100000 + "]" * 100000 + "}", "nested too deeply"),
            ("", "empty trace"),
            ("U1+ O1+\nR1Add pos", "bad move parameter"),
            ("U1+ O1+\nCrossingSliding crossing_id=9 direction=1", "unknown crossing"),
            ("U1+ O1+\nDlPairAdd5 pos=0 sign=1 pos=2", "repeated move parameter"),
            ('{"start": "U1+ O1+", "steps": [{"kind": "DlPairAdd5", "params": {"pos": true, "sign": true}}]}',
             "integers or text"),
            ('{"start": "U1+ O1+", "steps": [{"kind": "DlPairAdd5", "params": {"pos": 0, "sign": 1.0}}]}',
             "integers or text"),
            ('{"start": "U1+ O1+", "steps": [{"kind": "CrossingChange", "params": {"crossing_id": 1.0}}]}',
             "integers or text"),
            ('{"start": "U1+ O1+", "steps": [{"kind": "R1Add", "params": {"pos": 0, "order": "UO", "sign": -1.0}}]}',
             "integers or text"),
            ('{"start": "U1+ O1+", "steps": [{"kind": "R1Remove", "params": {"pos": 0, "order": "UO"}}]}',
             "takes no parameter 'order'"),
        ],
        ids=[
            "empty-object",
            "start-not-text",
            "steps-not-list",
            "step-without-params",
            "kind-not-text",
            "unknown-kind",
            "unknown-kind-line",
            "kind-parameter",
            "bad-json",
            "bad-json-exact",
            "huge-json-integer",
            "deep-json",
            "empty-file",
            "bad-move-line",
            "unknown-crossing",
            "repeated-parameter",
            "bool-values",
            "float-sign",
            "float-crossing-id",
            "float-sign-into-diagram",
            "parameter-of-another-kind",
        ],
    )
    def test_replay_bad_file(self, capsys, tmp_path, content, message):
        trace = tmp_path / "t"
        trace.write_text(content)
        code, out, err = run(capsys, "replay", str(trace))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


class TestOutputFile:
    def test_output_flag(self, capsys, tmp_path):
        dest = tmp_path / "o.txt"
        code, out, _ = run(capsys, "strip", "U1+ D+ O1+", "--output", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text().strip() == "U1+ O1+"


# (argv, exit code, stdout, stdout with --json in compact form); the trace
# file t.txt holds _TRACE.
_TRACE = "U1+ O1+\nDlPairAdd5 pos=0 sign=1\n"
_EXACT = [
    (
        ["invariants", "U1+ D+ D+ O1+ D+"], 0,
        "degree: 3\ncrossings: 1\ndouble_lines: 3\nparities: 2 mod 3\nessential_count: 3\n",
        '{"degree": 3, "parities": [{"value": 2, "modulus": 3}], "crossings": 1, '
        '"double_lines": 3, "essential_count": 3}',
    ),
    (
        ["project", "U1+ D- O1+ D+"], 0,
        "O1- D- D+ U1- D- D+\n",
        '{"diagram": "O1- D- D+ U1- D- D+"}',
    ),
    (
        ["strip", "U1+ D+ D+ O1+ D+"], 0,
        "U1+ O1+\n",
        '{"diagram": "U1+ O1+"}',
    ),
    (
        ["remove", "U1+ D- O1+ D+"], 0,
        "O1- U1-\n# 3 moves\n",
        '{"result": "O1- U1-", "moves": 3, "trace_file": null}',
    ),
    (
        ["essential", "U1+ D+ O1+ D-"], 0,
        "2\t[1, 3]\t[0]\tessential\n",
        '[{"subset": [1, 3], "cardinality": 2, "residual_parities": [0], "essential": true}]',
    ),
    (
        ["catalog", "3"], 0,
        "0\t3\t1\t3\t3\t0%3\n1\t2\t1\t3\t3\t1%3\n",
        '[{"m": 0, "n": 3, "eps": 1, "degree": 3, "parities": [{"value": 0, "modulus": 3}], '
        '"essential_count": 3}, {"m": 1, "n": 2, "eps": 1, "degree": 3, "parities": '
        '[{"value": 1, "modulus": 3}], "essential_count": 3}]',
    ),
    (
        ["stretch", "1", "3", "1"], 0,
        "1\t2\t1\t3\t-\n4\t-1\t1\t5\t-\n",
        '[{"m": 1, "n": 2, "eps": 1, "essential_count": 3, "parities": []}, {"m": 4, "n": -1,'
        ' "eps": 1, "essential_count": 5, "parities": []}]',
    ),
    (
        ["link-convert", "U1+ C+ C- O1+"], 0,
        "U1+ D+ D- O1+\n",
        '{"diagram": "U1+ D+ D- O1+", "linking_number": 0}',
    ),
    (
        ["link-separable", "U1+ C- O1+ C+"], 0,
        "separable\n",
        '{"separable": true, "obstruction": null, "certificate": null}',
    ),
    (
        ["link-separable", "U1+ C+ C+ O1+ C- C-"], 1,
        "not separable by criterion: crossing 1 has parity 2\n",
        '{"separable": false, "obstruction": {"crossing": 1, "parity": 2}, "certificate": '
        'null}',
    ),
    (
        ["link-family", "2"], 0,
        "1\t0\t2\t1\n2\t0\t4\t2\n",
        '[{"m": 1, "degree": 0, "parities": [{"value": 1, "modulus": 0}], "essential_count": '
        '2}, {"m": 2, "degree": 0, "parities": [{"value": 2, "modulus": 0}], '
        '"essential_count": 4}]',
    ),
    (
        ["search", "U1+ D+ O1+ D-", "U1+ D+ O1+ D- D+ D-", "--max-moves", "2"], 0,
        "DlPairAdd5 pos=0 sign=1\n",
        '{"found": true, "explored": 5, "moves": ["DlPairAdd5 pos=0 sign=1"]}',
    ),
    (
        ["search", "U1+ O1+", "D+", "--max-moves", "1"], 1,
        "not found (explored 0 diagrams)\n",
        '{"found": false, "explored": 0, "moves": null}',
    ),
    (
        ["apply", "U1+ O1+", "CrossingSliding crossing_id=1 direction=1"], 0,
        "D+ U1+ D- D+ O1+ D-\n",
        '{"diagram": "D+ U1+ D- D+ O1+ D-"}',
    ),
    (
        ["replay", "t.txt"], 0,
        "D+ D- U1+ O1+\n",
        '{"diagram": "D+ D- U1+ O1+"}',
    ),
]


class TestExactOutput:
    @pytest.mark.parametrize(
        "argv, code, text, compact",
        _EXACT,
        ids=[
            "invariants",
            "project",
            "strip",
            "remove",
            "essential",
            "catalog",
            "stretch",
            "link-convert",
            "link-separable-yes",
            "link-separable-no",
            "link-family",
            "search-hit",
            "search-miss",
            "apply",
            "replay",
        ],
    )
    def test_stdout_and_output_file(self, capsys, tmp_path, monkeypatch, argv, code, text, compact):
        monkeypatch.chdir(tmp_path)
        Path("t.txt").write_text(_TRACE)
        as_json = json.dumps(json.loads(compact), indent=2) + "\n"
        for extra, expected in [([], text), (["--json"], as_json)]:
            assert run(capsys, *argv, *extra) == (code, expected, "")
            # --output writes exactly what stdout would have shown.
            assert run(capsys, *argv, *extra, "--output", "o.txt") == (code, "", "")
            assert Path("o.txt").read_text() == expected


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nope"],
            ["catalog", "x"],
            ["catalog", "99999999999999999999"],
            ["search", "a"],
            ["essential", "D+", "--limit", "x"],
            ["invariants", "D+", "--bogus"],
        ],
        ids=["no-command", "unknown-command", "bad-int", "huge-catalog-degree", "missing-argument",
             "bad-option-value", "unknown-option"],
    )
    def test_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["invariants", f"U{'1' * 5000}+ O{'1' * 5000}+"],
             f"malformed token 'U{'1' * 19}...{'1' * 19}+'"),
            (["apply", "U1+ O1+", f"DlPairAdd5 pos={'1' * 5000} sign=1"],
             f"bad move parameter 'pos={'1' * 16}...{'1' * 20}'"),
            (["essential", "U1+ O1+", "--limit", "1" * 5000],
             f"dlknot essential: argument --limit: invalid int value: '{'1' * 20}...{'1' * 20}'"),
            (["search", "U1+ O1+", "D+", "--max-moves", "1" * 5000],
             f"dlknot search: argument --max-moves: invalid int value: '{'1' * 20}...{'1' * 20}'"),
            (["catalog", "1" * 5000], f"dlknot catalog: argument k: invalid int value: '{'1' * 20}...{'1' * 20}'"),
        ],
        ids=["huge-crossing-id", "huge-move-value", "huge-limit", "huge-max-moves", "huge-positional"],
    )
    def test_number_of_very_many_digits(self, capsys, argv, message):
        # int() refuses more than 4,300 digits by default; the error names
        # the token, parameter or option value, shortened.
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["strip", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dlknot strip")


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        (
            ["invariants", "U1+ O1+", "--no-essential"], 0,
            "degree: 0\ncrossings: 1\ndouble_lines: 0\nparities: 0\nessential_count: None\n",
        ),
        (["search", "U1+ O1+", "D+", "--max-moves", "1"], 1, "not found (explored 0 diagrams)\n"),
        (["catalog", "x"], 2, ""),
    ],
    ids=["ok", "negative", "bad-input"],
)
def test_module_entry_point(argv, code, stdout):
    """``python -m dlknot.cli`` reads ``sys.argv`` and exits with main's code."""
    src = str(Path(dlknot.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "dlknot.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == code and proc.stdout == stdout
    if code == 2:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    else:
        assert proc.stderr == ""


_WORDS = ["U1+", "O1+", "U2-", "O2-", "U1-", "D+", "D-", "C+", "O0+", "U3+", "X", "D", "1", "U1+O1+"]
_PARAMS = ["pos", "pos1", "pos2", "pos3", "sign", "order", "role", "eps",
           "crossing_id", "chirality", "direction", "kind"]
_VALUES = st.one_of(st.integers(-2, 9), st.sampled_from(["UO", "OU", "O", "U", "x", ""]))

diagram_texts = st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join)
move_lines = st.builds(
    lambda kind, params, junk: " ".join(
        [kind] + [f"{k}={v}" for k, v in params.items()] + junk
    ),
    st.sampled_from(sorted(ALL_KINDS) + ["Nope", "kind=1"]),
    st.dictionaries(st.sampled_from(_PARAMS), _VALUES, max_size=4),
    st.lists(st.sampled_from(["pos", "=", "x=y=z"]), max_size=1),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["start", "steps", "kind", "params", "pos"]), inner, max_size=3),
    max_leaves=8,
)
json_steps = st.lists(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(sorted(ALL_KINDS)) | json_values},
        optional={"params": st.dictionaries(st.sampled_from(_PARAMS), _VALUES | json_values, max_size=4)},
    ),
    max_size=3,
)
json_traces = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {}, optional={"start": diagram_texts | json_values, "steps": json_steps | json_values}
    ),
).map(json.dumps)
text_traces = st.builds(
    lambda start, lines: "\n".join([start] + lines), diagram_texts, st.lists(move_lines, max_size=3)
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzz_apply_and_replay(tmp_path_factory, data):
    """Malformed diagrams, move lines and trace files never escape ``main``;
    exit 2 always comes with one ``error:`` line on stderr."""
    if data.draw(st.booleans(), label="apply"):
        argv = ["apply", "--", data.draw(diagram_texts), data.draw(move_lines)]
    else:
        trace = tmp_path_factory.getbasetemp() / "fuzz-trace"
        trace.write_text(data.draw(json_traces | text_traces))
        argv = ["replay", str(trace)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    else:
        assert code == 0 and err.getvalue() == ""
