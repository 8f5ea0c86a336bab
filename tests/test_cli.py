"""Command-line interface: subcommand wiring, formats, exit codes."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_search_bad_kind(self, capsys):
        code, _, err = run(capsys, "search", "U1+ O1+", "U1+ O1+", "--kinds", "Nope")
        assert code == 2 and "unknown move kinds" in err

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
            ("U1+ O1+", "Nope pos=0", "bad move line"),
            ("U1+ O1+", "DlPairAdd5 pos=9 pos=0 sign=1", "repeated move parameter"),
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
            ('{"start": "U1+ O1+", "steps": [{"kind": "Nope", "params": {}}]}',
             "step 0 not applicable: unknown move kind"),
            ('{"start": "U1+ O1+", "steps": [{"kind": "R1Add", "params": {"kind": 3}}]}',
             "missing parameter"),
            ("{", "Expecting"),
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
        ],
        ids=[
            "empty-object",
            "start-not-text",
            "steps-not-list",
            "step-without-params",
            "kind-not-text",
            "unknown-kind",
            "kind-parameter",
            "bad-json",
            "deep-json",
            "empty-file",
            "bad-move-line",
            "unknown-crossing",
            "repeated-parameter",
            "bool-values",
            "float-sign",
            "float-crossing-id",
            "float-sign-into-diagram",
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
