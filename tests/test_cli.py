import os
import subprocess
import sys

import pytest

from folint import cli
from folint.cli import main
from folint.resolve import ResolutionError

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_field_object_per_run():
    # example1 declares Q(i) in both files: the loaders keep the caller's
    # field, so no element crosses between two equal fields
    omega, field = cli.load_foliation(fx("example1.fol"))
    assert omega.field is field
    assert cli.load_config_file(fx("example1.cfg"), field).field is field
    cfg_field = cli._peek_field(fx("example1.cfg"))
    omega, field = cli.load_foliation(fx("example1.fol"), cfg_field)
    assert omega.field is field is cfg_field


def test_decide_fig2(capsys):
    code, out, _ = run(capsys, "decide", "--machine",
                       fx("fig2.fol"), fx("fig2.cfg"))
    assert code == 0
    lines = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert lines["verdict"] == "integral"
    # the printed pencil re-verifies under check-integral
    code2, out2, _ = run(capsys, "check-integral", "--machine",
                         lines["F"], lines["G"], fx("fig2.fol"))
    assert code2 == 0
    assert "first_integral=true" in out2


def test_decide_degree_example1(capsys):
    code, out, _ = run(capsys, "decide-degree", "4",
                       fx("example1.fol"), fx("example1.cfg"))
    assert code == 0
    assert "rational first integral" in out
    code, out, _ = run(capsys, "decide-degree", "3", "--machine",
                       fx("example1.fol"), fx("example1.cfg"))
    assert code == 1
    assert "verdict=no_integral" in out


def test_decide_family_members(capsys):
    code, out, _ = run(capsys, "decide", fx("family_a59.fol"),
                       fx("family_a59.cfg"))
    assert code == 1
    code, out, _ = run(capsys, "decide", fx("family_a0.fol"),
                       fx("family_a0.cfg"))
    assert code == 0


def test_resolve_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "resolve", fx("fig2.fol"))
    assert code == 0
    emitted = tmp_path / "fig2.cfg"
    emitted.write_text(out)
    code, out2, _ = run(capsys, "decide", "--machine", fx("fig2.fol"),
                        str(emitted))
    assert code == 0
    assert "verdict=integral" in out2


def test_psufficient(capsys):
    code, out, _ = run(capsys, "psufficient", fx("fig3.cfg"))
    assert code == 0
    assert "True" in out


def test_h0(capsys):
    code, out, _ = run(capsys, "h0", "--machine", fx("example1.cfg"), "4",
                       "2", "2", "1", "1", "1", "1", "1", "1", "1", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h0=2"
    assert len([l for l in lines if l.startswith("basis=")]) == 2


def test_h0_wrong_multiplicity_count(capsys):
    code, _, err = run(capsys, "h0", fx("example1.cfg"), "4", "1")
    assert code == 3
    assert "expected 10 multiplicities" in err


@pytest.mark.parametrize("mode", [[], ["--machine"]], ids=["text", "machine"])
@pytest.mark.parametrize("argv", [
    ["decide", fx("fig2.fol"), "--bogus"],
    ["h0", fx("example1.cfg"), "four"],
    ["check-integral", "X", fx("fig2.fol")],
    ["resolve"],
], ids=["unknown-option", "bad-int", "missing-argument", "no-foliation"])
def test_usage_errors_are_input_errors(capsys, argv, mode):
    # argparse's own code 2 would read as an inconclusive verdict
    with pytest.raises(SystemExit) as stop:
        main(argv + mode)
    assert stop.value.code == cli.EXIT_INPUT == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


@pytest.mark.parametrize("mode", [[], ["--machine"]], ids=["text", "machine"])
@pytest.mark.parametrize("argv", [
    ["h0", "--dmax=5", fx("example1.cfg"), "4"],
    ["psufficient", "--depth=5", fx("fig2.cfg")],
    ["resolve", "--trace", fx("fig2.fol")],
    ["decide-degree", "--lmax=5", "2", fx("fig2.fol")],
    ["invariant", "--trace", "X", fx("fig2.fol")],
], ids=["h0-dmax", "psufficient-depth", "resolve-trace", "degree-lmax",
        "invariant-trace"])
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, argv,
                                                              mode):
    with pytest.raises(SystemExit) as stop:
        main(argv + mode)
    assert stop.value.code == cli.EXIT_INPUT == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --" in captured.err


def test_printed_forms_are_accepted_back(capsys):
    code, out, _ = run(capsys, "decide", "--machine", fx("family_a0.fol"),
                       fx("family_a0.cfg"))
    lines = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert (code, lines["F"]) == (0, "-X*Z+Y*Z")
    # a form that starts with "-" needs no "--" in front of it
    code, out, _ = run(capsys, "check-integral", "--machine", lines["F"],
                       lines["G"], fx("family_a0.fol"))
    assert (code, out) == (0, "first_integral=true\n")
    code, out, _ = run(capsys, "invariant", lines["F"], fx("family_a0.fol"),
                       "--machine")
    assert (code, out) == (0, "invariant=true\n")
    code, out, _ = run(capsys, "invariant", "--machine", "-X", fx("fig2.fol"))
    assert (code, out) == (1, "invariant=false\n")


def test_invariant(capsys):
    code, out, _ = run(capsys, "invariant", "Y", fx("fig2.fol"))
    assert code == 0
    code, out, _ = run(capsys, "invariant", "X", fx("fig2.fol"))
    assert code == 1


def test_bad_foliation_file(tmp_path, capsys):
    bad = tmp_path / "bad.fol"
    bad.write_text("A = X\nB = Y\n")
    code, _, err = run(capsys, "decide", str(bad))
    assert code == 3
    assert "missing component" in err


def test_repeated_component_is_an_input_error(tmp_path, capsys):
    # the last A used to win silently
    with open(fx("fig2.fol")) as fh:
        text = fh.read()
    bad = tmp_path / "twice.fol"
    bad.write_text(text + "A = 2*Y*Z^5\n")
    code, out, err = run(capsys, "decide", "--machine", str(bad),
                         fx("fig2.cfg"))
    assert (code, out) == (3, "")
    assert "twice.fol:5: A is already given on line 2" in err


def test_ambiguous_point_line_is_an_input_error(tmp_path, capsys):
    with open(fx("family_a0.cfg")) as fh:
        text = fh.read()
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace("origin=(1:1:1)", "origin=(1:1:1) parent=q1"))
    code, out, err = run(capsys, "decide", fx("family_a0.fol"), str(bad))
    assert (code, out) == (3, "")
    assert "q4 needs exactly one of origin/parent" in err


def test_euler_violation_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.fol"
    bad.write_text("A = Y\nB = X\nC = 0\n")
    code, _, err = run(capsys, "decide", str(bad))
    assert code == 3
    assert "Euler" in err


def test_trace_goes_to_stderr(capsys):
    code, out, err = run(capsys, "decide", "--trace", "--machine",
                         fx("family_a59.fol"), fx("family_a59.cfg"))
    assert code == 1
    assert "V+" in err
    assert "V+" not in out


def test_machine_output_is_stable(capsys):
    first = run(capsys, "decide", "--machine", fx("penultimate.fol"),
                fx("penultimate.cfg"))
    second = run(capsys, "decide", "--machine", fx("penultimate.fol"),
                 fx("penultimate.cfg"))
    assert first == second
    assert first[0] == 0


def test_depth_cap_is_inconclusive_in_both_modes(tmp_path, capsys):
    deep = tmp_path / "deep.fol"
    deep.write_text("A = 2*Y*Z^5\n"
                    "B = -7*Y^5*Z-3*X*Z^5+Y*Z^5\n"
                    "C = 7*Y^6+X*Y*Z^4-Y^2*Z^4\n")
    code, out, _ = run(capsys, "resolve", "--depth", "2", str(deep))
    assert code == 2
    assert out.startswith("inconclusive: ")
    code, out, _ = run(capsys, "resolve", "--depth", "2", "--machine",
                       str(deep))
    assert code == 2
    assert out.splitlines() == ["verdict=inconclusive",
                                "reason=depth cap exceeded"]


@pytest.mark.parametrize("error", [RuntimeError, ResolutionError])
@pytest.mark.parametrize("mode", [[], ["--machine"]], ids=["text", "machine"])
@pytest.mark.parametrize("command", ["decide", "resolve"])
def test_internal_errors_have_their_own_exit_code(capsys, monkeypatch,
                                                  error, mode, command):
    def fail(*args, **kwargs):
        raise error("planted failure")
    # decide with a .cfg never resolves, so each command reaches one patch
    monkeypatch.setattr(cli.engine, "pipeline", fail)
    monkeypatch.setattr(cli, "build_configuration", fail)
    files = [fx("fig2.fol")] + ([fx("fig2.cfg")] if command == "decide"
                                else [])
    code, out, err = run(capsys, command, *mode, *files)
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "error: internal: planted failure\n"


def test_optimized_interpreter_gives_the_same_output(capsys):
    """``python -O`` strips asserts; no check may depend on them."""
    argv = ["decide", fx("family_a0.fol"), fx("family_a0.cfg"), "--machine"]
    code, out, _ = run(capsys, *argv)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = ("import sys\nfrom folint.cli import main\n"
              "sys.exit(main(%r))\n" % argv)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (code, out)


@pytest.mark.parametrize("name,expected", [
    ("cubic_pencil", False), ("example1", False), ("family_a0", True),
    ("family_a59", True), ("family_a861", True), ("fig2", True),
    ("fig3", True), ("penultimate", False),
])
def test_psufficient_machine_output(capsys, name, expected):
    code, out, _ = run(capsys, "psufficient", "--machine", fx(name + ".cfg"))
    assert out == "psufficient=%s\n" % str(expected).lower()
    assert code == (0 if expected else 1)
