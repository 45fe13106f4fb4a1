"""End-to-end oracles for the resolution half: ``decide FOL`` resolves the
foliation itself, so it must agree with ``decide FOL CFG`` on the checked-in
configurations, and Jouanolou's foliations, which have no invariant
algebraic curve, must get ``no_integral``."""

import contextlib
import io
import os
import tempfile

from folint.cli import load_foliation, main
from folint.resolve import singular_points

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
RESOLVING = ("example1", "fig2", "fig3", "family_a0", "family_a59",
             "family_a861", "penultimate")


def machine(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["decide", "--machine"] + list(argv))
    return code, out.getvalue()


def test_decide_agrees_with_the_checked_in_configurations():
    for name in RESOLVING:
        fol = os.path.join(FIXTURES, name + ".fol")
        cfg = os.path.join(FIXTURES, name + ".cfg")
        assert machine(fol) == machine(fol, cfg), name


def jouanolou(d):
    """J_d: A = Y X^d - Z^(d+1), with B and C by the cyclic shift
    X -> Y -> Z -> X."""
    return ("A = Y*X^{d} - Z^{e}\nB = Z*Y^{d} - X^{e}\nC = X*Z^{d} - Y^{e}\n"
            .format(d=d, e=d + 1))


def test_jouanolou_has_no_integral():
    with tempfile.TemporaryDirectory() as tmp:
        for d in (2, 3):
            path = os.path.join(tmp, "j%d.fol" % d)
            with open(path, "w") as fh:
                fh.write(jouanolou(d))
            # all singular points but (1:1:1) form one orbit outside Q
            locus = singular_points(load_foliation(path)[0])
            assert len(locus.points) == 1 and len(locus.escaped) == 1
            code, out = machine(path)
            assert code == 1
            assert out.splitlines()[0] == "verdict=no_integral", out
