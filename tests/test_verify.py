import pytest

from polymom import SUITE_NAMES, genfunc, verify
from polymom.errors import DegenerateDirectionError
from polymom.verify import SUITES, run_suite, suite_roundtrip


def test_one_list_names_every_suite(capsys):
    """`SUITE_NAMES` is the one list: it names every suite function, and the CLI offers exactly those."""
    from polymom.cli import main

    functions = {name for name in vars(verify) if name.startswith("suite_")}
    assert {SUITES[name].__name__ for name in SUITE_NAMES} == functions
    assert list(SUITES) == list(SUITE_NAMES)
    with pytest.raises(SystemExit):
        main(["verify", "nosuch"])
    err = capsys.readouterr().err.splitlines()[-1]
    assert "invalid choice: 'nosuch'" in err
    positions = [err.index(name) for name in sorted(SUITE_NAMES)]
    assert positions == sorted(positions) and err.count(",") == len(SUITE_NAMES) - 1


@pytest.mark.parametrize("name", sorted(set(SUITES) - {"roundtrip"}))
def test_suites_pass(name):
    report = run_suite(name, seed=1)
    assert report.passed, report.summary()
    assert report.cases > 0


def test_roundtrip_small():
    report = suite_roundtrip(seed=7, cases=30)
    assert report.passed, report.summary()


def test_roundtrip_in_a_child_without_site_packages():
    """`polymom verify roundtrip` as a fresh `python -S` child prints what the suite reports here."""
    from test_golden import _child

    summary = run_suite("roundtrip", 0).summary()
    assert _child("verify", "roundtrip", "--seed", 0) == (0, f"{summary}\n".encode(), b"")


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nope", 0)


def test_reports_are_reproducible():
    a = run_suite("detfactor", 3)
    b = run_suite("detfactor", 3)
    assert a.summary() == b.summary()


def test_direction_retry_lets_an_unexpected_error_through(monkeypatch):
    """A random direction is drawn again only on `DegenerateDirectionError`: any other error of
    the residuals ends the suite at once.  The `BaseException` after three calls stops a retry
    loop that swallows the `TypeError`, so that fault fails this test instead of hanging it."""

    class Stop(BaseException):
        pass

    calls = []

    def broken(p, z):
        calls.append(z)
        if len(calls) > 3:
            raise Stop
        raise TypeError("residuals are broken")

    monkeypatch.setattr(genfunc, "brion_identity_residuals", broken)
    with pytest.raises(TypeError, match="residuals are broken"):
        verify.suite_brion(0)
    assert len(calls) == 1


def test_suite_brion_computes_each_residual_once(monkeypatch):
    """One residual call per case, plus one per direction drawn again; at seed 0 the residuals of
    every one of the 265 cases were once computed twice, 541 calls in all."""
    real, calls, rejected = genfunc.brion_identity_residuals, [], []

    def counting(p, z):
        calls.append(z)
        try:
            return real(p, z)
        except DegenerateDirectionError:
            rejected.append(z)
            raise

    monkeypatch.setattr(genfunc, "brion_identity_residuals", counting)
    report = verify.suite_brion(0)
    assert report.passed and report.cases == 265
    assert len(calls) == report.cases + len(rejected)
