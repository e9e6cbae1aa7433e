"""The CI gate .github/check_tier1.py passes only when exactly A01, A07 and A09 fail."""

import importlib.util
from pathlib import Path

import pytest


def _load():
    path = Path(__file__).resolve().parents[1] / ".github" / "check_tier1.py"
    spec = importlib.util.spec_from_file_location("check_tier1", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATE = _load()


def _case(name: str, outcome: str = "") -> str:
    classname, _, test = name.partition("::")
    child = f'<{outcome} message="x"/>' if outcome else ""
    return f'<testcase classname="{classname}" name="{test}">{child}</testcase>'


BY_DESIGN = [_case(name, "failure") for name in sorted(GATE.BY_DESIGN)]
PASSING = _case("tests.test_cli::test_ok")


@pytest.mark.parametrize("cases, code", [
    (BY_DESIGN + [PASSING], 0),
    (BY_DESIGN + [_case("tests.test_cli::test_broken", "failure")], 1),
    (BY_DESIGN[:2] + [_case("tests.test_acceptance::test_a09_thresholds")], 1),
    (BY_DESIGN + [_case("tests.test_cli::test_collection", "error")], 1),
], ids=["by-design", "extra-failure", "a09-passes", "error"])
def test_exit_code(tmp_path, capsys, cases, code):
    report = tmp_path / "tier1.xml"
    report.write_text(f'<testsuites><testsuite>{"".join(cases)}</testsuite></testsuites>')
    assert GATE.main(str(report)) == code


def test_skipped_tests_are_not_counted_as_passed(tmp_path, capsys):
    report = tmp_path / "tier1.xml"
    skipped = _case("tests.test_cli::test_later", "skipped")
    report.write_text(f'<testsuite>{"".join(BY_DESIGN + [PASSING, skipped])}</testsuite>')
    assert GATE.main(str(report)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "5 tests, 1 passed, 3 failed, 1 skipped"
    assert out[1] == "skipped: tests.test_cli::test_later"
