"""Pass only if the failed tests of a pytest JUnit XML report are exactly A01, A07 and A09.

    python .github/check_tier1.py tier1.xml

Those three acceptance checks encode published values that the paper's own
equations contradict, so they fail by design. Any other failure or error
(a collection error included) fails the check, and so does one of the three
starting to pass.
"""

import sys
import xml.etree.ElementTree as ET

BY_DESIGN = {"tests.test_acceptance::test_a01_endpoint_identities",
             "tests.test_acceptance::test_a07_figure3_qualitative",
             "tests.test_acceptance::test_a09_thresholds"}


def main(path: str) -> int:
    cases = list(ET.parse(path).getroot().iter("testcase"))
    failed = {f"{case.get('classname')}::{case.get('name')}" for case in cases
              if case.find("failure") is not None or case.find("error") is not None}
    print(f"{len(cases)} tests, {len(cases) - len(failed)} passed, {len(failed)} failed")
    for name in sorted(failed - BY_DESIGN):
        print(f"unexpected failure: {name}")
    for name in sorted(BY_DESIGN - failed):
        print(f"by-design failure no longer fails: {name}")
    return 0 if failed == BY_DESIGN else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
