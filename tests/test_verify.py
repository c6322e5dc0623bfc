"""The library entry to the verification suites."""

import pytest

from aciring.verify import run_suite


@pytest.mark.parametrize(
    "suite, ns, characteristic",
    [
        ("hilbert", [8], 5),  # used to report false FAILs at hilbert-R/hilbert-A n = 8
        ("hilbert", None, 5),  # the default range reaches n = 8
        ("all", None, 7),  # the groebner-identity group reaches n = 9
        ("duality", [2, 3], 3),  # equal to n is refused too
    ],
)
def test_run_suite_refuses_a_characteristic_not_above_n(suite, ns, characteristic):
    with pytest.raises(ValueError, match="larger than n"):
        run_suite(suite, ns, characteristic)


def test_run_suite_accepts_a_characteristic_above_n():
    report = run_suite("hilbert", [3, 4], 5)
    assert report.passed and {r.n for r in report.records} == {3, 4}


@pytest.mark.parametrize("suite, ns", [("ezd", [4]), ("duality", [8]), ("lifting", [9]), ("all", [13, 14])])
def test_run_suite_refuses_n_values_that_select_no_check(suite, ns):
    with pytest.raises(ValueError, match="no check"):
        run_suite(suite, ns)
