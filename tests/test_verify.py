"""The library entry to the verification suites."""

import gc
import sys
import weakref
from collections import Counter
from contextlib import contextmanager

import pytest

from aciring import runmemo, verify
from aciring.errors import DegreeCapExceeded
from aciring.fields import QQ
from aciring.gorenstein import G_from_orbit, ann_of_form
from aciring.quotient import QuotientRing
from aciring.resolution import BettiTable, koszul_betti, named_quotient
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


# ----------------------------------------------------------------------
# one construction per run: the memo opened by run_suite
# ----------------------------------------------------------------------


def test_run_suite_builds_each_named_ring_and_presentation_once(monkeypatch):
    named = Counter()
    built = []
    init = QuotientRing.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))
        if sys._getframe(1).f_code.co_name == "named_quotient":
            named[(self.name, self.n, self.field.characteristic)] += 1

    colons = Counter()
    colon = QuotientRing.colon

    def counting_colon(self, f, *args):
        colons[self.n] += 1
        return colon(self, f, *args)

    monkeypatch.setattr(QuotientRing, "__init__", counting_init)
    monkeypatch.setattr(QuotientRing, "colon", counting_colon)
    assert run_suite("all", list(range(2, 8))).passed
    assert named == {(label, n, 0): 1 for label in "PRA" for n in range(2, 8)}
    assert colons == {n: 1 for n in range(2, 8)}
    # the 18 named rings, 3 * 6; one ring per route to G per n (the three-way
    # check's cycle of memberships), 3 * 6 = 18; and one for groebner_basis per
    # n, 6.  _lefschetz_by_ranks takes the named A.  R and A are the named P
    # modulo an ideal of it, and A's ideal, the colon, is a module of P and no
    # ring.  Each ring built from generators with relations also builds Q/B,
    # the ring on its base, to grow its forms in: the three route rings and
    # the groebner_basis ring at n = 3..7 (at n = 2 their generators are all
    # monomials), 4 * 5 = 20
    assert len(built) == 18 + 18 + 6 + 20
    # nothing built inside the run outlives it
    gc.collect()
    assert built and not [ref for ref in built if ref() is not None]


def test_run_suite_records_a_check_that_hits_a_cap_and_runs_on(monkeypatch):
    def capped(n, characteristic=0):
        raise DegreeCapExceeded(3, f"capped at n={n}")

    monkeypatch.setattr(verify, "slp_check_A", capped)
    report = run_suite("slp", [3, 4])
    records = {(r.check_id, r.n): r for r in report.records}
    assert len(records) == 4 and not report.passed
    for n in (3, 4):
        failed = records[("slp-both-routes", n)]
        assert (failed.expected, failed.computed, failed.passed) == (
            "completes within caps", f"resource: capped at n={n}", False
        )
        assert records[("slp-disjointness", n)].passed


def test_named_quotient_outside_a_run_builds_afresh():
    assert named_quotient("R", 4, QQ) is not named_quotient("R", 4, QQ)


def _same(a, b) -> bool:
    if isinstance(a, BettiTable):
        fields = ("entries", "window", "ring_label", "module_label", "characteristic", "method")
        return all(getattr(a, f) == getattr(b, f) for f in fields)
    if isinstance(a, QuotientRing):
        return a.name == b.name and a.generators == b.generators
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def test_run_suite_leaves_its_shared_results_as_built(monkeypatch):
    """Every shared result still equals a fresh computation when the run ends,
    so no check edited a list or a table that the others read."""
    public = {
        f.__wrapped__: f
        for f in (named_quotient, G_from_orbit, ann_of_form, koszul_betti)
    }
    seen: dict = {}
    scope = verify._run_scope

    @contextmanager
    def capturing_scope():
        with scope():
            yield
            seen.update(runmemo._memo.get())

    monkeypatch.setattr(verify, "_run_scope", capturing_scope)
    assert run_suite("all", [4, 5]).passed
    checked = Counter()
    for (fn, args, kwargs), value in seen.items():
        if fn in public:
            assert _same(value, public[fn](*args, **dict(kwargs))), (fn.__name__, args)
            checked[fn.__name__] += 1
    assert set(checked) == {f.__name__ for f in public}
