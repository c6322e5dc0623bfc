"""The comparison tools under ``tools/`` still run against the package.

``tools/ring_identity.py`` digests P, R, A and G/J by calling into the
package, so a renamed or deleted entry point breaks it; here it runs on a
narrowed grid of cases, which takes about a second.
"""

import importlib.util
from pathlib import Path

from aciring import QQ
from aciring.groebner import squares_ideal
from aciring.poly import squared_variable_sum
from aciring.quotient import GradedModuleSpan, QuotientRing

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ring_identity_digests_p_r_a_and_gj_on_every_case(monkeypatch):
    tool = _load("ring_identity")
    monkeypatch.setattr(tool, "CASES", ((32003, range(2, 4)), (0, range(2, 4))))
    got = tool.digests()
    assert set(got) == {
        f"{ring}-n{n}-{field}" for ring in ("P", "R", "A", "G/J") for n in (2, 3) for field in ("GF(32003)", "QQ")
    }
    assert all(len(v) == 64 and int(v, 16) >= 0 for v in got.values())
    # G/J's digest is that of the module grown from the lifts of a colon on a separate P
    P = QuotientRing(squares_ideal(3, QQ))
    lifts = P.annihilator_of_element(squared_variable_sum(3, QQ))
    assert got["G/J-n3-QQ"] == tool.module_digest(GradedModuleSpan(P, lifts))
