"""The work ledger: one table of (input, counter, bound) rows.

A counter counts the calls that a routine makes to one function of the
package, on one input.  Each bound is the count measured when its row
was added, so a change that makes a routine do more work on that input
fails here.  A change that lowers a count tightens its row; one that
raises a bound names the row and the reason.  A count is a regression
gate, never a speed claim.
"""

import pytest

from posetderiv import fixtures as fx
from posetderiv import poset
from posetderiv.poset import Poset, core

from test_poset import _chain_product


def _union(P, Q):
    """The disjoint union of P and Q, P's elements first."""
    return Poset(P.elements + Q.elements, P.covers + Q.covers)


INPUTS = {
    "grid40x40": lambda: _chain_product(40, 40),
    "B6": lambda: _chain_product(*[2] * 6),
    # 400 elements that are not beat points, then 400 that are in turn:
    # a scan that restarted at the first survivor would make 320800 calls
    "crown200+chain400": lambda: _union(fx.crown(200), fx.chain(400)),
}

# counter: (routine, module, the function of it whose calls are counted)
COUNTERS = {
    "core_least_calls": (core, poset, "_least"),
}

LEDGER = [
    # about 3 calls per element: after a removal the scan restarts at the
    # least element, but stops at the first beat point it meets
    ("grid40x40", "core_least_calls", 4721),
    ("B6", "core_least_calls", 185),
    ("crown200+chain400", "core_least_calls", 1600),
]


def _calls(monkeypatch, module, name, run) -> int:
    """How many times ``run()`` calls ``module.name``."""
    real = getattr(module, name)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    run()
    return calls


@pytest.mark.parametrize("source, counter, bound", LEDGER)
def test_work_stays_within_its_bound(monkeypatch, source, counter, bound):
    P = INPUTS[source]()
    routine, module, name = COUNTERS[counter]
    assert _calls(monkeypatch, module, name, lambda: routine(P)) <= bound
