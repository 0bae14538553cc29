"""The work ledger: one table of (input, counter, bound) rows.

A counter counts the calls that a routine makes to one function of the
package, on one input.  Each bound is the count measured when its row
was added, so a change that makes a routine do more work on that input
fails here.  A change that lowers a count tightens its row; one that
raises a bound names the row and the reason.  A count is a regression
gate, never a speed claim.
"""

import importlib

import pytest

from posetderiv import derivations, poset, survey
from posetderiv import fixtures as fx
from posetderiv.derivations import consistency_matrix
from posetderiv.poset import Poset, canonical_form, core, find_crowns
from posetderiv.survey import sweep

from test_poset import _chain_product


def _union(P, Q):
    """The disjoint union of P and Q, P's elements first."""
    return Poset(P.elements + Q.elements, P.covers + Q.covers)


INPUTS = {
    "grid40x40": lambda: _chain_product(40, 40),
    "grid24x24": lambda: _chain_product(24, 24),
    "B5": lambda: _chain_product(*[2] * 5),
    "B6": lambda: _chain_product(*[2] * 6),
    # 400 elements that are not beat points, then 400 that are in turn:
    # a scan that restarted at the first survivor would make 320800 calls
    "crown200+chain400": lambda: _union(fx.crown(200), fx.chain(400)),
    "sweep:7": lambda: 7,
    "rp2": fx.rp2,
    "crown:5": lambda: fx.crown(5),
    "s5": fx.s5,
}

# the package's name homology is the function
homology = importlib.import_module("posetderiv.homology")

# counter: (routine, module, the function of it whose calls are counted,
# and the size of the sweep's classes whose records count them, or None
# for every call)
COUNTERS = {
    "core_least_calls": (core, poset, "_least", None),
    "crown_bound_calls": (find_crowns, poset, "_least", None),
    "relation_rows": (consistency_matrix, derivations, "_row", None),
    "canonical_refinements": (canonical_form, poset, "_refine", None),
    "sweep_refinements": (sweep, poset, "_refine", None),
    "canonical_searches": (sweep, survey, "_canonical_search", None),
    "level7_classify_calls": (sweep, homology, "classify", 7),
    "level7_smith_calls": (sweep, survey, "smith_divisors", 7),
}

LEDGER = [
    # about 3 calls per element: after a removal the scan restarts at the
    # least element, but stops at the first beat point it meets
    ("grid40x40", "core_least_calls", 4721),
    ("B5", "core_least_calls", 90),
    ("B6", "core_least_calls", 185),
    ("crown200+chain400", "core_least_calls", 1600),
    # one call per distinct bound mask, a crown's join or meet, not one per
    # crown: B5 has 5191 crowns of at most 6 elements.  The crown walk's
    # pops live on a local stack, so this row stands in for them
    ("B5", "crown_bound_calls", 32),
    # the automorphisms of the 405 classes on 1..6 elements, and ties with
    # a top that is not the new top's twin
    ("sweep:7", "canonical_searches", 637),
    # the classes whose H1 the Mayer-Vietoris rule leaves to an order
    # complex: 740 when every top with two or more down-covers was
    # classified
    ("sweep:7", "level7_classify_calls", 100),
    # the classes with relation rows into their new top
    ("sweep:7", "level7_smith_calls", 469),
    # one row per pair of down-covers and maximal common lower bound: in
    # these lattices one per square of covers, 23 x 23 in the grid
    ("grid24x24", "relation_rows", 529),
    ("B5", "relation_rows", 80),
    # the refinements of the canonical searches of a whole sweep, and of one
    # search on each of three fixtures
    ("sweep:7", "sweep_refinements", 1555),
    ("rp2", "canonical_refinements", 10),
    ("crown:5", "canonical_refinements", 6),
    ("s5", "canonical_refinements", 7),
]


def _calls(monkeypatch, module, name, run, level=None) -> int:
    """How many times ``run()`` calls ``module.name``; with a level, only
    the calls made while the sweep records a class on that many elements."""
    real, real_record = getattr(module, name), survey._record
    calls, size = 0, None

    def counted(*args):
        nonlocal calls
        calls += level in (None, size)
        return real(*args)

    def recording(parent, P, tally):
        nonlocal size
        size = P.n
        try:
            return real_record(parent, P, tally)
        finally:
            size = None

    monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(survey, "_record", recording)
    run()
    return calls


@pytest.mark.parametrize("source, counter, bound", LEDGER)
def test_work_stays_within_its_bound(monkeypatch, source, counter, bound):
    P = INPUTS[source]()
    routine, module, name, level = COUNTERS[counter]
    assert _calls(monkeypatch, module, name, lambda: routine(P), level) <= bound
