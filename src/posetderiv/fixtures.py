"""Built-in poset and function fixtures used by the CLI and the tests."""

from __future__ import annotations

from .derivations import TransitiveFunction
from .errors import SizeLimitError, UnknownFixtureError
from .linalg import _ascii_int, mod_ring
from .poset import Poset
from .report import function_json, poset_json

# 13-element minimal finite model of the real projective plane: three
# minimal elements n*, six middle elements a*, four maximal elements m*.
RP2_ELEMENTS = (
    "n1", "n2", "n3",
    "a1", "a2", "a3", "a4", "a5", "a6",
    "m1", "m2", "m3", "m4",
)

RP2_COVERS = (
    ("n1", "a1"), ("n1", "a2"), ("n1", "a3"), ("n1", "a5"),
    ("n2", "a2"), ("n2", "a3"), ("n2", "a4"), ("n2", "a6"),
    ("n3", "a1"), ("n3", "a4"), ("n3", "a5"), ("n3", "a6"),
    ("a1", "m1"), ("a1", "m2"),
    ("a2", "m1"), ("a2", "m3"),
    ("a3", "m2"), ("a3", "m4"),
    ("a4", "m2"), ("a4", "m3"),
    ("a5", "m3"), ("a5", "m4"),
    ("a6", "m1"), ("a6", "m4"),
)

# Cover values over Z/2 of a known outer derivation of the rp2 fixture.
TABLE1_ONES = frozenset(
    {
        ("a1", "m1"),
        ("a5", "m4"),
        ("n1", "a1"),
        ("n1", "a3"),
        ("n3", "a1"),
        ("n3", "a4"),
        ("n3", "a5"),
    }
)


def rp2() -> Poset:
    return Poset(RP2_ELEMENTS, RP2_COVERS)


def table1_cover_values() -> dict[tuple[str, str], int]:
    return {edge: int(edge in TABLE1_ONES) for edge in RP2_COVERS}


def chain(n: int) -> Poset:
    elements = [f"c{i}" for i in range(1, n + 1)]
    covers = [(f"c{i}", f"c{i + 1}") for i in range(1, n)]
    return Poset(elements, covers)


def antichain(n: int) -> Poset:
    return Poset([f"a{i}" for i in range(1, n + 1)], [])


def crown(n: int) -> Poset:
    if n < 2:
        raise UnknownFixtureError("crown needs n >= 2")
    elements = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
    covers = []
    for i in range(1, n + 1):
        covers.append((f"x{i}", f"y{i}"))
        covers.append((f"x{i}", f"y{i % n + 1}"))
    return Poset(elements, covers)


def fence(n: int) -> Poset:
    """Zigzag f1 < f2 > f3 < f4 > ...; the Hasse graph is a path."""
    elements = [f"f{i}" for i in range(1, n + 1)]
    covers = []
    for i in range(1, n):
        if i % 2 == 1:
            covers.append((f"f{i}", f"f{i + 1}"))
        else:
            covers.append((f"f{i + 1}", f"f{i}"))
    return Poset(elements, covers)


def diamond() -> Poset:
    return Poset(
        ["x", "a", "b", "y"],
        [("x", "a"), ("x", "b"), ("a", "y"), ("b", "y")],
    )


def s5() -> Poset:
    """Minimal finite model of the 5-sphere: six 2-element levels.

    Both elements of each level lie below both elements of the next, so
    consecutive levels form 2-crowns; 12 elements, height 6, no beat
    points, and the size bound V >= 2 * height is met with equality.
    """
    elements = []
    for i in range(1, 7):
        elements += [f"x{i}", f"y{i}"]
    covers = []
    for i in range(1, 6):
        for lo in (f"x{i}", f"y{i}"):
            for hi in (f"x{i + 1}", f"y{i + 1}"):
                covers.append((lo, hi))
    return Poset(elements, covers)


def _parse_size(name: str, arg: str, minimum: int) -> int:
    """The size in ASCII digits."""
    try:
        value = _ascii_int(arg)
    except ValueError:
        raise UnknownFixtureError(f"bad size in fixture {name!r}") from None
    if value < minimum:
        raise UnknownFixtureError(f"fixture {name!r} needs size >= {minimum}")
    if value > 4096:  # the order masks of chain:N hold about N * N bits
        raise SizeLimitError(f"fixture {name!r} needs size <= 4096")
    return value


_NAMED = {"rp2": rp2, "diamond": diamond, "s5": s5}

# each sized fixture with its least size
_SIZED = {
    "crown": (crown, 2), "chain": (chain, 1), "antichain": (antichain, 1), "fence": (fence, 1)
}


def fixture_poset(name: str) -> Poset:
    """Look up a poset fixture by name; sizes use a colon, e.g. crown:3."""
    kind, colon, size = name.partition(":")
    if not colon and kind in _NAMED:
        return _NAMED[kind]()
    if colon and kind in _SIZED:
        make, minimum = _SIZED[kind]
        return make(_parse_size(name, size, minimum))
    raise UnknownFixtureError(f"unknown fixture {name!r}")


def fixture_json(name: str) -> dict:
    """Fixture serialized for the CLI: poset JSON, or function JSON for table1."""
    if name == "table1":
        return function_json(TransitiveFunction(rp2(), mod_ring(2), table1_cover_values()))
    return poset_json(fixture_poset(name))
