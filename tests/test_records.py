"""Value semantics of the package's immutable records.

For every record type: equal fields give equal records with equal hashes, no
attribute can be set, the repr reads ``Name(field=value, ...)``, construction
checks raise the same errors, keyword construction and defaults work, and a
record survives pickling.  `PlumbingGraph` compares and hashes on its weights
and edges only, and its repr leaves out the adjacency.
"""

import pickle

import pytest

from brieskorn.casson import LatticeSignature, TwistKnotFamily
from brieskorn.kirby import (
    Blowdown,
    Blowup,
    FramedLink,
    KirbyScript,
    ReplayTrace,
    Slide,
    TraceStep,
)
from brieskorn.plumbing import IntMatrix, Invariants, PlumbingGraph
from brieskorn.report import ClaimCheck, VerificationReport
from brieskorn.seifert import BrieskornTriple, FamilySpec, SeifertData
from brieskorn.wu import MubarResult, WuClass

LINK = FramedLink(("a", "b"), IntMatrix(((-1, 1), (1, -2))))
FINAL = FramedLink(("b",), IntMatrix(((-1,),)))
LINK_REPR = "FramedLink(labels=('a', 'b'), matrix=IntMatrix(entries=((-1, 1), (1, -2))))"
FINAL_REPR = "FramedLink(labels=('b',), matrix=IntMatrix(entries=((-1,),)))"
SCRIPT = KirbyScript(name="s", initial=LINK, moves=(Blowdown("a"),), expect=FINAL)
SCRIPT_REPR = (
    f"KirbyScript(name='s', initial={LINK_REPR}, "
    f"moves=(Blowdown(component='a'),), expect={FINAL_REPR}, annotations=())"
)
STEP = TraceStep(step=1, op="blowdown:a", det=-1, legal=True)
STEP_REPR = "TraceStep(step=1, op='blowdown:a', det=-1, legal=True)"
CHECK = ClaimCheck(name="mubar", expected=1, actual=1, passed=True)
CHECK_REPR = "ClaimCheck(name='mubar', expected=1, actual=1, passed=True)"

# (class, keyword fields, repr, a field to try to set)
RECORDS = [
    (BrieskornTriple, dict(p=2, q=3, r=7), "BrieskornTriple(p=2, q=3, r=7)", "p"),
    (
        SeifertData,
        dict(b=-1, legs=((2, 1), (3, 1), (7, 1))),
        "SeifertData(b=-1, legs=((2, 1), (3, 1), (7, 1)))",
        "b",
    ),
    (
        FamilySpec,
        dict(id="x", triple_coeffs=((0, 2), (0, 3), (1, 7)), parity="odd", n_exact=5),
        "FamilySpec(id='x', triple_coeffs=((0, 2), (0, 3), (1, 7)), parity='odd', "
        "n_exact=5)",
        "parity",
    ),
    (IntMatrix, dict(entries=((-2, 1), (1, -3))), "IntMatrix(entries=((-2, 1), (1, -3)))", "entries"),
    (
        PlumbingGraph,
        dict(weights=(-1, -2), edges=((0, 1),)),
        "PlumbingGraph(weights=(-1, -2), edges=((0, 1),), origin=None)",
        "weights",
    ),
    (
        Invariants,
        dict(det=-1, n_plus=0, n_minus=3, n_zero=0, wu=(1, 0, 1)),
        "Invariants(det=-1, n_plus=0, n_minus=3, n_zero=0, wu=(1, 0, 1))",
        "wu",
    ),
    (WuClass, dict(coords=(1, 0, 1)), "WuClass(coords=(1, 0, 1))", "coords"),
    (
        MubarResult,
        dict(signature=-8, wu_square=-16, mubar=1, obstructed=True),
        "MubarResult(signature=-8, wu_square=-16, mubar=1, obstructed=True)",
        "mubar",
    ),
    (TwistKnotFamily, dict(n=2), "TwistKnotFamily(n=2)", "n"),
    (
        LatticeSignature,
        dict(sigma_plus=3, sigma_minus=11, sigma_zero=0),
        "LatticeSignature(sigma_plus=3, sigma_minus=11, sigma_zero=0)",
        "sigma_plus",
    ),
    (
        ClaimCheck,
        dict(name="mubar", expected=1, actual=1, passed=True),
        CHECK_REPR,
        "passed",
    ),
    (
        VerificationReport,
        dict(
            family="thm1-even2", n=2, triple=(2, 11, 31), vertex_count=7, determinant=-1,
            negative_definite=True, signature=-7, wu_square=-15, mubar=1, obstructed=True,
            claims_checked=(CHECK,),
        ),
        "VerificationReport(family='thm1-even2', n=2, triple=(2, 11, 31), vertex_count=7, "
        "determinant=-1, negative_definite=True, signature=-7, wu_square=-15, mubar=1, "
        f"obstructed=True, claims_checked=({CHECK_REPR},))",
        "n",
    ),
    (Blowdown, dict(component="a"), "Blowdown(component='a')", "component"),
    (Slide, dict(moving="a", over="b", sign=-1), "Slide(moving='a', over='b', sign=-1)", "sign"),
    (
        Blowup,
        dict(sign=1, linking=(0, 1), label="K"),
        "Blowup(sign=1, linking=(0, 1), label='K')",
        "label",
    ),
    (
        KirbyScript,
        dict(name="s", initial=LINK, moves=(Blowdown("a"),), expect=FINAL),
        SCRIPT_REPR,
        "moves",
    ),
    (TraceStep, dict(step=1, op="blowdown:a", det=-1, legal=True), STEP_REPR, "det"),
    (
        ReplayTrace,
        dict(script=SCRIPT, steps=(STEP,), final=FINAL),
        f"ReplayTrace(script={SCRIPT_REPR}, steps=({STEP_REPR},), final={FINAL_REPR})",
        "final",
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def test_every_record_type_is_listed():
    assert len(set(IDS)) == len(IDS) == 18


@pytest.mark.parametrize("cls, fields, text, name", RECORDS, ids=IDS)
class TestRecord:
    def test_equal_fields_equal_records_equal_hashes(self, cls, fields, text, name):
        a, b = cls(**fields), cls(*fields.values())
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert getattr(a, name) == fields[name]

    def test_fields_and_new_attributes_cannot_be_set(self, cls, fields, text, name):
        rec = cls(**fields)
        with pytest.raises(AttributeError):
            setattr(rec, name, fields[name])
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert getattr(rec, name) == fields[name]

    def test_repr(self, cls, fields, text, name):
        assert repr(cls(**fields)) == text

    def test_pickle_round_trip(self, cls, fields, text, name):
        rec = cls(**fields)
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is cls and back == rec and repr(back) == text


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BrieskornTriple(3, 2, 7), "components must be positive and sorted ascending"),
        (lambda: BrieskornTriple(p=0, q=1, r=1), "components must be positive and sorted ascending"),
        (lambda: SeifertData(-1, ((2, 2), (3, 2), (7, 6))), r"leg \(2,2\) violates 0 < beta < alpha"),
        (lambda: SeifertData(b=0, legs=((2, 1), (3, 2), (7, 6))), "Seifert equation not satisfied"),
        (lambda: IntMatrix(((1, 2),)), "matrix is not square"),
        (lambda: IntMatrix(entries=((True,),)), "matrix entry True is not an integer"),
        (lambda: IntMatrix(((0, 1), (2, 0))), "matrix is not symmetric"),
        (lambda: WuClass((0, 2)), "Wu coordinates must be 0 or 1"),
        (lambda: TwistKnotFamily(n=-1), "twist-knot parameter must be >= 0"),
        (lambda: PlumbingGraph((0, 0), ((0, 0),)), r"bad edge \(0,0\)"),
        (lambda: PlumbingGraph((0, 0), ((0, 2),)), r"bad edge \(0,2\)"),
        (lambda: PlumbingGraph(weights=(0, 0, 0), edges=((0, 1),)), "plumbing graph must be a tree"),
        (lambda: PlumbingGraph((0, 0, 0), ((0, 1), (1, 0), (1, 2))), "plumbing graph must be a tree"),
    ],
)
def test_construction_checks(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_defaults():
    spec = FamilySpec("x", ((0, 2), (0, 3), (1, 7)))
    assert (spec.parity, spec.n_exact) == ("all", None)
    assert spec == FamilySpec(id="x", triple_coeffs=((0, 2), (0, 3), (1, 7)), parity="all")
    assert KirbyScript(name="s", initial=LINK, moves=(), expect=LINK).annotations == ()
    assert PlumbingGraph((-1,), ()).origin is None
    assert VerificationReport(*[None] * 10, claims_checked=()).passed


class TestPlumbingGraphEquality:
    ORIGIN = (BrieskornTriple(2, 3, 5), SeifertData(-2, ((2, 1), (3, 2), (5, 4))))

    def test_origin_is_ignored(self):
        bare = PlumbingGraph((-2, -2, -3), ((0, 1), (1, 2)))
        tagged = PlumbingGraph((-2, -2, -3), ((0, 1), (1, 2)), self.ORIGIN)
        assert bare == tagged and not bare != tagged
        assert hash(bare) == hash(tagged)
        assert tagged.origin == self.ORIGIN
        assert repr(tagged).endswith(f"origin={self.ORIGIN!r})")

    @pytest.mark.parametrize(
        "weights, edges",
        [((-2, -2, -2), ((0, 1), (1, 2))), ((-2, -2, -3), ((0, 1), (0, 2)))],
    )
    def test_weights_and_edges_are_compared(self, weights, edges):
        g = PlumbingGraph((-2, -2, -3), ((0, 1), (1, 2)), self.ORIGIN)
        other = PlumbingGraph(weights, edges, self.ORIGIN)
        assert g != other and not g == other

    def test_adjacency_is_built_at_construction(self):
        g = PlumbingGraph((-2, -2, -3), ((0, 1), (1, 2)))
        assert g.adj == (((1, 1),), ((0, 1), (2, 1)), ((1, 1),))
        assert pickle.loads(pickle.dumps(g)).adj == g.adj
