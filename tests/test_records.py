"""The contract of the package's records (``spinorlab._record.Record``).

Every record class is checked with one sample of valid field values: keyword
and positional construction agree, the fields sit in ``__dict__`` in the
order of ``_fields``, which matches the ``__init__`` parameters, equality and
hashing follow the field values of one class only, the repr has the form
``Name(a=1, b=2)``, no attribute can be set or deleted, and ``pickle`` and
``copy.deepcopy`` give back an equal record.  A record class without a
sample fails ``test_every_record_has_a_sample``.  The same checks run on
``Interval``, a record of this file whose ``__init__`` binds another local
before it stores its fields.

The slot values of the package (``ExactMatrix``, ``MultiPoly``,
``LaurentPoly``, ``FracElem`` and ``Dual``) share the records' freeze rule,
``_record.Frozen``: no slot can be set or deleted, not even on the matrices
that ``standard_omega`` and ``moment._zero_residual`` cache and share.

The ``__init__`` parameters are the only declaration of a record's fields: a
scan of the package's syntax tree finds no class but ``Record`` that assigns
``_fields`` or has a method that writes into ``__dict__`` by subscript.
"""

import ast
import copy
import inspect
import io
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import spinorlab
from spinorlab import bbflow, cech, cocycle, hecke, lie, moment, petri, rrdim, suites
from spinorlab._record import Record
from spinorlab.matrix import ExactMatrix, is_symplectic, random_symplectic, standard_omega
from spinorlab.rings import Dual, FracElem, LaurentPoly, MultiPoly


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = {c for c in _subclasses(Record) if c.__module__.startswith(spinorlab.__name__ + ".")}

_M = ExactMatrix([[1, 2], [0, 1]])
_MODEL = cech.TwoTermCechModel(ExactMatrix([[1]]), ExactMatrix([[2]]), ExactMatrix([[3]]), ExactMatrix([[6]]))
_FAMILY = hecke.hecke_family(1, 1)

# one valid sample per record class: keyword arguments in parameter order
SAMPLES = {
    bbflow.GradedHiggsModel: dict(
        weights=bbflow.graded_weights(2), omega=bbflow.graded_omega(2), phi=bbflow.strictly_filtered_phi(2)
    ),
    cech.TwoTermCechModel: dict(
        cech_d0=_MODEL.cech_d0, cech_d1=_MODEL.cech_d1, diff_a0=_MODEL.diff_a0, diff_a1=_MODEL.diff_a1
    ),
    cech.ComplexMorphism: dict(
        source=_MODEL, target=_MODEL, phi1_0=ExactMatrix.identity(1), phi1_1=ExactMatrix.identity(1)
    ),
    cech.ChaseVerdict: dict(hypothesis=True, conclusion=False, h1_source=1, h1_target=0),
    cech.QuotientSpace: dict(Z=ExactMatrix.identity(2), B=ExactMatrix.zeros(2, 0)),
    cech.FiveTermData: dict(spaces=(cech.QuotientSpace(_M, _M),), maps=(_M,)),
    cech.ExactnessReport: dict(nodes=(("H0(A0)", True, 0, 1, 1, True),)),
    cocycle.BlockCocycle: dict(
        n=2, l=LaurentPoly("x", {1: 2}), u=ExactMatrix.identity(2), d=(1, Fraction(1, 2)), a=0, gamma=(0, 3)
    ),
    cocycle.NecessityResult: dict(gamma=(Fraction(1, 3), 2), system_rank=2, unknowns=2),
    hecke.TruncatedSeriesVector: dict(entries=(MultiPoly.const(1), MultiPoly.var("z")), precision=3),
    hecke.HeckeFamily: dict(n=_FAMILY.n, m=_FAMILY.m, N=_FAMILY.N, h_t=_FAMILY.h_t, h_inv=_FAMILY.h_inv),
    hecke.GlueReport: dict(spinor_regular=True, spinor_nonzero_at_origin=True, higgs_glues=False, higgs_regular=True),
    lie.Summand: dict(kind="dual-pair", lo=0, hi=4, mid=2),
    lie.CheckReport: dict(checks=(("closure", True), ("form", False))),
    lie.SaturationVerdict: dict(status="FALSE", witnesses=(("summand0", "summand1"),)),
    petri.PetriMatrix: dict(space=petri.SectionSpace(lie.sp_standard(1), 1), base_psi=(1, 0), matrix=_M),
    rrdim.BundleNumerics: dict(rank=2, degree=3, genus=4),
    rrdim.EulerPairRecord: dict(chi_adjoint=-3, chi_twisted_sections=0, chi_pair=-3, expected=-3),
    rrdim.YDimensionRecord: dict(moduli_term=3, extension_term=4, torsor_term=3, hypotheses=("h0 vanishes",)),
    rrdim.SubobjectCase: dict(case_tag="F_maps_to_U", genus=2, deg_f_prime=-1, deg_s=-2, deg_f_mod_f_prime=-3),
    rrdim.CaseVerdict: dict(deg_f=-4, steps=("deg F = -4",)),
    suites.SuiteConfig: dict(suite="dims", n=3, g=5, m=2, s=3, prec=6, trials=7, seed=8),
    suites.SuiteReport: dict(suite="dims", config={"n": 2}, passed=3, failed=1, failures=[("a", "b")], wall_time=0.5),
}

# each record class with a defaulted parameter: required arguments, then the defaults
DEFAULTS = {
    lie.Summand: (("irreducible", 0, 2), {"mid": None}),
    lie.SaturationVerdict: (("TRUE",), {"witnesses": ()}),
    rrdim.YDimensionRecord: ((3, 4, 3), {"hypotheses": ()}),
    rrdim.SubobjectCase: (("F_in_L", 2, -1), {"deg_s": None, "deg_f_mod_f_prime": None}),
    suites.SuiteConfig: (("dims",), dict(n=2, g=2, m=1, s=2, prec=4, trials=100, seed=0)),
}


class Interval(Record):
    """A record whose ``__init__`` binds a local that is not a field before
    storing."""

    def __init__(self, lo: int, hi: int):
        width = hi - lo
        if width < 0:
            raise ValueError("empty interval")
        self._store(locals())


# records of this file: the checks below run on them too
LOCAL_SAMPLES = {Interval: dict(lo=1, hi=3)}

CLASSES = sorted(SAMPLES, key=lambda c: c.__qualname__) + list(LOCAL_SAMPLES)
SAMPLES = {**SAMPLES, **LOCAL_SAMPLES}
IDS = [c.__qualname__ for c in CLASSES]


def _by_identity(value) -> bool:
    return type(value).__eq__ is object.__eq__


def _pickled(record):
    """Pickle round trip; field values that compare by identity (a
    ``SectionSpace``) travel by reference, as they would between the parts of
    one program."""
    shared = [v for v in record._values() if _by_identity(v)]
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf)
    pickler.persistent_id = lambda obj: next((i for i, v in enumerate(shared) if v is obj), None)
    pickler.dump(record)
    buf.seek(0)
    unpickler = pickle.Unpickler(buf)
    unpickler.persistent_load = shared.__getitem__
    return unpickler.load()


def _deep_copied(record):
    memo = {id(v): v for v in record._values() if _by_identity(v)}
    return copy.deepcopy(record, memo)


def test_every_record_has_a_sample():
    assert RECORDS == set(SAMPLES) - set(LOCAL_SAMPLES)
    defaulted = {c for c in RECORDS if any(p.default is not p.empty for p in inspect.signature(c).parameters.values())}
    assert defaulted == set(DEFAULTS)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_are_the_init_parameters_in_order(cls):
    assert tuple(inspect.signature(cls).parameters) == cls._fields
    kwargs = SAMPLES[cls]
    assert tuple(kwargs) == cls._fields
    assert tuple(cls(**kwargs).__dict__) == cls._fields


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    kwargs = SAMPLES[cls]
    by_keyword = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert by_keyword == by_position
    for name, value in kwargs.items():
        assert getattr(by_position, name) == value


@pytest.mark.parametrize("cls", sorted(DEFAULTS, key=lambda c: c.__qualname__))
def test_defaults_apply(cls):
    required, defaults = DEFAULTS[cls]
    record = cls(*required)
    assert {name: getattr(record, name) for name in defaults} == defaults
    assert record == cls(*required, **defaults)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls):
    kwargs = SAMPLES[cls]
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b
    assert a == b and not a != b
    try:
        field_hash = hash(tuple(kwargs.values()))
    except TypeError:  # a list or dict field: no hash, as for the field tuple
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == field_hash
    assert a.__eq__(object()) is NotImplemented
    assert a != tuple(kwargs.values())


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_records_of_another_class_are_unequal(cls):
    kwargs = SAMPLES[cls]
    sub = type(cls.__name__, (cls,), {})
    a, b = cls(**kwargs), sub(**kwargs)
    assert a._values() == b._values()
    assert a != b and b != a
    assert a.__eq__(b) is NotImplemented


def test_records_with_equal_values_of_unrelated_classes_are_unequal():
    chase = cech.ChaseVerdict(True, False, True, True)
    glue = hecke.GlueReport(True, False, True, True)
    assert chase._values() == glue._values()
    assert chase != glue


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_names_each_field(cls):
    record = cls(**SAMPLES[cls])
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
    assert repr(record) == f"{cls.__qualname__}({body})"


def test_repr_literal_form():
    assert repr(rrdim.BundleNumerics(2, 3, 4)) == "BundleNumerics(rank=2, degree=3, genus=4)"
    assert repr(lie.Summand("irreducible", 0, 2)) == "Summand(kind='irreducible', lo=0, hi=2, mid=None)"
    assert repr(lie.SaturationVerdict("TRUE")) == "SaturationVerdict(status='TRUE', witnesses=())"


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_no_attribute_can_be_set_or_deleted(cls):
    record = cls(**SAMPLES[cls])
    before = dict(record.__dict__)
    for name in (*cls._fields, "unknown_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record.__dict__ == before


# one builder per slot value class: each call builds a fresh, equal value
VALUES = {
    ExactMatrix: lambda: ExactMatrix([[1, Fraction(1, 2)], [0, -3]]),
    MultiPoly: lambda: MultiPoly(("x", "y"), {(2, 1): 3, (0, 0): -1}),
    LaurentPoly: lambda: LaurentPoly("z", {-1: MultiPoly.var("t"), 2: 5}),
    FracElem: lambda: FracElem(MultiPoly.var("x"), MultiPoly.var("x") + 1),
    Dual: lambda: Dual(MultiPoly.var("x"), Fraction(2, 3)),
}


@pytest.mark.parametrize("cls", list(VALUES), ids=[c.__name__ for c in VALUES])
def test_no_value_slot_can_be_set_or_deleted(cls):
    value = VALUES[cls]()
    for name in (*cls.__slots__, "unknown_attribute"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    fresh = VALUES[cls]()
    assert value == fresh
    assert [getattr(value, s) for s in cls.__slots__] == [getattr(fresh, s) for s in cls.__slots__]


@pytest.mark.parametrize(
    "shared, name",
    [(lambda: standard_omega(2), "entries"), (lambda: moment._zero_residual(8), "rows")],
    ids=["standard_omega", "zero_residual"],
)
def test_shared_cached_matrices_keep_their_slots(shared, name):
    M = shared()
    kept = getattr(M, name)
    try:
        with pytest.raises(AttributeError):
            delattr(M, name)
    finally:
        if not hasattr(M, name):  # keep the shared value whole for the tests after this one
            object.__setattr__(M, name, kept)
    assert is_symplectic(random_symplectic(2, 1))


@pytest.mark.parametrize("round_trip", [_pickled, _deep_copied, copy.copy], ids=["pickle", "deepcopy", "copy"])
@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_round_trips_give_equal_records(cls, round_trip):
    record = cls(**SAMPLES[cls])
    again = round_trip(record)
    assert type(again) is cls
    assert again == record
    assert tuple(again.__dict__) == cls._fields


def test_pickle_restores_without_calling_init(monkeypatch):
    record = rrdim.SubobjectCase("F_in_L", 2, -1)
    data = pickle.dumps(record)

    def refuse(self, *args, **kwargs):
        raise AssertionError("__init__ ran")

    monkeypatch.setattr(rrdim.SubobjectCase, "__init__", refuse)
    assert pickle.loads(data).__dict__ == record.__dict__


class TestCachedProperties:
    def test_cached_values_are_kept(self):
        model = cech.TwoTermCechModel(**SAMPLES[cech.TwoTermCechModel])
        assert model.total_d0 is model.total_d0
        assert model.rank_d0 == 1
        assert {"total_d0", "rank_d0"} <= set(model.__dict__)

    def test_cached_values_stay_out_of_equality_hash_and_repr(self):
        kwargs = SAMPLES[cech.TwoTermCechModel]
        warm, cold = cech.TwoTermCechModel(**kwargs), cech.TwoTermCechModel(**kwargs)
        assert warm.rank_d1 == 1
        assert len(warm.__dict__) > len(cold.__dict__)
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert "rank_d1" not in repr(warm)

    def test_cached_values_survive_a_copy(self):
        model = cech.TwoTermCechModel(**SAMPLES[cech.TwoTermCechModel])
        rank = model.rank_d0
        again = pickle.loads(pickle.dumps(model))
        assert again.__dict__["rank_d0"] == rank
        assert again == model


class TestStoredFields:
    def test_series_entries_are_stored_as_polynomials(self):
        vector = hecke.TruncatedSeriesVector((1, 0), 2)
        assert [type(p) for p in vector.entries] == [MultiPoly, MultiPoly]
        assert vector.entries == (MultiPoly.const(1), MultiPoly.const(0))
        assert tuple(vector.__dict__) == ("entries", "precision")

    def test_the_validating_store_of_a_cocycle_keeps_its_fields(self):
        kwargs = SAMPLES[cocycle.BlockCocycle]
        built = cocycle.BlockCocycle._with_symplectic_u(**kwargs)
        assert tuple(built.__dict__) == cocycle.BlockCocycle._fields
        assert built == cocycle.BlockCocycle(**kwargs)


# ---- the fields are declared once, by the __init__ parameters ----

SRC = Path(spinorlab.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def field_declarations(source: str) -> list:
    """(class, line) of each assignment to ``_fields`` in a class body or to
    an attribute ``_fields`` anywhere, and of each write into ``__dict__`` by
    subscript in a method: ``x.__dict__[k] = v`` or through a name bound to
    ``x.__dict__``."""
    found = []
    for cls in (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)):
        for stmt in cls.body:
            for target in _targets(stmt):
                if isinstance(target, ast.Name) and target.id == "_fields":
                    found.append((cls.name, stmt.lineno))
        for method in (n for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))):
            aliases = set()
            for node in ast.walk(method):
                if isinstance(node, ast.Assign) and _is_dict_attr(node.value):
                    aliases |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            for node in ast.walk(method):
                for target in _targets(node):
                    if isinstance(target, ast.Subscript) and (
                        _is_dict_attr(target.value) or (isinstance(target.value, ast.Name) and target.value.id in aliases)
                    ):
                        found.append((cls.name, node.lineno))
                    if isinstance(target, ast.Attribute) and target.attr == "_fields":
                        found.append((cls.name, node.lineno))
    return found


def _targets(node) -> list:
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    return []


def _is_dict_attr(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def test_scan_flags_every_declaration_form():
    for source in (
        "class A:\n    _fields = ('x',)\n",
        "class A:\n    _fields: tuple = ()\n",
        "class A:\n    def __init__(self, x):\n        self.__dict__['x'] = x\n",
        "class A:\n    def __init__(self, x):\n        d = self.__dict__\n        d['x'] = x\n",
        "class A:\n    def f(self):\n        type(self)._fields = ()\n",
    ):
        assert field_declarations(source) == [("A", source.count("\n"))], source
    for source in (
        "def _fields(tokens):\n    return tokens\n",
        "class A:\n    def __init__(self, x):\n        self._store(locals())\n",
        "class A:\n    def f(self):\n        d = {}\n        d['x'] = 1\n",
    ):
        assert field_declarations(source) == [], source


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_record_declares_fields(path):
    found = field_declarations(path.read_text())
    if path.name == "_record.py":
        assert found and {name for name, _ in found} == {"Record"}
    else:
        assert found == []
