"""The record types: immutable named tuples whose constructor validates.

Pins each record's fields, defaults, repr, immutability and hashing, and
that _replace and _make run the same checks as the constructor.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import incmac
from incmac.core import FLAG_UNDERFLOW, DomainError, Evaluation, MethodTag, ShuParams, Tolerances
from incmac.evaluator import GridCell, RegimeDecision
from incmac.quadrature import QuadratureResult
from incmac.relations import ResidualReport
from incmac.verification import VerifyRecord

_EV = Evaluation(1.5, 0.0, MethodTag.ORACLE5, 3)
_DEC = RegimeDecision(MethodTag.ORACLE5, "ORACLE")
_POINT = ShuParams(0.0, 3.0, 3.0)


def _records():
    """(factory, fields, repr) for each record; each call of the factory
    builds a new record."""
    return [
        (lambda: ShuParams(0.0, 3.0, 3.0), ("order", "argument", "endpoint"),
         "ShuParams(order=0.0, argument=3.0, endpoint=3.0)"),
        (lambda: Tolerances(), ("abs_tol", "rel_tol", "max_depth"),
         "Tolerances(abs_tol=1e-12, rel_tol=1e-10, max_depth=60)"),
        (lambda: Evaluation(1.5, 0.0, MethodTag.ORACLE5, 3), ("value", "error_estimate", "method", "work", "flags"),
         "Evaluation(value=1.5, error_estimate=0.0, method=<MethodTag.ORACLE5: 'Oracle5'>, work=3, flags=())"),
        (lambda: RegimeDecision(MethodTag.ORACLE5, "ORACLE"), ("chosen", "reason", "candidates_tried"),
         "RegimeDecision(chosen=<MethodTag.ORACLE5: 'Oracle5'>, reason='ORACLE', candidates_tried=())"),
        (lambda: GridCell(0.0, 3.0, 3.0, _EV, _DEC),
         ("order", "argument", "endpoint", "evaluation", "decision", "error"),
         f"GridCell(order=0.0, argument=3.0, endpoint=3.0, evaluation={_EV!r}, decision={_DEC!r}, error=None)"),
        (lambda: QuadratureResult(0.25, 1e-17, 4, True), ("value", "error_estimate", "subdivisions", "converged"),
         "QuadratureResult(value=0.25, error_estimate=1e-17, subdivisions=4, converged=True)"),
        (lambda: ResidualReport("Recur", _POINT, 1e-17, 2.0),
         ("identity", "point", "residual", "scale", "k", "mode"),
         f"ResidualReport(identity='Recur', point={_POINT!r}, residual=1e-17, scale=2.0, k=None, mode=None)"),
        (lambda: VerifyRecord("Recur", 0.0, 3.0, 3.0, 1e-17, 2.0, True),
         ("identity", "nu", "z", "t", "residual", "scale", "passed"),
         "VerifyRecord(identity='Recur', nu=0.0, z=3.0, t=3.0, residual=1e-17, scale=2.0, passed=True)"),
    ]


@pytest.mark.parametrize("make,fields,text", _records(), ids=[text.split("(")[0] for _, _, text in _records()])
def test_record_contract(make, fields, text):
    rec = make()
    assert type(rec)._fields == fields
    assert repr(rec) == text
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = 1  # no instance dict
    again = make()
    assert again is not rec and again == rec and hash(again) == hash(rec)
    # a tuple of its fields: unpacks, and equals the plain tuple
    assert tuple(rec) == tuple(getattr(rec, name) for name in fields) == rec


def test_defaults():
    assert Tolerances() == (1e-12, 1e-10, 60)
    assert RegimeDecision(MethodTag.ORACLE5, "ORACLE").candidates_tried == ()
    assert GridCell(0.0, 3.0, 3.0, None, None).error is None
    report = ResidualReport("Recur", _POINT, 0.0, 1.0)
    assert report.k is None and report.mode is None


def _raised(call):
    with pytest.raises(ValueError) as exc:
        call()
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize(
    "record,field,bad,build",
    [
        (_POINT, "argument", -1.0, lambda: ShuParams(0.0, -1.0, 3.0)),
        (_POINT, "order", "0", lambda: ShuParams("0", 3.0, 3.0)),
        (Tolerances(), "max_depth", 0, lambda: Tolerances(max_depth=0)),
        (Tolerances(), "rel_tol", float("nan"), lambda: Tolerances(rel_tol=float("nan"))),
        (_EV, "error_estimate", -1.0, lambda: Evaluation(1.5, -1.0, MethodTag.ORACLE5, 3)),
        (_EV, "work", -1, lambda: Evaluation(1.5, 0.0, MethodTag.ORACLE5, -1)),
        (ResidualReport("Recur", _POINT, 0.0, 1.0), "scale", 0.0, lambda: ResidualReport("Recur", _POINT, 0.0, 0.0)),
    ],
)
def test_replace_and_make_validate_as_the_constructor_does(record, field, bad, build):
    want = _raised(build)
    assert _raised(lambda: record._replace(**{field: bad})) == want
    values = [bad if name == field else value for name, value in zip(record._fields, record)]
    assert _raised(lambda: type(record)._make(values)) == want


def test_replace_applies_the_underflow_rule():
    ev = Evaluation(1.0, 0.0, MethodTag.ORACLE5, 0)._replace(value=1e-320)
    assert ev == (0.0, 0.0, MethodTag.ORACLE5, 0, (FLAG_UNDERFLOW,))


def test_replace_converts_as_the_constructor_does():
    assert repr(_POINT._replace(order=2)) == repr(ShuParams(2, 3.0, 3.0)) == repr(ShuParams(2.0, 3.0, 3.0))
    with pytest.raises(DomainError) as exc:
        _POINT._replace(endpoint=0.0)
    assert exc.value.field == "endpoint"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # both cost several milliseconds of every CLI run's start-up
    root = pathlib.Path(incmac.__file__).resolve().parent.parent
    code = "import sys, incmac.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
