import ast
import contextvars
import importlib
import inspect
import math
import pkgutil
import random

import pytest
from hypothesis import given, strategies as st

import incmac
from incmac import core
from incmac.core import (
    FLAG_UNDERFLOW,
    DomainError,
    Evaluation,
    MethodTag,
    ShuParams,
    Tolerances,
    _log_s_lower,
    _log_s_peak,
    _log_s_upper,
    shared,
    shared_work,
    validate,
)

import frozen


class _Real(float):
    pass


class TestValidate:
    def test_in_domain_point(self):
        p = validate(0, 3, 3)
        assert p == ShuParams(0.0, 3.0, 3.0)

    def test_negative_argument_names_field(self):
        with pytest.raises(DomainError) as exc:
            validate(1, -1, 2)
        assert exc.value.field == "argument"

    def test_zero_endpoint_is_excluded(self):
        with pytest.raises(DomainError) as exc:
            validate(2, 3, 0)
        assert exc.value.field == "endpoint"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_order_rejected(self, bad):
        with pytest.raises(DomainError) as exc:
            validate(bad, 1, 1)
        assert exc.value.field == "order"

    def test_non_numeric_rejected(self):
        with pytest.raises(DomainError):
            validate("0", 1, 1)
        with pytest.raises(DomainError):
            validate(True, 1, 1)

    @pytest.mark.parametrize(
        "point,message",
        [
            ((True, 1.0, 1.0), "order=True: must be a real number"),
            ((0.0, False, 1.0), "argument=False: must be a real number"),
            (("0", 1.0, 1.0), "order='0': must be a real number"),
            ((math.nan, 1.0, 1.0), "order=nan: must be finite"),
            ((0.0, math.nan, 1.0), "argument=nan: must be finite"),
            ((0.0, 1.0, math.nan), "endpoint=nan: must be finite"),
            ((math.inf, 1.0, 1.0), "order=inf: must be finite"),
            ((-math.inf, 1.0, 1.0), "order=-inf: must be finite"),
            ((0.0, math.inf, 1.0), "argument=inf: must be finite"),
            ((0.0, 1.0, -math.inf), "endpoint=-inf: must be finite"),
            ((0.0, -0.0, 1.0), "argument=-0.0: must be strictly positive"),
            ((0.0, 1.0, -0.0), "endpoint=-0.0: must be strictly positive"),
            ((0.0, 0.0, 1.0), "argument=0.0: must be strictly positive"),
            ((0.0, 1.0, 0), "endpoint=0.0: must be strictly positive"),
            ((0.0, -2.5, 1.0), "argument=-2.5: must be strictly positive"),
            ((0.0, 1.0, -1), "endpoint=-1.0: must be strictly positive"),
            ((0.0, 1.0, True), "endpoint=True: must be a real number"),
            ((0.0, math.inf, math.nan), "argument=inf: must be finite"),
            ((0.0, 1.0, math.inf), "endpoint=inf: must be finite"),
            ((0.0, 1.0, -2.5), "endpoint=-2.5: must be strictly positive"),
            ((_Real(1.5), _Real(-2.5), 1.0), "argument=-2.5: must be strictly positive"),
            # the first field the rule refuses is named
            (("0", -1.0, math.nan), "order='0': must be a real number"),
            ((1, -1, math.nan), "argument=-1.0: must be strictly positive"),
        ],
    )
    def test_invalid_input_message(self, point, message):
        with pytest.raises(DomainError) as exc:
            ShuParams(*point)
        assert str(exc.value) == message

    @pytest.mark.parametrize("other", [1.0, 1], ids=["floats", "ints"])
    @pytest.mark.parametrize("value", [_Real(1.5), 2, True, -0.0, math.nan, math.inf, -2.5])
    @pytest.mark.parametrize("slot", range(3))
    def test_each_slot_takes_the_field_rule(self, slot, value, other):
        # with float neighbours a point may take ShuParams' all-float path,
        # with int neighbours never: both give the field's own rule, the
        # same float or the same DomainError
        field = ShuParams._fields[slot]
        rule = core._as_finite_real if slot == 0 else core._as_positive
        point = [other] * 3
        point[slot] = value
        try:
            want = rule(field, value)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                ShuParams(*point)
            assert (got.value.field, str(got.value)) == (field, str(exc))
            return
        p = ShuParams(*point)
        assert [type(v) for v in p] == [float] * 3
        assert p[slot].hex() == want.hex()
        assert [v for i, v in enumerate(p) if i != slot] == [1.0, 1.0]

    @pytest.mark.parametrize(
        "point",
        [(0.5, 1.0, 2.0), (-0.0, 5e-324, 1.7976931348623157e308), (-30.25, 1e-300, 3e3), (0.0, 1.0, 1e-308)],
    )
    def test_finite_floats_kept_as_given(self, point):
        p = ShuParams(*point)
        assert all(type(v) is float for v in (p.order, p.argument, p.endpoint))
        assert [v.hex() for v in (p.order, p.argument, p.endpoint)] == [v.hex() for v in point]

    def test_ints_and_float_subclasses_become_floats(self):
        p = ShuParams(2, _Real(1.5), 3)
        assert (p.order, p.argument, p.endpoint) == (2.0, 1.5, 3.0)
        assert all(type(v) is float for v in (p.order, p.argument, p.endpoint))

    @given(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    def test_total_on_floats(self, nu, z, t):
        # either a fully valid point or a DomainError; nothing else
        try:
            p = validate(nu, z, t)
        except DomainError:
            return
        assert math.isfinite(p.order)
        assert p.argument > 0 and math.isfinite(p.argument)
        assert p.endpoint > 0 and math.isfinite(p.endpoint)


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.abs_tol == 1e-12
        assert tol.rel_tol == 1e-10
        assert tol.max_depth == 60

    def test_needs_one_positive_tolerance(self):
        with pytest.raises(ValueError):
            Tolerances(abs_tol=0.0, rel_tol=0.0)
        Tolerances(abs_tol=0.0, rel_tol=1e-10)  # fine

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Tolerances(abs_tol=-1e-3)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError):
                Tolerances(abs_tol=value)
            with pytest.raises(ValueError):
                Tolerances(rel_tol=value)
        with pytest.raises(ValueError):
            Tolerances(max_depth=0)

    def test_target_combines_absolute_and_relative(self):
        tol = Tolerances(abs_tol=1e-12, rel_tol=1e-10)
        assert tol.target(1.0) == 1e-10
        assert tol.target(1e-5) == 1e-12
        assert tol.target(-1.0) == 1e-10

    def test_target_is_max_bit_for_bit(self):
        # the comparison returns what max(abs_tol, rel_tol |scale|) does,
        # abs_tol where the product is NaN (0 * inf, or a NaN scale)
        for tol in (Tolerances(1e-12, 1e-10), Tolerances(0.0, 1e-12), Tolerances(5e-324, 0.0)):
            for scale in (0.0, -0.0, 1e-5, -3.0, 1e300, math.inf, -math.inf, math.nan, 1e-2):
                want = max(tol.abs_tol, tol.rel_tol * abs(scale))
                got = tol.target(scale)
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
                assert got == want or (math.isnan(got) and math.isnan(want)), (tol, scale)


class TestEvaluation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Evaluation(1.0, -1.0, MethodTag.ORACLE5, 0)
        with pytest.raises(ValueError):
            Evaluation(1.0, 0.0, MethodTag.ORACLE5, -1)

    @staticmethod
    def _fields(ev):
        return ev.value, ev.error_estimate, ev.flags

    def test_subnormal_value_becomes_flagged_zero(self):
        ev = Evaluation(1e-310, 1e-320, MethodTag.SERIES_SMALL_T, 3)
        assert self._fields(ev) == (0.0, 0.0, (FLAG_UNDERFLOW,))
        assert ev.work == 3

    def test_exact_zero_with_zero_error_is_flagged(self):
        # a flag already carried stays, and the underflow flag follows it
        ev = Evaluation(0.0, 0.0, MethodTag.SERIES_SMALL_T, 3, ("other_flag",))
        assert self._fields(ev) == (0.0, 0.0, ("other_flag", FLAG_UNDERFLOW))

    def test_zero_with_larger_error_is_unchanged(self):
        # an unresolved value, not an underflow
        ev = Evaluation(0.0, 1e-296, MethodTag.SERIES_SMALL_T, 3)
        assert self._fields(ev) == (0.0, 1e-296, ())

    def test_flag_added_once(self):
        ev = Evaluation(0.0, 0.0, MethodTag.ORACLE5, 0, (FLAG_UNDERFLOW,))
        again = Evaluation(ev.value, ev.error_estimate, ev.method, ev.work, ev.flags)
        assert ev.flags == again.flags == (FLAG_UNDERFLOW,)

    def test_nan_estimate_untouched(self):
        ev = Evaluation(0.0, math.nan, MethodTag.ASYMPT_LARGE_T, 1)
        assert ev.value == 0.0 and math.isnan(ev.error_estimate) and ev.flags == ()

    def test_normal_value_untouched(self):
        ev = Evaluation(core.TINY, 0.0, MethodTag.ORACLE5, 0)
        assert self._fields(ev) == (core.TINY, 0.0, ())

    def test_rejection_refuses_a_nonfinite_value_or_estimate(self):
        tol = Tolerances(abs_tol=5e-324, rel_tol=1e-12)
        big = Tolerances(rel_tol=10.0)  # its target overflows at 1e308
        cases = [
            (1.0, 1e-13, tol, None),
            (1.0, 1e-11, tol, "TAIL_TOO_LARGE"),
            (1.0, math.nan, tol, "TAIL_TOO_LARGE"),
            (math.inf, math.inf, tol, "OVERFLOW"),
            (-math.inf, 0.0, tol, "OVERFLOW"),
            (math.nan, 0.0, tol, "OVERFLOW"),
            (1e308, math.inf, big, "OVERFLOW"),
        ]
        for value, err, t, want in cases:
            assert Evaluation(value, err, MethodTag.SERIES_SMALL_Z, 1).rejection(t) == want, (value, err)

    def test_method_tags_cover_all_paths(self):
        assert {m.value for m in MethodTag} == {
            "Oracle2", "Oracle4", "Oracle5",
            "SeriesSmallT", "SeriesSmallZ", "AsymptLargeT",
            "ClosedFormHalf",
        }


# Each public real-input entry point: (callable, valid arguments, {slot:
# (field, rule)}).  One input rule, core's, raises DomainError naming the
# field for every value it refuses.
_ENTRY_POINTS = [
    (incmac.gamma, (2.5,), {0: ("a", "real")}),
    (incmac.upper_incomplete_gamma, (1.5, 2.0), {0: ("a", "real"), 1: ("x", "positive")}),
    (incmac.incomplete_gamma_asymptotic, (1.5, 20.0, 3),
     {0: ("a", "real"), 1: ("x", "positive"), 2: ("m_max", "count from 0")}),
    (incmac.macdonald_k, (0.5, 2.0), {0: ("order", "real"), 1: ("z", "positive")}),
    (incmac.gen_incomplete_gamma, (0.5, 1.0, 1.0), {0: ("a", "real"), 1: ("t", "positive"), 2: ("z", "positive")}),
    (incmac.leaky_aquifer, (0.5, 1.0, 1.0), {0: ("a", "real"), 1: ("z", "positive"), 2: ("t", "positive")}),
    (incmac.incomplete_modified_bessel, (0.5, 3.0, 1.0),
     {0: ("a", "real"), 1: ("z", "positive"), 2: ("t_imb", "positive")}),
    (incmac.leading_imb_large_z, (0.5, 15.0, 1.0),
     {0: ("order", "real"), 1: ("z", "positive"), 2: ("t_imb", "positive")}),
    (Tolerances, (1e-12, 1e-10, 60),
     {0: ("abs_tol", "nonnegative"), 1: ("rel_tol", "nonnegative"), 2: ("max_depth", "count")}),
    (ShuParams, (0.5, 1.0, 1.0), {0: ("order", "real"), 1: ("argument", "positive"), 2: ("endpoint", "positive")}),
]
_REFUSED = {
    "real": (math.nan, math.inf, -math.inf, True, "1"),
    "positive": (math.nan, math.inf, -math.inf, True, "1", 0.0, -1.0),
    "nonnegative": (math.nan, math.inf, -math.inf, True, "1", -1.0),
    "count": (math.nan, math.inf, -math.inf, True, "1", 0, -1, 2.0),
    "count from 0": (math.nan, math.inf, -math.inf, True, "1", -1, 2.5, 2.0),
}


@pytest.mark.parametrize(
    "fn, args, slot, field, bad",
    [
        pytest.param(fn, args, slot, field, bad, id=f"{fn.__name__}-{field}-{bad!r}")
        for fn, args, slots in _ENTRY_POINTS
        for slot, (field, rule) in slots.items()
        for bad in _REFUSED[rule]
    ],
)
def test_every_real_input_obeys_one_rule(fn, args, slot, field, bad):
    call = list(args)
    call[slot] = bad
    with pytest.raises(DomainError) as exc:
        fn(*call)
    assert exc.value.field == field


def test_params_are_immutable():
    p = validate(1, 2, 3)
    with pytest.raises(AttributeError):
        p.argument = 5.0


def _modules():
    return [incmac] + [
        importlib.import_module(f"incmac.{m.name}") for m in pkgutil.iter_modules(incmac.__path__)
    ]


def test_numeric_policy_lives_in_core():
    # every module imports the shared constants from core instead of
    # binding an equal copy of its own
    policy = (core.EPS, core.TINY, core.LOG_TINY, core.LOG_HUGE, core.LN2, core.TIGHT)
    copies = [
        f"{mod.__name__}.{name}"
        for mod in _modules()
        for name, value in vars(mod).items()
        if isinstance(value, (float, Tolerances))
        and any(value == want and value is not want for want in policy)
    ]
    assert copies == []


def test_no_near_copy_of_a_policy_literal():
    # a literal within 10% of EPS or TINY outside core is a hand-written
    # copy of the shared policy (2.3e-308 for TINY, say)
    near = [
        f"{mod.__name__}:{node.lineno}: {node.value!r}"
        for mod in _modules()
        if mod is not core
        for node in ast.walk(ast.parse(inspect.getsource(mod)))
        if isinstance(node, ast.Constant) and type(node.value) is float
        and any(abs(node.value - want) <= 0.1 * want for want in (core.EPS, core.TINY))
    ]
    assert near == []


def test_only_core_binds_a_context_variable():
    # the one work-sharing scope lives in core; no module keeps its own memo
    bound = [
        f"{mod.__name__}.{name}"
        for mod in _modules()
        for name, value in vars(mod).items()
        if isinstance(value, contextvars.ContextVar)
    ]
    assert bound == ["incmac.core._SHARED"]


def test_only_core_names_the_underflow_flag():
    # Evaluation applies the underflow rule, so no other module builds the
    # flag by hand; the package only re-exports it
    named = [
        f"{mod.__name__}:{node.lineno}"
        for mod in _modules()
        if mod not in (incmac, core)
        for node in ast.walk(ast.parse(inspect.getsource(mod)))
        if (isinstance(node, ast.Name) and node.id == "FLAG_UNDERFLOW")
        or (isinstance(node, ast.Attribute) and node.attr == "FLAG_UNDERFLOW")
        or (isinstance(node, ast.alias) and node.name == "FLAG_UNDERFLOW")
        or (isinstance(node, ast.Constant) and node.value == core.FLAG_UNDERFLOW)
    ]
    assert named == []


def test_only_core_solves_for_the_y_form_peak():
    # the peak root y* of the y-form integrand lives in core._y_peak; a
    # hypot anywhere else is that root written out again
    written = [
        f"{mod.__name__}:{node.lineno}"
        for mod in _modules()
        if mod is not core
        for node in ast.walk(ast.parse(inspect.getsource(mod)))
        if isinstance(node, ast.Attribute) and node.attr == "hypot"
    ]
    assert written == []


def _frozen_values():
    # every frozen S with its point, where it is a positive normal double
    return [
        (point, value)
        for name, table in vars(frozen).items()
        if name.startswith("S_") and isinstance(table, dict)
        for point, value in table.items()
        if isinstance(point, tuple) and len(point) == 3 and value > core.TINY
    ]


class TestSizeOfS:
    @pytest.mark.parametrize("point,value", _frozen_values())
    def test_bounds_hold_at_frozen_values(self, point, value):
        p = ShuParams(*point)
        assert _log_s_lower(p) <= math.log(value)
        x0 = 0.25 * p.argument * p.argument / p.endpoint
        if 0.0 < x0 < math.inf:
            assert math.log(value) <= _log_s_upper(p)

    @pytest.mark.parametrize("point", list(frozen.LOG_S_OVERFLOW))
    def test_bounds_hold_past_the_double_range(self, point):
        p = ShuParams(*point)
        log_s = frozen.LOG_S_OVERFLOW[point]
        assert core.LOG_HUGE < _log_s_lower(p) <= log_s <= _log_s_upper(p)
        assert abs(_log_s_peak(p) - log_s) < 0.1 * log_s

    # the ids keep the numbering they had when the z^2/4 cases led the list
    @pytest.mark.parametrize(
        "point",
        [
            pytest.param((2.0, 1e200, 1e-100), id="point2"),  # x0 overflows
            pytest.param((3e305, 1e-3, 1.0), id="point3"),  # ln g passes the double range
        ],
    )
    def test_no_lower_bound_at_the_edges(self, point):
        assert _log_s_lower(ShuParams(*point)) == -math.inf

    # TINY stands in for z^2/4, 0 at z = 1e-170 and subnormal at 2e-154,
    # where the bound was -inf: S is about 2/z^2 at order 2 and t = 1,
    # past the double range at the first point and 5e307 at the second
    @pytest.mark.parametrize(
        "point,low,high",
        [
            pytest.param((2.0, 1e-170, 1.0), core.LOG_HUGE, math.log(2.0) + 340.0 * math.log(10.0), id="zero"),
            pytest.param((2.0, 2e-154, 1.0), 700.0, math.log(5e307), id="subnormal"),
        ],
    )
    def test_lower_bound_where_z2_over_4_is_subnormal(self, point, low, high):
        assert low < _log_s_lower(ShuParams(*point)) <= high

    def test_endpoint_bound_at_negative_order(self):
        # at nu < 0, e^(-z^2/4s) <= 1 leaves S <= (1/2)(z/2)^nu gamma(-nu, t),
        # at most Gamma(-nu) and t^-nu/-nu: at 2,000 seeded points with
        # z^2/4 from 0 to normal, where the endpoint form's bound may be the
        # larger, the lower bound stays below that
        rng = random.Random(34)
        for _ in range(2000):
            nu = -math.exp(rng.uniform(math.log(1e-3), math.log(30.0)))
            z = math.exp(rng.uniform(math.log(1e-320), math.log(1e-140)))
            t = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            p = ShuParams(nu, z, t)
            ceiling = nu * core.log_half_ratio(z) - core.LN2 + min(math.lgamma(-nu), -nu * math.log(t) - math.log(-nu))
            low = _log_s_lower(p)
            assert low <= ceiling + 1e-12 * abs(ceiling), p

    @pytest.mark.parametrize(
        "point",
        [
            # Y0 = max(x0, y*) is subnormal, so Y0/4 rounds to 0
            (-8290637012635042.0, 5.4871379322397784e-154, 9.633186336726054e+301),
            # the peak and x0 underflow to 0, so Y0 is taken at TINY
            (-1e17, 3e-154, 1e300),
        ],
    )
    def test_lower_bound_where_the_peak_underflows(self, point):
        # ln S is about |nu| (ln(2|nu|/z) - 1) here, far past ln DBL_MAX
        assert core.LOG_HUGE < _log_s_lower(ShuParams(*point)) < math.inf

    def test_no_upper_bound_where_the_shifted_peak_and_x0_underflow(self):
        # math.log(0) raised a bare ValueError here; inf is no bound, and
        # stays above the lower bound (3.54e19)
        p = ShuParams(-1e17, 3e-154, 1e300)
        assert _log_s_upper(p) == math.inf
        assert _log_s_lower(p) <= _log_s_upper(p)


class TestSharedWork:
    @staticmethod
    def _counter():
        calls = []

        def fn(*args):
            calls.append(args)
            return len(calls)

        return fn, calls

    def test_plain_call_outside_a_block(self):
        fn, calls = self._counter()
        assert (shared(fn, 1), shared(fn, 1)) == (1, 2)
        assert calls == [(1,), (1,)]

    def test_each_distinct_call_once_inside_a_block(self):
        fn, calls = self._counter()
        with shared_work():
            assert [shared(fn, 1), shared(fn, 2), shared(fn, 1)] == [1, 2, 1]
        assert calls == [(1,), (2,)]

    def test_nested_block_reuses_the_enclosing_one(self):
        fn, calls = self._counter()
        with shared_work():
            shared(fn, 1)
            with shared_work():
                assert shared(fn, 1) == 1
            assert shared(fn, 1) == 1
        assert calls == [(1,)]

    def test_nothing_outlives_the_outermost_block(self):
        fn, calls = self._counter()
        for _ in range(2):
            with shared_work():
                shared(fn, 1)
        assert calls == [(1,), (1,)]

    def test_raise_is_not_stored(self):
        calls = []

        def flaky(x):
            calls.append(x)
            if len(calls) == 1:
                raise ArithmeticError("first call fails")
            return x

        with shared_work():
            with pytest.raises(ArithmeticError):
                shared(flaky, 7)
            assert shared(flaky, 7) == 7
            assert shared(flaky, 7) == 7
        assert calls == [7, 7]


def test_log_half_ratio_where_half_z_is_subnormal():
    # at z = 2.5e-323 the half z/2 rounds to 0.8 of itself while z/2t =
    # 1.2e-303 is normal; evaluate returned S 11.8% high there with an
    # estimate of 2.3e-13.  The reference, (1/2)(2/z)^0.5 gamma(0.5, t)
    # with mpmath.gammainc and mpmath.quad of the tau-form, agreeing to
    # 1e-23, rounded to double (e^(-z^2/4s) is 1 but below s ~ z^2)
    assert core.log_half_ratio(2.5e-323, 1e-20) == math.log(2.5e-323 / 2e-20)
    ev, _ = incmac.evaluate(ShuParams(-0.5, 2.5e-323, 1e-20), core.TIGHT)
    assert abs(ev.value - 2.845362917501461e151) <= ev.error_estimate
