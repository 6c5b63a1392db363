import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromabench.metrics import (
    ErrorSummary,
    METRICS,
    STAT_KEYS,
    angles_deg,
    error_angles,
    format_ranking_text,
    normalize_rows,
    rank,
    recovery_error,
    reproduction_error,
    summarize,
    write_ranking_csv,
)

positive_vec = st.tuples(
    st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)
)


# --- recovery ----------------------------------------------------------------


def test_recovery_identical_directions_is_exactly_zero():
    assert recovery_error((1, 2, 3), (1, 2, 3)) == 0.0


def test_recovery_orthogonal_axes():
    assert recovery_error((1, 0, 0), (0, 1, 0)) == pytest.approx(90.0, abs=1e-12)


def test_recovery_reference_value():
    # independent oracle: cos(theta) = 4 / (sqrt(3) * sqrt(6))
    oracle = math.degrees(math.acos(4.0 / (math.sqrt(3) * math.sqrt(6))))
    got = recovery_error((1, 1, 1), (1, 2, 1))
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(19.4712, abs=1e-3)


def test_recovery_rejects_zero_vector():
    with pytest.raises(ValueError):
        recovery_error((0, 0, 0), (1, 1, 1))


@given(positive_vec, positive_vec, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_recovery_scale_invariance(e, g, alpha, beta):
    e = np.asarray(e)
    g = np.asarray(g)
    base = recovery_error(e, g)
    assert abs(recovery_error(alpha * e, beta * g) - base) < 1e-9


@given(positive_vec, positive_vec)
def test_recovery_symmetry_is_exact(e, g):
    assert recovery_error(e, g) == recovery_error(g, e)


@given(positive_vec, st.floats(0.001, 1000))
def test_recovery_parallel_is_zero(e, alpha):
    # scaling introduces per-component rounding, so parallel (rather than
    # identical) vectors land within float noise of zero, not exactly on it
    e = np.asarray(e)
    assert recovery_error(e, alpha * e) < 1e-9


# --- row-wise kernel ---------------------------------------------------------


def unit_exponent(w):
    # Exact power-of-two scaling to a largest |component| in [0.5, 1), as
    # the kernel does, so the squared cross norm neither over- nor underflows.
    shift = -math.frexp(max(abs(x) for x in w))[1]
    return np.array([math.ldexp(x, shift) for x in w])


def scalar_angle(u, v):
    # Independent one-pair formula: the kernel must match it in every bit.
    u, v = unit_exponent(u), unit_exponent(v)
    cross = np.cross(u, v)
    return math.degrees(math.atan2(float(np.linalg.norm(cross)), float(np.dot(u, v))))


signed_vec = st.tuples(
    st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)
)


@given(st.lists(st.tuples(signed_vec, signed_vec, st.floats(1e-3, 1e3)), min_size=1, max_size=8))
def test_angles_deg_matches_the_scalar_formula_bit_for_bit(triples):
    us, vs = [], []
    for e, g, alpha in triples:
        e, g = np.asarray(e), np.asarray(g)
        # the pair, swapped, parallel and both scaled
        for u, v in ((e, g), (g, e), (e, alpha * e), (alpha * e, alpha * g)):
            us.append(u)
            vs.append(v)
    got = angles_deg(np.array(us), np.array(vs))
    want = np.array([scalar_angle(u, v) for u, v in zip(us, vs)])
    assert got.tobytes() == want.tobytes()


# Components whose power-of-two rescaling by up to 2**±1000 stays exact.
scalable = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
scalable_vec = st.tuples(scalable, scalable, scalable)


@given(
    st.lists(
        st.tuples(scalable_vec, scalable_vec, st.integers(-1000, 1000), st.integers(-1000, 1000)),
        min_size=1,
        max_size=8,
    )
)
@example([((1.0, 1.0, 1.0), (1.0, 0.0, 0.0), 1000, 0)])
def test_angles_deg_is_blind_to_power_of_two_scaling(rows):
    u = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    k = np.array([[r[2]] for r in rows])
    m = np.array([[r[3]] for r in rows])
    scaled = angles_deg(np.ldexp(u, k), np.ldexp(v, m))
    assert scaled.tobytes() == angles_deg(u, v).tobytes()


def test_one_pair_errors_on_rows_past_the_squared_range():
    assert recovery_error((1e160, 1, 1), (1, 1, 1)) == pytest.approx(54.7356103172, abs=1e-9)
    assert reproduction_error((1e-160, 1, 1), (1, 1, 1)) == pytest.approx(54.7356103172, abs=1e-9)


# --- the unit normaliser -----------------------------------------------------


def test_normalize_rows_fixtures():
    got = normalize_rows(np.array([[1, 1, 1], [2, 0, 0], [1, 2, 2]]))
    np.testing.assert_allclose(got[0], np.full(3, 1 / np.sqrt(3)), rtol=0, atol=1e-15)
    assert got[1].tolist() == [1.0, 0.0, 0.0]
    # |(1, 2, 2)| = 3, so the result is exactly the division by 3
    assert np.array_equal(got[2], np.array([1, 2, 2]) / 3.0)


@given(
    st.tuples(st.floats(0, 1e308), st.floats(0, 1e308), st.floats(0, 1e308)).filter(any)
)
@example((5e-324, 0.0, 0.0))
@example((1e-160, 1e-160, 0.0))
@example((1e200, 1e200, 1e200))
def test_normalize_rows_returns_unit_vectors(v):
    # Subnormal and huge rows too: the power-of-two scaling keeps the norm finite.
    assert abs(np.linalg.norm(normalize_rows(np.array([v]))[0]) - 1.0) <= 1e-12


# Components whose squares, and their ratios' squares, stay normal floats;
# rescaling by up to 2**+-800 keeps them normal too.
normal_component = st.one_of(st.just(0.0), st.floats(1e-50, 1e50))
normal_vec = st.tuples(normal_component, normal_component, normal_component).filter(any)


@given(st.lists(st.tuples(normal_vec, st.integers(-800, 800)), min_size=1, max_size=8))
def test_normalize_rows_is_each_row_over_its_norm_bit_for_bit(rows):
    a = np.array([v for v, _ in rows])
    got = normalize_rows(a)
    want = np.array([v / np.linalg.norm(v) for v in a])
    assert got.tobytes() == want.tobytes()
    for row, v in zip(got, a):  # alone, not in this batch
        assert normalize_rows(v[None]).tobytes() == row.tobytes()
    k = np.array([[k] for _, k in rows])
    assert normalize_rows(np.ldexp(a, k)).tobytes() == got.tobytes()


# Magnitudes stay between 1e-150 and 1e3 where finite, so no product overflows.
special = st.sampled_from([0.0, -0.0, 1e-150, math.nan, math.inf, -math.inf])
component = st.one_of(st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3), special)
any_vec = st.tuples(component, component, component)


def scalar_error(metric, e, g):
    # The one-pair checks in their order, then the independent formula.
    e, g = np.asarray(e, dtype=np.float64), np.asarray(g, dtype=np.float64)
    if not np.all(np.isfinite(e)):
        raise ValueError("estimate must be finite")
    if not np.all(np.isfinite(g)):
        raise ValueError("reference must be finite")
    if metric == "recovery":
        if not e.any() or not g.any():
            raise ValueError("zero vector has no direction")
        return scalar_angle(e, g)
    if np.any(e == 0.0):
        raise ValueError("division by zero channel in estimate")
    if np.any(e < 0.0):
        raise ValueError("estimate channels must be positive")
    with np.errstate(over="ignore"):
        ratio = g / e
    for name, r in zip("RGB", ratio):
        if not math.isfinite(r):
            raise ValueError(
                f"estimate channel {name} is too small: reference/estimate overflows"
            )
    if not ratio.any():
        raise ValueError("zero vector has no direction")
    return scalar_angle(ratio, np.ones(3))


@given(st.sampled_from(METRICS), st.lists(st.tuples(any_vec, any_vec), max_size=10))
# Subnormal estimate channels overflow the ratio: in R, in G, in R and B.
@example("reproduction", [((1e-320, 0.6, 0.8), (1000.0, 800.0, 600.0))])
@example("reproduction", [((0.6, 1e-320, 0.8), (1.0, 1.0, 1.0))])
@example("reproduction", [((1e-320, 0.6, 1e-320), (1e3, 1e3, 1e3))])
def test_error_angles_and_the_one_pair_functions_match_the_scalar_checks(metric, pairs):
    one_pair = recovery_error if metric == "recovery" else reproduction_error
    e = np.reshape([p[0] for p in pairs], (len(pairs), 3))
    g = np.reshape([p[1] for p in pairs], (len(pairs), 3))
    degrees, problems = error_angles(metric, e, g)
    for i, (est, ref) in enumerate(pairs):
        try:
            want = scalar_error(metric, est, ref)
        except ValueError as exc:
            assert problems[i] == str(exc)
            assert math.isnan(degrees[i])
            with pytest.raises(ValueError, match=f"^{exc}$"):
                one_pair(est, ref)
        else:
            assert i not in problems
            assert degrees[i] == want == one_pair(est, ref)


def test_error_angles_rejects_bad_shapes_and_metrics():
    with pytest.raises(ValueError, match="unknown metric"):
        error_angles("bogus", np.ones((1, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError, match=r"\(N, 3\)"):
        error_angles("recovery", np.ones((2, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError, match=r"\(N, 3\)"):
        error_angles("recovery", np.ones(3), np.ones(3))


# --- reproduction ------------------------------------------------------------


def test_reproduction_perfect_estimate_is_exactly_zero():
    assert reproduction_error((0.4, 1.1, 2.0), (0.4, 1.1, 2.0)) == 0.0


def test_reproduction_reference_value():
    # independent oracle: ratio (0.5, 1, 1); cos = 2.5 / (1.5 * sqrt(3))
    oracle = math.degrees(math.acos(2.5 / (1.5 * math.sqrt(3))))
    assert reproduction_error((2, 1, 1), (1, 1, 1)) == pytest.approx(oracle, abs=1e-9)


def test_reproduction_rejects_zero_channel():
    with pytest.raises(ValueError, match="zero channel"):
        reproduction_error((1, 0, 1), (1, 1, 1))


def test_reproduction_is_not_symmetric():
    a = reproduction_error((2, 1, 1), (1, 1, 1))
    b = reproduction_error((1, 1, 1), (2, 1, 1))
    assert abs(a - b) > 0.1


@given(positive_vec, positive_vec)
def test_reproduction_duality(e, g):
    e = np.asarray(e)
    g = np.asarray(g)
    assert abs(reproduction_error(e, g) - recovery_error(g / e, (1, 1, 1))) < 1e-9


# --- summaries ---------------------------------------------------------------


def test_summarize_singleton():
    s = summarize([5.0])
    assert (
        s.mean,
        s.median,
        s.trimean,
        s.q95,
        s.best25,
        s.worst25,
    ) == (5.0, 5.0, 5.0, 5.0, 5.0, 5.0)


def test_summarize_even_count_median():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.median == 2.5
    assert s.mean == 2.5


def test_q95_interpolation_fixture():
    s = summarize(np.arange(100, dtype=float))
    assert s.q95 == pytest.approx(94.05, abs=1e-12)


def quantile_oracle(ordered, q):
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def brute_force_summary(errors):
    ordered = sorted(errors)
    n = len(ordered)
    q25 = quantile_oracle(ordered, 0.25)
    q50 = quantile_oracle(ordered, 0.5)
    q75 = quantile_oracle(ordered, 0.75)
    k = math.ceil(n / 4)
    return {
        "mean": sum(errors) / n,
        "median": q50,
        "trimean": (q25 + 2 * q50 + q75) / 4,
        "q95": quantile_oracle(ordered, 0.95),
        "best25": sum(ordered[:k]) / k,
        "worst25": sum(ordered[-k:]) / k,
    }


@settings(max_examples=200)
@given(st.lists(st.floats(0, 180, allow_nan=False), min_size=1, max_size=60))
@example([1.0] * 4 + [0.76] * 5)  # the three lowest 0.76s sum to a mean above 0.76
def test_summarize_matches_brute_force(errors):
    s = summarize(errors)
    oracle = brute_force_summary(errors)
    for key in STAT_KEYS:
        assert getattr(s, key) == pytest.approx(oracle[key], abs=1e-12)
    assert s.best25 <= s.median <= s.worst25
    assert s.q95 >= s.median


@given(
    st.lists(st.floats(0, 180, allow_nan=False), min_size=1, max_size=60),
    st.randoms(use_true_random=False),
)
def test_summarize_is_independent_of_row_order(errors, random):
    shuffled = list(errors)
    random.shuffle(shuffled)
    assert summarize(shuffled) == summarize(errors)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


# --- ranking -----------------------------------------------------------------


def summary_with(median, mean):
    return ErrorSummary(
        mean=mean,
        median=median,
        trimean=median,
        q95=median,
        best25=median,
        worst25=median,
    )


def test_rank_orders_by_median():
    ranked = rank(
        {"A": summary_with(3, 3), "B": summary_with(2, 2), "C": summary_with(5, 5)}
    )
    assert [algo for algo, _ in ranked] == ["B", "A", "C"]


def test_rank_breaks_ties_by_mean_then_name():
    ranked = rank({"A": summary_with(1, 4), "B": summary_with(1, 3)})
    assert [algo for algo, _ in ranked] == ["B", "A"]
    ranked = rank({"Z": summary_with(1, 3), "B": summary_with(1, 3)})
    assert [algo for algo, _ in ranked] == ["B", "Z"]


def test_rank_is_input_order_invariant():
    summaries = {"A": summary_with(3, 3), "B": summary_with(2, 2), "C": summary_with(5, 5)}
    reversed_order = dict(reversed(list(summaries.items())))
    assert rank(summaries) == rank(reversed_order)


def test_rank_rejects_empty_and_bad_key():
    with pytest.raises(ValueError):
        rank({})
    with pytest.raises(ValueError):
        rank({"A": summary_with(1, 1)}, key="p99")


def test_ranking_csv_and_text(tmp_path):
    ranked = rank({"A": summary_with(3, 3), "B": summary_with(2, 2)})
    path = tmp_path / "rank.csv"
    write_ranking_csv(ranked, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,algorithm,mean,median,trimean,q95,best25,worst25"
    assert lines[1].startswith("1,B,")
    text = format_ranking_text(ranked, title="t")
    assert text.splitlines()[0] == "t"
    assert "algorithm" in text.splitlines()[1]
