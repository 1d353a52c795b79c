"""Every finite point that the affine group law sees lies in <G>.

`curve._point_double` has no case for the 2-torsion point (0, sqrt(b)),
the only finite point with x = 0, and the chord formulas assume points
of the curve: the checks at the package's boundaries (`kp_point`,
`evaluate`, `brute_force_complete`, the CLI's --pub and the window
table's base point) keep every other point out.  These runs wrap the
group law's entry points and check each finite pair handed to them
with `in_base_subgroup`; a new path that passes a point outside <G>
fails here.
"""

import pytest

from kpsca import attack, cli, curve
from kpsca.attack import KeyCandidate, Polarity, brute_force_complete, evaluate
from kpsca.curve import AffinePoint, Scalar, fixed_base_multiples, get_curve, kp_multiply, kp_point
from kpsca.leaksim import LeakModel, build_schedule, synthesize_trace
from kpsca.traces import CompressionMethod, compress, segment

from helpers import flip_bits, make_test16_curve

TEST8 = get_curve("test8")
TEST16 = make_test16_curve()
B233 = get_curve("b233")


@pytest.fixture
def pair_law_inputs(monkeypatch):
    """The (pair, params) of every finite point passed to the group law."""
    seen = set()

    def wrap(fn, takes_lists):
        def wrapped(*args):
            *points, params = args
            if takes_lists:  # _add_many(ps, qs, params)
                points = [p for ps in points for p in ps]
            seen.update((p, params) for p in points if p is not None)
            return fn(*args)
        return wrapped

    # attack imports _point_add and _add_many by name, so both bindings are wrapped
    for module, name in [(curve, "_point_double"), (curve, "_point_add"), (curve, "_add_many"),
                         (attack, "_point_add"), (attack, "_add_many")]:
        monkeypatch.setattr(module, name, wrap(getattr(module, name), name == "_add_many"))
    return seen


def assert_in_base_subgroup(seen):
    assert seen  # the run reached the group law
    outside = [(p, params.field.m) for p, params in seen
               if not curve.in_base_subgroup(AffinePoint.from_pair(params.field, p), params)]
    assert outside == []


def test_kp_point_over_every_test8_point(pair_law_inputs):
    n = TEST8.order_hint
    points = fixed_base_multiples(range(1, n), TEST8)
    assert len(set(points)) == n - 1
    for p in points:
        for k in (1, 2, 3, n - 1, n + 2, 0b1011010011):
            kp_point(Scalar(k), p, TEST8)
    assert_in_base_subgroup(pair_law_inputs)


@pytest.mark.parametrize("params", [TEST8, TEST16, B233], ids=["test8", "test16", "b233"])
def test_fixed_base_multiples(pair_law_inputs, params):
    curve._window_table.__wrapped__(params)  # uncached: test16's table is built
    n = params.order_hint
    fixed_base_multiples([1, 2, 255, 256, n - 1, n, n + 1, 3 * n + 7, (1 << 300) + 5], params)
    assert_in_base_subgroup(pair_law_inputs)


def test_evaluate_on_a_test8_trace(pair_law_inputs):
    k = Scalar(0b1011001110)
    schedule = build_schedule(kp_multiply(k, TEST8.g, TEST8)[1])
    for sigma in (0.0, 1.0):
        trace = synthesize_trace(schedule, LeakModel(noise_sigma=sigma, rng_seed=5))
        slots = segment(compress(trace, CompressionMethod.MEAN), trace.cycle0_cycle, 54, 8)
        report = evaluate(slots, pub=kp_point(k, TEST8.g, TEST8), params=TEST8)
        assert report.key is not None
    assert_in_base_subgroup(pair_law_inputs)


def test_brute_force_on_test16(pair_law_inputs):
    k = Scalar(0b10110100111011)
    pub = kp_point(k, TEST16.g, TEST16)
    cand = KeyCandidate(flip_bits(k.main_loop_bits, [2, 9]), 0, Polarity.SMALLER_IS_ONE)
    assert brute_force_complete(cand, range(12), TEST16.g, pub, TEST16).key == k
    miss = KeyCandidate(flip_bits(k.main_loop_bits, [0, 1, 2]), 0, Polarity.SMALLER_IS_ONE)
    assert brute_force_complete(miss, [5, 6], TEST16.g, pub, TEST16).key is None
    assert_in_base_subgroup(pair_law_inputs)


def test_b233_auth_demo(pair_law_inputs, capsys):
    assert cli.main(["auth-demo", "--curve", "b233", "--seed", "9"]) == 0
    assert "key recovered: yes" in capsys.readouterr().out
    assert_in_base_subgroup(pair_law_inputs)
    assert {params.field.m for _, params in pair_law_inputs} == {233}
