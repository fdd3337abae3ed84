"""The forward window-end pointer of ``ResourceProfile.earliest`` equals
the per-candidate bisect it replaced, float for float.

Profiles are drawn around bases where the float spacing is 1 or 2
(``2**53``, ``1e16``), so ``fl(b - duration) >= t`` and ``fl(b - t) >=
duration`` often disagree: the pointer must follow each form's own
rounding, not exact arithmetic.
"""

from hypothesis import given, settings, strategies as st

from repro.oar.gantt import ResourceProfile

from oar_reference import bisect_earliest

_BASES = st.sampled_from([0.0, 1000.0, 2.0 ** 53 - 16.0, 1.0e16])
_OFFSET = st.integers(0, 80).map(lambda h: h * 0.5)
_DURATION = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 7.25]),
                      st.floats(0.01, 60.0))


@st.composite
def _queries(draw):
    base = draw(_BASES)
    nodes = draw(st.integers(1, 6))
    full = (1 << nodes) - 1
    profile = ResourceProfile(nodes)
    for _ in range(draw(st.integers(0, 14))):
        start = base + draw(_OFFSET)
        end = start + draw(_OFFSET)
        profile.set_busy(draw(st.integers(1, full)), start, end)
    mask = draw(st.integers(1, full))
    k = draw(st.integers(1, mask.bit_count()))
    after = base + draw(_OFFSET) - draw(st.sampled_from([0.0, 4.0]))
    return profile, mask, after, draw(_DURATION), k


@settings(max_examples=400, deadline=None)
@given(query=_queries())
def test_pointer_matches_bisect_oracle(query):
    profile, mask, after, duration, k = query
    assert profile.earliest(mask, after, duration, k) == \
        bisect_earliest(profile, mask, after, duration, k)


def test_sub_ulp_window_end_follows_each_form():
    """At ``t = 2**53`` a boundary ``b = t + 2`` and ``duration = 2.5``
    give ``fl(b - duration) = t`` (the window ends before ``b``) but
    ``fl(b - t) = 2 < duration`` (it reaches past ``b``)."""
    t = 2.0 ** 53
    profile = ResourceProfile(3)
    profile.set_busy(0b100, float("-inf"), t + 100.0)  # node 2: never free
    profile.set_busy(0b011, t - 10.0, t)
    profile.set_busy(0b001, t + 2.0, t + 10.0)
    # k of n (node 2 in the mask, never free): the event form admits t.
    assert profile.earliest(0b111, t - 4.0, 2.5, 2) == t
    assert bisect_earliest(profile, 0b111, t - 4.0, 2.5, 2) == t
    # The whole set: the window-end form must wait for node 0.
    assert profile.earliest(0b011, t - 4.0, 2.5, 2) == t + 10.0
    assert bisect_earliest(profile, 0b011, t - 4.0, 2.5, 2) == t + 10.0
