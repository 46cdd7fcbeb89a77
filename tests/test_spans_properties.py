"""Property tests for the span algebra against the character-provenance oracle."""

import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annopipe.exceptions import InvalidRangeError
from annopipe.spans import (
    ModifiedSpan,
    Span,
    extract,
    extract_each,
    normalize_spans,
    replace,
    span_length,
)

from helpers import (
    TaggedText,
    apply_random_op,
    assert_engine_matches_oracle,
    frozen_extract,
    frozen_replace,
    random_text,
)


def fresh(text):
    chain = [Span(0, len(text))] if text else []
    return (text, chain), TaggedText.original(text)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_sequences_match_oracle(seed):
    rng = random.Random(seed)
    state, oracle = fresh(random_text(rng))
    for _ in range(rng.randint(1, 20)):
        state, oracle = apply_random_op(rng, state, oracle)
        assert_engine_matches_oracle(state, oracle)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pure_original_projection(seed):
    # Chains without modified spans: segment text equals raw slices.
    rng = random.Random(seed)
    raw = random_text(rng)
    state, _ = fresh(raw)
    text, chain = state
    for _ in range(5):
        length = len(text)
        points = sorted((rng.randint(0, length), rng.randint(0, length)))
        text, chain = extract(text, chain, [tuple(points)])
    assert not any(not isinstance(s, Span) for s in chain)
    rebuilt = "".join(raw[s.start : s.end] for s in chain)
    assert rebuilt == text


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_extract_composition(seed):
    rng = random.Random(seed)
    state, oracle = fresh(random_text(rng))
    for _ in range(rng.randint(0, 6)):
        state, oracle = apply_random_op(rng, state, oracle)
    text, chain = state
    n = len(text)
    a, b = sorted((rng.randint(0, n), rng.randint(0, n)))
    inner_text, inner_chain = extract(text, chain, [(a, b)])
    m = len(inner_text)
    c, d = sorted((rng.randint(0, m), rng.randint(0, m)))
    two_step = extract(inner_text, inner_chain, [(c, d)])
    one_step = extract(text, chain, [(a + c, a + d)])
    assert two_step[0] == one_step[0]
    assert normalize_spans(two_step[1]) == normalize_spans(one_step[1])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_normalize_is_a_fixpoint(seed):
    rng = random.Random(seed)
    state, oracle = fresh(random_text(rng))
    for _ in range(rng.randint(0, 10)):
        state, oracle = apply_random_op(rng, state, oracle)
    normalized = normalize_spans(state[1])
    assert normalize_spans(normalized) == normalized


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_length_conservation(seed):
    rng = random.Random(seed)
    state, oracle = fresh(random_text(rng))
    for _ in range(rng.randint(1, 20)):
        state, oracle = apply_random_op(rng, state, oracle)
        assert span_length(state[1]) == len(state[0])


# Bisected slicing against the chain walk it replaced.

original_spans = st.builds(
    lambda start, length: Span(start, start + length),
    st.integers(0, 40),
    st.integers(0, 5),
)
chain_pieces = st.one_of(
    original_spans,
    st.builds(
        ModifiedSpan,
        st.integers(0, 5),
        st.lists(original_spans, max_size=3).map(tuple),
    ),
    st.builds(ModifiedSpan, st.integers(1, 5)),  # pure insertion
)


@st.composite
def chains_and_points(draw):
    """A chain (zero-length pieces included), its text, and a point strategy
    that favours the chain's own span boundaries."""
    chain = draw(st.lists(chain_pieces, max_size=10))
    # Make some original spans continue the previous one, so slices of the
    # chain need coalescing.
    for i in range(1, len(chain)):
        prev, span = chain[i - 1], chain[i]
        if isinstance(prev, Span) and isinstance(span, Span) and draw(st.booleans()):
            chain[i] = Span(prev.end, prev.end + span.length)
    n = span_length(chain)
    text = draw(st.text(alphabet="ab é\n", min_size=n, max_size=n))
    boundaries = list(accumulate((s.length for s in chain), initial=0))
    points = st.one_of(st.sampled_from(boundaries), st.integers(0, n))
    return text, chain, points


def ordered_ranges(draw, points):
    """Sorted, non-overlapping ranges, possibly empty or touching."""
    ends = sorted(draw(st.lists(points, max_size=8)))
    return list(zip(ends[::2], ends[1::2]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_extract_matches_frozen_extract(data):
    text, chain, points = data.draw(chains_and_points())
    ranges = ordered_ranges(data.draw, points)
    assert extract(text, chain, ranges) == frozen_extract(text, chain, ranges)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_replace_matches_frozen_replace(data):
    text, chain, points = data.draw(chains_and_points())
    ranges = ordered_ranges(data.draw, points)
    reps = data.draw(
        st.lists(st.text(alphabet="XY", max_size=3), min_size=len(ranges), max_size=len(ranges))
    )
    assert replace(text, chain, ranges, reps) == frozen_replace(text, chain, ranges, reps)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_extract_each_is_extract_per_range(data):
    text, chain, points = data.draw(chains_and_points())
    # Any order, overlapping and empty ranges allowed.
    ranges = data.draw(st.lists(st.tuples(points, points).map(sorted).map(tuple), max_size=8))
    expected = [frozen_extract(text, chain, [r]) for r in ranges]
    assert extract_each(text, chain, ranges) == expected
    assert [extract(text, chain, [r]) for r in ranges] == expected


def test_empty_chain_and_empty_ranges():
    assert extract_each("", [], [(0, 0)]) == [("", [])]
    assert extract_each("abc", [Span(0, 3)], []) == []
    assert extract("", [], []) == frozen_extract("", [], []) == ("", [])
    assert replace("", [], [(0, 0)], ["x"]) == frozen_replace("", [], [(0, 0)], ["x"])


def test_extract_each_checks_every_range():
    with pytest.raises(InvalidRangeError):
        extract_each("abc", [Span(0, 3)], [(0, 1), (2, 4)])
    with pytest.raises(InvalidRangeError):
        extract_each("abc", [Span(0, 3)], [(2, 1)])
