import random

import pytest

from swarmcover import (
    Event,
    ParseError,
    format_points,
    format_trace,
    parse_points,
    parse_trace,
)


def test_parse_points_example():
    points = parse_points("1 0.5 0.5 3.0\n")
    assert len(points) == 1
    p = points[0]
    assert (p.id, p.x, p.y, p.w) == (1, 0.5, 0.5, 3.0)


def test_parse_points_skips_comments_and_blanks():
    text = "# header\n\n1 0 0 1.0  # trailing note\n   \n2 1 1 2.0\n"
    points = parse_points(text)
    assert [p.id for p in points] == [1, 2]


def test_parse_points_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_points("1 a b c\n")
    assert err.value.lineno == 1
    with pytest.raises(ParseError) as err:
        parse_points("1 0 0 1\n2 0 0\n")
    assert err.value.lineno == 2
    with pytest.raises(ParseError) as err:
        parse_points("1 0 0 1\n1 2 2 2\n")
    assert "duplicate" in str(err.value)
    with pytest.raises(ParseError):
        parse_points("1 0 0 -2\n")
    with pytest.raises(ParseError):
        parse_points("1 inf 0 1\n")


def test_parse_trace_examples():
    events = parse_trace("I 7 1.0 2.0 4.5\nU 7 9.0\nD 7\n")
    assert [e.kind for e in events] == ["insert", "update", "delete"]
    assert events[0] == Event.insert(7, 1.0, 2.0, 4.5)
    assert events[1] == Event.update(7, 9.0)
    assert events[2] == Event.delete(7)


def test_parse_trace_errors():
    with pytest.raises(ParseError) as err:
        parse_trace("I 1 2.0\n")
    assert err.value.lineno == 1
    with pytest.raises(ParseError):
        parse_trace("X 1\n")
    for text in ("U 1 notanumber\n", "D 1 extra\n", "U 1\n"):
        with pytest.raises(ParseError):
            parse_trace(text)
    with pytest.raises(ValueError, match="unknown event kind"):
        format_trace([Event("noop", 1)])


def test_string_ids_survive():
    points = parse_points("alpha 0 0 1\n")
    assert points[0].id == "alpha"
    events = parse_trace("D alpha\n")
    assert events[0].id == "alpha"


def test_points_round_trip_is_value_exact():
    rng = random.Random(107)
    text = "".join(
        f"{i} {rng.uniform(-100, 100)!r} {rng.uniform(-100, 100)!r} {rng.uniform(0, 50)!r}\n"
        for i in range(200)
    )
    points = parse_points(text)
    again = parse_points(format_points(points))
    assert [(p.id, p.x, p.y, p.w) for p in points] == [(p.id, p.x, p.y, p.w) for p in again]


def test_trace_round_trip_is_value_exact():
    rng = random.Random(109)
    events = []
    for i in range(200):
        kind = rng.choice(["I", "D", "U"])
        if kind == "I":
            events.append(Event.insert(i, rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, 9)))
        elif kind == "D":
            events.append(Event.delete(i))
        else:
            events.append(Event.update(i, rng.uniform(0, 9)))
    assert parse_trace(format_trace(events)) == events
