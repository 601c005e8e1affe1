import io
import random

import pytest
from hypothesis import given, strategies as st

from flexglove import (
    Frame,
    GraspObject,
    GraspSession,
    MalformedFrame,
    MalformedHeader,
    OrderViolation,
    ParseError,
    RangeViolation,
    SchemaError,
    Shape,
    format_frame,
    format_session,
    parse_frame,
    read_session,
    write_session,
)

adc_values = st.integers(min_value=0, max_value=1023)


def make_session(n_frames=3, diameter=8.0, user="u01", period=50):
    frames = [
        Frame(t_ms=i * period, adc=(10 + i, 20, 30, 40, 50)) for i in range(n_frames)
    ]
    return GraspSession(
        user_id=user,
        obj=GraspObject(Shape.SPHERE, diameter),
        frames=frames,
        sample_period_ms=period,
    )


class TestParseFrame:
    def test_basic(self):
        assert parse_frame("0,512,512,512,512,512") == Frame(0, (512,) * 5)

    def test_five_fields_rejected(self):
        with pytest.raises(MalformedFrame):
            parse_frame("50,100,200,300,400")

    def test_adc_over_ceiling(self):
        with pytest.raises(RangeViolation):
            parse_frame("0,1024,0,0,0,0")

    @pytest.mark.parametrize(
        "line",
        ["", "a,b,c,d,e,f", "1,2,3,4,5,6,7", "-1,0,0,0,0,0", "1, 2,3,4,5,6", "1.5,2,3,4,5,6"],
    )
    def test_grammar_violations(self, line):
        with pytest.raises(MalformedFrame):
            parse_frame(line)

    def test_timestamp_unbounded(self):
        frame = parse_frame("99999999,0,0,0,0,0")
        assert frame.t_ms == 99999999

    @given(st.integers(min_value=0, max_value=10**9), st.tuples(*[adc_values] * 5))
    def test_roundtrip(self, t, adc):
        frame = Frame(t_ms=t, adc=adc)
        assert parse_frame(format_frame(frame)) == frame

    @given(st.text(max_size=40))
    def test_fuzz_yields_frame_or_named_error(self, line):
        try:
            result = parse_frame(line)
        except (MalformedFrame, RangeViolation):
            return
        assert isinstance(result, Frame)


class TestParseErrorParity:
    """Exact error kinds and messages: the fast path must reject what the
    field-by-field grammar rejects, and report it the same way."""

    @pytest.mark.parametrize(
        "line, kind, message",
        [
            ("", MalformedFrame, "expected 6 fields, got 1"),
            ("50,100,200,300,400", MalformedFrame, "expected 6 fields, got 5"),
            ("1,2,3,4,5,6,7", MalformedFrame, "expected 6 fields, got 7"),
            ("-1,0,0,0,0,0", MalformedFrame, "field '-1' is not a non-negative decimal integer"),
            ("1, 2,3,4,5,6", MalformedFrame, "field ' 2' is not a non-negative decimal integer"),
            ("1.5,2,3,4,5,6", MalformedFrame, "field '1.5' is not a non-negative decimal integer"),
            ("1,2,3,\u0663,5,6", MalformedFrame, "field '\u0663' is not a non-negative decimal integer"),
            ("1,2,3,4,5,6\r", MalformedFrame, "field '6\\r' is not a non-negative decimal integer"),
            ("0,1024,2000,0,0,0", RangeViolation, "ADC value 1024 exceeds 1023"),
            ("0,0,0,0,0,1024", RangeViolation, "ADC value 1024 exceeds 1023"),
        ],
    )
    def test_parse_frame_error(self, line, kind, message):
        with pytest.raises(ParseError) as exc:
            parse_frame(line)
        assert type(exc.value) is kind
        assert str(exc.value) == message
        assert exc.value.line is None
        with pytest.raises(kind) as exc:
            parse_frame(line, line_no=12)
        assert str(exc.value) == f"line 12: {message}"
        assert exc.value.line == 12

    @pytest.mark.parametrize(
        "line, frame",
        [
            ("0099,0001023,0,0,0,0", Frame(99, (1023, 0, 0, 0, 0))),
            ("1,2,3,4,5,6\n\n", Frame(1, (2, 3, 4, 5, 6))),
        ],
    )
    def test_leading_zeros_and_trailing_newlines_accepted(self, line, frame):
        assert parse_frame(line) == frame

    @pytest.mark.parametrize(
        "body, kind, message",
        [
            (b"0,1,2,3,4,5\n50,1,2,3,4,5\n100,1,2,3,4\n", MalformedFrame,
             "line 8: expected 6 fields, got 5"),
            (b"0,1,2,3,4,5\n50,1,2,3,4,1024\n", RangeViolation,
             "line 7: ADC value 1024 exceeds 1023"),
            (b"0,1,2,3,4,5\r\n", MalformedFrame,
             "line 6: field '5\\r' is not a non-negative decimal integer"),
        ],
    )
    def test_read_session_error(self, body, kind, message):
        data = format_session(make_session(n_frames=0)) + body
        with pytest.raises(ParseError) as exc:
            read_session(data)
        assert type(exc.value) is kind
        assert str(exc.value) == message


class TestReadSession:
    def test_roundtrip(self):
        session = make_session()
        buf = io.BytesIO()
        write_session(session, buf)
        assert read_session(buf.getvalue()) == session

    def test_header_plus_100_frames(self):
        session = make_session(n_frames=100)
        assert len(read_session(format_session(session)).frames) == 100

    def test_empty_stream(self):
        with pytest.raises(MalformedHeader):
            read_session(b"")

    def test_zero_frames_roundtrip(self):
        session = make_session(n_frames=0)
        assert read_session(format_session(session)) == session

    def test_duplicate_timestamp(self):
        data = format_session(make_session(n_frames=0)) + b"50,1,2,3,4,5\n50,1,2,3,4,5\n"
        with pytest.raises(OrderViolation) as exc:
            read_session(data)
        assert exc.value.line == 7

    def test_decreasing_timestamp(self):
        data = format_session(make_session(n_frames=0)) + b"100,1,2,3,4,5\n50,1,2,3,4,5\n"
        with pytest.raises(OrderViolation):
            read_session(data)

    def test_unknown_schema(self):
        data = format_session(make_session()).replace(b"# schema=1", b"# schema=2")
        with pytest.raises(SchemaError):
            read_session(data)

    def test_missing_header_line(self):
        data = b"# schema=1\n# user=u01\n# shape=sphere\n# period_ms=50\n"
        with pytest.raises(MalformedHeader):
            read_session(data)

    def test_bad_shape(self):
        data = format_session(make_session()).replace(b"shape=sphere", b"shape=cube")
        with pytest.raises(MalformedHeader):
            read_session(data)

    def test_frame_error_carries_line_number(self):
        data = format_session(make_session(n_frames=2)) + b"150,1,2\n"
        with pytest.raises(MalformedFrame) as exc:
            read_session(data)
        assert exc.value.line == 8

    @pytest.mark.parametrize("text", [b"inf", b"-inf", b"nan", b"1e400", b"Infinity"])
    def test_non_finite_diameter_rejected(self, text):
        data = format_session(make_session()).replace(b"diameter_cm=8.0", b"diameter_cm=" + text)
        with pytest.raises(MalformedHeader) as exc:
            read_session(data)
        assert exc.value.line == 4

    def test_non_ascii_rejected(self):
        with pytest.raises(MalformedHeader):
            read_session("# schema=1é".encode("utf-8"))


@st.composite
def sessions(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    period = draw(st.integers(min_value=1, max_value=500))
    t0 = draw(st.integers(min_value=0, max_value=1000))
    frames = [
        Frame(t_ms=t0 + i * period, adc=tuple(draw(st.tuples(*[adc_values] * 5))))
        for i in range(n)
    ]
    return GraspSession(
        user_id=draw(st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,8}", fullmatch=True)),
        obj=GraspObject(
            draw(st.sampled_from(list(Shape))),
            draw(st.floats(min_value=0.25, max_value=64.0, allow_nan=False)),
        ),
        frames=frames,
        sample_period_ms=period,
    )


class TestSessionProperties:
    @given(sessions())
    def test_roundtrip_identity(self, session):
        assert read_session(format_session(session)) == session

    def test_fuzzed_streams_never_crash(self):
        rng = random.Random(99)
        base = format_session(make_session(n_frames=5))
        for _ in range(300):
            mutated = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                action = rng.randrange(3)
                if action == 0 and mutated:
                    del mutated[rng.randrange(len(mutated))]
                elif action == 1:
                    mutated.insert(rng.randrange(len(mutated) + 1), rng.randrange(256))
                elif mutated:
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                session = read_session(bytes(mutated))
                assert isinstance(session, GraspSession)
            except ParseError:
                pass
