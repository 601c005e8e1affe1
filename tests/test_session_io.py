import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from flexglove import (
    ArgumentError,
    GraspObject,
    GraspSession,
    MalformedFrame,
    MalformedHeader,
    OrderViolation,
    ParseError,
    RangeViolation,
    SchemaError,
    SensorConfig,
    Shape,
    format_session,
    make_hand_profile,
    parse_frame,
    read_session,
    read_session_file,
    simulate_session,
    write_session_file,
)
from flexglove import session_io
from flexglove.cli import main
from flexglove.errors import _READ_CHUNK, read_bytes
from oracles import field_types, read_session_by_header_loop, read_session_by_line, session_from_rows

adc_values = st.integers(min_value=0, max_value=1023)


def make_session(n_frames=3, diameter=8.0, user="u01", period=50):
    frames = [(i * period, 10 + i, 20, 30, 40, 50) for i in range(n_frames)]
    return session_from_rows(user, GraspObject(Shape.SPHERE, diameter), frames, period)


class TestParseFrame:
    def test_basic(self):
        assert parse_frame("0,512,512,512,512,512") == (0, 512, 512, 512, 512, 512)

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
        assert frame[0] == 99999999

    @given(st.integers(min_value=0, max_value=10**9), st.tuples(*[adc_values] * 5))
    def test_roundtrip(self, t, adc):
        frame = (t, *adc)
        assert parse_frame(",".join(map(str, frame))) == frame

    @given(st.text(max_size=40))
    def test_fuzz_yields_frame_or_named_error(self, line):
        try:
            result = parse_frame(line)
        except (MalformedFrame, RangeViolation):
            return
        assert type(result) is tuple and len(result) == 6
        assert all(type(v) is int for v in result)


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

    @pytest.mark.parametrize("field", [0, 3])
    def test_field_beyond_int_digit_limit(self, field):
        digits = sys.get_int_max_str_digits() + 1
        fields = ["1"] * 6
        fields[field] = "1" * digits
        with pytest.raises(MalformedFrame) as exc:
            parse_frame(",".join(fields), line_no=9)
        assert str(exc.value) == (
            f"line 9: field of {digits} digits exceeds the "
            f"{sys.get_int_max_str_digits()}-digit conversion limit"
        )

    @pytest.mark.parametrize(
        "line, frame",
        [
            ("0099,0001023,0,0,0,0", (99, 1023, 0, 0, 0, 0)),
            ("1,2,3,4,5,6\n\n", (1, 2, 3, 4, 5, 6)),
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
    def test_roundtrip(self, tmp_path):
        session = make_session()
        write_session_file(session, tmp_path / "s.session")
        assert read_session_file(tmp_path / "s.session") == session

    def test_float_count_is_written_as_it_is_and_rejected(self, tmp_path):
        # A "%d" template once wrote 512.9 as 512, which read back without
        # complaint as a different session.
        session = make_session()._replace(stamps=[0], counts=([512.9], [1], [2], [3], [4]))
        write_session_file(session, tmp_path / "s.session")
        assert read_bytes(tmp_path / "s.session").endswith(b"\n0,512.9,1,2,3,4\n")
        with pytest.raises(MalformedFrame) as exc:
            read_session_file(tmp_path / "s.session")
        assert str(exc.value) == "line 6: field '512.9' is not a non-negative decimal integer"

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

    def test_schema_beyond_int_digit_limit_is_unsupported(self):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        data = format_session(make_session()).replace(b"# schema=1", b"# schema=" + digits.encode())
        with pytest.raises(SchemaError) as exc:
            read_session(data)
        assert str(exc.value) == f"line 1: unsupported schema version {digits}"

    def test_schema_with_leading_zeros_is_supported(self):
        data = format_session(make_session()).replace(b"# schema=1", b"# schema=0001")
        assert read_session(data) == make_session()

    def test_period_beyond_int_digit_limit(self):
        digits = sys.get_int_max_str_digits() + 1
        data = format_session(make_session()).replace(b"# period_ms=50", b"# period_ms=" + b"5" * digits)
        with pytest.raises(MalformedHeader) as exc:
            read_session(data)
        assert str(exc.value) == (
            f"line 5: period of {digits} digits exceeds the "
            f"{sys.get_int_max_str_digits()}-digit conversion limit"
        )

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


class TestColumns:
    @pytest.mark.parametrize("n_frames", [0, 1, 4, 100])
    def test_written_simulated_session_reads_back_equal(self, tmp_path, n_frames):
        session = simulate_session(
            GraspObject(Shape.SPHERE, 8.0), make_hand_profile("s01", 3), SensorConfig(), 11, n_frames=n_frames
        )
        path = tmp_path / "s.session"
        write_session_file(session, path)
        back = read_session_file(path)
        assert back == session
        assert field_types(back) == field_types(session)
        rows = [tuple(map(int, line.split(","))) for line in read_bytes(path).decode().splitlines()[5:]]
        assert len(rows) == n_frames
        assert back.frames == session.frames == rows

    def test_frames_are_the_rows_of_the_columns(self):
        session = make_session()
        assert session.frames == [(0, 10, 20, 30, 40, 50), (50, 11, 20, 30, 40, 50), (100, 12, 20, 30, 40, 50)]

    def test_padded_user_id_is_not_written(self):
        with pytest.raises(MalformedHeader) as exc:
            format_session(make_session(user=" s01"))
        assert str(exc.value) == "unusable user id ' s01'"

    @pytest.mark.parametrize("finger", range(5))
    def test_short_column_is_not_written(self, finger):
        counts = list(make_session().counts)
        counts[finger] = counts[finger][:-1]
        with pytest.raises(ArgumentError) as exc:
            format_session(make_session()._replace(counts=tuple(counts)))
        lengths = [3] * 6
        lengths[finger + 1] = 2
        assert str(exc.value) == f"session columns differ in length: {lengths} (stamps, then counts)"


@st.composite
def sessions(draw, starts=st.integers(min_value=0, max_value=1000)):
    """A session whose timestamps run from a drawn start at its period."""
    n = draw(st.integers(min_value=0, max_value=12))
    period = draw(st.integers(min_value=1, max_value=500))
    t0 = draw(starts)
    frames = [
        (t0 + i * period, *draw(st.tuples(*[adc_values] * 5)))
        for i in range(n)
    ]
    return session_from_rows(
        draw(st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,8}", fullmatch=True)),
        GraspObject(
            draw(st.sampled_from(list(Shape))),
            draw(st.floats(min_value=0.25, max_value=64.0, allow_nan=False)),
        ),
        frames,
        period,
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


# Each mutation edits the frame lines of a valid session (a list of lines
# without their newlines) or, for the last two, the finished text.
def _pick_line(data, lines):
    return data.draw(st.integers(0, len(lines) - 1))


def _leading_zero(data, lines):
    i = _pick_line(data, lines)
    fields = lines[i].split(",")
    k = data.draw(st.integers(0, len(fields) - 1))
    fields[k] = "0" + fields[k]
    lines[i] = ",".join(fields)


def _carriage_return(data, lines):
    lines[_pick_line(data, lines)] += "\r"


def _blank_line_inside(data, lines):
    lines.insert(data.draw(st.integers(0, len(lines))), "")


def _blank_line_at_end(data, lines):
    lines.append("")


def _five_fields(data, lines):
    i = _pick_line(data, lines)
    lines[i] = lines[i].rsplit(",", 1)[0]


def _seven_fields(data, lines):
    lines[_pick_line(data, lines)] += ",7"


def _non_ascii_digit(data, lines):
    i = _pick_line(data, lines)
    lines[i] = "\u0663" + lines[i][1:]


def _count_1024_last(data, lines):
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",1024"


def _over_long_field(data, lines):
    i = _pick_line(data, lines)
    fields = lines[i].split(",")
    fields[data.draw(st.integers(0, len(fields) - 1))] = "7" * (sys.get_int_max_str_digits() + 1)
    lines[i] = ",".join(fields)


def _stamp_not_increasing(data, lines):
    """Line i takes the timestamp of line i - 1, or 0."""
    i = data.draw(st.integers(1, len(lines) - 1))
    stamp = data.draw(st.sampled_from([lines[i - 1].partition(",")[0], "0"]))
    lines[i] = stamp + "," + lines[i].partition(",")[2]


def _empty_field(data, lines):
    """One field emptied: a ",," or, for the timestamp, a line that starts with ","."""
    i = _pick_line(data, lines)
    fields = lines[i].split(",")
    fields[data.draw(st.integers(0, len(fields) - 1))] = ""
    lines[i] = ",".join(fields)


def _int_accepted_character(data, lines):
    """A sign, a space or an underscore in one field: int() accepts each."""
    i = _pick_line(data, lines)
    fields = lines[i].split(",")
    k = data.draw(st.integers(0, len(fields) - 1))
    edit = data.draw(st.sampled_from(["+{}", "-{}", " {}", "{} ", "1_{}"]))
    fields[k] = edit.format(fields[k])
    lines[i] = ",".join(fields)


def _field_to_next_line(data, lines):
    """The last field of line i starts line i + 1: the separators keep their count."""
    i = data.draw(st.integers(0, len(lines) - 2))
    lines[i], _, field = lines[i].rpartition(",")
    lines[i + 1] = field + "," + lines[i + 1]


def _nul_byte(data, lines):
    i = _pick_line(data, lines)
    at = data.draw(st.integers(0, len(lines[i])))
    lines[i] = lines[i][:at] + "\x00" + lines[i][at:]


def _stamp_off_period(data, lines):
    """Line i's timestamp moved by a little: still increasing, or not.  A
    stamp another mutation left unreadable or over-long stays as it is."""
    i = _pick_line(data, lines)
    stamp, _, rest = lines[i].partition(",")
    if stamp.isascii() and stamp.isdigit() and len(stamp) < 20:
        lines[i] = str(max(0, int(stamp) + data.draw(st.sampled_from([-1, 1, 2])))) + "," + rest


def _no_final_newline(text):
    return text[:-1] if text.endswith("\n") else text


LINE_MUTATIONS = [
    _leading_zero, _carriage_return, _blank_line_inside, _blank_line_at_end, _five_fields,
    _seven_fields, _non_ascii_digit, _count_1024_last, _over_long_field, _stamp_not_increasing,
    _empty_field, _int_accepted_character, _field_to_next_line, _nul_byte, _stamp_off_period,
]
# The mutations that edit two lines.
_TWO_LINE_MUTATIONS = {_stamp_not_increasing, _field_to_next_line}


def _outcome(read, data):
    """The session with its field types, or the error's kind, message and line."""
    try:
        session = read(data)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    return session, field_types(session)


class TestBlockLineParity:
    """read_session takes the frame block in one pass; on every input it must
    agree with the line-at-a-time reader: the same session, or the same error
    kind, message and line."""

    # Half the sessions start at 0, so their timestamps are 0, p, 2p, ...
    # as simulate writes them and the block pass takes them by spelling.
    @settings(max_examples=300, deadline=None)
    @given(sessions(starts=st.just(0) | st.integers(min_value=0, max_value=1000)), st.data())
    def test_mutated_block_matches_line_reader(self, session, data):
        text = format_session(session).decode("ascii")
        header, _, body = text.partition("# period_ms=")
        period_line, _, block = body.partition("\n")
        lines = block.split("\n")[:-1]
        for _ in range(data.draw(st.integers(1, 3))):
            usable = [m for m in LINE_MUTATIONS if len(lines) >= (2 if m in _TWO_LINE_MUTATIONS else 1)]
            if usable:
                data.draw(st.sampled_from(usable))(data, lines)
        text = header + "# period_ms=" + period_line + "\n" + "".join(line + "\n" for line in lines)
        if data.draw(st.booleans()):
            text = _no_final_newline(text)
        raw = text.encode("utf-8")
        assert _outcome(read_session, raw) == _outcome(read_session_by_line, raw)

    @pytest.mark.parametrize(
        "body",
        [b"", b"0,1,2,3,4,5", b"\n", b"0,1,2,3,4,5\n\n", b"0,1,2,3,4,5\n0,1,2,3,4,5\n",
         b"0,1,2,3,4,05\n", b"0,1,2,3,4,1024\n", b"0,1,2,3,4,5\r\n",
         # An empty field, then a sign, a space or an underscore, all of
         # which int() accepts, then a field moved to the next line and a NUL.
         b"100,1,,3,4,5\n", b",1,2,3,4,5\n", b"100,1,2,3,4,\n",
         b"+100,1,2,3,4,5\n", b"-100,1,2,3,4,5\n", b" 100,1,2,3,4,5\n", b"100 ,1,2,3,4,5\n",
         b"1_00,1,2,3,4,5\n", b"100,+1,2,3,4,5\n", b"100,1,2,3,4, 5\n",
         b"100,1,2,3,4\n5,150,1,2,3,4,5\n", b"100,1,2,3,4,5\x00\n", b"100\x00,1,2,3,4,5\n"],
    )
    def test_edge_blocks_match_line_reader(self, body):
        raw = format_session(make_session(n_frames=2)) + body
        assert _outcome(read_session, raw) == _outcome(read_session_by_line, raw)

    @pytest.mark.parametrize(
        "period, stamps",
        [
            (50, "0,50,100,150"),  # periodic at the header's period
            (50, "0,25,50,75"),  # periodic at another period
            (25, "0,50,100,150"),
            (50, "0,050,100"),  # a leading zero, in the second stamp or later
            (50, "0,50,0100"),
            (50, "00,50,100"),
            (0, "0,50,100"),  # period_ms=0
            (0, "0,0,0"),
            (50, "50,100,150"),  # a first stamp other than 0
            (50, "1,51,101"),
            (50, "0,50,101,150"),  # one stamp off the period
            (50, "0,50,100,149"),
            (50, "0,50,100,100"),
            (50, "0,50,100,50"),
            (50, "0"),  # n = 1
            (50, "5"),
            (0, "0"),
            (50, ""),  # n = 0
            (0, ""),
        ],
    )
    def test_stamp_edges_match_line_reader(self, period, stamps):
        raw = b"# schema=1\n# user=u\n# shape=sphere\n# diameter_cm=8\n# period_ms=%d\n" % period
        raw += b"".join(b"%s,1,2,3,4,5\n" % t for t in stamps.encode().split(b",") if stamps)
        assert _outcome(read_session, raw) == _outcome(read_session_by_line, raw)

    @pytest.mark.parametrize(
        "body",
        [b"", b"0,1,2,3,4,5\n", b"0,1,2,3,4,5\n50,1,2,3,4,5\n",
         # Leading zero counts, which only the line loop accepts.
         b"0,01,2,3,4,5\n", b"0,1,2,3,4,5\n50,1,2,3,4,05\n"],
        ids=["n0", "n1-block", "n2-block", "n1-lines", "n2-lines"],
    )
    def test_sound_blocks_match_line_reader(self, body):
        raw = format_session(make_session(n_frames=0)) + body
        session, types = _outcome(read_session, raw)
        assert (session, types) == _outcome(read_session_by_line, raw)
        assert len(session.stamps) == body.count(b"\n")

    @pytest.mark.parametrize(
        "raw",
        [b"", b"# schema=1\n# user=u\n# shape=sphere\n# diameter_cm=8\n",
         b"# schema=1\n# user=u\n# shape=sphere\n# diameter_cm=8\n# period_ms=50",
         b"# schema=1\n# user=u\n# shape=sphere\n# diameter_cm=8\n\n0,1,2,3,4,5\n"],
    )
    def test_short_and_unterminated_headers_match_line_reader(self, raw):
        assert _outcome(read_session, raw) == _outcome(read_session_by_line, raw)

    def test_simulated_files_never_reach_the_line_loop(self, tmp_path, monkeypatch):
        # A block that fell back to the line loop would read the same, only
        # slower, so no other test would notice.
        out = tmp_path / "cohort"
        assert main(["simulate", "--out", str(out), "--seed", "2020"]) == 0
        paths = sorted(out.glob("*.session"))
        assert len(paths) == 201
        # A four-frame capture, built as the sweep benchmark builds its inputs.
        short = simulate_session(
            GraspObject(Shape.CYLINDER, 6.25), make_hand_profile("c01", 7), SensorConfig(), 8, n_frames=4
        )
        paths.append(tmp_path / "short.session")
        write_session_file(short, paths[-1])

        def unreachable(line, line_no=None):
            raise AssertionError(f"line {line_no} of a sound frame block went to the line loop")

        monkeypatch.setattr(session_io, "parse_frame", unreachable)
        sessions = [read_session_file(path) for path in paths]
        assert [format_session(s) for s in sessions] == [read_bytes(path) for path in paths]
        assert sessions[-1] == short


    def test_simulated_stamps_are_taken_by_spelling(self, default_cohort, monkeypatch):
        # Timestamps read through int() would read the same, only slower.
        short = simulate_session(
            GraspObject(Shape.CYLINDER, 6.25), make_hand_profile("c01", 7), SensorConfig(), 8, n_frames=4
        )
        sessions = [*default_cohort, short]
        files = [format_session(session) for session in sessions]

        def unreachable(a, b):
            raise AssertionError("the timestamps of a simulated block went to the order check")

        monkeypatch.setattr(session_io, "operator", SimpleNamespace(lt=unreachable))
        assert [read_session(data) for data in files] == sessions


# Each mutation edits the five header lines of a valid session (a list of
# lines without their newlines).
OVER_LONG = "1" * (sys.get_int_max_str_digits() + 1)
HEADER_VALUES = [
    "", "1", "01", "2", "0", " 1", "1 ", "-1", "1.5", "nan", "inf", "-0.0", "1e308",
    "sphere", "cylinder", "cube", "# schema=1", "=", OVER_LONG, "0" * 5000 + "1",
]


def _carriage_return_in_value(data, lines):
    i = _pick_line(data, lines)
    at = data.draw(st.integers(lines[i].find("=") + 1, len(lines[i])))
    lines[i] = lines[i][:at] + "\r" + lines[i][at:]


def _empty_value(data, lines):
    i = _pick_line(data, lines)
    lines[i] = lines[i].partition("=")[0] + "="


def _drop_header_line(data, lines):
    del lines[_pick_line(data, lines)]


def _over_long_number(data, lines):
    i = next((j for j, line in enumerate(lines) if line.startswith(("# schema=", "# period_ms="))), None)
    if i is not None:
        lines[i] = lines[i].partition("=")[0] + "=" + data.draw(st.sampled_from([OVER_LONG, "0" * 5000 + "1"]))


def _non_ascii_char(data, lines):
    i = _pick_line(data, lines)
    at = data.draw(st.integers(0, len(lines[i])))
    lines[i] = lines[i][:at] + data.draw(st.sampled_from(["\xe9", "\u0663", "\x80"])) + lines[i][at:]


def _other_value(data, lines):
    i = _pick_line(data, lines)
    lines[i] = lines[i].partition("=")[0] + "=" + data.draw(st.sampled_from(HEADER_VALUES))


def _other_key(data, lines):
    i = _pick_line(data, lines)
    prefix = data.draw(st.sampled_from(["#schema=", "# Schema=", "# user =", "# period_ms", "", "#"]))
    lines[i] = prefix + lines[i].partition("=")[2]


def _blank_header_line(data, lines):
    lines.insert(data.draw(st.integers(0, len(lines))), "")


def _swap_header_lines(data, lines):
    i, j = _pick_line(data, lines), _pick_line(data, lines)
    lines[i], lines[j] = lines[j], lines[i]


HEADER_MUTATIONS = [
    _carriage_return_in_value, _empty_value, _drop_header_line, _over_long_number, _non_ascii_char,
    _other_value, _other_key, _blank_header_line, _swap_header_lines,
]


class TestHeaderPatternParity:
    """read_session matches the header with one pattern; on every input it
    must agree with the line loop it replaced: the same session, or the same
    error kind, message and line."""

    @settings(max_examples=400, deadline=None)
    @given(sessions(), st.data())
    def test_mutated_header_matches_line_loop(self, session, data):
        lines = format_session(session).decode("ascii").split("\n")
        header, block = lines[:5], "\n".join(lines[5:])
        for _ in range(data.draw(st.integers(1, 3))):
            usable = HEADER_MUTATIONS if header else [_blank_header_line]
            data.draw(st.sampled_from(usable))(data, header)
        text = "".join(line + "\n" for line in header)
        ending = data.draw(st.sampled_from(["block", "header only", "no final newline"]))
        if ending == "block":
            text += block
        elif ending == "no final newline":
            text = text[:-1]
        raw = text.encode("utf-8")
        assert _outcome(read_session, raw) == _outcome(read_session_by_header_loop, raw)

    @pytest.mark.parametrize(
        "raw",
        [b"", b"\n", b"# schema=1", b"# schema=1\n# user=u\n# shape=sphere\n# diameter_cm=8\n",
         b"# schema=1\n# user=u\n# shape=sphere\n# diameter_cm=8\n# period_ms=",
         b"# schema=1\n# user=u\n# shape=sphere\n# diameter_cm=8\n# period_ms=50",
         b"# schema=1\n# user=u\n# shape=sphere\n# diameter_cm=8\n# period_ms=50\r\n",
         b"# schema=1\n# user=u\r\n# shape=sphere\n# diameter_cm=8\n# period_ms=50\n",
         b"# schema=1\n# user=\n# shape=sphere\n# diameter_cm=8\n# period_ms=50\n"],
    )
    def test_edge_headers_match_line_loop(self, raw):
        assert _outcome(read_session, raw) == _outcome(read_session_by_header_loop, raw)

    def test_published_files_never_reach_the_line_loop(self, default_cohort, monkeypatch):
        files = [format_session(session) for session in default_cohort]

        def unreachable(text):
            raise AssertionError("a sound session header went to the line loop")

        monkeypatch.setattr(session_io, "_raise_header_fault", unreachable)
        assert [read_session(data) for data in files] == default_cohort


class TestReadBytes:
    """read_bytes returns what open(path, "rb").read() returns, and raises
    what open() raises."""

    # An empty file, one chunk, and a 5,000-frame session of several chunks.
    @pytest.mark.parametrize("n_frames", [None, 100, 5000])
    def test_matches_buffered_read(self, tmp_path, n_frames):
        path = tmp_path / "data.session"
        if n_frames is None:
            path.write_bytes(b"")
        else:
            write_session_file(make_session(n_frames=n_frames), path)
        with open(path, "rb") as fh:
            expected = fh.read()
        assert len(expected) > _READ_CHUNK if n_frames == 5000 else len(expected) < _READ_CHUNK
        assert read_bytes(path) == expected
        assert read_bytes(str(path)) == expected

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_error_matches_open(self, tmp_path, kind):
        path = tmp_path / "d.session"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(OSError) as expected:
            open(path, "rb").close()
        with pytest.raises(OSError) as got:
            read_bytes(path)
        assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))
