"""The report writer: ``Record.dump`` and ``Record.dumps`` write the bytes
of ``json.dumps(doc, sort_keys=True, indent=2)``, which is the oracle of
these tests."""
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altkit.axioms import FLUSH_PARTS, Record
from altkit.cli import _write_report
from altkit.config import RunConfig


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 1e16, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    _FLOATS, st.text(),
)
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=40,
)


class _Str(str):
    def __str__(self):
        return "not the text"


class TestWriter:
    @settings(max_examples=400, deadline=None)
    @given(_DOCS)
    def test_dumps_is_json_dumps(self, doc):
        assert Record.dumps(doc) == reference(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], (), "", {"": []}, {"a": {}, "b": [[], {}]},
        {"é中\U0001f600": "\x00\x1f\"\\ ", "\n": None},
        {"z": 1, "a": 2, "é": 3, "A": 4, "": 5},
        [True, False, 1, 0, -(2 ** 100), 2 ** 64],
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, np.float64(0.1),
         np.float64(math.nan), np.float64(-math.inf)],
        {2: "a", 1.5: "b", -1: None}, {None: 1}, {True: 0, False: 1},
        3.5, None, True, "text",
        # a dict's values past the in-place path's type checks
        {"a": _Str("x\ty"), "b": _Str("")}, {"a": np.float64(0.1), "b": np.float64(-0.0)},
        {"a": math.nan, "b": math.inf, "c": -math.inf, "d": 1.5},
    ])
    def test_edge_documents(self, doc):
        assert Record.dumps(doc) == reference(doc)

    @pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, np.bool_(True), object()])
    def test_unsupported_types_raise_type_error_as_json_does(self, bad):
        for doc in (bad, [1.0, bad], {"a": {"b": bad}}):
            with pytest.raises(TypeError):
                reference(doc)
            with pytest.raises(TypeError):
                Record.dumps(doc)

    @staticmethod
    def assert_streamed(doc):
        """``dump`` writes ``doc`` in more than 3 writes, none of half the text."""
        writes = []

        class Sink(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)

        sink = Sink()
        Record.dump(doc, sink)
        assert sink.getvalue() == reference(doc)
        assert len(writes) > 3
        assert max(writes) < len(sink.getvalue()) / 2

    def test_streams_in_bounded_writes(self):
        self.assert_streamed({"rows": [[float(i), i, str(i)] for i in range(3 * FLUSH_PARTS)]})

    def test_streams_a_flat_list_in_bounded_writes(self):
        # A list's finite floats are written in place, and the writer still
        # writes out its parts inside the list, not only at its end.
        doc = [i / 3 for i in range(3 * FLUSH_PARTS)]
        doc[5:FLUSH_PARTS:1000] = [math.nan, -math.inf, -0.0, np.float64(0.1), (1.5, "x")]
        self.assert_streamed(doc)

    def test_report_file_is_dumps_and_a_newline(self, tmp_path):
        payload = {"report": {"values": [0.1, math.nan, -math.inf, 2 ** 70, None],
                              "points": [[float(i), -float(i)] for i in range(5000)],
                              "é": (True, "x\ty")}}
        cfg = RunConfig(oracle="cobb_douglas", outdir=str(tmp_path))
        text = _write_report(cfg, "report.json", payload).read_text()
        doc = json.loads(text)
        assert doc["report"]["points"][4999] == [4999.0, -4999.0]
        assert text == Record.dumps(doc) + "\n" == reference(doc) + "\n"
