import io
import json
import math

import numpy as np
import pytest

from graphchoice import _engine, _writer, harness, walk


def reference(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True)


AWKWARD = {
    "empty": [{}, [], (), {"a": {}, "b": [], "c": [[]], "d": [{}]}],
    "nested": {"z": [1, [2.5, [3.0, {"k": [True, None]}]]], "a": {"b": {"c": {}}}},
    "names": {"é": 1, "tab\there": 2, 'quote"back\\slash': 3, " ": 4,
              "emoji \U0001F600": "\x00\x1f", "": "ü"},
    "floats": [-0.0, 0.0, 1e-300, 5e-324, 1e16, 1e22, 0.1 + 0.2, 1 / 3, -2.5],
    "non-finite": [math.nan, math.inf, -math.inf, 0.5],
    "non-finite alone": [math.nan],
    "scalars": [True, False, None, 0, -1, 2 ** 80, -(2 ** 70), "s"],
    "bools are not ints": {"t": True, "f": False, "one": 1, "list": [1, True]},
    "numpy floats": [np.float64(0.1), np.float64(-0.0), 1.5, np.float64(np.nan)],
    "numpy float alone": np.float64(2.5),
    "top-level string": "ünïcode\n",
    "top-level int": 7,
    "top-level none": None,
    "tuples": {"t": (1.0, 2.0), "mixed": (1, 2.0, "x")},
    "non-str keys": {2: "b", 1.5: "c", 3: [0.25]},
    "bool keys": {True: 1, False: 0},
    "none key": {None: 2},
    "float keys": {math.inf: 1, -0.0: 2, 1e-300: 3},
    "float subclass list": [np.float64(0.25)] * 5,
    "ints and floats": [1, 1.0, 2, 2.0],
}


@pytest.mark.parametrize("name", AWKWARD)
def test_dumps_equals_json_on_awkward_documents(name):
    assert _writer.dumps(AWKWARD[name]) == reference(AWKWARD[name])


@pytest.mark.parametrize("doc", [{"x": np.int64(3)}, [np.bool_(True)],
                                 {"s": {1, 2}}, {(1, 2): 3},
                                 {True: 1, None: 2}])
def test_dumps_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError):
        reference(doc)
    with pytest.raises(TypeError):
        _writer.dumps(doc)


def _json_files(root):
    return sorted(root.rglob("*.json"))


def test_dumps_equals_json_on_every_bundled_config(tmp_path):
    count = 0
    for name in harness.bundled_config_names():
        raw = harness.load_config(name).raw
        cfg = harness.parse_config({**raw, "n_steps": 400, "record_stride": 200})
        summary = harness.run_experiment(cfg, str(tmp_path))
        assert _writer.dumps(summary) == reference(summary)
        count += 1
    for path in _json_files(tmp_path):
        text = path.read_text()
        assert text == reference(json.loads(text)) + "\n"
        count += 1
    assert count == 9 + 9 * 11  # returned summaries, then 90 metas and 9 summaries


def test_dumps_equals_json_on_a_wide_run(tmp_path):
    # linear:512 with 100 seeds, one snapshot at the end: 51,200 final_x floats
    mu = np.exp(np.random.default_rng(3).uniform(math.log(0.5), math.log(2.0), 512))
    doc = {"schema": 1, "name": "wide", "graph": {"generator": "linear", "m": 512},
           "mu": mu.tolist(), "noise_std": 0.3, "algorithm": "reinforced",
           "schedule": {"c_mode": "explicit_log"}, "n_steps": 300,
           "record_stride": 300, "seeds": {"count": 100, "base": 11}}
    summary = harness.run_experiment(harness.parse_config(doc), str(tmp_path))
    assert _writer.dumps(summary) == reference(summary)
    files = _json_files(tmp_path)
    assert len(files) == 101
    for path in files:
        text = path.read_text()
        assert text == reference(json.loads(text)) + "\n"


def test_header_is_cached_per_m():
    assert _writer.header(3) == b"n,xi,eps,alpha,x_1,x_2,x_3\n"
    assert _writer.header(3) is _writer.header(3)


def _columns(rows=6, m=3):
    rng = np.random.default_rng(4)
    return (np.arange(rows, dtype=np.int64) * 7, rng.integers(0, m, rows),
            rng.random(rows), rng.random(rows) + 1, rng.random((rows, m)))


def _rows(cols) -> bytes:
    out = io.BytesIO()
    _writer.write_rows(out, *cols, walk._csv_rows)
    return out.getvalue()


def test_write_rows_reads_read_only_and_empty_columns():
    # the column addresses come from the buffer of a writable array and
    # from ndarray.ctypes otherwise
    if _engine.load() is None:
        pytest.skip("no compiled library")
    cols = _columns()
    expected = walk._csv_rows(*cols).encode()
    frozen = [c.copy() for c in cols]
    for c in frozen:
        c.setflags(write=False)
    assert _rows(cols) == _rows(frozen) == expected
    assert _rows(tuple(c[:0] for c in cols)) == b""
