"""Seeded mutation fuzzing of the CLI's file inputs, run in process.

Each input (the demo track JSON, a CSV copy of it, a small model, a PGM edge
map and a mask-area CSV) is mutated one way at a time: truncated; a number
replaced by NaN, Infinity, 1e309, a huge int, a boolean, a string, null or a
list; a key deleted or a list element dropped; a value scaled. The mutated
file goes through the subcommands that read it. Every call must return 0, 1
or 2 with no exception escaping, and a failed call must print exactly one
line, starting with `error:`, and leave no output file. A JSON integer field
(a track id, `num_frames`, the model's `canvas`, `format_version` and
stroke degrees) that a
mutation deletes or sets to anything but a JSON integer within int64 must
make the call fail with exit code 2, and so must a JSON float field (track
`xy`, the model's `widths` and control trajectories) in which a mutation puts
a boolean, a string or a null. A byte that is not UTF-8 in a text input
fails with exit code 2 too.
"""

import copy
import json
import os
import random
import re
import warnings

import numpy as np
import pytest

from motionsketch import errors, load_tracks
from motionsketch.cli import main

DEMO_TRACKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "data", "demo_tracks.json")

_BIG = "__1e309__"  # written into the JSON text as the literal 1e309
REPLACEMENTS = [float("nan"), float("inf"), -float("inf"), _BIG, 2**70, -(2**64), True, False,
                "7", "abc", None, [1, 2], [], 3.5]
TEXT_REPLACEMENTS = ["nan", "inf", "-inf", "1e309", str(2**70), "true", "abc", "", "null",
                     "[1, 2]", "3.5", "-1"]
SCALES = [0, -1, 1000, 0.5, 1e-3, 1e300]
_DELETED = object()

# JSON integer fields, as paths with "*" for any list index.
INT_FIELDS = {
    "tracks.json": [("num_frames",), ("points", "*", "id")],
    "model.json": [("format_version",), ("num_frames",), ("canvas", "*"),
                   ("strokes", "*", "curve_degree"), ("strokes", "*", "trajectory_degree")],
}

# JSON float fields: a path at or below one of these prefixes.
FLOAT_FIELDS = {
    "tracks.json": [("points", "*", "xy")],
    "model.json": [("widths",), ("strokes", "*", "control_trajectories")],
}


def _scaled(node, factor):
    if isinstance(node, list):
        return [_scaled(v, factor) for v in node]
    if isinstance(node, dict):
        return {k: _scaled(v, factor) for k, v in node.items()}
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return node * factor
    return node


def mutate_json(text, rng):
    """One mutation of a JSON document: (text, path, new value). The path is
    None for a truncation, and the new value `_DELETED` for a deletion."""
    if rng.random() < 0.15:
        return text[: rng.randrange(len(text))], None, None
    doc = copy.deepcopy(json.loads(text))
    path, parent = [], None
    node = doc
    while isinstance(node, (dict, list)) and node and (not path or rng.random() < 0.8):
        key = rng.choice(sorted(node)) if isinstance(node, dict) else rng.randrange(len(node))
        path.append(key)
        parent, node = node, node[key]
    key = path[-1]
    action = rng.choice(["replace", "replace", "delete", "scale"])
    if action == "delete":
        del parent[key]
        value = _DELETED
    else:
        value = _scaled(node, rng.choice(SCALES)) if action == "scale" else \
            rng.choice(REPLACEMENTS)
        parent[key] = value
    return json.dumps(doc).replace(f'"{_BIG}"', "1e309"), tuple(path), value


def mutate_text(text, rng):
    """One mutation of a CSV or text PGM file: truncate, drop a line, or
    replace, delete or scale one token."""
    roll = rng.random()
    if roll < 0.15:
        return text[: rng.randrange(len(text))]
    if roll < 0.3:
        lines = text.splitlines(keepends=True)
        del lines[rng.randrange(len(lines))]
        return "".join(lines)
    token = rng.choice(list(re.finditer(r"[^\s,]+", text)))
    action = rng.choice(["replace", "replace", "delete", "scale"])
    new = ""
    if action == "replace":
        new = rng.choice(TEXT_REPLACEMENTS)
    elif action == "scale":
        try:
            new = repr(float(token.group()) * rng.choice(SCALES))
        except ValueError:
            new = token.group()
    return text[: token.start()] + new + text[token.end():]


def _is_int_field(kind, path):
    return any(
        len(path) == len(field) and all(f in ("*", p) for f, p in zip(field, path))
        for field in INT_FIELDS.get(kind, ())
    )


def _in_float_field(kind, path):
    return any(
        len(path) >= len(field) and all(f in ("*", p) for f, p in zip(field, path))
        for field in FLOAT_FIELDS.get(kind, ())
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The unmutated inputs, by name, as text; written under a module-wide
    directory, which also holds the unmutated track file and model."""
    base = tmp_path_factory.mktemp("fuzz_inputs")
    with open(DEMO_TRACKS) as fh:
        tracks_text = fh.read()
    tracks = load_tracks(DEMO_TRACKS)
    csv_lines = ["frame,point_id,x,y"] + [
        f"{f},{pid},{float(tracks.coords[k, f, 0])!r},{float(tracks.coords[k, f, 1])!r}"
        for f in range(tracks.num_frames) for k, pid in enumerate(tracks.ids)
    ]
    side = 24
    pixels = [255 if (x - 12) ** 2 + (y - 12) ** 2 < 64 else 40
              for y in range(side) for x in range(side)]
    model = str(base / "model.json")
    assert main(["init", "--tracks", DEMO_TRACKS, "--canvas", "64x64", "--out", model,
                 "--num-strokes", "2", "--degree", "3", "--seed", "1"]) == 0
    with open(model) as fh:
        model_text = fh.read()
    return {
        "base": base,
        "tracks.json": tracks_text,
        "tracks.csv": "\n".join(csv_lines) + "\n",
        "model.json": model_text,
        "edges.pgm": f"P2\n{side} {side}\n255\n" + " ".join(map(str, pixels)) + "\n",
        "areas.csv": "frame,area_pixels\n" + "".join(
            f"{f},{1000 + 20 * f}\n" for f in range(tracks.num_frames)),
    }


def _commands(kind, path, out):
    """(argv, output file) of each call that reads the input `kind` at `path`."""
    init = ["init", "--out", out, "--num-strokes", "2", "--degree", "3", "--seed", "1"]
    if kind in ("tracks.json", "tracks.csv"):
        return [(init + ["--tracks", path, "--canvas", "64x64"], out)]
    if kind == "edges.pgm":
        return [(init + ["--tracks", DEMO_TRACKS, "--xdog", path], out)]
    if kind == "areas.csv":
        return [(init + ["--tracks", DEMO_TRACKS, "--canvas", "64x64", "--mask-areas", path],
                 out)]
    opt, svg, interp = out + ".opt.json", out + ".export.svg", out + ".interp.svg"
    return [
        (["optimize", "--model", path, "--tracks", DEMO_TRACKS, "--out", opt,
          "--iterations", "2", "--points-per-stroke", "4"], opt),
        (["export", "--model", path, "--animated", svg], svg),
        (["interp", "--model", path, "--fps-in", "6", "--fps-out", "12", "--out", interp], interp),
    ]


# (input, number of mutations, seed)
CASES = [("tracks.json", 40, 1), ("tracks.csv", 24, 2), ("model.json", 30, 3),
         ("edges.pgm", 16, 4), ("areas.csv", 16, 5)]


@pytest.mark.parametrize(("kind", "count", "seed"), CASES, ids=[c[0] for c in CASES])
def test_mutated_inputs_fail_cleanly(kind, count, seed, inputs, capsys):
    rng = random.Random(seed)
    suffix = os.path.splitext(kind)[1]
    for trial in range(count):
        if suffix == ".json":
            text, path, value = mutate_json(inputs[kind], rng)
        else:
            text, path, value = mutate_text(inputs[kind], rng), None, None
        source = str(inputs["base"] / f"{kind}.{trial}{suffix}")
        with open(source, "w") as fh:
            fh.write(text)
        for argv, out in _commands(kind, source, str(inputs["base"] / f"out.{kind}.{trial}")):
            label = f"{kind} trial {trial} ({argv[0]}, path {path}, value {value!r:.40})"
            # Warnings count as printed lines: the CLI shows them on stderr.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except Exception as exc:
                    raise AssertionError(f"{label}: an exception escaped") from exc
            err = capsys.readouterr().err
            assert code in (0, 1, 2), label
            if code:
                lines = [str(w.message) for w in caught] + err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:"), f"{label}: {err}"
                assert not os.path.exists(out), label
            if path is not None and _is_int_field(kind, path):
                as_int64 = type(value) is int and -(2**63) <= value < 2**63
                if not as_int64:
                    assert code == 2, f"{label}: {err}"
            if path is not None and _in_float_field(kind, path):
                if isinstance(value, (bool, str)) or value is None:
                    assert code == 2, f"{label}: {err}"


# Leaves of each float field with the values put there, then whole [x, y]
# pairs: (input, path, field name, value).
FLOAT_LEAVES = [
    (kind, path, field, value)
    for kind, path, field in [
        ("tracks.json", ("points", 3, "xy", 5, 1), "'xy'"),
        ("tracks.json", ("points", 0, "xy", 0, 0), "'xy'"),
        ("model.json", ("widths", 2), "'widths'"),
        ("model.json", ("strokes", 1, "control_trajectories", 2, 3, 0),
         "'control_trajectories'"),
    ]
    for value in (True, False, "7", "2.5", "abc", None)
] + [
    ("tracks.json", ("points", 3, "xy", 5), "'xy'", [True, "12.5"]),
    ("model.json", ("strokes", 0, "control_trajectories", 1, 2), "'control_trajectories'",
     ["7", True]),
]


@pytest.mark.parametrize(("kind", "path", "field", "value"), FLOAT_LEAVES)
def test_float_fields_refuse_non_numbers(kind, path, field, value, inputs, capsys):
    # A boolean among numbers would coerce to 1.0 or 0.0 and a numeric string
    # to its number; each is a parse error (exit 2) naming the field instead.
    doc = json.loads(inputs[kind])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    source = str(inputs["base"] / f"float.{kind}")
    with open(source, "w") as fh:
        json.dump(doc, fh)
    argv, out = _commands(kind, source, str(inputs["base"] / "float.out"))[-1]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err, err
    assert not os.path.exists(out)


def test_booleans_elsewhere_leave_float_fields_as_read(inputs, tmp_path, monkeypatch):
    # Visibility flags are booleans outside the float fields: no point's
    # leaves are walked for them. Coordinates of exactly 0.0 or 1.0 (which a
    # boolean among numbers would become) send their point to the leaf check,
    # which passes numbers through unchanged.
    walked = []

    def counted_leaves(value):
        walked.append(value)
        return leaves(value)

    leaves = errors._json_leaves
    monkeypatch.setattr(errors, "_json_leaves", counted_leaves)
    doc = json.loads(inputs["tracks.json"])
    for point in doc["points"]:
        point["visible"] = [True] * len(point["xy"])
    path = tmp_path / "tracks.json"
    path.write_text(json.dumps(doc))
    plain = load_tracks(DEMO_TRACKS)
    flagged = load_tracks(str(path))
    assert walked == []
    assert np.array_equal(flagged.coords, plain.coords)
    assert np.array_equal(flagged.ids, plain.ids)

    doc["points"][2]["xy"][4] = [0.0, 1.0]
    doc["points"][5]["xy"][0] = [1, 0]
    path.write_text(json.dumps(doc))
    expected = plain.coords.copy()
    expected[2, 4] = (0.0, 1.0)
    expected[5, 0] = (1.0, 0.0)
    got = load_tracks(str(path))
    assert np.array_equal(got.coords, expected)
    # The walk recurses through the patched name: its top-level calls are
    # the two points' whole `xy` lists.
    top = [v for v in walked if isinstance(v, list) and len(v) == plain.num_frames]
    assert top == [doc["points"][2]["xy"], doc["points"][5]["xy"]]


@pytest.mark.parametrize("kind", ["tracks.json", "tracks.csv", "model.json", "areas.csv"])
def test_undecodable_bytes_are_parse_errors(kind, inputs, capsys):
    # A byte that is not UTF-8, in the middle of a text input, fails every
    # call that reads it with exit code 2 and one error line naming the file.
    raw = inputs[kind].encode()
    middle = len(raw) // 2
    source = str(inputs["base"] / f"undecodable.{kind}")
    with open(source, "wb") as fh:
        fh.write(raw[:middle] + b"\xff" + raw[middle:])
    line = raw[:middle].count(b"\n") + 1
    for argv, out in _commands(kind, source, str(inputs["base"] / "undecodable.out")):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == f"error: {source}: line {line}: byte 0xff is not UTF-8\n"
        assert not os.path.exists(out)
