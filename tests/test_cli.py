"""Command-line surface: file formats, subcommands, exit codes, determinism."""

import json

import pytest

from unlearn_lab.cli import main


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def thr4_file(tmp_path):
    return _write(tmp_path / "thr4.json", {"generator": {"kind": "thresholds", "m": 4}})


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_thresholds(thr4_file, capsys):
    code, out, _ = _run(capsys, ["dims", thr4_file])
    assert code == 0
    doc = json.loads(out)
    assert (doc["vc"], doc["littlestone"], doc["star"], doc["hollow_star"], doc["eluder"], doc["mis"]) == (
        1, 2, 2, 2, 4, 4,
    )


def test_dims_halfspace_class(tmp_path, capsys):
    path = _write(
        tmp_path / "hs.json",
        {"generator": {"kind": "halfspace", "d": 1}, "domain": [[0], [1], [2], [3], [4]]},
    )
    code, out, _ = _run(capsys, ["dims", path, "--cap", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["hollow_star"] == 3
    assert doc["littlestone"] is None and doc["mis"] is None


def test_dims_witness_flag(thr4_file, capsys):
    code, out, _ = _run(capsys, ["dims", thr4_file, "--witness"])
    doc = json.loads(out)
    assert code == 0 and "witnesses" in doc


def test_vs_encode_and_merge(tmp_path, thr4_file, capsys):
    data = _write(tmp_path / "d.json", {"items": [{"x": 1, "y": 1}, {"x": 2, "y": 1}]})
    code, out, _ = _run(capsys, ["vs-encode", thr4_file, data])
    assert code == 0
    doc = json.loads(out)
    assert doc["encoding"] == {"kind": "realizable", "pairs": [[1, 1]]}
    assert doc["pair_count"] == 1

    enc_a = _write(tmp_path / "a.json", {"kind": "realizable", "pairs": [[0, 1]]})
    enc_b = _write(tmp_path / "b.json", {"kind": "realizable", "pairs": [[1, 0]]})
    code, out, _ = _run(capsys, ["merge", thr4_file, enc_a, enc_b])
    assert code == 0
    merged = json.loads(out)["encoding"]
    assert merged["kind"] == "unrealizable"


def test_scheme_run_bounded(tmp_path, thr4_file, capsys):
    data = _write(
        tmp_path / "d.json",
        {"items": [{"x": 0, "y": 1}, {"x": 1, "y": 0}, {"x": 2, "y": 1}, {"x": 3, "y": 0}]},
    )
    queries = _write(
        tmp_path / "q.json",
        {"queries": [{"indices": [2, 4]}, {"indices": [1]}, {"indices": []}]},
    )
    code, out, _ = _run(
        capsys,
        ["scheme", "run", "--scheme", "bounded", "--k", "2",
         "--class", thr4_file, "--dataset", data, "--queries", queries],
    )
    assert code == 0
    doc = json.loads(out)
    assert [a["answer"] for a in doc["answers"]] == ["yes", "no", "no"]
    assert doc["bound_ok"] is True
    assert doc["bound"]["dims"] == {"hollow_star": 2}


def test_scheme_run_merkle_records(tmp_path, thr4_file, capsys):
    data = _write(tmp_path / "d.json", {"items": [{"x": i % 4, "y": 1} for i in range(8)]})
    queries = _write(tmp_path / "q.json", {"indices": [5]})
    record = tmp_path / "rec.json"
    code, out, _ = _run(
        capsys,
        ["scheme", "run", "--scheme", "merkle", "--class", thr4_file,
         "--dataset", data, "--queries", queries, "--record", str(record)],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["aux_bits"] == 1
    assert doc["max_ticket_bits"] > 0
    stored = json.loads(record.read_text())
    assert stored["kind"] == "scheme-run" and stored["bound_ok"] is True


@pytest.mark.parametrize("scheme", ["trivial", "merkle"])
def test_scheme_run_ticket_bits_null_exactly_without_tickets(tmp_path, thr4_file, capsys, scheme):
    runs = {}
    for name, items in (("full", [{"x": 1, "y": 1}, {"x": 2, "y": 1}]), ("empty", [])):
        data = _write(tmp_path / f"{name}.json", {"items": items})
        code, out, _ = _run(
            capsys, ["scheme", "run", "--scheme", scheme, "--class", thr4_file, "--dataset", data]
        )
        assert code == 0
        runs[name] = json.loads(out)
    if scheme == "trivial":
        assert runs["full"]["ticket_bits"] is None and runs["full"]["max_ticket_bits"] is None
    else:
        assert sorted(runs["full"]["ticket_bits"]) == ["1", "2"]
        assert runs["full"]["max_ticket_bits"] == max(runs["full"]["ticket_bits"].values())
    assert runs["empty"]["ticket_bits"] is None and runs["empty"]["max_ticket_bits"] is None


def test_scheme_run_chain_requires_tilu_class(tmp_path, thr4_file, capsys):
    data = _write(tmp_path / "d.json", {"items": [{"x": 0, "y": 1}]})
    code, _, err = _run(
        capsys,
        ["scheme", "run", "--scheme", "chain", "--class", thr4_file, "--dataset", data],
    )
    assert code == 2 and "tilu-ub" in err


def test_scheme_run_chain(tmp_path, capsys):
    cls = _write(tmp_path / "c.json", {"generator": {"kind": "tilu-ub", "d": 2, "domain_size": 4}})
    data = _write(
        tmp_path / "d.json",
        {"items": [{"x": 0, "y": 0}, {"x": 0, "y": 1}, {"x": 2, "y": 1}, {"x": 3, "y": 0}]},
    )
    queries = _write(tmp_path / "q.json", {"queries": [{"indices": [1, 3]}, {"indices": []}]})
    code, out, _ = _run(
        capsys,
        ["scheme", "run", "--scheme", "chain", "--class", cls, "--dataset", data, "--queries", queries],
    )
    assert code == 0
    doc = json.loads(out)
    assert [a["answer"] for a in doc["answers"]] == ["yes", "no"]


def test_scheme_run_erm_merkle(tmp_path, thr4_file, capsys):
    data = _write(tmp_path / "d.json", {"items": [{"x": 1, "y": 1}, {"x": 2, "y": 1}]})
    queries = _write(tmp_path / "q.json", {"indices": [1]})
    code, out, _ = _run(
        capsys,
        ["scheme", "run", "--scheme", "erm-merkle", "--class", thr4_file,
         "--dataset", data, "--queries", queries],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["answers"][0]["answer"] == 0


def test_scheme_run_erm_merkle_unrealizable_is_domain_error(tmp_path, thr4_file, capsys):
    data = _write(tmp_path / "d.json", {"items": [{"x": 0, "y": 1}, {"x": 1, "y": 0}]})
    code, _, err = _run(
        capsys,
        ["scheme", "run", "--scheme", "erm-merkle", "--class", thr4_file, "--dataset", data],
    )
    assert code == 1 and "realizable" in err


def test_lb_demo_fixed_secret(capsys):
    code, out, _ = _run(
        capsys,
        ["lb", "demo", "--instance", "vclb", "--params", '{"m": 4}', "--secret", "1001"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["recovered"] == "1001" and doc["exact"] is True
    assert len(doc["transcript"]) == 4


def test_lb_demo_erm_whitebox(capsys):
    code, out, _ = _run(
        capsys,
        ["lb", "demo", "--instance", "erm-whitebox", "--params", '{"m": 4}',
         "--scheme", "trivial-erm", "--secret", "0101"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is True


def test_lb_demo_scheme_task_mismatch(capsys):
    code, _, err = _run(
        capsys,
        ["lb", "demo", "--instance", "erm-whitebox", "--scheme", "trivial"],
    )
    assert code == 2


def test_lb_demo_env_seeded_secret(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UNLEARN_LAB_SEED", "7")
    code, out1, _ = _run(capsys, ["lb", "demo", "--instance", "shatter", "--params", '{"m": 3}'])
    code2, out2, _ = _run(capsys, ["lb", "demo", "--instance", "shatter", "--params", '{"m": 3}'])
    assert code == code2 == 0
    assert json.loads(out1)["secret"] == json.loads(out2)["secret"]


def test_report_is_deterministic(tmp_path, thr4_file, capsys):
    data = _write(tmp_path / "d.json", {"items": [{"x": 1, "y": 1}]})
    rec1 = tmp_path / "r1.json"
    rec2 = tmp_path / "r2.json"
    _run(capsys, ["scheme", "run", "--scheme", "trivial", "--class", thr4_file,
                  "--dataset", data, "--record", str(rec1)])
    _run(capsys, ["scheme", "run", "--scheme", "merkle", "--class", thr4_file,
                  "--dataset", data, "--record", str(rec2)])
    out_a = tmp_path / "report_a.json"
    out_b = tmp_path / "report_b.json"
    code, _, err = _run(capsys, ["report", str(rec1), str(rec2), "--out", str(out_a)])
    assert code == 0
    assert "scheme" in err  # the text table goes to stderr
    code, _, _ = _run(capsys, ["report", str(rec2), str(rec1), "--out", str(out_b)])
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, ["dims", "/nonexistent/class.json"])
    assert code == 2 and "not found" in err


def test_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, ["dims", str(bad)])
    assert code == 1 and "line" in err


def test_bad_usage_exits_2(capsys):
    code, _, _ = _run(capsys, ["no-such-command"])
    assert code == 2


def test_dataset_point_out_of_domain_exits_1(tmp_path, thr4_file, capsys):
    data = _write(tmp_path / "d.json", {"items": [{"x": 9, "y": 1}]})
    code, _, err = _run(capsys, ["vs-encode", thr4_file, data])
    assert code == 1 and "outside domain" in err


def test_query_unknown_item_exits_1(tmp_path, thr4_file, capsys):
    data = _write(tmp_path / "d.json", {"items": [{"x": 1, "y": 1}]})
    queries = _write(tmp_path / "q.json", {"indices": [5]})
    code, _, err = _run(
        capsys,
        ["scheme", "run", "--scheme", "trivial", "--class", thr4_file,
         "--dataset", data, "--queries", queries],
    )
    assert code == 1 and "unknown items" in err


# The full `scheme run` output of the tree schemes on thresholds(m=4),
# pinned byte for byte: how tickets are built must not change what a run
# prints, ticket_bits key order included.
TREE_RUNS = {
    "merkle": (
        [(0, 0), (3, 1), (1, 0), (2, 1), (1, 1), (0, 0), (3, 1), (2, 0), (2, 1), (0, 0), (3, 1)],
        [[5], [5, 8], [5, 8, 9, 11], [], [10]],
        """\
{
  "answers": [
    {
      "answer": "no",
      "indices": [
        5
      ]
    },
    {
      "answer": "yes",
      "indices": [
        5,
        8
      ]
    },
    {
      "answer": "yes",
      "indices": [
        5,
        8,
        9,
        11
      ]
    },
    {
      "answer": "no",
      "indices": []
    },
    {
      "answer": "no",
      "indices": [
        10
      ]
    }
  ],
  "aux_bits": 1,
  "bound": {
    "bits": 44,
    "dims": {
      "star": 2
    },
    "name": "(count_bits(cap)+star*z_bits)*log2(n)+count_bits(n-1)"
  },
  "bound_ok": true,
  "class": "thresholds(m=4)",
  "learn_answer": "no",
  "max_ticket_bits": 41,
  "mean_ticket_bits": 38.54545454545455,
  "scheme": "merkle",
  "ticket_bits": {
    "1": 41,
    "2": 41,
    "3": 41,
    "4": 41,
    "5": 41,
    "6": 41,
    "7": 41,
    "8": 41,
    "9": 32,
    "10": 32,
    "11": 32
  },
  "v": 1
}
""",
    ),
    "erm-merkle": (
        [(2, 1), (0, 0), (3, 1), (1, 0), (2, 1), (0, 0), (3, 1), (1, 0), (2, 1), (3, 1), (0, 0)],
        [[1], [1, 5, 9], [4, 8], [], [2, 6, 11, 4, 8]],
        """\
{
  "answers": [
    {
      "answer": 2,
      "indices": [
        1
      ]
    },
    {
      "answer": 2,
      "indices": [
        1,
        5,
        9
      ]
    },
    {
      "answer": 1,
      "indices": [
        4,
        8
      ]
    },
    {
      "answer": 2,
      "indices": []
    },
    {
      "answer": 0,
      "indices": [
        2,
        4,
        6,
        8,
        11
      ]
    }
  ],
  "aux_bits": 3,
  "bound": {
    "bits": 44,
    "dims": {
      "star": 2
    },
    "name": "(count_bits(cap)+star*z_bits)*log2(n)+count_bits(n-1)"
  },
  "bound_ok": true,
  "class": "thresholds(m=4)",
  "learn_answer": 2,
  "max_ticket_bits": 41,
  "mean_ticket_bits": 38.27272727272727,
  "scheme": "erm-merkle",
  "ticket_bits": {
    "1": 41,
    "2": 41,
    "3": 41,
    "4": 41,
    "5": 41,
    "6": 41,
    "7": 41,
    "8": 41,
    "9": 32,
    "10": 32,
    "11": 29
  },
  "v": 1
}
""",
    ),
}


@pytest.mark.parametrize("scheme", sorted(TREE_RUNS))
def test_scheme_run_tree_output_is_pinned_byte_for_byte(tmp_path, thr4_file, capsys, scheme):
    items, queries, want = TREE_RUNS[scheme]
    data = _write(tmp_path / "d.json", {"items": [{"x": x, "y": y} for x, y in items]})
    qs = _write(tmp_path / "q.json", {"queries": [{"indices": q} for q in queries]})
    code, out, _ = _run(
        capsys,
        ["scheme", "run", "--scheme", scheme, "--class", thr4_file,
         "--dataset", data, "--queries", qs],
    )
    assert code == 0
    assert out == want


# The full `lb demo` stdout of six attacks, recorded before the
# presence-coded families shared one builder. Each is kept as compact JSON
# and rendered here with indent 2 and sorted keys, which is exactly what
# the command prints, so a change to any byte of a run fails.
LB_DEMOS = [
    (
        ['--instance', 'vclb', '--params', '{"m": 6}', '--scheme', 'bounded', '--k', '2', '--secret', '101100'],
        '{"aux_bits":47,"exact":true,"instance":"vclb","max_ticket_bits":0,"recovered":"101100","scheme":"bounded","secret":"101100","transcript":['
        '{"answer":"no","deleted":[1,2],"position":1},'
        '{"answer":"yes","deleted":[1,3],"position":2},'
        '{"answer":"no","deleted":[1,4],"position":3},'
        '{"answer":"no","deleted":[1,5],"position":4},'
        '{"answer":"yes","deleted":[2,3],"position":5},'
        '{"answer":"yes","deleted":[2,4],"position":6}'
        '],"v":1}',
    ),
    (
        ['--instance', 'eluder', '--params', '{"m": 6}', '--scheme', 'merkle', '--secret', '011010'],
        '{"aux_bits":1,"exact":true,"instance":"eluder","max_ticket_bits":40,"recovered":"011010","scheme":"merkle","secret":"011010","transcript":['
        '{"answer":"yes","deleted":[1,2,3,4,5],"position":6},'
        '{"answer":"no","deleted":[1,2,3,4,6],"position":5},'
        '{"answer":"yes","deleted":[1,2,3,5,6,7],"position":4},'
        '{"answer":"no","deleted":[1,2,4,5,6,7],"position":3},'
        '{"answer":"no","deleted":[1,3,4,5,6,7,8],"position":2},'
        '{"answer":"yes","deleted":[2,3,4,5,6,7,8,9],"position":1}'
        '],"v":1}',
    ),
    (
        ['--instance', 'shatter', '--scheme', 'trivial', '--secret', '101'],
        '{"aux_bits":21,"exact":true,"instance":"shatter","max_ticket_bits":0,"recovered":"101","scheme":"trivial","secret":"101","transcript":['
        '{"answer":"yes","deleted":[3,5],"position":1},'
        '{"answer":"no","deleted":[1,5],"position":2},'
        '{"answer":"yes","deleted":[1,3],"position":3}'
        '],"v":1}',
    ),
    (
        ['--instance', 'halfspace', '--scheme', 'bounded', '--k', '2', '--secret', '100110'],
        '{"aux_bits":79,"exact":true,"instance":"halfspace","max_ticket_bits":0,"recovered":"100110","scheme":"bounded","secret":"100110","transcript":['
        '{"answer":"no","deleted":[1,2],"position":1},'
        '{"answer":"yes","deleted":[1,3],"position":2},'
        '{"answer":"yes","deleted":[1,4],"position":3},'
        '{"answer":"no","deleted":[2,3],"position":4},'
        '{"answer":"no","deleted":[2,4],"position":5},'
        '{"answer":"yes","deleted":[3,4],"position":6}'
        '],"v":1}',
    ),
    (
        ['--instance', 'halfspace', '--scheme', 'merkle', '--secret', '011001'],
        '{"aux_bits":1,"exact":true,"instance":"halfspace","max_ticket_bits":48,"recovered":"011001","scheme":"merkle","secret":"011001","transcript":['
        '{"answer":"yes","deleted":[1,2],"position":1},'
        '{"answer":"no","deleted":[1,3],"position":2},'
        '{"answer":"no","deleted":[1,4],"position":3},'
        '{"answer":"yes","deleted":[2,3],"position":4},'
        '{"answer":"yes","deleted":[2,4],"position":5},'
        '{"answer":"no","deleted":[3,4],"position":6}'
        '],"v":1}',
    ),
    (
        ['--instance', 'erm-whitebox', '--scheme', 'trivial-erm', '--secret', '0110'],
        '{"aux_bits":28,"exact":true,"instance":"eluder-erm","max_ticket_bits":0,"recovered":"0110","scheme":"trivial-erm","secret":"0110","transcript":['
        '{"answer":3,"deleted":[1,2,4],"position":2},'
        '{"answer":2,"deleted":[1,3,4,5,6],"position":3},'
        '{"answer":0,"deleted":[2,3,4,5,6,7,8],"position":4}'
        '],"v":1}',
    ),
]


@pytest.mark.parametrize("argv, pinned", LB_DEMOS, ids=[
    "vclb-bounded", "eluder-merkle", "shatter-trivial",
    "halfspace-bounded", "halfspace-merkle", "erm-whitebox"])
def test_lb_demo_output_is_pinned_byte_for_byte(capsys, argv, pinned):
    code, out, _ = _run(capsys, ["lb", "demo", *argv])
    assert code == 0
    assert out == json.dumps(json.loads(pinned), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("item", [
    {"x": 1.7, "y": 1}, {"x": 1, "y": 0.5}, {"x": True, "y": 1}, {"x": "1", "y": 1}])
def test_dataset_values_must_be_json_integers(tmp_path, thr4_file, capsys, item):
    data = _write(tmp_path / "d.json", {"items": [{"x": 2, "y": 0}, item]})
    code, _, err = _run(capsys, ["vs-encode", thr4_file, data])
    assert code == 1 and "d.json: item 2" in err and "must be an integer" in err


@pytest.mark.parametrize("index", [1.5, True, "1"])
def test_query_indices_must_be_json_integers(tmp_path, thr4_file, capsys, index):
    data = _write(tmp_path / "d.json", {"items": [{"x": 1, "y": 1}, {"x": 2, "y": 0}]})
    queries = _write(tmp_path / "q.json", {"indices": [2, index]})
    code, _, err = _run(
        capsys,
        ["scheme", "run", "--scheme", "trivial", "--class", thr4_file,
         "--dataset", data, "--queries", queries],
    )
    assert code == 1 and "q.json: query 1 index must be an integer" in err


@pytest.mark.parametrize("pair", [[1.0, 1], [1, False], ["1", 1]])
def test_encoding_pairs_must_be_json_integers(tmp_path, thr4_file, capsys, pair):
    good = _write(tmp_path / "a.json", {"kind": "realizable", "pairs": [[2, 1]]})
    bad = _write(tmp_path / "b.json", {"kind": "realizable", "pairs": [[2, 1], pair]})
    code, _, err = _run(capsys, ["merge", thr4_file, good, bad])
    assert code == 1 and "b.json: encoding pair 2 must be an integer" in err


@pytest.mark.parametrize("spec", [
    {"kind": "thresholds", "m": 2.9}, {"kind": "parity", "d": True},
    {"kind": "random", "m": 4, "seed": "7"}])
def test_generator_parameters_must_be_json_integers(tmp_path, capsys, spec):
    path = _write(tmp_path / "c.json", {"generator": spec})
    code, _, err = _run(capsys, ["dims", path])
    assert code == 1 and f"c.json: generator {spec['kind']!r} parameter" in err


@pytest.mark.parametrize("params", ['[1]', '{"m": 2.9}', '{"n": true}', '{"d": "4"}'])
def test_lb_demo_params_must_be_an_object_of_integers(capsys, params):
    instance = "halfspace" if "d" in params else "vclb"
    code, out, err = _run(capsys, ["lb", "demo", "--instance", instance, "--params", params])
    assert code == 2 and out == "" and "--params" in err


@pytest.mark.parametrize("argv", [
    ["dims", "{cls}", "--cap", "-1"],
    ["scheme", "run", "--scheme", "bounded", "--class", "{cls}", "--dataset", "{data}",
     "--dim-cap", "-1"]])
def test_negative_dimension_caps_exit_2(tmp_path, thr4_file, capsys, argv):
    data = _write(tmp_path / "d.json", {"items": [{"x": 1, "y": 1}]})
    argv = [a.format(cls=thr4_file, data=data) for a in argv]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == "" and "must be at least 0" in err
    code, _, _ = _run(capsys, [a if a != "-1" else "0" for a in argv])
    assert code == 0
