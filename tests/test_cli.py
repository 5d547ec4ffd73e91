"""Command-line surface: file formats, subcommands, exit codes, determinism."""

import json

import pytest

from unlearn_lab import (
    Dataset,
    HalfspaceOracle,
    compute_dims,
    eluder_lb_instance,
    simplex_face_domain,
    thresholds_1d,
    vs_encode,
)
from unlearn_lab.classfiles import FileFormatError, encoding_to_json, load_queries
from unlearn_lab.cli import _build_instance, main


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
    assert doc["littlestone"] == 3 and doc["mis"] is None


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


def test_chain_bound_ok_at_a_power_of_two_boundary():
    from unlearn_lab.report import make_record, scheme_bound

    # d=1 is clamped to 2, so the budget is 6*(log2 2 + log2 4 + log2 8) = 36
    # bits, and (2*4*8)**6 == 2**36
    bound = scheme_bound("chain", thresholds_1d(8), 4, d=1)
    assert bound["bits"] == 36.0 and bound["log2_of"] == 2**36
    for measured, ok in ((36, True), (37, False)):
        record = make_record("chain", "c", 4, 1, ticket_bits=(measured, 2), bound=bound)
        assert record["bound_ok"] is ok
        assert record["bound"] == {"name": bound["name"], "bits": 36.0, "dims": {}}
        assert make_record("chain", "c", 4, measured, bound=bound)["bound_ok"] is ok


def test_merkle_budget_over_a_capped_star_number_has_no_bits(tmp_path, thr4_file, capsys):
    from unlearn_lab.report import scheme_bound

    bound = scheme_bound("merkle", thresholds_1d(4), 2, dim_cap=0)
    assert (bound["bits"], bound["dims"]) == (None, {"star": "cap-exceeded"})
    data = _write(tmp_path / "d.json", {"items": [{"x": 1, "y": 1}, {"x": 2, "y": 1}]})
    code, out, _ = _run(capsys, ["scheme", "run", "--scheme", "merkle", "--class", thr4_file,
                                 "--dataset", data, "--dim-cap", "0"])
    doc = json.loads(out)
    assert code == 0 and doc["bound"]["bits"] is None and doc["bound_ok"] is None
    assert doc["bound"]["dims"] == {"star": "cap-exceeded"}


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


def test_lb_demo_eluder_witness_is_the_searched_one(capsys):
    for m in range(1, 11):
        fc = thresholds_1d(m)
        searched = eluder_lb_instance(fc, compute_dims(fc).witnesses["eluder"], 2 * m)
        assert _build_instance("eluder", {"m": m}).recipe == searched.recipe
    # no dimension search runs, so m=24 answers at once
    code, out, _ = _run(
        capsys, ["lb", "demo", "--instance", "eluder", "--params", '{"m": 24}', "--secret", "10" * 12]
    )
    assert code == 0 and json.loads(out)["recovered"] == "10" * 12


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


def test_load_queries_names_the_unknown_ids_of_a_later_query(tmp_path):
    # ids 1 and 3 survive; 2 was deleted, so it is unknown like 9
    data = Dataset.from_pairs([(0, 1), (1, 0), (2, 1)]).remove([2])
    doc = {"queries": [{"indices": [3, 1]}, {"indices": [1]}, {"indices": [9, 3, 2]}]}
    path = _write(tmp_path / "q.json", doc)
    with pytest.raises(FileFormatError, match=r"query 3 references unknown items \[2, 9\]"):
        load_queries(path, data)
    every = Dataset.from_pairs([(0, 1)] * 9)  # ids 1 to 9
    assert load_queries(path, every) == [frozenset({1, 3}), frozenset({1}), frozenset({2, 3, 9})]


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


def test_lb_demo_rejects_a_misspelt_params_key(capsys):
    params = '{"bta": "1/3", "m": 3}'
    code, out, err = _run(capsys, ["lb", "demo", "--instance", "vclb", "--params", params])
    assert code == 2 and out == "" and "--params key 'bta'" in err and "'vclb'" in err


def test_lb_demo_rejects_a_params_key_the_instance_does_not_read(capsys):
    params = '{"beta": "1/3", "d": 2, "k": 1}'
    code, out, err = _run(capsys, ["lb", "demo", "--instance", "halfspace", "--params", params])
    assert code == 2 and out == "" and "--params key 'beta'" in err and "'halfspace'" in err


def test_lb_demo_checks_the_type_of_a_params_key_its_instance_reads(capsys):
    params = '{"m": 3, "n": true}'
    code, out, err = _run(capsys, ["lb", "demo", "--instance", "eluder", "--params", params])
    assert code == 2 and out == "" and "--params" in err and "'n'" in err and "not read" not in err


@pytest.mark.parametrize("instance, params", [
    ("eluder", '{"m": 3, "n": 4}'), ("erm-whitebox", '{"m": 3, "n": 4}'),
    ("shatter", '{"m": 2}')])
def test_lb_demo_accepts_every_params_key_its_instance_reads(capsys, instance, params):
    scheme = "trivial-erm" if instance == "erm-whitebox" else "trivial"
    argv = ["lb", "demo", "--instance", instance, "--params", params, "--scheme", scheme]
    code, out, _ = _run(capsys, argv)
    assert code == 0 and json.loads(out)["exact"]


@pytest.mark.parametrize("beta", ['true', '0.5', '"abc"', '[1]', '"1/0"'])
def test_lb_demo_beta_must_be_an_integer_or_a_rational_string(capsys, beta):
    params = f'{{"beta": {beta}, "m": 3}}'
    code, out, err = _run(capsys, ["lb", "demo", "--instance", "vclb", "--params", params])
    assert code == 2 and out == "" and "--params 'beta'" in err and beta in err


@pytest.mark.parametrize("beta, secret", [('1', "101"), ('"1/3"', "011")])
def test_lb_demo_reads_an_integer_or_rational_string_beta(capsys, beta, secret):
    params = f'{{"beta": {beta}, "m": 3}}'
    argv = ["lb", "demo", "--instance", "vclb", "--params", params, "--secret", secret]
    code, out, _ = _run(capsys, argv)
    doc = json.loads(out)
    assert code == 0 and doc["exact"] and doc["recovered"] == secret


def test_lb_demo_beta_with_a_non_integer_inverse_is_a_domain_error(capsys):
    params = '{"beta": "2/3", "m": 3}'
    code, out, err = _run(capsys, ["lb", "demo", "--instance", "vclb", "--params", params])
    assert code == 1 and out == "" and "1/beta" in err


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


@pytest.mark.parametrize("argv, message", [
    (["scheme", "run", "--scheme", "bounded", "--class", "{cls}", "--dataset", "{data}",
      "--k", "0"], "k must be at least 1, got 0"),
    (["lb", "demo", "--instance", "halfspace", "--scheme", "bounded", "--k", "0"],
     "k must be at least 1, got 0"),
    (["scheme", "run", "--scheme", "merkle", "--class", "{cls}", "--dataset", "{data}",
      "--encoding-cap", "-1"], "an encoding cap must be at least 0, got -1"),
    (["vs-encode", "{cls}", "{data}", "--encoding-cap", "-1"],
     "an encoding cap must be at least 0, got -1")])
def test_bad_counts_exit_2_at_parse_time(tmp_path, thr4_file, capsys, argv, message):
    data = _write(tmp_path / "d.json", {"items": [{"x": 1, "y": 1}]})
    argv = [a.format(cls=thr4_file, data=data) for a in argv]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == "" and message in err
    fixed = {"0": "2", "-1": "8"}  # the instance's own k, and a cap the one-pair encoding fits
    code, _, _ = _run(capsys, [fixed.get(a, a) for a in argv])
    assert code == 0


@pytest.mark.parametrize("doc, message", [
    ({"generator": {"kind": "random", "m": 4, "hypotheses": 3}},
     "generator 'random' does not read parameter 'hypotheses'; it reads 'm', 'h', 'seed'"),
    ({"generator": {"kind": "thresholds", "m": 4, "d": 2}},
     "generator 'thresholds' does not read parameter 'd'; it reads 'm'"),
    ({"generator": {"kind": "halfspace", "d": 1, "domain": [[0], [1]]}, "domain": [[0], [1]]},
     "generator 'halfspace' does not read parameter 'domain'"),
    ({"generator": {"kind": "halfspace", "d": 4},
      "domain": {"kind": "simplex-faces", "d": 4, "k": 2, "m": 10}},
     "domain 'simplex-faces' does not read parameter 'm'; it reads 'd', 'k'")])
def test_class_files_reject_keys_their_kind_does_not_read(tmp_path, capsys, doc, message):
    path = _write(tmp_path / "c.json", doc)
    code, out, err = _run(capsys, ["dims", path, "--cap", "1"])
    assert code == 1 and out == "" and f"c.json: {message}" in err


def _dims_without_class(capsys, path):
    code, out, _ = _run(capsys, ["dims", path, "--witness"])
    assert code == 0
    doc = json.loads(out)
    return doc.pop("class"), doc


@pytest.mark.parametrize("domain", [4, [[0], [1], [2], [3]]])
def test_explicit_matrix_class_matches_its_generator(tmp_path, thr4_file, capsys, domain):
    rows = [list(row) for row in thresholds_1d(4).hypotheses]
    path = _write(tmp_path / "m.json", {"domain": domain, "hypotheses": rows})
    desc, doc = _dims_without_class(capsys, path)
    assert desc == "explicit(m=4,h=5)"
    assert doc == _dims_without_class(capsys, thr4_file)[1]


@pytest.mark.parametrize("domain", [True, 2.0, "2", None])
def test_explicit_domain_must_be_a_size_or_a_point_list(tmp_path, capsys, domain):
    path = _write(tmp_path / "c.json", {"domain": domain, "hypotheses": [[0], [1]]})
    code, out, err = _run(capsys, ["dims", path])
    assert code == 1 and out == "" and "c.json: 'domain'" in err and "must be an integer" in err


@pytest.mark.parametrize("spec, desc, dims", [
    ({"kind": "parity", "d": 2}, "parity(d=2)", (2, 2, 2, 3, 2, 2)),
    ({"kind": "all-labelings", "m": 3}, "all-labelings(m=3)", (3, 3, 3, 2, 3, 3)),
    ({"kind": "random", "m": 4, "h": 6, "seed": 5}, "random(m=4,h=3,seed=5)", (1, 1, 2, 2, 2, 2))])
def test_dims_reads_each_generator(tmp_path, capsys, spec, desc, dims):
    path = _write(tmp_path / "c.json", {"generator": spec})
    code, out, _ = _run(capsys, ["dims", path])
    doc = json.loads(out)
    assert code == 0 and doc["class"] == desc
    assert tuple(doc[k] for k in ("vc", "littlestone", "star", "hollow_star", "eluder", "mis")) == dims


def test_vs_encode_reads_simplex_face_and_rational_string_domains(tmp_path, capsys):
    faces = _write(tmp_path / "faces.json", {
        "generator": {"kind": "halfspace", "d": 4},
        "domain": {"kind": "simplex-faces", "d": 4, "k": 2}})
    pairs = [(0, 1), (3, 0), (5, 1)]
    data = _write(tmp_path / "d.json", {"items": [{"x": x, "y": y} for x, y in pairs]})
    code, out, _ = _run(capsys, ["vs-encode", faces, data])
    doc = json.loads(out)
    want = vs_encode(HalfspaceOracle(simplex_face_domain(4, 2)), pairs)
    assert code == 0 and doc["class"] == "halfspace(d=4,simplex-faces(k=2))"
    assert doc["encoding"] == encoding_to_json(want)
    # the point 1/2 lies between 0 and 1, so a halfspace labelling both ends 1 labels it 1
    line = _write(tmp_path / "line.json",
                  {"generator": {"kind": "halfspace", "d": 1}, "domain": [[0], ["1/2"], [1]]})
    data = _write(tmp_path / "d.json", {"items": [{"x": 0, "y": 1}, {"x": 2, "y": 1}, {"x": 1, "y": 0}]})
    code, out, _ = _run(capsys, ["vs-encode", line, data])
    doc = json.loads(out)
    assert code == 0 and doc["class"] == "halfspace(d=1,points=3)"
    assert doc["encoding"]["kind"] == "unrealizable"


def test_merge_reads_an_unrealizable_encoding_file(tmp_path, thr4_file, capsys):
    good = _write(tmp_path / "a.json", {"kind": "realizable", "pairs": [[1, 1]]})
    bad = _write(tmp_path / "b.json", {"kind": "unrealizable"})
    code, out, _ = _run(capsys, ["merge", thr4_file, good, bad])
    assert code == 0
    assert json.loads(out)["encoding"] == {"kind": "unrealizable", "pairs": [[0, 0], [0, 1]]}


def test_report_reads_a_record_list_and_its_own_output(tmp_path, thr4_file, capsys):
    data = _write(tmp_path / "d.json", {"items": [{"x": 1, "y": 1}, {"x": 2, "y": 0}]})
    recs = []
    for scheme in ("trivial", "merkle", "bounded"):
        recs.append(tmp_path / f"{scheme}.json")
        code, _, _ = _run(capsys, ["scheme", "run", "--scheme", scheme, "--class", thr4_file,
                                   "--dataset", data, "--record", str(recs[-1])])
        assert code == 0
    first = tmp_path / "report.json"
    code, _, _ = _run(capsys, ["report", *map(str, recs), "--out", str(first)])
    assert code == 0
    listed = _write(tmp_path / "list.json", [json.loads(r.read_text()) for r in recs[::-1]])
    for source in (listed, str(first)):
        again = tmp_path / "again.json"
        code, _, _ = _run(capsys, ["report", source, "--out", str(again)])
        assert code == 0 and again.read_bytes() == first.read_bytes()


def test_scheme_run_chain_on_an_explicit_free_prefix_matrix(tmp_path, capsys):
    rows = [[a >> i & 1 if i < 2 else 0 for i in range(4)] for a in range(4)]
    generator = _write(tmp_path / "g.json", {"generator": {"kind": "tilu-ub", "d": 2, "domain_size": 4}})
    matrix = _write(tmp_path / "m.json", {"domain": 4, "hypotheses": rows[::-1]})
    extra = _write(tmp_path / "x.json", {"domain": 4, "hypotheses": rows + [[0, 0, 1, 0]]})
    data = _write(
        tmp_path / "d.json",
        {"items": [{"x": 0, "y": 0}, {"x": 0, "y": 1}, {"x": 2, "y": 1}, {"x": 3, "y": 0}]},
    )
    queries = _write(tmp_path / "q.json", {"queries": [{"indices": [2, 3]}, {"indices": [1]}]})
    runs = []
    for cls in (generator, matrix, extra):
        runs.append(_run(capsys, ["scheme", "run", "--scheme", "chain", "--class", cls,
                                  "--dataset", data, "--queries", queries]))
    (code_g, out_g, _), (code_m, out_m, _), (code_x, out_x, err_x) = runs
    assert code_g == code_m == 0
    doc_g, doc_m = json.loads(out_g), json.loads(out_m)
    assert doc_g.pop("class") == "tilu-ub(d=2,domain=4)" and doc_m.pop("class") == "explicit(m=4,h=4)"
    assert doc_g == doc_m and [a["answer"] for a in doc_g["answers"]] == ["yes", "no"]
    assert code_x == 2 and out_x == "" and "tilu-ub" in err_x
    # the generator stops at d=4; a matrix may free any prefix
    rows = [[a >> i & 1 if i < 5 else 0 for i in range(6)] for a in range(32)]
    wide = _write(tmp_path / "w.json", {"domain": 6, "hypotheses": rows})
    code, out, _ = _run(capsys, ["scheme", "run", "--scheme", "chain", "--class", wide,
                                 "--dataset", data, "--queries", queries])
    doc = json.loads(out)  # point 2 is free now, so only point 0 blocks
    assert code == 0 and doc["learn_answer"] == "no"
    assert [a["answer"] for a in doc["answers"]] == ["yes", "yes"]


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"records": 5}, "expected a record"),
        ([5], "record 1 must be an object"),
        ({"records": {"scheme": "merkle"}}, "expected a record"),
        ("merkle", "expected a record"),
        ([{"scheme": "merkle", "n": 1}, {"n": "2"}], "record 2 'n'"),
        ([{"k": 1.5}], "record 1 'k'"),
        ([{"bound": 5}], "record 1 'bound'"),
        ([{"bound_ok": 1}], "record 1 'bound_ok'"),
    ],
)
def test_report_rejects_malformed_record_files(tmp_path, capsys, doc, where):
    path = _write(tmp_path / "records.json", doc)
    code, out, err = _run(capsys, ["report", path])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: ") and where in err


# the command that reads each kind of file; {bad} is the file under test
_READERS = {
    "class": ["dims", "{bad}"],
    "dataset": ["vs-encode", "{cls}", "{bad}"],
    "query": ["scheme", "run", "--scheme", "trivial", "--class", "{cls}", "--dataset", "{data}",
              "--queries", "{bad}"],
    "encoding": ["merge", "{cls}", "{bad}", "{bad}"],
}


def _read_file(tmp_path, thr4_file, capsys, kind, doc):
    bad = _write(tmp_path / "bad.json", doc)
    data = _write(tmp_path / "d.json", {"items": [{"x": 1, "y": 1}]})
    code, out, err = _run(capsys, [a.format(bad=bad, cls=thr4_file, data=data) for a in _READERS[kind]])
    return code, out, err, bad


@pytest.mark.parametrize("kind, doc, message", [
    ("dataset", {"items": 5}, "'items' must be a list, got 5"),
    ("query", {"queries": 5}, "'queries' must be a list, got 5"),
    ("class", {"domain": 3, "hypotheses": 5}, "'hypotheses' must be a list, got 5"),
    ("class", {"domain": 3, "hypotheses": [[0, 1, 1], 7]}, "hypothesis 2 must be a list, got 7"),
    ("class", {"domain": [[0], [1]], "hypotheses": 3}, "'hypotheses' must be a list, got 3"),
    ("class", {"generator": 5}, "'generator' must be an object, got 5"),
    ("class", {"generator": {"kind": "halfspace", "d": 1}, "domain": 5},
     "'domain', when not an object, must be a list, got 5"),
    ("class", {"generator": {"kind": "halfspace", "d": 1}, "domain": [0, 1]},
     "domain point 1 must be a list, got 0"),
    ("encoding", {"kind": "realizable", "pairs": 5}, "'pairs' must be a list, got 5")])
def test_a_value_of_the_wrong_shape_is_a_format_error(tmp_path, thr4_file, capsys, kind, doc, message):
    code, out, err, bad = _read_file(tmp_path, thr4_file, capsys, kind, doc)
    assert (code, out, err) == (1, "", f"error: {bad}: {message}\n")


@pytest.mark.parametrize("kind, doc, message", [
    ("class", [1], "class file must be a JSON object"),
    ("class", {"domain": 2}, "class file needs 'hypotheses' or 'generator'"),
    ("class", {"domain": 2, "hypotheses": [[0, 1, 1]]}, "hypothesis row length must equal domain size"),
    ("class", {"generator": {"kind": "cubes"}}, "unknown generator kind 'cubes'"),
    ("class", {"generator": {"kind": "tilu-ub", "d": 2}},
     "generator 'tilu-ub' is missing parameter 'domain_size'"),
    ("class", {"generator": {"kind": "halfspace", "d": 1}}, "halfspace classes need a domain"),
    ("class", {"generator": {"kind": "halfspace", "d": 1}, "domain": {"kind": "cube"}},
     "unknown domain kind 'cube'"),
    ("class", {"generator": {"kind": "halfspace", "d": 2}, "domain": [[0], [1]]},
     "domain points have dimension 1, expected 2"),
    ("class", {"generator": {"kind": "halfspace", "d": 1}, "domain": [[True]]}, "bad rational True"),
    ("class", {"generator": {"kind": "halfspace", "d": 1}, "domain": [["1/x"]]}, "bad rational '1/x'"),
    ("class", {"generator": {"kind": "halfspace", "d": 1}, "domain": [[None]]}, "bad rational None"),
    ("dataset", {"points": []}, "dataset file must be an object with 'items'"),
    ("dataset", {"items": [[0, 1]]}, "item 1 must be an object with 'x' and 'y'"),
    ("dataset", {"items": [{"x": 0, "y": 2}]}, "labels must be 0 or 1"),
    ("query", {"ids": [1]}, "query file needs 'indices' or 'queries'"),
    ("query", {"indices": 1}, "query 1 must list indices"),
    ("query", {"queries": [{"indices": [1, 1]}]}, "query 1 repeats index 1"),
    ("encoding", {"pairs": []}, "encoding file needs a 'kind'"),
    ("encoding", {"kind": "other"}, "unknown encoding kind 'other'"),
    ("encoding", {"kind": "realizable", "pairs": [[0, 1, 1]]}, "encoding pairs must be [x, y] lists"),
    ("class", {"generator": {"kind": "halfspace", "d": 4}, "domain": {"kind": "simplex-faces", "k": 2}},
     "simplex-faces domain is missing parameter 'd'"),
    ("class", {"generator": {"kind": "halfspace", "d": 4}, "domain": {"kind": "simplex-faces", "d": 4}},
     "simplex-faces domain is missing parameter 'k'"),
    ("class", {"generator": {"kind": "thresholds", "m": 0}}, "m must be at least 1"),
    ("class", {"generator": {"kind": "parity", "d": 9}}, "parity classes are generated for 1 <= d <= 4"),
    ("class", {"generator": {"kind": "random", "m": 0}}, "domain size must be at least 1"),
    ("class", {"generator": {"kind": "random", "h": 0}}, "a hypothesis class needs at least one hypothesis"),
    ("class", {"generator": {"kind": "halfspace", "d": 1}, "domain": []}, "need at least one domain point"),
    ("class", {"generator": {"kind": "halfspace", "d": 4}, "domain": {"kind": "simplex-faces", "d": 4, "k": 4}},
     "need 1 <= k <= d-1"),
    ("class", {"generator": {"kind": "halfspace", "d": 1}, "domain": [["1/0"]]}, "bad rational '1/0'"),
    ("class", {"generator": {"kind": "halfspace", "d": 1}, "domain": [[float("inf")]]}, "bad rational inf")])
def test_each_malformed_file_names_itself_in_one_error_line(tmp_path, thr4_file, capsys, kind, doc, message):
    code, out, err, bad = _read_file(tmp_path, thr4_file, capsys, kind, doc)
    assert (code, out, err) == (1, "", f"error: {bad}: {message}\n")


def test_float_coordinates_read_as_their_decimal_rationals(tmp_path, capsys):
    spec = {"kind": "halfspace", "d": 1}
    floats = _write(tmp_path / "f.json", {"generator": spec, "domain": [[0.5], [-1.25], [3]]})
    strings = _write(tmp_path / "s.json", {"generator": spec, "domain": [["1/2"], ["-5/4"], [3]]})
    assert _dims_without_class(capsys, floats) == _dims_without_class(capsys, strings)


def test_a_non_integer_seed_variable_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.setenv("UNLEARN_LAB_SEED", "seven")
    code, out, err = _run(capsys, ["lb", "demo", "--instance", "shatter"])
    assert (code, out, err) == (1, "", "error: UNLEARN_LAB_SEED must be an integer, got 'seven'\n")


@pytest.mark.parametrize("argv, message", [
    (["scheme", "run", "--scheme", "chain", "--class", "{hs}", "--dataset", "{data}"],
     "the chain scheme needs a tilu-ub class file"),
    (["scheme", "run", "--scheme", "trivial-erm", "--class", "{hs}", "--dataset", "{data}"],
     "ERM schemes need an explicit finite class"),
    (["scheme", "run", "--scheme", "erm-merkle", "--class", "{hs}", "--dataset", "{data}"],
     "ERM schemes need an explicit finite class"),
    (["lb", "demo", "--instance", "vclb", "--scheme", "trivial-erm"],
     "realizability instances need a realizability scheme"),
    (["lb", "demo", "--instance", "vclb", "--params", "[1,"],
     "--params is not valid JSON: Expecting value"),
    (["lb", "demo", "--instance", "shatter", "--secret", "01"], "--secret must be 3 bits of 0/1"),
    (["lb", "demo", "--instance", "shatter", "--secret", "012"], "--secret must be 3 bits of 0/1")])
def test_unusable_invocations_exit_2_with_one_error_line(tmp_path, capsys, argv, message):
    hs = _write(tmp_path / "hs.json", {"generator": {"kind": "halfspace", "d": 1}, "domain": [[0], [1]]})
    data = _write(tmp_path / "d.json", {"items": [{"x": 1, "y": 1}]})
    code, out, err = _run(capsys, [a.format(hs=hs, data=data) for a in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [["dims", "{cls}", "--witness"], ["report", "{rec}"]])
def test_out_writes_what_stdout_prints(tmp_path, thr4_file, capsys, argv):
    data = _write(tmp_path / "d.json", {"items": [{"x": 1, "y": 1}]})
    rec = tmp_path / "r.json"
    _run(capsys, ["scheme", "run", "--scheme", "trivial", "--class", thr4_file,
                  "--dataset", data, "--record", str(rec)])
    argv = [a.format(cls=thr4_file, rec=rec) for a in argv]
    code, printed, _ = _run(capsys, argv)
    out = tmp_path / "out.json"
    code_out, nothing, _ = _run(capsys, argv + ["--out", str(out)])
    assert code == code_out == 0 and nothing == ""
    assert json.loads(printed) and out.read_text() == printed


@pytest.mark.parametrize("scheme, message", [
    ("bounded", "the bounded scheme budget needs k"),
    ("chain", "the chain scheme budget needs d"),
    ("lottery", "unknown scheme 'lottery'")])
def test_scheme_bound_rejects_what_it_cannot_price(scheme, message):
    from unlearn_lab.report import scheme_bound

    with pytest.raises(ValueError, match=message):
        scheme_bound(scheme, thresholds_1d(3), 3)
