import json

from hermiwitt import randgen as rg
from hermiwitt import serialize as sz
from hermiwitt import wittclass as wc
from hermiwitt.cli import run
from hermiwitt.padic import FieldConfig


def run_cli(capsys, *argv):
    rc = run(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_classify_example(capsys):
    rc, out = run_cli(capsys, "classify", "--epsilon", "1", "--element",
                      '{"a":{"a":"1","b":"0"},"b":{"a":"0","b":"0"}}')
    assert rc == 0
    doc = json.loads(out)
    assert doc["class"] == ["g1"] and doc["anisotropic_dim"] == 1


def test_classify_skew(capsys):
    rc, out = run_cli(capsys, "--prime", "7", "classify", "--epsilon", "-1",
                      "--element", '{"a":"0","b":{"a":"0","b":"1"}}')
    assert rc == 0
    assert json.loads(out)["class"] == ["gskew"]


def test_decompose(capsys):
    form = {"epsilon": 1, "rank": 2,
            "gram": [[{"a": "1", "b": "0"}, {"a": "0", "b": "0"}],
                     [{"a": "0", "b": "0"}, {"a": "-1", "b": "0"}]]}
    rc, out = run_cli(capsys, "decompose", "--form", json.dumps(form))
    assert rc == 0
    doc = json.loads(out)
    assert doc["witt_index"] == 1 and doc["witt_class"] == []


def test_decompose_rejects_non_hermitian(capsys):
    form = {"epsilon": 1, "rank": 2,
            "gram": [[{"a": "1"}, {"a": "2"}], [{"a": "3"}, {"a": "1"}]]}
    rc = run(["decompose", "--form", json.dumps(form)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("invalid:")


def test_decompose_reduced_precision_forms(capsys):
    """Forms that lost digits in arithmetic survive the JSON round trip:
    each decomposes, to the Witt class of the form itself."""
    cfg = FieldConfig(5, 32)
    r = rg.rng(7)
    for rank in range(1, 5):
        for t in range(20):
            form = rg.rand_form(cfg, r, 1 if t % 2 == 0 else -1, rank)
            rc, out = run_cli(capsys, "decompose", "--form",
                              json.dumps(sz.form_to_json(form)))
            assert rc == 0, (rank, t)
            assert json.loads(out)["witt_class"] == \
                wc.class_of_form(form).sorted_names()


def test_tower_and_transfer(capsys, tmp_path):
    form = {"epsilon": 1, "rank": 1, "gram": [[{"a": "1", "b": "0"}]]}
    beta = {"a": "0", "b": {"a": "0", "b": "1"}}   # u pi_D, skew for <1>
    rc, out = run_cli(capsys, "tower", "--form", json.dumps(form),
                      "--beta", json.dumps(beta))
    assert rc == 0
    doc = json.loads(out)
    assert doc["tower_class"]["anisotropic_dim"] == 1
    assert doc["trace_class"] == ["g1"]

    fpath = tmp_path / "ed.json"
    fpath.write_text(json.dumps(
        {"epsilon": 1, "delta": "2", "t": 2,
         "H": [[{"a": "0", "b": "0"}, {"a": "1", "b": "0"}],
               [{"a": "1", "b": "0"}, {"a": "0", "b": "0"}]]}))
    rc, out = run_cli(capsys, "transfer", "--form", f"@{fpath}")
    assert rc == 0
    assert json.loads(out)["class"] == []   # hyperbolic stays hyperbolic


def test_endo_commands(capsys):
    doc = {"epsilon": 1, "ambient": {"m": 2, "h_class": ["g1", "gpi"]},
           "lift": [
               {"id": "c1", "kind": "simple_nonnull", "degree": 2,
                "e_parity": 1, "f_parity": 0, "min_tag": "u",
                "aniso_parity": 1, "wtd_odd": ["g1"], "f": 1},
               {"id": "c2", "kind": "simple_nonnull", "degree": 2,
                "e_parity": 0, "f_parity": 1, "min_tag": "r",
                "aniso_parity": 1, "wtd_odd": ["gpi"], "f": 1}]}
    rc, out = run_cli(capsys, "endo-count", "--input", json.dumps(doc))
    assert rc == 0 and json.loads(out)["count"] == 4
    rc, out = run_cli(capsys, "endo-enumerate", "--input", json.dumps(doc))
    assert rc == 0
    params = json.loads(out)["parameters"]
    assert len(params) == 4
    rc, out = run_cli(capsys, "endo-validate", "--input", json.dumps(params[0]))
    assert rc == 0 and json.loads(out)["valid"]
    bad = dict(params[0])
    bad["ambient"] = {"m": 99, "h_class": params[0]["ambient"]["h_class"]}
    rc, out = run_cli(capsys, "endo-validate", "--input", json.dumps(bad))
    assert rc == 2
    assert "degree" in json.loads(out)["diagnostics"]


def test_exit_codes(capsys):
    rc, _ = run_cli(capsys, "classify", "--epsilon", "1", "--element", "garbage")
    assert rc == 1
    rc, _ = run_cli(capsys, "classify", "--epsilon", "1", "--element",
                    '{"a":"0","b":"0"}')
    assert rc == 2
    rc, _ = run_cli(capsys, "nonsense")
    assert rc == 1
    rc, _ = run_cli(capsys, "--prime", "4", "classify", "--epsilon", "1",
                    "--element", '{"a":"1","b":"0"}')
    assert rc == 1
    rc, _ = run_cli(capsys, "--precision", "4", "classify", "--epsilon", "1",
                    "--element", '{"a":"1","b":"0"}')
    assert rc == 1


def test_byte_identical_output(capsys):
    args = ("classify", "--epsilon", "1", "--element", '{"a":"7","b":"0"}')
    rc1, out1 = run_cli(capsys, *args)
    rc2, out2 = run_cli(capsys, *args)
    assert rc1 == rc2 == 0 and out1 == out2


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HERMIWITT_PRECISION", "16")
    from hermiwitt.cli import build_parser

    args = build_parser().parse_args(["selftest"])
    assert args.precision == 16


def test_missing_at_file_is_malformed(capsys):
    rc, _ = run_cli(capsys, "classify", "--epsilon", "1", "--element",
                    "@/nonexistent/path.json")
    assert rc == 1
