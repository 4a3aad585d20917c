import json

import numpy as np
import pytest

from szquad import cli


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parsing helpers -----------------------------------------------------------

def test_parse_angle():
    assert cli.parse_angle("3.14") == pytest.approx(3.14)
    assert cli.parse_angle("0.25turns") == pytest.approx(np.pi / 2)


def test_parse_complex_pair():
    assert cli.parse_complex_pair("0.3,-0.2") == 0.3 - 0.2j
    assert cli.parse_complex_pair("0.5") == 0.5 + 0j


def test_parse_measure_variants(tmp_path):
    import szquad as sq
    assert cli.parse_measure("lebesgue") == sq.Lebesgue()
    assert cli.parse_measure("bernstein-szego:0.5") == sq.BernsteinSzego(0.5)
    spec = cli.parse_measure("bernstein-szego:0.3,0.1;-0.2,0")
    assert spec.roots == (0.3 + 0.1j, -0.2 + 0j)
    path = tmp_path / "m.txt"
    path.write_text("1 0\n0.5 0\n")
    assert cli.parse_measure(f"moments:{path}").c == (1 + 0j, 0.5 + 0j)


# --- generate --------------------------------------------------------------------

def test_generate_lebesgue_json(capsys):
    code, out, _ = run_cli(
        ["generate", "--measure", "lebesgue", "--n", "4", "--m", "0",
         "--eta", "0.0turns"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4
    assert np.allclose(data["weights"], 0.25)
    assert data["precise_degree"] == 3


def test_generate_deterministic(capsys):
    args = ["generate", "--measure", "bernstein-szego:0.5", "--n", "6",
            "--m", "1", "--tail", "0.3,0", "--eta", "0.1turns"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_parser_reuse_keeps_no_flags(capsys):
    # one parser serves every call: a flag of one call must not carry over
    # into the next, so the order of two calls does not change their output
    with_tail = ["generate", "--measure", "bernstein-szego:0.5", "--n", "6",
                 "--m", "1", "--tail", "0.3,0"]
    without = ["generate", "--measure", "bernstein-szego:0.5", "--n", "6"]
    forward = [run_cli(args, capsys)[1] for args in (with_tail, without)]
    backward = [run_cli(args, capsys)[1] for args in (without, with_tail)]
    assert forward == backward[::-1]
    assert forward[0] != forward[1]


def test_generate_reduced_rule(capsys):
    code, out, _ = run_cli(
        ["generate", "--measure", "bernstein-szego:0.5", "--n", "3", "--m", "1",
         "--tail", "0.3,0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["precise_degree"] >= 1
    assert min(data["weights"]) > 0


def test_generate_csv_format(capsys):
    code, out, _ = run_cli(
        ["generate", "--measure", "lebesgue", "--n", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "node_rad,weight"
    assert len(lines) == 4   # header + 2 rows + precise_degree comment


def test_generate_tail_arity_error(capsys):
    code, _, err = run_cli(
        ["generate", "--measure", "lebesgue", "--n", "4", "--m", "2",
         "--tail", "0.1,0"], capsys)
    assert code == 2
    assert "tail length must equal m" in err


def test_generate_bad_measure_exits_2(capsys):
    code, _, _ = run_cli(["generate", "--measure", "nope", "--n", "2"], capsys)
    assert code == 2


def test_generate_node_at_eta(capsys, tmp_path):
    out_path = tmp_path / "rule.json"
    code, _, _ = run_cli(
        ["generate", "--measure", "bernstein-szego:0.5", "--n", "5",
         "--eta", "node-at:0.0", "--output", str(out_path)], capsys)
    assert code == 0
    data = json.loads(out_path.read_text())
    assert min(abs(v) for v in data["nodes"]) < 1e-10


# --- verify ------------------------------------------------------------------------

def _write_rule(tmp_path, capsys, extra=()):
    out_path = tmp_path / "rule.json"
    code, _, _ = run_cli(
        ["generate", "--measure", "bernstein-szego:0.5", "--n", "6", "--m", "0",
         "--output", str(out_path), *extra], capsys)
    assert code == 0
    return out_path


def test_verify_fresh_rule(tmp_path, capsys):
    path = _write_rule(tmp_path, capsys)
    code, out, _ = run_cli(
        ["verify", "--measure", "bernstein-szego:0.5", "--rule", str(path)], capsys)
    assert code == 0
    assert out.strip().endswith("PASS")


def test_verify_perturbed_weight_fails(tmp_path, capsys):
    path = _write_rule(tmp_path, capsys)
    data = json.loads(path.read_text())
    data["weights"][0] += 1e-3
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(
        ["verify", "--measure", "bernstein-szego:0.5", "--rule", str(path)], capsys)
    assert code == 1
    assert "FAIL" in out


def test_verify_missing_moments_file(tmp_path, capsys):
    path = _write_rule(tmp_path, capsys)
    code, _, _ = run_cli(
        ["verify", "--measure", f"moments:{tmp_path}/absent.txt",
         "--rule", str(path)], capsys)
    assert code == 2


# --- sweep -------------------------------------------------------------------------

def test_sweep_lebesgue_zero_rows(capsys):
    code, out, _ = run_cli(
        ["sweep", "--measure", "lebesgue", "--n-list", "4,8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,max_asym_dev,precise_degree"
    for line in lines[1:3]:
        dev = float(line.split(",")[1])
        assert dev < 1e-12
    assert lines[-1] == "# trend decreasing=true"


def test_sweep_bernstein_decreasing(capsys):
    code, out, _ = run_cli(
        ["sweep", "--measure", "bernstein-szego:0.5", "--n-list", "8,16,32"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "# trend decreasing=true"


def test_sweep_rejects_momentless_measure(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("1 0\n0.5 0\n0.25 0\n0.125 0\n0.0625 0\n")
    code, _, _ = run_cli(
        ["sweep", "--measure", f"moments:{path}", "--n-list", "4"], capsys)
    assert code == 2


def test_sweep_rejects_node_at_eta(capsys):
    code, _, err = run_cli(
        ["sweep", "--measure", "lebesgue", "--n-list", "4,8", "--eta", "node-at:0.1"], capsys)
    assert code == 2
    assert "sweep takes an angle for --eta, not node-at" in err


# --- transform ------------------------------------------------------------------------

def test_transform_lebesgue_four(tmp_path, capsys):
    out_path = tmp_path / "rule.json"
    run_cli(["generate", "--measure", "lebesgue", "--n", "4",
             "--output", str(out_path)], capsys)
    code, out, _ = run_cli(["transform", "--rule", str(out_path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,lambda"
    xs = [float(l.split(",")[0]) for l in lines[1:3]]
    assert xs == pytest.approx([np.sqrt(0.5), -np.sqrt(0.5)])
    assert lines[-1] == "# degree=3"


def test_transform_lobatto(tmp_path, capsys):
    out_path = tmp_path / "rule.json"
    run_cli(["generate", "--measure", "lebesgue", "--n", "2",
             "--eta", "0.5turns", "--output", str(out_path)], capsys)
    code, out, _ = run_cli(["transform", "--rule", str(out_path)], capsys)
    assert code == 0
    xs = [float(l.split(",")[0]) for l in out.strip().splitlines()[1:3]]
    assert xs == pytest.approx([1.0, -1.0])


def test_transform_asymmetric_exits_1(tmp_path, capsys):
    out_path = tmp_path / "rule.json"
    run_cli(["generate", "--measure", "lebesgue", "--n", "4",
             "--eta", "0.25turns", "--output", str(out_path)], capsys)
    code, _, err = run_cli(["transform", "--rule", str(out_path)], capsys)
    assert code == 1
    assert "symmetry" in err.lower()


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    path = _write_rule(tmp_path, capsys)
    monkeypatch.setenv("SZQ_TOL", "1e-1")
    code, out, _ = run_cli(
        ["verify", "--measure", "bernstein-szego:0.5", "--rule", str(path)], capsys)
    assert code == 0
    assert "tol=0.1" in out


def test_sweep_with_tail(capsys):
    code, out, _ = run_cli(
        ["sweep", "--measure", "bernstein-szego:0.5", "--n-list", "8,16",
         "--m", "1", "--tail", "0.3,0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    devs = [float(l.split(",")[1]) for l in lines[1:3]]
    assert devs[1] < devs[0]


def test_generate_geronimus(capsys):
    code, out, _ = run_cli(
        ["generate", "--measure", "geronimus:0.3,0.1", "--n", "5"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["precise_degree"] == 4


def test_eta_node_at_turns(capsys):
    code, out, _ = run_cli(
        ["generate", "--measure", "lebesgue", "--n", "4",
         "--eta", "node-at:0.25turns"], capsys)
    assert code == 0
    data = json.loads(out)
    assert min(abs(v - np.pi / 2) for v in data["nodes"]) < 1e-10


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "measure": "bernstein-szego:0.5", "n": 6, "m": 1, "tail": ["0.3,0"],
        "eta": "0.1turns",
    }))
    code, out1, _ = run_cli(["generate", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out1)["n"] == 6
    # explicit flag wins over the config value
    code, out2, _ = run_cli(["generate", "--config", str(cfg), "--n", "8"], capsys)
    assert code == 0
    assert json.loads(out2)["n"] == 8
    # the one-token form reads the same file
    code, out3, _ = run_cli(["generate", f"--config={cfg}"], capsys)
    assert code == 0
    assert json.loads(out3) == json.loads(out1)
    code, out4, _ = run_cli(["generate", f"--config={cfg}", "--n", "8"], capsys)
    assert code == 0
    assert json.loads(out4) == json.loads(out2)
    # argparse accepts an unambiguous abbreviation, and so does the config
    code, out5, _ = run_cli(["generate", "--conf", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out5) == json.loads(out1)
    code, out6, _ = run_cli(["generate", f"--conf={cfg}", "--n", "8"], capsys)
    assert code == 0
    assert json.loads(out6) == json.loads(out2)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"measure": "lebesgue", "n": 4, "bogus": 1}))
    code, _, err = run_cli(["generate", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bogus" in err


def test_tail_semicolon_and_negative(capsys):
    code, out, _ = run_cli(
        ["generate", "--measure", "lebesgue", "--n", "5", "--m", "2",
         "--tail=-0.2,0;0.1,0.1"], capsys)
    assert code == 0
    assert json.loads(out)["m"] == 2


def test_generate_from_density_file(tmp_path, capsys):
    grid = 1.0 + 0.4 * np.cos(2 * np.pi * np.arange(64) / 64)
    path = tmp_path / "density.txt"
    path.write_text("64\n" + "\n".join(f"{v:.17g}" for v in grid) + "\n")
    code, out, _ = run_cli(
        ["generate", "--measure", f"density:{path}", "--n", "6"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["precise_degree"] >= 5
    assert min(data["weights"]) > 0


def test_verify_node_at_zero_rule(tmp_path, capsys):
    # a node pinned at phi = 0: the S-function sign case was read between 0
    # and the first node or zero, where rounding decided which came first
    path = tmp_path / "rule.json"
    code, _, _ = run_cli(
        ["generate", "--measure", "bernstein-szego:0.5", "--n", "16",
         "--eta", "node-at:0", "--output", str(path)], capsys)
    assert code == 0
    code, out, _ = run_cli(
        ["verify", "--measure", "bernstein-szego:0.5", "--rule", str(path)], capsys)
    assert code == 0
    assert out.strip().endswith("PASS")


@pytest.mark.parametrize("change, verdict", [(None, "PASS"), ("node", "FAIL"), ("weight", "FAIL")])
def test_verify_bernstein_szego_64_quarter_turn(tmp_path, capsys, change, verdict):
    # the correct rule FAILed with 129 S-function violations while the nodes
    # polynomial was expanded from sorted roots; rules moved by 1e-4 must FAIL
    path = tmp_path / "rule.json"
    code, _, _ = run_cli(
        ["generate", "--measure", "bernstein-szego:0.5", "--n", "64",
         "--eta", "0.25turns", "--output", str(path)], capsys)
    assert code == 0
    data = json.loads(path.read_text())
    if change == "node":
        data["nodes"][32] += 1e-4
    elif change == "weight":
        w = np.array(data["weights"])
        w[np.argmax(w)] *= 1 + 1e-4
        data["weights"] = (w / w.sum()).tolist()
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(
        ["verify", "--measure", "bernstein-szego:0.5", "--rule", str(path)], capsys)
    assert out.strip().splitlines()[-1] == verdict
    assert code == (0 if verdict == "PASS" else 1)
