import hashlib
import io
import re
from dataclasses import fields
from pathlib import Path

import numpy as np

import pytest

from nandtree import build_tree, transport
from nandtree.classical import eval_nand
from nandtree.cli import ConfigError, RunConfig, _fmt, main, parse_config, run


EVALUATE_CONFIG = """\
# minimal evaluate run
command = evaluate
tree.depth = 2
tree.bits = 1011
"""


def test_parse_config_minimal_and_defaults():
    cfg = parse_config(EVALUATE_CONFIG)
    assert cfg.command == "evaluate"
    assert cfg.depth == 2
    assert cfg.bits == "1011"
    # untouched keys keep their defaults
    assert cfg.delta == 10.0
    assert cfg.gamma == 1e-6
    assert cfg.sweep_points == 101
    assert cfg.out_path == ""


def test_parse_config_comments_and_whitespace():
    cfg = parse_config(
        "command=evaluate # trailing comment\n"
        "\n"
        "  tree.depth =  1  \n"
        "tree.bits = 01\n"
    )
    assert cfg.depth == 1 and cfg.bits == "01"


def test_parse_config_not_markers():
    cfg = parse_config(EVALUATE_CONFIG + "tree.not_markers = 1,3\n")
    assert cfg.not_markers == (1, 3)


def test_parse_config_collects_all_errors():
    text = (
        "command = sweep\n"
        "tree.depth = 2\n"
        "tree.bits = 101\n"       # wrong length
        "no.such.key = 1\n"       # unknown key
        "physics.gamma = soup\n"  # unparseable
        "sweep.min = 2.0\n"
        "sweep.max = 1.0\n"       # min >= max
        "not a key value line\n"  # missing '='
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    errors = exc.value.errors
    assert len(errors) >= 5
    assert any("tree.bits" in e for e in errors)
    assert any("no.such.key" in e for e in errors)
    assert any("physics.gamma" in e and "soup" in e for e in errors)
    assert any("sweep.min" in e for e in errors)
    assert any("line 8" in e for e in errors)


def test_parse_config_reports_bad_not_markers_with_other_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config(EVALUATE_CONFIG + "tree.not_markers = 9\nphysics.kt = -1\n")
    errors = exc.value.errors
    assert len(errors) == 2
    assert any("tree.not_markers" in e and "[9]" in e for e in errors)
    assert any("physics.kt" in e for e in errors)


@pytest.mark.parametrize("line, error", [
    ("tree.not_markers = 1;2",
     "line 5: tree.not_markers: expected a comma-separated list of integers, got '1;2'"),
    ("tree.depth = two", "line 5: tree.depth: expected an integer, got 'two'"),
    ("physics.delta = 1e", "line 5: physics.delta: expected a number, got '1e'"),
])
def test_parse_errors_name_the_expected_type(line, error):
    with pytest.raises(ConfigError) as exc:
        parse_config(EVALUATE_CONFIG + line + "\n")
    assert exc.value.errors == [error]


def test_parse_config_rejects_bad_bits_and_command():
    with pytest.raises(ConfigError):
        parse_config("command = fly\ntree.bits = 01\ntree.depth = 1\n")
    with pytest.raises(ConfigError):
        parse_config("command = evaluate\ntree.depth = 1\ntree.bits = 0x\n")


def test_validate_requires_output_path_for_data_commands():
    for command in ("sweep", "ensemble", "layout"):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"command = {command}\ntree.depth = 1\ntree.bits = 01\n")
        assert any("output.path" in e for e in exc.value.errors)


def test_run_evaluate_matches_classical():
    out = io.StringIO()
    code = run(parse_config(EVALUATE_CONFIG), out=out)
    assert code == 0
    text = out.getvalue()
    truth = eval_nand(build_tree(2, (1, 0, 1, 1)))
    assert f"bit = {truth}" in text
    assert f"classical = {truth}" in text


def test_run_evaluate_ambiguous_exit_code():
    cfg = parse_config(
        "command = evaluate\ntree.depth = 1\ntree.bits = 01\nphysics.gamma = 0.92\n"
    )
    assert run(cfg, out=io.StringIO()) == 2


def test_run_sweep_csv_output(tmp_path):
    path = tmp_path / "trace.csv"
    cfg = parse_config(
        "command = sweep\n"
        "tree.depth = 2\n"
        "tree.bits = 1011\n"
        "sweep.axis = eps0\n"
        "sweep.min = -0.5\n"
        "sweep.max = 0.5\n"
        "sweep.points = 11\n"
        f"output.path = {path}\n"
    )
    assert run(cfg, out=io.StringIO()) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "eps0,transmission,conductance"
    assert len(lines) == 12
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 3
        # 17 significant digits round-trip bit-exactly
        for cell in cells:
            assert _fmt(float(cell)) == cell


def test_run_sweep_byte_identical_reruns(tmp_path):
    text = (
        "command = sweep\ntree.depth = 1\ntree.bits = 01\n"
        "sweep.axis = E\nsweep.min = -1\nsweep.max = 1\nsweep.points = 21\n"
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(parse_config(text + f"output.path = {a}\n"), out=io.StringIO())
    run(parse_config(text + f"output.path = {b}\n"), out=io.StringIO())
    assert a.read_bytes() == b.read_bytes()


def test_meta_sidecar_reparses_to_same_config(tmp_path):
    path = tmp_path / "trace.csv"
    cfg = parse_config(
        "command = sweep\ntree.depth = 2\ntree.bits = 1011\n"
        "tree.not_markers = 2\n"
        "physics.gamma = 0.001\ndisorder.sigma_eps = 0.05\ndisorder.seed = 7\n"
        f"output.path = {path}\n"
    )
    run(cfg, out=io.StringIO())
    meta = (tmp_path / "trace.csv.meta").read_text()
    assert parse_config(meta) == cfg
    for name, text in GOLDEN_CONFIGS.items():
        cfg = parse_config(text + f"output.path = {tmp_path / name}.csv\n")
        run(cfg, out=io.StringIO())
        meta = (tmp_path / f"{name}.csv.meta").read_text()
        assert meta.startswith(f"command = {cfg.command}\n")
        assert parse_config(meta) == cfg, name


@pytest.mark.parametrize("key", ["output.format = csv", "feasibility.alpha_orb = 1000",
                                 "feasibility.kt = 2"])
def test_deleted_keys_are_unknown(key):
    with pytest.raises(ConfigError) as exc:
        parse_config(EVALUATE_CONFIG + key + "\n")
    assert exc.value.errors == [f"line 5: unknown key {key.split(' = ')[0]!r}"]


PROBE_KEYS = "physics.gamma_l, physics.gamma_r, physics.t1, physics.eps0, physics.e_f, physics.kt"
DISORDER_KEYS = "disorder.sigma_t, disorder.sigma_eps, disorder.seed:"
FEASIBILITY_KEYS = ("feasibility.gamma, feasibility.t, feasibility.big_gamma, "
                    "feasibility.sigma_eps, feasibility.sigma_t, feasibility.spacing_nm")


@pytest.mark.parametrize("text, error", [
    (EVALUATE_CONFIG + "physics.delta = 0\n",
     "physics.delta, physics.gamma: delta must be positive and finite, got 0.0"),
    (EVALUATE_CONFIG + "physics.gamma = -1\n",
     "physics.delta, physics.gamma: gamma must be nonnegative, got -1.0"),
    (EVALUATE_CONFIG + "physics.t1 = 0\n",
     f"{PROBE_KEYS}: probe coupling t1 must be positive, got 0.0"),
    ("command = feasibility\nfeasibility.t = 0\nfeasibility.spacing_nm = -1\n",
     f"{FEASIBILITY_KEYS}: feasibility inputs must be positive and finite: ['t', 'spacing']"),
], ids=["delta", "gamma", "t1", "feasibility"])
def test_domain_errors_are_prefixed_with_their_keys(text, error):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [error]


def test_commands_check_only_the_keys_they_read():
    # classical builds no parameters and no probe
    cfg = parse_config("command = classical\ntree.depth = 1\ntree.bits = 01\n"
                       "physics.delta = 0\nphysics.t1 = 0\n")
    assert cfg.delta == 0.0 and cfg.t1 == 0.0


def test_run_feasibility_stdout():
    cfg = parse_config(
        "command = feasibility\n"
        "feasibility.sigma_eps = 1.0\nfeasibility.sigma_t = 1.0\n"
    )
    out = io.StringIO()
    assert run(cfg, out=out) == 0
    text = out.getvalue()
    assert "n_max = 8192" in text
    assert "limiting_factor" in text


def test_run_ensemble_command(tmp_path):
    path = tmp_path / "rates.csv"
    cfg = parse_config(
        "command = ensemble\ntree.depth = 2\ntree.bits = 0000\n"
        "disorder.sigma_eps = 0.01\ndisorder.sigma_t = 0.01\n"
        "disorder.trials = 10\n"
        f"output.path = {path}\n"
    )
    out = io.StringIO()
    assert run(cfg, out=out) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "trials,success_rate,failure_rate,ambiguous_rate"
    cells = lines[1].split(",")
    assert cells[0] == "10"
    total = sum(float(c) for c in cells[1:])
    assert total == pytest.approx(1.0, abs=1e-12)
    assert "success_rate = " in out.getvalue()


def test_run_classical_command():
    cfg = parse_config("command = classical\ntree.depth = 2\ntree.bits = 1011\n")
    out = io.StringIO()
    assert run(cfg, out=out) == 0
    assert "result = 1" in out.getvalue()
    assert "queries = " in out.getvalue()


def test_run_layout_command(tmp_path):
    path = tmp_path / "dots.csv"
    cfg = parse_config(
        f"command = layout\ntree.depth = 2\ntree.bits = 1011\noutput.path = {path}\n"
    )
    out = io.StringIO()
    assert run(cfg, out=out) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "id,x,y,role,tree_node"
    assert "dots = " in out.getvalue()
    # 7 tree dots plus the level-0 and level-1 inverters
    assert len(lines) - 1 == 7 + 2 + 2 * 1


def test_layout_requires_bits():
    with pytest.raises(ConfigError):
        parse_config("command = layout\noutput.path = x.csv\n" "tree.depth = 2\n")


def test_main_with_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(EVALUATE_CONFIG)
    assert main([str(path)]) == 0


def test_main_reports_config_errors(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("command = evaluate\ntree.depth = 2\ntree.bits = 01\n")
    assert main([str(path)]) == 1
    assert "config error:" in capsys.readouterr().err


def test_main_reports_a_probe_coupling_whose_square_overflows(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(EVALUATE_CONFIG + "physics.t1 = 1e200\n")
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "t1 squared must be finite" in err


def test_main_missing_file(tmp_path, capsys):
    assert main([str(tmp_path / "absent.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


SWEEP_CONFIG = (
    "command = sweep\ntree.depth = 1\ntree.bits = 01\nphysics.gamma = 1e-5\n"
    "physics.kt = 0.1\nsweep.axis = E\nsweep.min = -0.2\nsweep.max = 0.2\nsweep.points = 2\n"
)


def test_main_reports_quadrature_error(tmp_path, capsys, monkeypatch):
    # Lead Gamma far below kT, and the resonance search blinded: the
    # graded mesh misses the narrow peaks and does not converge.
    monkeypatch.setattr(transport, "_resonances", lambda *args: np.zeros(0))
    path = tmp_path / "sweep.cfg"
    path.write_text(SWEEP_CONFIG + "physics.gamma_l = 1e-5\nphysics.gamma_r = 1e-5\n"
                    f"output.path = {tmp_path / 'out.csv'}\n")
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: thermal quadrature not converged on ")
    assert "Traceback" not in err


def test_main_rejects_nan_sweep_bound(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text(SWEEP_CONFIG + f"sweep.min = nan\noutput.path = {tmp_path / 'out.csv'}\n")
    assert main([str(path)]) == 1
    assert capsys.readouterr().err == "error: sweep grid values must be finite\n"


@pytest.mark.parametrize("line, keys, message", [
    ("physics.gamma = nan", "physics.delta, physics.gamma:", "gamma must be finite, got nan"),
    ("physics.gamma = inf", "physics.delta, physics.gamma:", "gamma must be finite, got inf"),
    ("disorder.sigma_eps = nan", DISORDER_KEYS,
     "sigma_eps must be finite, got nan"),
    ("disorder.sigma_eps = inf", DISORDER_KEYS,
     "sigma_eps must be finite, got inf"),
    ("disorder.sigma_t = nan", DISORDER_KEYS,
     "sigma_t must be finite, got nan"),
], ids=["gamma-nan", "gamma-inf", "sigma_eps-nan", "sigma_eps-inf", "sigma_t-nan"])
def test_main_rejects_non_finite_dephasing_and_disorder(line, keys, message, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(EVALUATE_CONFIG + line + "\n")
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{keys} {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, keys", [
    (EVALUATE_CONFIG + "disorder.sigma_eps = 0.1\n", DISORDER_KEYS),
    (EVALUATE_CONFIG, DISORDER_KEYS),
    (SWEEP_CONFIG, DISORDER_KEYS),
    (EVALUATE_CONFIG.replace("evaluate", "ensemble") + "disorder.trials = 2\n", DISORDER_KEYS),
    ("command = classical\ntree.depth = 1\ntree.bits = 01\n", "disorder.seed:"),
], ids=["evaluate-disordered", "evaluate", "sweep", "ensemble", "classical"])
def test_main_rejects_a_negative_seed(text, keys, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(text + f"disorder.seed = -3\noutput.path = {tmp_path / 'out.csv'}\n")
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {keys} seed must be nonnegative, got -3\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("sigma", ["1e-95", "1e-96"])
def test_main_rejects_a_feasibility_area_beyond_a_float(sigma, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("command = feasibility\n" + "".join(
        f"feasibility.{key} = {sigma}\n" for key in ("gamma", "sigma_eps", "sigma_t")))
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {FEASIBILITY_KEYS}: the H-fractal footprint of 2**")
    assert "overflows a float" in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["gamma_l", "gamma_r", "t1", "eps0", "e_f", "kt"])
def test_parse_config_rejects_nan_probe_values(key):
    with pytest.raises(ConfigError) as exc:
        parse_config(EVALUATE_CONFIG + f"physics.{key} = nan\n")
    field = "temperature" if key == "kt" else key
    assert any(e.startswith("physics.gamma_l, physics.gamma_r, physics.t1, physics.eps0, "
                            "physics.e_f, physics.kt:") and f"{field} must be finite" in e
               for e in exc.value.errors)


def test_fmt_round_trip():
    for value in (0.1, 1e-17, 2.0 / 3.0, -123456.789, 7.0):
        assert float(_fmt(value)) == value
    assert _fmt(3) == "3"
    assert _fmt("x") == "x"


#: One config per data-producing command, with relative output paths so
#: the ``.meta`` sidecars do not depend on the working directory.
GOLDEN_CONFIGS = {
    "evaluate": (
        "command = evaluate\ntree.depth = 3\ntree.bits = 10110100\ntree.not_markers = 2\n"
        "physics.gamma = 0.001\ndisorder.sigma_eps = 0.02\ndisorder.sigma_t = 0.02\n"
        "disorder.seed = 5\n"
    ),
    "sweep_E": (
        "command = sweep\ntree.depth = 3\ntree.bits = 00010111\nphysics.gamma = 0.03\n"
        "physics.kt = 0.01\ndisorder.sigma_eps = 0.03\ndisorder.sigma_t = 0.03\n"
        "disorder.seed = 21\nsweep.axis = E\nsweep.min = -1.0\nsweep.max = 1.0\n"
        "sweep.points = 21\n"
    ),
    "sweep_eps0": (
        "command = sweep\ntree.depth = 3\ntree.bits = 00000000\nphysics.gamma = 0.03\n"
        "physics.kt = 0.01\ndisorder.sigma_eps = 0.03\ndisorder.sigma_t = 0.03\n"
        "disorder.seed = 21\nsweep.axis = eps0\nsweep.min = -1.0\nsweep.max = 1.0\n"
        "sweep.points = 21\n"
    ),
    "ensemble": (
        "command = ensemble\ntree.depth = 3\ntree.bits = 11010011\n"
        "disorder.sigma_eps = 0.4\ndisorder.sigma_t = 0.3\ndisorder.seed = 3\n"
        "disorder.trials = 20\n"
    ),
    "layout": "command = layout\ntree.depth = 4\ntree.bits = 1011000111010010\n",
    "classical": (
        "command = classical\ntree.depth = 4\ntree.bits = 1011000111010010\n"
        "disorder.seed = 9\n"
    ),
    # Disordered sweeps at kT = 0, where the conductance column is the
    # transmission column.
    "sweep_E_cold": (
        "command = sweep\ntree.depth = 4\ntree.bits = 0110100110010110\nphysics.gamma = 0.001\n"
        "physics.eps0 = 0.02\ndisorder.sigma_eps = 0.05\ndisorder.sigma_t = 0.05\n"
        "disorder.seed = 8\nsweep.axis = E\nsweep.min = -0.5\nsweep.max = 0.5\n"
        "sweep.points = 33\n"
    ),
    "sweep_eps0_cold": (
        "command = sweep\ntree.depth = 4\ntree.bits = 0110100110010110\nphysics.gamma = 0.001\n"
        "physics.e_f = 0.05\ndisorder.sigma_eps = 0.05\ndisorder.sigma_t = 0.05\n"
        "disorder.seed = 8\nsweep.axis = eps0\nsweep.min = -0.5\nsweep.max = 0.5\n"
        "sweep.points = 33\n"
    ),
}

#: SHA-256 of every emitted file.  Refactors of the engine must keep
#: these bytes; a change to them needs a stated reason.  The ``.meta``
#: digests were re-pinned when the config keys ``output.format``,
#: ``feasibility.alpha_orb`` and ``feasibility.kt`` were deleted: each
#: sidecar lost exactly those three lines.
GOLDEN_DIGESTS = {
    "evaluate.csv": "65fc03864eaf76f587259b28ce34b78fc091e992a7453e63128c1cb97840a4da",
    "evaluate.csv.meta": "8c748f38dc034e13d032904c150b95d35279b350ea8088efac6a095cfe597961",
    "sweep_E.csv": "14b30ed9cd47c0fc31aca3f05ae677c8294662f5fe0ecbf969d038acaf837a05",
    "sweep_E.csv.meta": "c2d3217701fd72c3182d71380a8c95ae30cf330b8e772575bda03db18eebf717",
    "sweep_eps0.csv": "da0d9212397da4e0861f5953761ef653d49a48d43975f9a37ebc37f5e42f41b4",
    "sweep_eps0.csv.meta": "bac9f244a2a33ea84afba0576890641a5b6eeea14620a4fdae79f983c2c209ea",
    "ensemble.csv": "59d113e6e3548e10c343938c576adfe671e5aa34fca94a69b63ea6fe8ac5beed",
    "ensemble.csv.meta": "ee48869555e7a43e04d313f4ef48c688314f6908ce83686e7e408f6a3a16bb6e",
    "layout.csv": "8b236428dc0e380320afbf8fa28b746185ab54af9543d1957f1f48864c2453d0",
    "layout.csv.meta": "afc787ca320a511847543685b7f85db30a6dcfe410a9ea28415b8c993554fa28",
    "classical.csv": "eebdc55f7c03e99b9523e50a0e7a7fb24de12dc4ab2ee78dec976e9f44614d33",
    "classical.csv.meta": "0a6106716a3a87bec7facbf8860a29b44a0f8454e5f4c1f98325e4b6faabc661",
    "sweep_E_cold.csv": "a69196758a088d8201ecc111fc9e42d3281ad477f711785b82f135e4e98c77d8",
    "sweep_E_cold.csv.meta": "4b3fbfa6cdf234db215d34e897f5fc21ebcf149c49b3331499585bdb3eab8075",
    "sweep_eps0_cold.csv": "af79c1ad88d051044ff0c8442923832f20ce788bd9ee7f430acd4c6b488131f5",
    "sweep_eps0_cold.csv.meta": "71259222de4cb3403735c558dfb1224c1b11f382a98dbc0db38073c8f1e1295a",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_golden_output_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = GOLDEN_CONFIGS[name] + f"output.path = {name}.csv\n"
    run(parse_config(text), out=io.StringIO())
    for path in (f"{name}.csv", f"{name}.csv.meta"):
        digest = hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
        assert digest == GOLDEN_DIGESTS[path], path


def test_readme_config_blocks_parse(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", readme, re.S | re.M)
    configs = [b for b in blocks if re.search(r"^command = ", b, re.M)]
    assert len(configs) == 3
    monkeypatch.chdir(tmp_path)  # a block's relative output.path lands here
    for text in configs:
        assert run(parse_config(text), out=io.StringIO()) in (0, 2)
    # one block lists every key with its default
    every = {f.metadata["key"] for f in fields(RunConfig)}
    (reference,) = [text for text in configs
                    if {line.split("=")[0].strip() for line in text.splitlines()} == every]
    assert parse_config(reference) == RunConfig(command="evaluate", bits="1011")
