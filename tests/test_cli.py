"""The CLI's flag table: one parse per setting, for flags given inline or from an @FILE."""

import argparse
import json
from pathlib import Path

import pytest

from lleboundary import cli, harness
from lleboundary.cli import _FLAGS, _parser, _settings, main

SUBCOMMANDS = ["sample", "build", "spectrum", "eigenfunctions", "indicator", "clip",
               "convergence", "nullcase", "sigma-table"]

# (subcommand, key, value, what it sets: ExperimentConfig fields for keys with a
# field, the parsed value for the settings a subcommand reads itself)
SETTINGS = [
    ("build", "manifold", "disk", {"manifold": "disk", "n": 20000, "eps": 0.1}),
    ("build", "n", "300", {"n": 300}),
    ("nullcase", "eps", "0.5", {"eps": 0.5, "knn": None}),
    ("build", "knn", "7", {"knn": 7}),
    ("nullcase", "c", "auto", {"c_rule": "auto"}),
    ("build", "c", "1e-3", {"c_rule": 1e-3}),
    ("build", "seed", "5", {"seed": 5}),
    ("spectrum", "k_eigs", "4", {"k_eigs": 4}),
    ("build", "alpha", "0.5", 0.5),
    ("build", "out", "runs/a", {"out": Path("runs/a")}),
    ("eigenfunctions", "tstar_clip", "yes", {"tstar_clip": True}),  # on/off: takes no value
    ("convergence", "f_test", "trig", {"f_test": "trig"}),
    ("indicator", "tau", "0.4", 0.4),
    ("sigma-table", "d", "2", 2),
    ("sigma-table", "grid", "0,0.5,1", [0.0, 0.5, 1.0]),
    ("sigma-table", "grid", "3", [0.0, 0.6, 1.2]),
    ("convergence", "ns", "400,800", [400, 800]),
    ("convergence", "eps_list", "0.05,0.1", [0.05, 0.1]),
]


def args_file(path: Path, *args: str) -> str:
    """Write args one per line to path; return the @FILE argument naming it."""
    path.write_text("".join(f"{arg}\n" for arg in args))
    return f"@{path}"


def test_settings_cover_the_table():
    assert {key for _, key, _, _ in SETTINGS} == set(_FLAGS)


@pytest.mark.parametrize("command,key,value,expect", SETTINGS,
                         ids=[f"{key}={value}" for _, key, value, _ in SETTINGS])
def test_flag_and_config_line_agree(tmp_path, command, key, value, expect):
    option = "--" + key.replace("_", "-")
    flag = [option] if key == "tstar_clip" else [option, value]  # an on/off flag
    from_flag = _settings([command] + flag)
    assert _settings([command, args_file(tmp_path / "run.args", *flag)]) == from_flag
    if key != "tstar_clip":  # the --flag=value spelling, one line
        assert _settings([command, args_file(tmp_path / "eq.args", "=".join(flag))]) == from_flag
    _, values, cfg = from_flag
    if _FLAGS[key].field is None:
        assert values[key] == pytest.approx(expect)
    else:
        assert {f: getattr(cfg, f) for f in expect} == expect


@pytest.mark.parametrize("line", ["manifold = sphere", "f_test = cubic", "c = fixed",
                                  "c = -1", "n = many", "tstar_clip = maybe", "c_rule = auto",
                                  "k_eigs = 0"])
def test_config_file_values_are_validated(tmp_path, capsys, line):
    # an @FILE's values go through the flags' own parsers: exit 2, naming what was refused
    key, value = line.split(" = ")
    option = "--" + key.replace("_", "-")
    # a subcommand that takes the key, so that its value is what gets refused
    command = {"f_test": "convergence", "tstar_clip": "eigenfunctions",
               "k_eigs": "spectrum"}.get(key, "build")
    out = tmp_path / "D"
    with pytest.raises(SystemExit) as exc:
        main([command, args_file(tmp_path / "bad.args", option, value), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert value in err, err
    if key != "tstar_clip":  # the on/off flag takes no value, so its stray value is named
        assert option in err, err
    assert not out.exists()


# the flags each subcommand takes besides --help: the settings it reads
TAKES = {
    "sample": {"manifold", "n", "seed", "out"},
    "build": {"manifold", "n", "eps", "knn", "c", "seed", "out", "alpha"},
    "spectrum": {"manifold", "n", "eps", "knn", "c", "seed", "out", "k_eigs"},
    "eigenfunctions": {"manifold", "n", "eps", "knn", "c", "seed", "out", "k_eigs",
                       "tstar_clip"},
    "indicator": {"manifold", "n", "eps", "c", "seed", "out", "tau"},
    "clip": {"manifold", "n", "eps", "knn", "c", "seed", "out"},
    "convergence": {"manifold", "c", "seed", "out", "f_test", "ns", "eps_list"},
    "nullcase": {"manifold", "n", "eps", "knn", "c", "seed", "out"},
    "sigma-table": {"eps", "out", "d", "grid"},
}


def _subparsers() -> dict:
    parser = _parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_each_subcommand_takes_only_what_it_reads(command):
    dests = {a.dest for a in _subparsers()[command]._actions}
    assert dests - {"help"} == TAKES[command]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "300", "--eps", "0.05", "--tstar-clip"],
    ["sample", "--eps", "0.1"],
    ["nullcase", "--k-eigs", "3"],
    ["indicator", "--knn", "5"],
], ids=["spectrum-tstar-clip", "sample-eps", "nullcase-k-eigs", "indicator-knn"])
def test_a_flag_the_subcommand_does_not_read_is_refused(tmp_path, capsys, argv):
    out = tmp_path / "D"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("convergence", "n", "300"), ("convergence", "eps", "0.05"),
    ("sigma-table", "manifold", "disk"),
])
def test_a_setting_has_one_spelling(tmp_path, capsys, command, key, value):
    # the convergence sweep is --ns and --eps-list, which --n and --eps do not abbreviate;
    # the sigma table is a function of --d and --eps, whatever the manifold
    out = tmp_path / "D"
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{key}", value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{key} {value}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main([command, args_file(tmp_path / "run.args", f"--{key}", value), "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{key} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("manifold, n, eps", [("interval", 8000, 0.01), ("disk", 20000, 0.1)])
def test_the_convergence_sweep_defaults_to_the_preset(monkeypatch, manifold, n, eps):
    swept = []
    monkeypatch.setattr(cli, "run_convergence", lambda cfg, ns, eps_values: swept.append(
        (ns, eps_values)) or [])
    assert main(["convergence", "--manifold", manifold, "--out", "unused"]) == 0
    assert swept == [([n], [eps])]


def test_a_config_key_the_subcommand_does_not_read_is_refused(tmp_path, capsys):
    argsfile = args_file(tmp_path / "run.args", "--n", "40", "--tau", "0.3")
    out = tmp_path / "D"
    with pytest.raises(SystemExit) as exc:
        main(["sample", argsfile, "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tau 0.3" in capsys.readouterr().err
    assert not out.exists()
    assert _settings(["indicator", argsfile])[1]["tau"] == 0.3


def test_a_missing_args_file_is_refused(tmp_path, capsys):
    out = tmp_path / "D"
    with pytest.raises(SystemExit) as exc:
        main(["sample", f"@{tmp_path / 'none.args'}", "--out", str(out)])
    assert exc.value.code == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert not out.exists()


def test_the_top_level_help_names_args_files(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "@FILE" in capsys.readouterr().out


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all("--" + key.replace("_", "-") in out for key in TAKES[command])


def test_config_keys_are_the_parser_dests():
    subparsers = _subparsers()
    assert sorted(subparsers) == sorted(SUBCOMMANDS)
    dests = {a.dest for p in subparsers.values() for a in p._actions}
    assert dests - {"help"} == set(_FLAGS)


def test_nullcase_defaults_to_the_null_preset(tmp_path):
    assert main(["nullcase", "--n", "120", "--knn", "12", "--c", "1e-3",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "nullcase.json").read_text())
    assert (summary["n"], summary["knn"], summary["c"]) == (120, 12, 1e-3)


@pytest.mark.parametrize("k", [5, 300])
def test_spectrum_writes_k_eigs_eigenvalues(tmp_path, k):
    assert main(["spectrum", "--manifold", "interval", "--n", "300", "--eps", "0.05",
                 "--k-eigs", str(k), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "re,im,residual"
    assert len(lines) == 1 + k


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--n", "300", "--eps", "0.05", "--k-eigs", "400"], "k must satisfy"),
    (["nullcase", "--manifold", "interval", "--n", "2500"], "exceeds the dense cutoff"),
    (["indicator", "--n", "300", "--eps", "0.05", "--tau", "nan"], "tau must be a finite"),
    (["clip", "--manifold", "gaussian_null", "--n", "120", "--knn", "12"], "needs eps"),
    (["eigenfunctions", "--manifold", "gaussian_null", "--n", "120", "--knn", "12",
      "--tstar-clip"], "needs eps"),
], ids=["spectrum-k", "nullcase-dense", "indicator-tau-nan", "clip-no-eps",
        "eigenfunctions-clip-no-eps"])
def test_library_errors_exit_cleanly(tmp_path, capsys, argv, message):
    # main returns a status instead of raising, so the console script prints no traceback
    assert main(argv + ["--out", str(tmp_path)]) != 0
    err = capsys.readouterr().err
    assert err.startswith(f"lleboundary {argv[0]}: ") and message in err
    if argv[0] == "nullcase":  # the subcommand takes no k, so the error must not ask for one
        assert "pass k" not in err and "(2000)" in err and "full spectrum" in err
    if argv[0] == "indicator":  # refused before indicator.json is written
        assert not (tmp_path / "indicator.json").exists()


def test_sigma_table_takes_the_preset_eps(tmp_path, capsys):
    assert main(["sigma-table", "--d", "3", "--grid", "11", "--out", str(tmp_path)]) == 0
    assert "eps=0.01" in capsys.readouterr().out  # the default interval preset's eps
    assert main(["sigma-table", "--eps", "0.5", "--out", str(tmp_path)]) == 0
    assert "eps=0.5" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["clip", "--manifold", "gaussian_null", "--n", "300", "--knn", "12"],
    ["eigenfunctions", "--manifold", "gaussian_null", "--n", "300", "--tstar-clip"],
], ids=["clip", "eigenfunctions-tstar-clip"])
def test_a_wave_strip_without_eps_is_refused_before_sampling(tmp_path, capsys, monkeypatch,
                                                             argv):
    def no_sampling(n, seed, cfg):
        raise AssertionError("sampled before the wave strip's eps was checked")
    monkeypatch.setitem(harness._SAMPLERS, "gaussian_null", no_sampling)
    out = tmp_path / "D"
    assert main(argv + ["--out", str(out)]) == 2
    assert "the wave strip needs eps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_k_eigs_below_one_is_refused_by_its_parser(tmp_path, capsys, monkeypatch, value):
    def no_sampling(config):
        raise AssertionError("sampled before k was checked")
    monkeypatch.setattr(harness, "sample", no_sampling)
    out = tmp_path / "D"
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "300", "--eps", "0.05", "--k-eigs", value, "--out", str(out)])
    assert exc.value.code == 2
    assert "--k-eigs: expected an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["build", "--n", "300", "--eps", "0.05", "--c", "x"],
    ["spectrum", "--n", "300", "--eps", "0.05", "--k-eigs", "x"],
    ["spectrum", "--n", "300", "--eps", "0.05", "--k-eigs", "2.5"],
    ["sigma-table", "--grid", "x"],
    ["sigma-table", "--grid", "0"],
    ["convergence", "--ns", "3,x"],
    ["convergence", "--eps-list", "0.1,y"],
], ids=["build-c-x", "spectrum-k-eigs-x", "spectrum-k-eigs-2.5", "sigma-table-grid-x",
        "sigma-table-grid-0", "convergence-ns", "convergence-eps-list"])
def test_a_bad_number_is_refused_saying_what_is_expected(tmp_path, capsys, argv):
    # argparse names a parser's function when it raises a bare ValueError
    out = tmp_path / "D"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: expected" in err, err
    for name in ("_regularizer", "_positive_int", "_grid", "_list_of", "parse"):
        assert name not in err, err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["indicator", "--n", "300", "--eps", "0.05", "--tau", "nan"],
    ["sample", "--n", "0"],
    ["build", "--n", "300", "--eps", "-0.1"],
    ["spectrum", "--n", "300", "--eps", "0.05", "--k-eigs", "0"],
    ["sample", "--seed", "-1"],
    ["eigenfunctions", "--manifold", "gaussian_null", "--n", "120", "--knn", "12",
     "--k-eigs", "3", "--tstar-clip"],
], ids=["indicator-tau-nan", "sample-n-0", "build-eps-negative", "spectrum-k-0",
        "sample-seed-negative", "eigenfunctions-clip-no-eps"])
def test_a_refused_run_leaves_no_output_directory(tmp_path, argv):
    out = tmp_path / "D"
    try:
        status = main(argv + ["--out", str(out)])
    except SystemExit as exc:  # refused by the flag's parser (--k-eigs 0)
        status = exc.code
    assert status == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["build", "--n", "300", "--eps", "inf"], "eps must be positive and finite"),
    (["indicator", "--n", "300", "--eps", "inf"], "eps must be positive and finite"),
    (["sigma-table", "--eps", "inf", "--grid", "3"], "eps must be positive and finite"),
    (["build", "--n", "300", "--eps", "1e100"], "regularizer c must be positive and finite"),
], ids=["build-eps-inf", "indicator-eps-inf", "sigma-table-eps-inf", "build-c-overflow"])
def test_a_non_finite_eps_is_refused(tmp_path, capsys, argv, message):
    out = tmp_path / "D"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, manifold", [("build", "interval"), ("build", "disk"),
                                               ("nullcase", "gaussian_null")])
@pytest.mark.parametrize("eps", ["-0.1", "0", "nan", "inf"])
def test_a_bad_eps_beside_knn_is_refused(tmp_path, capsys, monkeypatch, command, manifold, eps):
    def no_sampling(config):
        raise AssertionError("sampled before eps was checked")
    monkeypatch.setattr(harness, "sample", no_sampling)
    out = tmp_path / "D"
    assert main([command, "--manifold", manifold, "--n", "400", "--knn", "12", "--eps", eps,
                 "--out", str(out)]) == 2
    assert "eps must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_an_overflowed_auto_regularizer_is_refused_before_the_graph(tmp_path, capsys,
                                                                    monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the graph was built")
    monkeypatch.setattr(harness, "build_graph", unreachable)
    out = tmp_path / "D"
    assert main(["build", "--n", "300", "--eps", "1e100", "--out", str(out)]) == 2
    assert "n eps^(d+3)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["2", "-0.1", "nan"])
def test_an_alpha_outside_the_unit_interval_is_refused_before_sampling(tmp_path, capsys,
                                                                       monkeypatch, alpha):
    def unreachable(*args, **kwargs):
        raise AssertionError("the cloud was sampled")
    monkeypatch.setattr(harness, "sample", unreachable)
    out = tmp_path / "D"
    with pytest.raises(SystemExit) as exc:
        main(["build", "--n", "300", "--eps", "0.05", "--alpha", alpha, "--out", str(out)])
    assert exc.value.code == 2
    assert "expected" in capsys.readouterr().err
    assert not out.exists()


def test_indicator_on_a_knn_preset_asks_for_eps(tmp_path, capsys):
    out = tmp_path / "D"
    assert main(["indicator", "--manifold", "gaussian_null", "--n", "120",
                 "--out", str(out)]) == 2
    assert "--eps" in capsys.readouterr().err
    assert not out.exists()


def test_a_writing_subcommand_without_out_names_it(capsys):
    assert main(["sample"]) == 2
    assert "--out" in capsys.readouterr().err
