import json

import pytest

from irsrelay import cli
from irsrelay.channel import Geometry, LinkBudget, sample_channels
from irsrelay.errors import ConfigError
from irsrelay.metrics import flops_ais, flops_irses, flops_nsp

FAST = {"m": "2", "n": "4", "trials": "3", "methods": "ais", "epsilon": "1e-3"}


def settings_with(**overrides):
    merged = dict(FAST)
    merged.update({k: str(v) for k, v in overrides.items()})
    return cli.parse_config(overrides=merged, env={})


def test_defaults_match_reference_setup():
    settings = cli.parse_config(env={})
    assert settings["m"] == 16 and settings["n"] == 160
    assert settings["alpha"] == 2.4
    assert (settings["gain_s_dbi"], settings["gain_rs_dbi"],
            settings["gain_d_dbi"], settings["gain_irs_dbi"]) == (5.0, 5.0, 2.0, 0.0)
    assert settings["p_s_watt"] == settings["p_r_watt"] == 10.0
    assert settings["pos_s"] == (0.0, 0.0)
    assert settings["pos_rs"] == (50.0, 0.0)
    assert settings["pos_irs"] == (50.0, 10.0)
    assert settings["pos_d"] == (100.0, 0.0)
    assert settings["trials"] == 500 and settings["seed"] == 0


def test_empty_config_file_keeps_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    assert cli.parse_config(path=str(path), env={}) == cli.parse_config(env={})


def test_config_file_parsing_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# experiment setup\nm = 8\nn=32   # inline note\n\nsnr_db=idk\n")
    with pytest.raises(ConfigError) as excinfo:
        cli.parse_config(path=str(path), env={})
    assert "snr_db" in str(excinfo.value)
    path.write_text("m = 8\nn=32\n")
    settings = cli.parse_config(path=str(path), env={})
    assert settings["m"] == 8 and settings["n"] == 32


def test_malformed_config_line_reports_location(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("m 8\n")
    with pytest.raises(ConfigError) as excinfo:
        cli.parse_config(path=str(path), env={})
    assert "broken.cfg:1" in str(excinfo.value)


def test_precedence_command_line_over_file_over_env(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("m=16\nseed=3\n")
    settings = cli.parse_config(
        path=str(path), overrides={"m": "50"}, env={"IRS_SIM_SEED": "7"}
    )
    assert settings["m"] == 50  # command line wins over file
    assert settings["seed"] == 3  # file wins over environment
    settings = cli.parse_config(env={"IRS_SIM_SEED": "7"})
    assert settings["seed"] == 7  # environment beats the built-in default


def test_unknown_key_and_constraint_diagnostics():
    with pytest.raises(ConfigError) as excinfo:
        cli.parse_config(overrides={"zap": "1"}, env={})
    assert "zap" in str(excinfo.value)
    with pytest.raises(ConfigError) as excinfo:
        cli.scenario_from_settings(settings_with(m=0))
    assert "m" in str(excinfo.value)
    with pytest.raises(ConfigError):
        cli.scenario_from_settings(settings_with(methods="ais,vacuum"))


def test_output_table_must_be_rectangular():
    with pytest.raises(ConfigError):
        cli.OutputTable(columns=("a", "b"), rows=((1,),), metadata={})


def test_csv_layout_and_determinism(tmp_path):
    table = cli.build_flops_table(settings_with(m=2, values="4,8", l=1))
    text = cli.format_table(table, "csv")
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "n,ais_flops,nsp_flops,irses_flops"
    assert len(body) == 3  # header + one line per value
    assert text == cli.format_table(table, "csv")  # same table, same bytes
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    cli.emit_table(table, "csv", str(first))
    cli.emit_table(table, "csv", str(second))
    assert first.read_bytes() == second.read_bytes()
    assert any(ln.startswith("# subcommand=flops") for ln in comments)


def test_csv_cells_round_trip_exactly():
    settings = settings_with(snr_db="13.700000000000001")
    table = cli.build_run_table(settings)
    text = cli.format_table(table, "csv")
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = body[0].split(",")
    for raw_row, row in zip(body[1:], table.rows):
        cells = raw_row.split(",")
        assert len(cells) == len(header)
        for cell, value in zip(cells, row):
            if isinstance(value, float):
                assert float(cell) == value  # repr round-trip, no digit loss
    meta = cli.parse_metadata_csv(text)
    assert float(meta["snr_db"]) == 13.700000000000001


def test_jsonl_layout():
    table = cli.build_flops_table(settings_with(m=2, values="4", l=1))
    lines = cli.format_table(table, "jsonl").splitlines()
    first = json.loads(lines[0])
    assert "metadata" in first and first["metadata"]["subcommand"] == "flops"
    row = json.loads(lines[1])
    assert row["n"] == 4
    assert row["ais_flops"] == flops_ais(2, 4, 1, 1).flops


def test_flops_table_values_and_divisibility():
    table = cli.build_flops_table(settings_with(m=2, values="4,6", l=2))
    assert table.rows[0] == (
        4,
        flops_ais(2, 4, 2, 2).flops,
        flops_nsp(2, 4, 2, 2).flops,
        flops_irses(2, 2, 4, 2).flops,
    )
    with pytest.raises(ConfigError):
        cli.build_flops_table(settings_with(m=2, values="5"))
    with pytest.raises(ConfigError):
        cli.build_flops_table(settings_with(m=2, values="4.5"))


def test_run_table_regenerates_from_metadata():
    table = cli.build_run_table(settings_with())
    text = cli.format_table(table, "csv")
    rebuilt = cli.regenerate(cli.parse_metadata_csv(text))
    assert cli.format_table(rebuilt, "csv") == text


def test_sweep_table_regenerates_from_metadata():
    settings = settings_with(values="0,5")
    table = cli.build_sweep_table("sweep-snr", settings)
    text = cli.format_table(table, "csv")
    rebuilt = cli.regenerate(cli.parse_metadata_csv(text))
    assert cli.format_table(rebuilt, "csv") == text
    assert table.columns == ("snr_db", "ais_mean_rate", "ais_stderr", "trials")


def test_main_run_exit_codes(tmp_path, capsys):
    args = ["run"] + [f"--set={k}={v}" for k, v in FAST.items()]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert out.startswith("# tool=irsrelay")
    assert cli.main(["run", "--set", "zap=1"]) == 1
    assert cli.main(["run", "--set", "m=0"]) == 1
    assert cli.main(["orbit"]) == 1
    assert cli.main([]) == 1
    capsys.readouterr()
    target = tmp_path / "missing-dir" / "out.csv"
    args = ["flops", "--values", "100", "--out", str(target)]
    assert cli.main(args) == 2


@pytest.mark.parametrize(
    "key, raw",
    [
        ("p_s_watt", "inf"),
        ("p_r_watt", "inf"),
        ("gain_s_dbi", "inf"),
        ("alpha", "inf"),
        ("p_s_watt", "-1"),
        ("snr_db", "nan"),
        ("snr_db", "4000"),  # 10 ** (snr_db / 10) overflows
        ("snr_db", "-3300"),  # 10 ** (snr_db / 10) underflows to 0
        ("pos_rs", "nan,0"),
        ("workers", "0"),
        ("workers", "-3"),
    ],
)
def test_main_rejects_bad_value_naming_its_key(key, raw, capsys):
    args = ["run"] + [f"--set={k}={v}" for k, v in FAST.items()]
    assert cli.main(args + [f"--set={key}={raw}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


@pytest.mark.parametrize(
    "method, key, raw, link",
    [
        ("ais", "alpha", "1e5", "h_sr"),  # the path loss underflows to 0
        ("ais", "gain_s_dbi", "-7000", "h_sr"),  # the gain underflows to 0
        ("ais", "gain_s_dbi", "7000", "h_sr"),  # 10 ** (g / 20) overflows
        ("baseline-irs-only", "alpha", "1e5", "h_si"),
        # positive, but below the solvers' zero norm: 50 ** -20 is 1.9e-34
        ("ais", "alpha", "40", "h_sr"),
    ],
)
def test_main_rejects_a_link_amplitude_out_of_range_naming_the_link(
    method, key, raw, link, capsys
):
    args = ["run", "--trials", "2", "--methods", method, "--set", f"{key}={raw}"]
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"link {link}:" in captured.err
    # a one-trial draw names the first of its six links
    budget = LinkBudget(**{key: float(raw)})
    with pytest.raises(ConfigError, match="link h_sr:"):
        sample_channels(Geometry(), budget, 2, 4, seed=0)


@pytest.mark.parametrize("origin", ["flag", "set", "env"])
def test_main_takes_seeds_of_one_64_bit_word_only(origin, capsys, monkeypatch):
    # a seed is one word of a Philox key: 2**64 - 1 runs, 2**64 is rejected
    def run(seed):
        args = ["run", "--trials", "2", "--methods", "ais", "--set", "m=2"]
        monkeypatch.delenv(cli.ENV_SEED_VAR, raising=False)
        if origin == "flag":
            args += ["--seed", str(seed)]
        elif origin == "set":
            args += ["--set", f"seed={seed}"]
        else:
            monkeypatch.setenv(cli.ENV_SEED_VAR, str(seed))
        return cli.main(args)

    assert run(2**64) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "[0, 2**64)" in captured.err
    assert run(2**64 - 1) == 0
    assert "seed=18446744073709551615" in capsys.readouterr().out


def test_main_rejects_workers_flag_below_one(capsys):
    args = ["run"] + [f"--set={k}={v}" for k, v in FAST.items()]
    assert cli.main(args + ["--workers", "-3"]) == 1
    assert "workers" in capsys.readouterr().err


def test_main_writes_requested_file(tmp_path):
    out = tmp_path / "table.csv"
    args = ["flops", "--values", "100,200", "--out", str(out), "--set", "l=2"]
    assert cli.main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[-1].split(",")[0] == "200"
    meta = cli.parse_metadata_csv(out.read_text())
    assert meta["m"] == "50"  # complexity table defaults to the reference 50
    assert meta["l"] == "2"


def test_main_sweep_values_flag(capsys):
    args = (["sweep-m", "--values", "1,2", "--trials", "2", "--methods", "ais",
             "--set", "n=4", "--set", "epsilon=1e-3"])
    assert cli.main(args) == 0
    body = [ln for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith("#")]
    assert body[0] == "m,ais_mean_rate,ais_stderr,trials"
    assert [ln.split(",")[0] for ln in body[1:]] == ["1.0", "2.0"]


@pytest.mark.parametrize("values", ["-10,0", "-.5,2", "-3"])
def test_main_sweep_accepts_negative_values_after_a_space(values, capsys):
    common = ["--trials", "2", "--methods", "ais", "--set", "m=2", "--set", "n=4"]
    assert cli.main(["sweep-snr", f"--values={values}"] + common) == 0
    expected = capsys.readouterr().out
    # argparse accepts every prefix of --values down to --v
    for flag in ("--values", "--val", "--v"):
        assert cli.main(["sweep-snr", flag, values] + common) == 0
        assert capsys.readouterr().out == expected
    body = [ln for ln in expected.splitlines() if not ln.startswith("#")]
    assert [ln.split(",")[0] for ln in body[1:]] == [
        repr(float(v)) for v in values.split(",")
    ]


def test_format_rejects_unknown():
    table = cli.build_flops_table(settings_with(m=2, values="4"))
    with pytest.raises(ConfigError):
        cli.format_table(table, "tsv")
