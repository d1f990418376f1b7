"""Tests for the repro-run command-line interface."""

import pytest

from repro.cli import main


def test_cli_tiny_run(capsys):
    exit_code = main(["--preset", "tiny", "--variant", "DSR", "--seed", "2"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "packet delivery fraction" in out
    assert "normalized overhead" in out


def test_cli_variant_and_static_timeout(capsys):
    exit_code = main(
        [
            "--preset",
            "tiny",
            "--variant",
            "AllTechniques",
            "--static-timeout",
            "10",
            "--duration",
            "20",
        ]
    )
    assert exit_code == 0
    assert "good replies" in capsys.readouterr().out


def test_cli_rejects_unknown_variant():
    with pytest.raises(SystemExit):
        main(["--variant", "NoSuchThing"])


def test_cli_aodv_protocol(capsys):
    exit_code = main(["--preset", "tiny", "--protocol", "aodv", "--duration", "15"])
    assert exit_code == 0
    assert "packet delivery fraction" in capsys.readouterr().out


def test_cli_alternate_mobility_and_grey_zone(capsys):
    exit_code = main(
        [
            "--preset",
            "tiny",
            "--mobility",
            "gauss_markov",
            "--grey-zone",
            "0.15",
            "--duration",
            "15",
        ]
    )
    assert exit_code == 0


def test_cli_config_roundtrip(tmp_path, capsys):
    saved = tmp_path / "scenario.json"
    first = main(
        ["--preset", "tiny", "--duration", "15", "--seed", "5", "--save-config", str(saved)]
    )
    assert first == 0
    out_first = capsys.readouterr().out
    second = main(["--config", str(saved)])
    assert second == 0
    out_second = capsys.readouterr().out
    assert out_first == out_second  # identical scenario, identical metrics


def test_cli_seed_averaging(capsys):
    exit_code = main(["--preset", "tiny", "--duration", "15", "--seeds", "1,2"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "+/-" in out
    assert "seeds" in out


def test_cli_json_export(tmp_path, capsys):
    import json

    out = tmp_path / "result.json"
    exit_code = main(["--preset", "tiny", "--duration", "15", "--json", str(out)])
    assert exit_code == 0
    payload = json.loads(out.read_text())
    assert "pdf" in payload["derived"]


def test_cli_multi_seed_with_processes_and_cache(tmp_path, capsys):
    args = [
        "--preset", "tiny", "--duration", "15",
        "--seeds", "1,2",
        "--processes", "1",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(args) == 0
    first = capsys.readouterr()
    assert "packet delivery fraction" in first.out
    assert "result cache" in first.err

    # Warm re-run: every seed served from the cache.
    assert main(args) == 0
    second = capsys.readouterr()
    assert second.out == first.out
    assert "2 hit(s)" in second.err


def test_cli_no_cache_flag_disables_cache(tmp_path, capsys):
    exit_code = main(
        [
            "--preset", "tiny", "--duration", "15",
            "--cache-dir", str(tmp_path / "cache"),
            "--no-cache",
        ]
    )
    assert exit_code == 0
    assert not (tmp_path / "cache").exists()
    assert "result cache" not in capsys.readouterr().err


# -- observability flags ------------------------------------------------------


_TINY = ["--preset", "tiny", "--duration", "15", "--seed", "3"]


def test_cli_observability_output_is_bit_identical(tmp_path, capsys):
    assert main(list(_TINY)) == 0
    plain = capsys.readouterr().out

    assert (
        main(
            [
                *_TINY,
                "--trace", str(tmp_path / "run.jsonl"),
                "--metrics", str(tmp_path / "metrics.jsonl"),
                "--profile",
                "--flight-recorder", str(tmp_path / "flight.txt"),
            ]
        )
        == 0
    )
    observed = capsys.readouterr()
    assert observed.out == plain
    assert "trace written" in observed.err
    assert "metrics written" in observed.err
    assert "engine profile:" in observed.err
    assert (tmp_path / "run.jsonl").exists()
    assert (tmp_path / "metrics.jsonl").exists()
    assert (tmp_path / "flight.txt").exists()


def test_cli_trace_feeds_repro_trace(tmp_path, capsys):
    from repro.obs import tracecli

    trace = tmp_path / "run.trace"  # jsonl whatever the suffix
    assert main([*_TINY, "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert tracecli.main(["summarize", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "records  :" in out
    assert "app.send" in out


def test_cli_metrics_csv_by_suffix(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    assert main([*_TINY, "--metrics", str(metrics), "--metrics-interval", "5"]) == 0
    capsys.readouterr()
    header = metrics.read_text().splitlines()[0]
    assert "delivery_ratio" in header.split(",")


def test_cli_observability_conflicts_with_seeds(capsys):
    code = main([*_TINY, "--seeds", "1,2", "--profile"])
    assert code == 2
    assert "cannot be combined with --seeds" in capsys.readouterr().err


def test_cli_version_flag(capsys):
    from repro.version import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert f"repro-run {__version__}" in capsys.readouterr().out


def test_cli_cache_prune_needs_a_cache_dir(capsys):
    code = main([*_TINY, "--cache-prune", "500MB"])
    assert code == 2
    assert "--cache-prune needs an effective cache" in capsys.readouterr().err


def test_cli_cache_prune_rejects_bad_spec(tmp_path, capsys):
    code = main(
        [*_TINY, "--cache-dir", str(tmp_path / "cache"), "--cache-prune", "bogus"]
    )
    assert code == 2
    assert "bad prune bound 'bogus'" in capsys.readouterr().err


def test_cli_cache_prune_runs_gc_after_sweep(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    args = [*_TINY, "--cache-dir", str(cache_dir), "--cache-prune", "10GB,365d"]
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "cache gc" in err
    assert "pruned 0/" in err
    # The generous bounds kept the fresh entry; a warm re-run still hits.
    assert main(args) == 0
    assert "1 hit(s)" in capsys.readouterr().err


def test_cli_radio_profile_and_link_loss(capsys):
    exit_code = main(
        [
            "--preset",
            "tiny",
            "--radio-profile",
            "urban",
            "--link-loss",
            "0.1",
            "--duration",
            "15",
        ]
    )
    assert exit_code == 0
    assert "packet delivery fraction" in capsys.readouterr().out


def test_cli_rejects_unknown_radio_profile():
    for name in ("bluetooth", "longhaul"):
        with pytest.raises(SystemExit) as excinfo:
            main(["--radio-profile", name])
        assert excinfo.value.code == 2


def test_cli_random_walk_mobility(capsys):
    exit_code = main(
        ["--preset", "tiny", "--mobility", "random_walk", "--duration", "15"]
    )
    assert exit_code == 0
    assert "packet delivery fraction" in capsys.readouterr().out


def test_cli_profile_config_roundtrip(tmp_path, capsys):
    from repro.scenarios.io import load_scenario

    saved = tmp_path / "urban.json"
    exit_code = main(
        [
            "--preset",
            "tiny",
            "--radio-profile",
            "urban",
            "--link-loss",
            "0.2",
            "--duration",
            "10",
            "--save-config",
            str(saved),
        ]
    )
    assert exit_code == 0
    config = load_scenario(saved)
    assert config.radio_profile == "urban"
    assert config.link_loss == 0.2
    capsys.readouterr()
    assert main(["--config", str(saved)]) == 0


# -- flags repro-run shares with repro-submit: a typo is a usage error --------


def test_cli_bad_seeds_is_a_usage_error_not_a_traceback(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*_TINY, "--seeds", "1,x"])
    assert excinfo.value.code == 2
    assert "argument --seeds: expected comma-separated integers" in capsys.readouterr().err


def test_cli_config_with_an_unknown_field_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}')
    with pytest.raises(SystemExit) as excinfo:
        main(["--config", str(bad)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error: unknown ScenarioConfig fields: ['bogus']" in err
    assert "Running" not in err


def test_cli_loss_sweep_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*_TINY, "--loss-sweep", "0"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --loss-sweep 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, complaint",
    [
        (
            ["--metrics", "m.jsonl", "--metrics-interval", "0"],
            "argument --metrics-interval: expected a positive float, got '0'",
        ),
        (
            ["--metrics", "m.jsonl", "--metrics-interval", "-1"],
            "argument --metrics-interval: expected a positive float, got '-1'",
        ),
        (
            ["--flight-recorder", "f.jsonl", "--flight-capacity", "0"],
            "argument --flight-capacity: expected a positive int, got '0'",
        ),
        (
            ["--seeds", "1,2", "--processes", "0"],
            "argument --processes: expected a positive int, got '0'",
        ),
        (
            ["--seeds", "1,2", "--processes", "-1"],
            "argument --processes: expected a positive int, got '-1'",
        ),
        (
            ["--seeds", ","],
            "argument --seeds: expected comma-separated integers, got ','",
        ),
        # Values the scenario itself refuses, refused before anything runs.
        (["--duration", "0"], "error: duration must be positive"),
        (["--link-loss", "1.5"], "error: link_loss must be in [0, 1)"),
        (["--grey-zone", "1.0"], "error: grey_zone_fraction must be in [0, 1)"),
        (["--static-timeout", "-3"], "error: static_timeout must be positive"),
        (["--packet-rate", "0"], "error: packet_rate must be positive"),
    ],
    ids=[
        "interval-zero",
        "interval-negative",
        "capacity-zero",
        "processes-zero",
        "processes-negative",
        "seeds-empty",
        "duration-zero",
        "link-loss-above-one",
        "grey-zone-one",
        "static-timeout-negative",
        "packet-rate-zero",
    ],
)
def test_cli_non_positive_observability_flag_is_a_usage_error(
    tmp_path, monkeypatch, capsys, flags, complaint
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main([*_TINY, *flags])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert complaint in err
    assert "Running" not in err  # refused while parsing: nothing was simulated
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value, complaint",
    [
        ("--variant", "Nope", "argument --variant: invalid choice: 'Nope'"),
        ("--seeds", "1,x", "argument --seeds: expected comma-separated integers"),
        ("--seeds", ",", "argument --seeds: expected comma-separated integers, got ','"),
    ],
    ids=["variant", "seeds", "seeds-empty"],
)
def test_submit_cli_typo_is_a_usage_error_not_a_traceback(capsys, flag, value, complaint):
    from repro.service.cli import submit_main

    # Refused while parsing: nothing is built, no server is contacted.
    with pytest.raises(SystemExit) as excinfo:
        submit_main(["--url", "http://127.0.0.1:1", "submit", "--preset", "tiny", flag, value])
    assert excinfo.value.code == 2
    assert complaint in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, argv, complaint",
    [
        ("repro-serve", ["--workers", "0"], "argument --workers: expected a positive int, got '0'"),
        ("repro-serve", ["--processes", "-1"], "argument --processes: expected a positive int, got '-1'"),
        ("repro-serve", ["--shard-size", "0"], "argument --shard-size: expected a positive int, got '0'"),
        ("repro-serve", ["--lease-ttl", "0"], "argument --lease-ttl: expected a positive float, got '0'"),
        ("repro-worker", ["--processes", "0"], "argument --processes: expected a positive int, got '0'"),
        # An idle worker waits --poll seconds between claims; <= 0 would spin.
        ("repro-worker", ["--poll", "0"], "argument --poll: expected a positive float, got '0'"),
        ("repro-worker", ["--poll", "-0.5"], "argument --poll: expected a positive float, got '-0.5'"),
        ("repro-worker", ["--timeout", "0"], "argument --timeout: expected a positive float, got '0'"),
        ("repro-submit", ["--timeout", "0", "health"], "argument --timeout: expected a positive float, got '0'"),
    ],
    ids=[
        "serve-workers",
        "serve-processes",
        "serve-shard-size",
        "serve-lease-ttl",
        "worker-processes",
        "worker-poll-zero",
        "worker-poll-negative",
        "worker-timeout",
        "submit-timeout",
    ],
)
def test_service_cli_non_positive_flag_is_a_usage_error(capsys, command, argv, complaint):
    from repro.service import cli, worker

    parsers = {
        "repro-serve": cli._build_serve_parser,
        "repro-worker": worker._build_parser,
        "repro-submit": cli._build_submit_parser,
    }
    with pytest.raises(SystemExit) as excinfo:
        parsers[command]().parse_args(argv)
    assert excinfo.value.code == 2
    assert complaint in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--queue-depth", "--max-inflight"])
def test_serve_negative_admission_bound_is_a_usage_error(capsys, flag):
    from repro.service import cli

    parser = cli._build_serve_parser()
    dest = flag[2:].replace("-", "_")
    assert getattr(parser.parse_args([flag, "0"]), dest) == 0  # 0: no bound
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args([flag, "-1"])
    assert excinfo.value.code == 2
    assert f"argument {flag}: expected a non-negative int, got '-1'" in capsys.readouterr().err
