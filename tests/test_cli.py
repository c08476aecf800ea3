"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_experiments_list(capsys):
    assert main(["experiments", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig21" in out and "tab2" in out


def test_experiments_single_artefact(capsys):
    assert main(["experiments", "--only", "fig5"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "span_500khz_db" in out


def test_experiments_unknown_artefact(capsys):
    assert main(["experiments", "--only", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown artefact" in err


def test_power_asic(capsys):
    assert main(["power", "--implementation", "asic"]) == 0
    out = capsys.readouterr().out
    assert "ASIC" in out
    assert "lna" in out
    assert "energy per" in out


def test_power_pcb_custom_duty_cycle(capsys):
    assert main(["power", "--implementation", "pcb", "--duty-cycle", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "PCB" in out
    assert "2.0%" in out


def test_range_outdoor(capsys):
    assert main(["range", "--environment", "outdoor"]) == 0
    out = capsys.readouterr().out
    assert "saiyan-super" in out
    assert "plora" in out
    assert "outdoor" in out


def test_range_indoor_two_walls(capsys):
    assert main(["range", "--environment", "indoor", "--walls", "2"]) == 0
    out = capsys.readouterr().out
    assert "indoor-2wall" in out


def test_range_custom_downlink(capsys):
    assert main(["range", "--bits", "1", "--bandwidth-khz", "125"]) == 0
    out = capsys.readouterr().out
    assert "K=1" in out
    assert "125" in out


def test_missing_command_is_an_error():
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# network subcommand
# ---------------------------------------------------------------------------

def test_network_list(capsys):
    assert main(["network", "--list"]) == 0
    out = capsys.readouterr().out
    assert "aloha-dense" in out
    assert "hopping-jammed" in out


def test_network_requires_scenario(capsys):
    assert main(["network"]) == 2
    assert "--scenario" in capsys.readouterr().err


def test_network_unknown_scenario(capsys):
    assert main(["network", "--scenario", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err


def test_network_runs_scenario_and_writes_manifest(capsys, tmp_path):
    import json

    assert main(["network", "--scenario", "aloha-dense", "--seed", "3",
                 "--windows", "3", "--packets-per-window", "5",
                 "--manifest-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Scenario: aloha-dense" in out
    assert "overall_prr_pct" in out
    manifest = json.loads((tmp_path / "aloha-dense.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["config"]["scenario"] == "aloha-dense"
    assert manifest["config"]["engine"] == "batch"
    assert "network_prr" in manifest["series_lengths"]


def test_network_engines_print_identical_numbers(capsys):
    outputs = []
    for engine in ("batch", "event"):
        assert main(["network", "--scenario", "indoor-rate-adapt",
                     "--seed", "11", "--windows", "4",
                     "--packets-per-window", "10", "--engine", engine]) == 0
        out = capsys.readouterr().out
        # The notes line names the engine; the numbers must not differ.
        outputs.append("\n".join(line for line in out.splitlines()
                                 if "engine=" not in line))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# waveform subcommand
# ---------------------------------------------------------------------------

def test_waveform_list(capsys):
    assert main(["waveform", "--list"]) == 0
    out = capsys.readouterr().out
    assert "modes" in out
    assert "sampling-rate" in out
    assert "baselines" in out


def test_waveform_requires_sweep(capsys):
    assert main(["waveform"]) == 2
    assert "--sweep" in capsys.readouterr().err


def test_waveform_unknown_sweep(capsys):
    assert main(["waveform", "--sweep", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown waveform sweep" in err


def test_waveform_runs_sweep_and_writes_manifest(capsys, tmp_path):
    import json

    assert main(["waveform", "--sweep", "modes", "--seed", "3",
                 "--num-symbols", "8", "--manifest-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Waveform sweep: modes" in out
    assert "saiyan-super_ser" in out
    manifest = json.loads((tmp_path / "modes.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["config"]["sweep"] == "modes"
    assert manifest["config"]["engine"] == "batch"
    assert manifest["config"]["num_symbols"] == 8
    assert "saiyan-vanilla_ser" in manifest["series_lengths"]


def test_waveform_invalid_seed_fails_cleanly(capsys):
    assert main(["waveform", "--sweep", "modes", "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_waveform_invalid_override_fails_cleanly(capsys):
    assert main(["waveform", "--sweep", "modes", "--num-symbols", "0"]) == 2
    assert "waveform:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# --seed: two same-seed runs agree end to end
# ---------------------------------------------------------------------------

def _capture(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_network_same_seed_runs_agree(capsys):
    argv = ["network", "--scenario", "aloha-dense", "--seed", "42",
            "--windows", "4", "--packets-per-window", "10"]
    assert _capture(capsys, argv) == _capture(capsys, argv)


def test_network_different_seeds_differ(capsys):
    base = ["network", "--scenario", "aloha-dense",
            "--windows", "4", "--packets-per-window", "10"]
    first = _capture(capsys, base + ["--seed", "1"])
    second = _capture(capsys, base + ["--seed", "2"])
    assert first != second


def test_waveform_same_seed_runs_agree(capsys):
    argv = ["waveform", "--sweep", "modes", "--seed", "42", "--num-symbols", "8"]
    assert _capture(capsys, argv) == _capture(capsys, argv)


def test_waveform_different_seeds_differ(capsys):
    base = ["waveform", "--sweep", "modes", "--num-symbols", "16"]
    assert (_capture(capsys, base + ["--seed", "1"])
            != _capture(capsys, base + ["--seed", "2"]))


def test_waveform_shards_and_engines_print_identical_numbers(capsys):
    outputs = []
    for extra in (["--shards", "1"], ["--shards", "2"],
                  ["--shards", "1", "--engine", "serial"]):
        outputs.append(_capture(capsys, ["waveform", "--sweep", "modes",
                                         "--seed", "11", "--num-symbols", "8"]
                                + extra))
    # The schedule never reaches the payload: the output is byte-identical.
    assert outputs[0] == outputs[1] == outputs[2]


def test_experiments_same_seed_runs_agree(capsys):
    argv = ["experiments", "--only", "fig26", "--seed", "7"]
    assert _capture(capsys, argv) == _capture(capsys, argv)


def test_experiments_seed_accepted_by_deterministic_driver(capsys):
    # fig5 takes no random_state; --seed must be accepted and ignored.
    out = _capture(capsys, ["experiments", "--only", "fig5", "--seed", "9"])
    assert "Figure 5" in out


def test_power_and_range_accept_seed(capsys):
    assert main(["power", "--seed", "4"]) == 0
    capsys.readouterr()
    assert main(["range", "--seed", "4"]) == 0
    capsys.readouterr()


def test_network_invalid_overrides_fail_cleanly(capsys):
    assert main(["network", "--scenario", "aloha-dense", "--windows", "0"]) == 2
    assert "network:" in capsys.readouterr().err
    assert main(["network", "--scenario", "aloha-dense", "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_experiments_parallel_matches_serial_output(capsys):
    assert main(["experiments", "--only", "fig5", "tab2"]) == 0
    serial_out = capsys.readouterr().out
    assert main(["experiments", "--parallel", "--only", "fig5", "tab2"]) == 0
    parallel_out = capsys.readouterr().out
    assert parallel_out == serial_out


def test_experiments_parallel_rejects_seed(capsys):
    assert main(["experiments", "--parallel", "--seed", "3", "--only", "fig5"]) == 2
    err = capsys.readouterr().err
    assert "--parallel" in err and "--seed" in err


def test_waveform_fast_precision_runs_and_tags_output(capsys):
    assert main(["waveform", "--sweep", "modes", "--precision", "fast",
                 "--num-symbols", "8"]) == 0
    out = capsys.readouterr().out
    assert "precision=fast" in out


def test_waveform_fast_precision_rejects_serial_engine(capsys):
    assert main(["waveform", "--sweep", "modes", "--precision", "fast",
                 "--engine", "serial", "--num-symbols", "8"]) == 2
    err = capsys.readouterr().err
    assert "float64-only" in err


def test_waveform_default_precision_output_unchanged_by_flag(capsys):
    assert main(["waveform", "--sweep", "modes", "--num-symbols", "8"]) == 0
    default_out = capsys.readouterr().out
    assert main(["waveform", "--sweep", "modes", "--precision", "reference",
                 "--num-symbols", "8"]) == 0
    explicit_out = capsys.readouterr().out
    assert explicit_out == default_out
    assert "precision" not in default_out


def test_network_grid_runs_every_scenario(capsys):
    assert main(["network", "--grid", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    from repro.sim.scenario import scenario_names

    for name in scenario_names():
        assert name in out


def test_network_grid_conflicts_with_scenario(capsys):
    assert main(["network", "--grid", "--scenario", "aloha-dense"]) == 2
    err = capsys.readouterr().err
    assert "--grid" in err


def test_network_grid_rejects_single_scenario_flags(capsys):
    assert main(["network", "--grid", "--windows", "3"]) == 2
    assert "--windows" in capsys.readouterr().err
    assert main(["network", "--grid", "--manifest-dir", "/tmp/x"]) == 2
    assert "--manifest-dir" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Result store: `repro store` and the --store flags
# ---------------------------------------------------------------------------

def test_store_stats_on_empty_store(capsys, tmp_path):
    assert main(["store", "stats", "--store-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path) in out
    assert "entries      0" in out


def test_store_gc_and_clear(capsys, tmp_path):
    from repro.sim.store import ResultStore

    store = ResultStore(tmp_path)
    for i in range(3):
        store.put({"kind": "cli-test", "i": i}, {"i": i})
    assert main(["store", "gc", "--store-dir", str(tmp_path),
                 "--max-entries", "1"]) == 0
    assert "removed 2" in capsys.readouterr().out
    assert main(["store", "clear", "--store-dir", str(tmp_path)]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert main(["store", "stats", "--store-dir", str(tmp_path)]) == 0
    assert "entries      0" in capsys.readouterr().out


def test_store_gc_rejects_negative_bound(capsys, tmp_path):
    assert main(["store", "gc", "--store-dir", str(tmp_path),
                 "--max-entries", "-1"]) == 2
    assert "max_entries" in capsys.readouterr().err


def test_experiments_store_rerun_is_byte_identical_and_warm(capsys, tmp_path):
    args = ["experiments", "--only", "fig5", "fig2",
            "--store", "--store-dir", str(tmp_path)]
    assert main(args) == 0
    cold = capsys.readouterr()
    assert "0 hit(s), 2 miss(es)" in cold.err
    assert main(args) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out
    assert "2 hit(s), 0 miss(es)" in warm.err
    # And identical to a store-less run (stdout only).
    assert main(["experiments", "--only", "fig5", "fig2"]) == 0
    assert capsys.readouterr().out == cold.out


def test_experiments_no_store_stays_silent(capsys, tmp_path):
    assert main(["experiments", "--only", "fig5", "--no-store",
                 "--store-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "store:" not in captured.err
    assert not any(tmp_path.iterdir())


def test_experiments_store_respects_seed(capsys, tmp_path):
    args = ["experiments", "--only", "fig2", "--seed", "9",
            "--store", "--store-dir", str(tmp_path)]
    assert main(args) == 0
    seeded = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == seeded
    assert main(["experiments", "--only", "fig2", "--seed", "9"]) == 0
    assert capsys.readouterr().out == seeded


def test_waveform_store_rerun_is_byte_identical_and_warm(capsys, tmp_path):
    args = ["waveform", "--sweep", "oversampling", "--num-symbols", "8",
            "--store", "--store-dir", str(tmp_path)]
    assert main(args) == 0
    cold = capsys.readouterr()
    assert "miss(es)" in cold.err and "0 hit(s)" in cold.err
    assert main(args) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out
    assert "0 miss(es)" in warm.err


def test_waveform_store_manifest_records_cell_provenance(capsys, tmp_path):
    import json

    manifest_dir = tmp_path / "manifests"
    args = ["waveform", "--sweep", "oversampling", "--num-symbols", "8",
            "--store", "--store-dir", str(tmp_path / "store"),
            "--manifest-dir", str(manifest_dir)]
    assert main(args) == 0
    capsys.readouterr()
    manifest = json.loads((manifest_dir / "oversampling.json").read_text())
    cells = manifest["store"]["cells"]
    assert cells["misses"] == len(cells["provenance"])
    assert main(args) == 0
    capsys.readouterr()
    manifest = json.loads((manifest_dir / "oversampling.json").read_text())
    assert manifest["store"]["hit"] is True
    assert manifest["store"]["cells"]["hits"] == len(
        manifest["store"]["cells"]["provenance"])


def test_network_store_rerun_is_byte_identical_and_warm(capsys, tmp_path):
    args = ["network", "--scenario", "aloha-dense",
            "--store", "--store-dir", str(tmp_path)]
    assert main(args) == 0
    cold = capsys.readouterr()
    assert "1 miss(es)" in cold.err
    assert main(args) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out
    assert "1 hit(s), 0 miss(es)" in warm.err


def test_network_grid_store_rerun_is_byte_identical_and_warm(capsys, tmp_path):
    args = ["network", "--grid", "--seed", "4",
            "--store", "--store-dir", str(tmp_path)]
    assert main(args) == 0
    cold = capsys.readouterr()
    assert main(args) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out
    assert "0 miss(es)" in warm.err


def test_store_dir_alone_enables_the_store(capsys, tmp_path):
    assert main(["experiments", "--only", "fig5",
                 "--store-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "1 miss(es)" in captured.err
    assert any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# serve subcommand
# ---------------------------------------------------------------------------

@pytest.fixture
def serve_daemon(tmp_path):
    """A live daemon on an ephemeral loopback port, for the client commands."""
    import threading

    from repro.serve.server import JobServer, serve_http
    from repro.sim.store import ResultStore

    job_server = JobServer(ResultStore(tmp_path / "store"),
                           queue_path=tmp_path / "queue.sqlite")
    httpd = serve_http(job_server)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        job_server.stop()


def test_serve_submit_is_byte_identical_to_one_shot_cli(capsys, serve_daemon):
    assert main(["serve", "submit", "--url", serve_daemon,
                 "--name", "fig7"]) == 0
    served = capsys.readouterr()
    assert "provenance=miss" in served.err
    assert main(["experiments", "--only", "fig7"]) == 0
    one_shot = capsys.readouterr()
    assert served.out == one_shot.out
    # repeat is answered from the store, still byte-identical
    assert main(["serve", "submit", "--url", serve_daemon,
                 "--name", "fig7"]) == 0
    repeat = capsys.readouterr()
    assert repeat.out == served.out
    assert "provenance=store" in repeat.err


def test_serve_submit_scenario_matches_network_command(capsys, serve_daemon):
    assert main(["serve", "submit", "--url", serve_daemon,
                 "--kind", "scenario", "--name", "aloha-dense",
                 "--seed", "4"]) == 0
    served = capsys.readouterr().out
    assert main(["network", "--scenario", "aloha-dense", "--seed", "4"]) == 0
    # serve submit always ends with the experiments-style blank separator;
    # the scenario table itself is byte-identical
    assert served == capsys.readouterr().out + "\n"


def test_serve_status_and_stats_commands(capsys, serve_daemon):
    import json

    assert main(["serve", "submit", "--url", serve_daemon,
                 "--name", "fig5", "--no-wait"]) == 0
    digest, status = capsys.readouterr().out.split()
    assert status in ("queued", "running", "done")
    assert main(["serve", "status", "--url", serve_daemon, digest]) == 0
    view = json.loads(capsys.readouterr().out)
    assert view["digest"] == digest
    assert main(["serve", "stats", "--url", serve_daemon]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["serve"]["requests"] >= 1


def test_serve_submit_rejects_unknown_names(capsys, serve_daemon):
    assert main(["serve", "submit", "--url", serve_daemon,
                 "--name", "fig999"]) == 1
    assert "unknown figure name" in capsys.readouterr().err


def test_serve_run_shuts_down_cleanly_on_sigterm(tmp_path):
    """SIGTERM reaches the same clean shutdown as Ctrl-C: exit code 0."""
    import os
    import signal
    import subprocess
    import sys
    import threading
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "run", "--port", "0",
         "--store-dir", str(tmp_path / "store")],
        cwd=root, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    # A daemon that never listens would block the read loop: kill it.
    watchdog = threading.Timer(120.0, process.kill)
    watchdog.start()
    line = ""
    try:
        for line in process.stderr:
            if "listening on" in line:
                break
        process.send_signal(signal.SIGTERM)
        process.communicate(timeout=10)
    finally:
        watchdog.cancel()
        process.kill()
    assert "listening on" in line
    assert process.returncode == 0


def test_serve_unreachable_daemon_is_a_clean_error(capsys):
    assert main(["serve", "stats", "--url", "http://127.0.0.1:9"]) == 2
    assert "cannot reach daemon" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Run registry, reproduce, report
# ---------------------------------------------------------------------------

def test_registry_list_and_show(capsys, tmp_path):
    assert main(["experiments", "--only", "fig5",
                 "--store", "--store-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["registry", "list", "--store-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "figure-driver" in captured.out
    assert "fig5" in captured.out
    assert "1 row(s)" in captured.err
    digest_prefix = captured.out.split()[0]
    assert main(["registry", "show", digest_prefix,
                 "--store-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert '"name": "fig5"' in out
    assert '"kind": "figure-driver"' in out


def test_registry_show_requires_a_matching_digest(capsys, tmp_path):
    assert main(["registry", "show", "ffffffffffff",
                 "--store-dir", str(tmp_path)]) == 1
    assert "no row matches" in capsys.readouterr().err
    assert main(["registry", "show", "--store-dir", str(tmp_path)]) == 2
    assert "requires a digest" in capsys.readouterr().err


def test_registry_rebuild_and_gc_orphans(capsys, tmp_path):
    from repro.sim.store import ResultStore

    store = ResultStore(tmp_path)
    store.put({"kind": "cli-registry-test", "i": 1}, {"i": 1})
    assert main(["registry", "rebuild", "--store-dir", str(tmp_path)]) == 0
    assert "indexed 1 entries" in capsys.readouterr().out
    store.clear()
    assert main(["registry", "gc-orphans", "--store-dir", str(tmp_path)]) == 0
    assert "removed 1 stale row(s)" in capsys.readouterr().out


def test_reproduce_dry_run_prints_the_plan_only(capsys, tmp_path):
    assert main(["reproduce", "--dry-run", "--only", "fig5",
                 "--store-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "reproduce plan (1 units, 0 store-resident, 1 to compute)" in out
    assert "dry run: nothing computed, nothing verified." in out
    # Nothing was evaluated: the store stayed empty.
    assert main(["store", "stats", "--store-dir", str(tmp_path)]) == 0
    assert "entries      0" in capsys.readouterr().out


def test_reproduce_then_report_round_trip(capsys, tmp_path):
    store_dir = str(tmp_path / "store")
    assert main(["reproduce", "--only", "fig5", "--store-dir", store_dir]) == 0
    first = capsys.readouterr().out
    assert "computed" in first
    assert "0 problem(s)" in first
    # Warm rerun: zero recomputation, everything a store hit.
    assert main(["reproduce", "--only", "fig5", "--store-dir", store_dir]) == 0
    assert "hit" in capsys.readouterr().out
    out_dir = tmp_path / "report"
    assert main(["report", "--smoke", "--store-dir", store_dir,
                 "--output-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "1 artefacts" in out
    assert (out_dir / "report.md").exists()
    assert (out_dir / "report.html").exists()
    assert "fig5" in (out_dir / "report.md").read_text()


def test_report_smoke_fails_on_an_empty_store(capsys, tmp_path):
    assert main(["report", "--smoke", "--store-dir", str(tmp_path),
                 "--output-dir", str(tmp_path / "out")]) == 1
    assert "empty store" in capsys.readouterr().err
