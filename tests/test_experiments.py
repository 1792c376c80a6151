"""Smoke + shape tests for the experiment regenerators and the CLI."""

import hashlib

import pytest

from repro.experiments import (
    fig1_phases,
    fig3_datacomp,
    section3e_redundancy,
    table1_overheads,
)
from repro.experiments.common import build_platform, run_workload_experiment
from repro.experiments.runner import EXPERIMENTS, main, run_experiment
from repro.sim import Environment
from repro.workloads import LINPACK


#: sha256 of each rendered report: the pins that make refactoring safe.
#: Rule: a digest may change only in a change whose CHANGES.md entry
#: names the experiment and why its output moved.
REPORT_SHA256 = {
    "table1": "c675e29fbc85b3c08378dd5197438f94413559f1b7a9b5717ea0febd8ef23b69",
    "sec3e": "ee8086864d2876705979bbce793168b2c77fb9513c8277b3a37c292a8293687e",
    "fig1": "228afa8362e312f98d928160290e4f4c6527a4ce68ebc45a8814305d375c31e1",
    "fig3": "1c6a5fa0ebacca1bf355d6ffdca240e4ea4a534cc97e4a525ee42c279049c071",
    "fig9": "51aff85729c6407d84f42328371de5e06b466b96831da9b3faa9b709435d125b",
    "table2": "8d30f46131d35cefd4e3ecdfb91415b27f3669d43f52efa4b7afb14077daece6",
    "fig2": "1d21964b5cc027e6022f954f005f471cff83b95894a4a659531da76a9600f4ea",
    "fig10": "0162c4f72d781e7aac8baded957b4608a9064bd4fca5faa6fcd622c7b47e5ebd",
    "fig11": "eb0be3e25ff8c4ef7bcdc83c7374fc3dcf6dadb0bb647712d5dbe3763d6471db",
    "battery-3-0.5": "578fe158d53785a34df2630cfce4ca0acbf9a2d0cfa1253863be7b3008228eda",
    "battery-2-0.25": "d4f0a2c372b8eda10e9fe3597a9c08fdc83088a237ce9030225bdb28bdbb9ceb",
    "sensitivity": "dfa17f5e0a967cc66996fb30f6b86f34c5836a12237bd79f7d28325dc0e79ff9",
    "scorecard": "a143be6fd8c55b2a5a48e75e477d4f17bdfe44713b69dcf6bf33fe6a6f9a23fe",
    "fig6": "7a039faf1c2e619053e0814ede1dd1fc2acd3438a12f51a138b6ad63076082ea",
    "density": "6750b5b929076568b1d79642f4844a745afdb2a985a55e49863f08622eaa94da",
    "ablations": "3501965f5901061beaf1171c8eaccedc77ffbcc917edb7021e02308c3f71aa7d",
    "chaos": "8457997c33c074be89ef3643661d49603b1c914b1f5eabd188fb3c705687bd11",
}


def assert_pinned(name, text):
    """``text`` must hash to the digest recorded for ``name``."""
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == REPORT_SHA256[name], f"{name} report moved: {digest}"


def test_build_platform_names():
    env = Environment()
    assert build_platform(env, "vm").name == "vm"
    assert build_platform(Environment(), "rattrap").name == "rattrap"
    assert build_platform(Environment(), "rattrap-wo").name == "rattrap-wo"
    with pytest.raises(ValueError):
        build_platform(Environment(), "kubernetes")


def test_run_workload_experiment_basics():
    exp = run_workload_experiment("rattrap", LINPACK, devices=2,
                                  requests_per_device=2, seed=0)
    assert len(exp.results) == 4
    assert exp.platform_name == "rattrap"
    assert exp.scenario == "lan-wifi"
    assert not exp.devices


def test_run_workload_experiment_with_energy_devices():
    exp = run_workload_experiment("vm", LINPACK, devices=2, requests_per_device=2,
                                  seed=0, with_energy=True)
    assert set(exp.devices) == {"device-0", "device-1"}
    assert all(d.offloaded_requests == 2 for d in exp.devices.values())
    assert all(d.energy_used_j > 0 for d in exp.devices.values())


def test_experiments_registry_covers_all_paper_artifacts():
    assert set(EXPERIMENTS) == {
        "sec3e", "fig1", "fig2", "fig3", "fig6", "table1", "fig9", "table2",
        "fig10", "fig11", "ablations", "battery", "sensitivity", "scorecard", "density",
    }


def test_run_experiment_unknown_name():
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_runner_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig11" in out and "table1" in out


def test_runner_cli_unknown(capsys):
    assert main(["fig99"]) == 2


def test_runner_cli_runs_single_experiment(capsys):
    assert main(["sec3e"]) == 0
    out = capsys.readouterr().out
    assert "redundancy" in out
    assert "68.4" in out


def test_table1_report_text():
    text = table1_overheads.report(table1_overheads.run())
    assert_pinned("table1", text)
    assert "28.72 s" in text
    assert "16.4" in text
    assert "7.1 MB" in text


def test_sec3e_report_text():
    text = section3e_redundancy.report(section3e_redundancy.run())
    assert_pinned("sec3e", text)
    assert "4372" in text and "771" in text


def test_fig1_report_renders_all_workloads():
    text = fig1_phases.report(fig1_phases.run())
    assert_pinned("fig1", text)
    for workload in ("ocr", "chess", "virusscan", "linpack"):
        assert workload in text


def test_fig3_report_composition_sums():
    data = fig3_datacomp.run()
    text = fig3_datacomp.report(data)
    assert_pinned("fig3", text)
    assert "VM id" in text
    for per_vm in data.values():
        for row in per_vm:
            assert (
                row["mobile_code"] + row["file_param"] + row["control"]
                == pytest.approx(1.0)
            )


def test_fig9_report_contains_speedups():
    from repro.experiments import fig9_performance

    text = fig9_performance.report(fig9_performance.run())
    assert_pinned("fig9", text)
    assert "prep W/O" in text and "exec Rattrap" in text
    assert "rattrap-wo" in text


def test_table2_report_compares_to_paper():
    from repro.experiments import table2_migrated

    text = table2_migrated.report(table2_migrated.run())
    assert_pinned("table2", text)
    assert "29440" in text or "29,440" in text  # paper column present
    assert "measured vs paper" in text


def test_fig2_report_sparklines():
    from repro.experiments import fig2_serverload

    text = fig2_serverload.report(fig2_serverload.run())
    assert_pinned("fig2", text)
    assert "CPU %" in text and "MB/s" in text


def test_fig10_report_all_scenarios():
    from repro.experiments import fig10_power

    text = fig10_power.report(fig10_power.run())
    assert_pinned("fig10", text)
    for scenario in ("lan-wifi", "wan-wifi", "3g", "4g"):
        assert scenario in text


def test_fig11_report_paper_columns():
    from repro.experiments import fig11_trace_cdf

    text = fig11_trace_cdf.report(fig11_trace_cdf.run())
    assert_pinned("fig11", text)
    assert "cold boots" in text
    assert "54.0" in text  # paper reference value shown alongside


def test_battery_experiment_orderings():
    from repro.experiments import battery

    data = battery.run(users=3, days=0.5)
    # Offloading always beats local; Rattrap beats W/O beats VM.
    local = data["local"]["joules_per_device_day"]
    vm = data["vm"]["joules_per_device_day"]
    wo = data["rattrap-wo"]["joules_per_device_day"]
    rt = data["rattrap"]["joules_per_device_day"]
    assert rt < wo < vm < local
    text = battery.report(data)
    assert_pinned("battery-3-0.5", text)
    assert "battery" in text.lower()


def test_sensitivity_experiment_monotone():
    from repro.experiments import sensitivity

    data = sensitivity.run()
    # More CPU tax -> larger Linpack speedup; more I/O tax -> larger
    # VirusScan speedup (both strictly monotone).
    cpu = [data["cpu_tax"][t] for t in sensitivity.CPU_TAX_SWEEP]
    io = [data["io_tax"][t] for t in sensitivity.IO_TAX_SWEEP]
    assert cpu == sorted(cpu)
    assert io == sorted(io)
    text = sensitivity.report(data)
    assert_pinned("sensitivity", text)
    assert "Sensitivity" in text


def test_export_experiment_writes_json(tmp_path):
    import json

    from repro.experiments.runner import export_experiment

    path = export_experiment("sec3e", str(tmp_path))
    data = json.loads(open(path).read())
    assert data["never_accessed_fraction"] == pytest.approx(0.684, abs=0.001)
    assert data["redundant_counts"]["kernel_module"] == 4372


def test_export_handles_numpy_payloads(tmp_path):
    import json

    from repro.experiments.runner import export_experiment

    path = export_experiment("fig2", str(tmp_path))
    data = json.loads(open(path).read())
    assert len(data["ocr"]["cpu_percent"]) == 180


def test_runner_cli_export_flag(tmp_path, capsys):
    from repro.experiments.runner import main

    assert main(["table1", "--export", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "exported" in out
    assert (tmp_path / "table1.json").exists()


def test_scorecard_all_claims_pass():
    from repro.experiments import scorecard

    checks = scorecard.run()
    failing = [c for c in checks if not c.passed]
    assert not failing, f"claims out of band: {[(c.artifact, c.claim) for c in failing]}"
    assert len(checks) >= 12
    text = scorecard.report(checks)
    assert_pinned("scorecard", text)
    assert f"{len(checks)}/{len(checks)} claims reproduced" in text


def test_fig6_report_skipped_stages():
    from repro.experiments import fig6_boot

    data = fig6_boot.run()
    assert set(data) == {"android-device", "android-vm", "cac-nonoptimized",
                         "cac-optimized"}
    totals = {k: sum(d for _, d in v) for k, v in data.items()}
    assert totals["android-vm"] == pytest.approx(28.72, rel=0.02)
    assert totals["cac-optimized"] == pytest.approx(1.75, rel=0.02)
    text = fig6_boot.report(data)
    assert_pinned("fig6", text)
    assert "skips entirely" in text
    assert "load_kernel_ramdisk" in text


def test_density_report_text():
    from repro.experiments import density

    text = density.report(density.run())
    assert_pinned("density", text)
    assert "Rattrap 128 tenants" in text or "Rattrap" in text
    assert "OOM" in text


def test_battery_report_savings_line():
    from repro.experiments import battery

    text = battery.report(battery.run(users=2, days=0.25))
    assert_pinned("battery-2-0.25", text)
    assert "less device energy" in text


def test_ablations_report_pinned():
    from repro.experiments import ablations

    assert_pinned("ablations", ablations.report(ablations.run()))


def test_chaos_report_pinned():
    from repro.experiments import chaos

    assert_pinned("chaos", chaos.report(chaos.run()))
