"""CLI contract: schema validation, exit codes, deterministic output,
and the slope checks on shipped example configs."""

import ast
import contextlib
import copy
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fluctem
from fluctem import cli
from fluctem.cli import run
from fluctem.lamb import thermal_shift
from fluctem.manybody import SystemGeometry, free_energy_T0
from fluctem.pairwise import PairSpec, london_closed_form, vdw_energy
from fluctem.polarizability import KramersHeisenberg, Transition, single_resonance

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"

ATOM = {"model": "single_resonance", "alpha_static": 0.5, "omega": 0.5}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def read_table(path):
    text = Path(path).read_bytes().decode("utf-8")
    lines = text.split("\r\n")
    assert lines[0].startswith("# config_hash=")
    assert "version=" in lines[0]
    rows = [r for r in csv.reader(io.StringIO("\r\n".join(lines[1:]))) if r]
    header = rows[0]
    data = [[float(v) for v in row] for row in rows[1:]]
    return header, data


def pairwise_config(separation=3.0):
    return {"task": "pairwise", "atoms": [dict(ATOM), dict(ATOM)],
            "separation": separation}


def test_pairwise_run_columns_and_signs(tmp_path):
    cfg = write_config(tmp_path, pairwise_config())
    out = tmp_path / "out.csv"
    assert run(cfg, str(out)) == 0
    header, data = read_table(out)
    assert header == ["r", "E_vdw", "E_london", "E_cp", "err"]
    (row,) = data
    assert row[0] == 3.0
    assert row[1] < 0 and row[2] < 0 and row[3] < 0
    assert row[4] >= 0


def test_pairwise_columns_are_closed_london_and_vdw_error(tmp_path):
    cfg = write_config(tmp_path, pairwise_config())
    out = tmp_path / "out.csv"
    assert run(cfg, str(out)) == 0
    _, ((r, e_vdw, e_london, _, err),) = read_table(out)
    model = single_resonance(0.5, 0.5)
    pair = PairSpec(model, model, r)
    vdw = vdw_energy(pair)
    assert e_london == london_closed_form(pair)
    assert (e_vdw, err) == (vdw.value, vdw.error_estimate)


def test_tracer_patch_points_resolve(load_perfbench):
    # perfbench/tracer.py wraps these names in place; a dropped import
    # would break its traced runs
    tracer = load_perfbench("tracer")
    points = [(module, attr) for module, attr, _ in tracer.SPANS]
    for module, attr in points + tracer.QUADRATURE:
        assert callable(getattr(tracer._resolve(module), attr)), \
            f"{module}.{attr}"



def test_traced_pass_gives_the_untraced_bytes(tmp_path, load_perfbench,
                                              capsys):
    # perfbench times a pass with its tracer's wrappers around the
    # package's entry points and integrands: the seed-101 configs of both
    # workloads give the same tables and messages with and without them
    tracer_module = load_perfbench("tracer")
    workloads = load_perfbench("workloads")
    entries = [entry for name in ("clusters", "spectra-sweep")
               for entry in workloads.write_workload(name, 101, REPO,
                                                     tmp_path / name)]
    points = [(module, attr) for module, attr, _ in tracer_module.SPANS]
    points += tracer_module.QUADRATURE + [("fluctem.cli", "run")]

    def bound():
        return [vars(tracer_module._resolve(module))[attr]
                for module, attr in points]

    def outputs():
        texts = []
        for entry in entries:
            out = tmp_path / f"{entry['id']}.csv"
            code = cli.run(entry["path"], str(out))
            texts.append((entry["id"], code, out.read_bytes(),
                          capsys.readouterr().err))
        return texts

    untraced, originals = outputs(), bound()
    tracer = tracer_module.Tracer()
    tracer.install(cli)
    try:
        traced = outputs()
    finally:
        tracer.remove()
    assert traced == untraced
    names = {tracer.names[k] for k in tracer.drain()["name"].tolist()}
    assert {"quadrature.integrate_semi_infinite", "quadrature.matsubara_sum",
            "manybody.integrand"} <= names, names
    assert all(a is b for a, b in zip(bound(), originals))

# the warnings the package itself gives: validity ratios and the Lamb cutoff
OWN_WARNING = re.compile(
    r"warning: (point-dipole picture strained: "
    r"|atoms \d+ and \d+ strain the point-dipole picture: "
    r"|cutoff is within 100x of the highest transition frequency; )")


@pytest.mark.parametrize("workload", ["clusters", "spectra-sweep"])
def test_benchmark_outputs_pass_its_reference_checks(tmp_path, load_perfbench,
                                                     capsys, workload):
    # the benchmark's own correctness gate: each config of the workload at
    # seed 101, shipped ones included, run through the CLI and checked
    # against perfbench's independent references.  The CLI prints every
    # warning a run records, so a numpy RuntimeWarning would show here as
    # a line that is none of the package's own
    pytest.importorskip("scipy")
    workloads = load_perfbench("workloads")
    references = load_perfbench("references")
    entries = workloads.write_workload(workload, 101, REPO,
                                       tmp_path / "configs")
    checks = []
    for entry in entries:
        out = tmp_path / f"{entry['id']}.csv"
        assert run(entry["path"], str(out)) == 0, entry["id"]
        for line in capsys.readouterr().err.splitlines():
            assert OWN_WARNING.match(line), (entry["id"], line)
        cfg = json.loads(Path(entry["path"]).read_text())
        # perfbench splits the table on CRLF: no newline translation
        text = out.read_bytes().decode("utf-8")
        checks += references.check_config(entry["id"], cfg, text)
    assert checks
    # what fail_rate and bound_miss_rate count; a gate miss is a miss too,
    # and the audits (gate=False) are left out, as perfbench leaves them
    missed = [c.describe() for c in checks
              if c.gate and (c.miss or c.bound_miss)]
    assert not missed, missed


# float.hex of free_energy, second_order and err of the seed-101 clusters
# configs, the shipped configs/manybody.json among them: a change that
# moves one of these bytes changes its pin here and says so
CLUSTER_PINS = {
    "ret-N8": ("-0x1.188da0ca795cfp-11", "-0x1.19ee3fab2f421p-11",
               "0x1.9b341a723097dp-44"),
    "ret-N27": ("-0x1.4b6cc9a978863p-9", "-0x1.4d6caaebbcb1ap-9",
                "0x1.cfa5efd4b350ep-42"),
    "nonret-N27": ("-0x1.5cb17b4b5740dp-9", "-0x1.5ec88137b73adp-9",
                   "0x1.225f8b59e2567p-43"),
    "ret-N8-T0.1": ("-0x1.23510bd41a848p-11", "-0x1.1af82ce6745fap-11",
                    "0x1.33c820f72d5f2p-44"),
    "ret-N8-T0.01": ("-0x1.1991d7a4df033p-11", "-0x1.1af82ce6745fap-11",
                     "0x1.f70355b233ce0p-45"),
    "nonret-N8-T0.001": ("-0x1.19a39c7ba9e40p-11", "-0x1.1af82ce6745fap-11",
                         "0x1.15352745f9061p-44"),
    "shipped-manybody": ("-0x1.e3e2e74665ddfp-14", "-0x1.e55825db21c54p-14",
                         "0x1.dc30404e68651p-46"),
}


def test_cluster_output_bytes_are_pinned(tmp_path, load_perfbench, capsys):
    workloads = load_perfbench("workloads")
    entries = workloads.write_workload("clusters", 101, REPO, tmp_path)
    seen = {}
    for entry in entries:
        out = tmp_path / f"{entry['id']}.csv"
        assert run(entry["path"], str(out)) == 0, entry["id"]
        header, row = out.read_text().splitlines()[1:]
        assert header == "free_energy,second_order,err"
        seen[entry["id"]] = tuple(float(v).hex() for v in row.split(","))
    capsys.readouterr()
    assert seen == CLUSTER_PINS


# sha256 of the CSV bytes and of the stderr text of each seed-101
# spectra-sweep config through cli.run, the shipped configs/pairwise.json
# and configs/cavity.json among them: a change that moves one of these
# bytes changes its pin here and says so
SPECTRA_PINS = {
    "pairwise-1x8": (
        "f1ca23fbcce801ec1518146085b736de4616d57f0e7f305e7b1825de123f0d3e",
        "9f5d8f183c565eff07f6afc9d85b6e1343c127de75780ffb06feda971ed9f54c"),
    "pairwise-2x7": (
        "0e9e9f81258ae4993f7d319ed5b5b67c3abebc1c7070f3c0cd51f0b9bf1606a2",
        "1e2e69366fe18320dc76b80bda65559b940f9e139f71351b082ee31d225632fd"),
    "pairwise-3x6": (
        "bdb7aac2251a7433c73ac3da553c2da8776b6724dd614682029ff825d17e07c7",
        "28e5c2f9b7e0c79f18f9146df3cce64ba0a69d525c22a8e4a50108b0a127f996"),
    "pairwise-4x5": (
        "147f9020d6fc839c509ebb266861b93b8f4c24c62599d7ee0e45e1facf4058aa",
        "bf4399fc1e152bdefd1f4aad79ef2ff2a5aaad87bfb913f414e8a8dfb85f44b5"),
    "pairwise-5x4": (
        "32e563c0f9cb2f2c2c19d60eccb6d9d02b46feda675b68d75bfdc8c75f2bfa1c",
        "e42c2430b95c9a9761d9e1b8aac20820a9f664e925b8f081413f0c3fc7d029f4"),
    "pairwise-6x3": (
        "61588056f8a305458b395b1d65d4a8801af855a1827cc992079a2a9baa1b29f9",
        "396ffdfbc6eead6ee3f63f1830b5bb7380aca6a54929395a659d6c57e8d3282a"),
    "pairwise-7x2": (
        "aded210de0b5bb024d92484bc25cf0578fc9c69ab8cf7e086bd8b1c9f536afe8",
        "80d963211cf382331fba69ddc018e2bc6834225cf9851755bdb714da0302e655"),
    "pairwise-8x1": (
        "e5ffa920106b2970b43f38951229b0fa2b95572a02b26223c47863d9266460ab",
        "92b2750e6be1e38603f41eb09d66331556dd7736956cde37f5b985c59a83c948"),
    "lamb-vacuum-1": (
        "6bb31788270f087437943cc63dd4a82fc3f1f8d4e0e4dae07d2b4464b6b39bc8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lamb-vacuum-2": (
        "a318ff0bffdc730759c6899ded753c958f88eafc45622057970249837900a11b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lamb-medium-1": (
        "874dc01ef52b43b3db221a7c5d3da51e7e74c863e3c7bf116706b87752d88683",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lamb-medium-2": (
        "356da329b965e0056ecb1758301b89b05a3c614b3fcf37d9f188baa339392f1f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lamb-medium-3": (
        "84d34cc3b4d7794e2662c719a4da1adf188eedbfb4f013b37bd362867b9405ce",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cavity-0": (
        "d45aef2657c6c02b9f7e0376420b1f912d011ca48f8b1e8de262fd4391df99f3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cavity-1": (
        "98a79649820139f46e1330b02944007d29159446e72d8068cb9dce5a942d8c01",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cavity-2": (
        "5e411e8cf36b8abf6c4a4898108835c8d6b24abc01a9d6b8b874a3ab1b446486",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cavity-3": (
        "54635c6cd48028a7f267574be6bda54c26fb6603e8017fb42bdc675829339562",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cavity-4": (
        "42a6e8d48bdbbca5adbd50902fdc279a4de0e56dd3868d7ef95de9a2374a9123",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cavity-node": (
        "4042bc0410bc6c0f683774300e8db86dd0db1aab8f47436ace87f7f9d9f479fc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "shipped-pairwise": (
        "0a78c74fddc4dba8838518af504a9cde43a967a9f2064c6574f506249a70d258",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "shipped-cavity": (
        "6207e036c789af42696cb076f0a7dc975eecb735a5056b4c42740f3457b7937b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def test_spectra_sweep_output_bytes_are_pinned(tmp_path, load_perfbench,
                                                capsys):
    workloads = load_perfbench("workloads")
    entries = workloads.write_workload("spectra-sweep", 101, REPO, tmp_path)
    assert [entry["id"] for entry in entries] == list(SPECTRA_PINS)
    for entry in entries:
        out = tmp_path / f"{entry['id']}.csv"
        assert run(entry["path"], str(out)) == 0, entry["id"]
        seen = (hashlib.sha256(out.read_bytes()).hexdigest(),
                hashlib.sha256(capsys.readouterr().err.encode()).hexdigest())
        assert seen == SPECTRA_PINS[entry["id"]], entry["id"]


def test_perfbench_imports_resolve():
    # every name perfbench imports from the package, read from its source
    # without running it: a dropped name fails here, not in the benchmark
    names = []
    for path in sorted((REPO / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "fluctem":
                names += [(path.name, node.module, alias.name)
                          for alias in node.names]
    assert names
    for source, module, name in names:
        assert hasattr(importlib.import_module(module), name), \
            f"{source}: from {module} import {name}"


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, pairwise_config())
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(cfg, str(first)) == 0
    assert run(cfg, str(second)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_stdout_dash_and_silence_with_file(tmp_path, capsys):
    cfg = write_config(tmp_path, pairwise_config())
    assert run(cfg, "-") == 0
    assert "E_vdw" in capsys.readouterr().out
    out = tmp_path / "out.csv"
    assert run(cfg, str(out)) == 0
    assert capsys.readouterr().out == ""


def test_parse_error_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "task": "pairwise",,\n}\n')
    assert run(str(path)) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_unknown_key_and_unknown_task(tmp_path, capsys):
    cfg = pairwise_config()
    cfg["separations"] = 2.0
    assert run(write_config(tmp_path, cfg)) == 1
    assert "separations" in capsys.readouterr().err
    assert run(write_config(tmp_path, {"task": "nope"}, "t.json")) == 1
    assert "task" in capsys.readouterr().err


def test_strict_escalates_point_dipole_warning(tmp_path, capsys):
    big = {"model": "single_resonance", "alpha_static": 4.5, "omega": 0.5}
    cfg = {"task": "pairwise", "atoms": [big, big], "separation": 1.0}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out.csv"
    assert run(path, str(out)) == 0
    assert "point-dipole" in capsys.readouterr().err
    assert run(path, str(out), strict=True) == 2
    header, data = read_table(out)  # output still written under strict
    assert header[0] == "r"


def test_manybody_overlap_strict_exit(tmp_path):
    atom = {"model": "single_resonance", "alpha_static": 4.5, "omega": 0.5}
    cfg = {"task": "manybody",
           "atoms": [dict(atom, position=[0, 0, 0]),
                     dict(atom, position=[0, 0, 1.0])]}
    path = write_config(tmp_path, cfg)
    assert run(path, str(tmp_path / "o.csv"), strict=True) == 2
    # without --strict the unstable determinant is the reported failure
    assert run(path, str(tmp_path / "o2.csv")) == 1


@pytest.mark.parametrize("alpha_static", [1e100, 1e60])
@pytest.mark.parametrize("strict", [False, True])
def test_overflowing_validity_ratio_warns_once(tmp_path, capsys,
                                               alpha_static, strict):
    # alpha^2/r^6 past the double range: one validity warning that says
    # so, no numpy overflow warning, and the unstable determinant named
    atom = {"model": "single_resonance", "alpha_static": alpha_static,
            "omega": 0.5}
    cfg = {"task": "manybody",
           "atoms": [dict(atom, position=[0, 0, 0]),
                     dict(atom, position=[0, 0, 1e-40])]}
    path = write_config(tmp_path, cfg)
    code = run(path, str(tmp_path / "o.csv"), strict=strict)
    err = capsys.readouterr().err
    assert code == (2 if strict else 1)
    warned = [line for line in err.splitlines() if line.startswith("warning")]
    assert warned == ["warning: atoms 0 and 1 strain the point-dipole "
                      "picture: ratio > 1.8e308"]
    assert "overflow encountered" not in err
    if not strict:
        assert "[fluctem.manybody.StrongCouplingError]" in err


def test_cavity_node_writes_zero_interaction(tmp_path):
    cfg = {
        "task": "cavity",
        "atoms": [{"omega": 0.9, "dipole": [0.1, 0, 0]},
                  {"omega": 1.1, "dipole": [0.1, 0, 0]}],
        "mode": {"omega": 20.0, "polarization": [1, 0, 0],
                 "amplitudes": [0.0, 0.04]},
        "separation": 10.0,
    }
    out = tmp_path / "out.csv"
    assert run(write_config(tmp_path, cfg), str(out)) == 0
    header, (row,) = read_table(out)
    assert row[header.index("interaction")] == 0.0
    assert row[header.index("self_1")] == 0.0
    assert row[header.index("self_2")] < 0


def cavity_config(**extra):
    return dict({
        "task": "cavity",
        "atoms": [{"omega": 0.9, "dipole": [0.1, 0, 0]},
                  {"omega": 1.1, "dipole": [0.1, 0, 0]}],
        "mode": {"omega": 20.0, "polarization": [1, 0, 0],
                 "amplitudes": [0.03, 0.04]},
        "separation": 10.0,
    }, **extra)


def cavity_scan(**extra):
    # the shipped separation scan
    cfg = json.loads((CONFIG_DIR / "cavity.json").read_text())
    return dict(cfg, **extra)


def test_non_finite_numbers_are_config_errors(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run(write_config(tmp_path, pairwise_config(float("inf"))),
               str(out)) == 1
    err = capsys.readouterr().err
    assert "error: config:" in err and "separation" in err
    assert not out.exists()
    cfg = {"task": "manybody",
           "atoms": [dict(ATOM, position=[0, 0, 0]),
                     dict(ATOM, position=[0, 0, float("nan")])]}
    assert run(write_config(tmp_path, cfg, "nan.json"), str(out)) == 1
    err = capsys.readouterr().err
    assert "error: config:" in err and "atoms[1].position" in err


def test_transition_row_must_be_an_object(tmp_path, capsys):
    atom = {"model": "transitions",
            "transitions": [{"omega": 0.5, "d2": 1.0}, [1.0]]}
    cfg = {"task": "pairwise", "atoms": [dict(ATOM), atom],
           "separation": 3.0}
    assert run(write_config(tmp_path, cfg)) == 1
    err = capsys.readouterr().err
    assert "error: config:" in err and "atoms[1].transitions[1]" in err


def config_error(tmp_path, capsys, cfg):
    """Run ``cfg`` expecting exit 1 with a config error; its message."""
    assert run(write_config(tmp_path, cfg), str(tmp_path / "out.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert not (tmp_path / "out.csv").exists()
    return err


def manybody_config(**extra):
    return dict({"task": "manybody",
                 "atoms": [dict(ATOM, position=[0, 0, 0]),
                           dict(ATOM, position=[0, 0, 4.0])]}, **extra)


def test_coincident_manybody_atoms_name_both(tmp_path, capsys):
    cfg = manybody_config()
    cfg["atoms"].append(dict(ATOM, position=[0.0, 0.0, 4.0]))
    err = config_error(tmp_path, capsys, cfg)
    assert "atoms[1]" in err and "atoms[2]" in err
    # distinct positions whose squared separation underflows to zero
    cfg["atoms"][2]["position"] = [1e-200, 0.0, 0.0]
    cfg["atoms"][1]["position"] = [0.0, 0.0, 0.0]
    err = config_error(tmp_path, capsys, cfg)
    assert "atoms[0]" in err and "atoms[1]" in err


def test_nonpositive_transition_omega_is_named(tmp_path, capsys):
    atom = {"model": "transitions",
            "transitions": [{"omega": 0.5, "d2": 1.0},
                            {"omega": -0.2, "d2": 1.0}]}
    cfg = {"task": "pairwise", "atoms": [dict(ATOM), atom],
           "separation": 3.0}
    err = config_error(tmp_path, capsys, cfg)
    assert "atoms[1].transitions[1].omega" in err
    atom["transitions"][1] = {"omega": 0.7, "d2": -1.0}
    err = config_error(tmp_path, capsys, cfg)
    assert "atoms[1].transitions[1].d2" in err
    cfg = manybody_config()
    cfg["atoms"][0]["omega"] = 0.0
    assert "atoms[0].omega" in config_error(tmp_path, capsys, cfg)


def test_nonpositive_alpha_static_is_named(tmp_path, capsys):
    cfg = manybody_config()
    cfg["atoms"][1]["alpha_static"] = -1.0
    assert "atoms[1].alpha_static" in config_error(tmp_path, capsys, cfg)


def test_overflowing_single_resonance_is_named(tmp_path, capsys):
    # d2 = 1.5 alpha_static omega overflows to inf
    cfg = pairwise_config()
    cfg["atoms"][1] = dict(ATOM, alpha_static=4.0, omega=1.7e308)
    assert "atoms[1]" in config_error(tmp_path, capsys, cfg)


def test_overflowing_transition_models_are_named(tmp_path, capsys):
    # omega*d2 overflows for the manybody atom, omega^2 for the lamb one
    cfg = manybody_config()
    cfg["atoms"][1]["omega"] = 1e300
    assert "atoms[1]" in config_error(tmp_path, capsys, cfg)
    cfg = {"task": "lamb",
           "atom": {"model": "transitions",
                    "transitions": [{"omega": 1e300, "d2": 1.0}]}}
    assert "error: config: atom:" in config_error(tmp_path, capsys, cfg)


def test_overflowing_medium_host_is_named_once(tmp_path, capsys):
    cfg = {"task": "lamb", "atom": dict(ATOM),
           "medium": {"number_density": 1e-5,
                      "host": dict(ATOM, omega=1e300)}}
    assert config_error(tmp_path, capsys, cfg) == (
        "error: config: medium.host: a transition's omega*d2 or omega^2 "
        "overflows a double\n")


def test_medium_density_errors_are_named(tmp_path, capsys):
    cfg = {"task": "lamb", "atom": dict(ATOM),
           "medium": {"number_density": -1.0, "host": dict(ATOM)}}
    assert config_error(tmp_path, capsys, cfg) == (
        "error: config: medium.number_density cannot be negative\n")
    # too dense to be dilute: a property of the whole medium
    cfg["medium"]["number_density"] = 1.0
    assert config_error(tmp_path, capsys, cfg).startswith(
        "error: config: medium: medium is not dilute")


def _pair_free_energy_limits(temperature):
    """The T -> 0 energy of manybody_config() and the classical T g(0)/2
    with its rounding.  The static modes of a pair at distance r are
    1 + s alpha/r^3 for s = 1, 1, -1, -1, 2, -2."""
    model = single_resonance(ATOM["alpha_static"], ATOM["omega"])
    cold = free_energy_T0(SystemGeometry([((0.0, 0.0, 0.0), model),
                                          ((0.0, 0.0, 4.0), model)]))
    x = model.alpha_imag(0.0) / 4.0**3
    classical = 0.5 * temperature * (2.0 * math.log1p(-x * x)
                                     + math.log1p(-4.0 * x * x))
    return cold, classical, 4 * np.finfo(float).eps * abs(classical)


@pytest.mark.parametrize("temperature", [5e-324, 1e-300, 1e300])
def test_extreme_temperatures_give_honest_values(tmp_path, capsys,
                                                 temperature):
    # the coldest reach the T = 0 integral, the hottest the classical
    # zero-frequency term; neither warns
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, manybody_config(temperature=temperature))
    assert run(cfg, str(out)) == 0
    assert capsys.readouterr().err == ""
    _, ((free, _, err),) = read_table(out)
    cold, classical, rounding = _pair_free_energy_limits(temperature)
    if temperature < 1.0:
        assert abs(free - cold.value) <= err + cold.error_estimate
    else:
        assert abs(free - classical) <= err + rounding


def test_temperature_past_the_double_range_is_named(tmp_path, capsys):
    err = config_error(tmp_path, capsys, manybody_config(temperature=1.7e308))
    assert err.startswith("error: config: temperature too high")


def test_far_apart_manybody_atoms_name_both(tmp_path, capsys):
    # the squared separation overflows; numpy must not even warn about it
    cfg = manybody_config()
    cfg["atoms"][0]["position"] = [-1e300, 0.0, 0.0]
    cfg["atoms"][1]["position"] = [1e300, 0.0, 0.0]
    with np.errstate(all="raise"):
        err = config_error(tmp_path, capsys, cfg)
    assert "atoms[0] and atoms[1] are too far apart" in err


def far_pair_manybody_config(separation):
    cfg = manybody_config()
    cfg["atoms"][1]["position"] = [separation, 0.0, 0.0]
    return cfg


# configs of one pair at a given distance, and what their errors name
FAR_PAIR_CONFIGS = {
    "pairwise": (pairwise_config, "separation: atoms[0] and atoms[1]"),
    "cavity": (lambda r: cavity_config(separation=r),
               "separation: atoms[0] and atoms[1]"),
    "manybody": (far_pair_manybody_config, "atoms[0] and atoms[1]"),
}


@pytest.mark.parametrize("task, separation", [
    *(("pairwise", r) for r in (5e-324, 1e-300, 1e-150, 1e150, 1e300,
                                1.7e308)),
    *(("cavity", r) for r in (1e-150, 1e150, 1e300, 1.7e308)),
    *(("manybody", r) for r in (1e-150, 1e150)),
])
@pytest.mark.parametrize("scan", [False, True], ids=["run", "scan"])
def test_pair_distances_past_the_double_range_are_named(
        tmp_path, capsys, task, separation, scan):
    # the pair energies divide by up to r^7: a distance whose power leaves
    # the double range is a config error, alone or as a scan point
    make, named = FAR_PAIR_CONFIGS[task]
    cfg = make(separation)
    if scan:
        parameter = "separation" if "separation" in cfg \
            else "atoms.1.position.0"
        cfg = dict(cfg, task="scan", subtask=task,
                   sweep={"parameter": parameter,
                          "values": [4.0, separation]})
    with np.errstate(all="raise"):
        err = config_error(tmp_path, capsys, cfg)
    assert named in err
    assert "closer than 1e-40 bohr" in err or "over 1e40 bohr" in err


@pytest.mark.parametrize("separation", [1e-34, 1e-35, 1e-40])
@pytest.mark.parametrize("scan", [False, True], ids=["run", "scan"])
def test_overflowing_pair_energies_are_named(tmp_path, capsys, separation,
                                             scan):
    # every key is inside its range; alpha^2/r^7 of the asymptote
    # overflows from 1e-34 on, the London and retarded energies from 1e-35
    strong = {"model": "single_resonance", "alpha_static": 1e50,
              "omega": 0.5}
    cfg = dict(pairwise_config(separation), atoms=[strong, dict(strong)])
    if scan:
        cfg = dict(cfg, task="scan", subtask="pairwise",
                   sweep={"parameter": "separation",
                          "values": [1e3, separation]})
    err = config_error(tmp_path, capsys, cfg)
    assert ("sweep.values[1]: " if scan else "error: config: atoms and "
            "separation: ") in err
    assert "atoms and separation: the " in err
    assert "overflows a double" in err


STRONG_ATOM = {"model": "single_resonance", "alpha_static": 1e50,
               "omega": 0.5}
# alpha_a0 alpha_b0 / r^6 = 16 at r = 1, 5.4 at 1.2; at r = 1 and 1.2 the
# integral takes about 100 evaluations, at r = 100 170
WARM_ATOM = {"model": "single_resonance", "alpha_static": 4.0, "omega": 0.5}
WARNING_AT_1 = ("warning: point-dipole picture strained: "
                "alpha_a0*alpha_b0/r^6 = 16 >= 1")
SPENT_AT_1 = ("error [fluctem.quadrature.QuadratureError]: sweep.values[1]: "
              "quadrature budget of 150 evaluations exhausted")


@pytest.mark.parametrize("case, strict, code, lines", [
    # a config error prints no warnings
    ("overflow", False, 1, [
        "error: config: sweep.values[1]: atoms and separation: the van der "
        "Waals energy overflows a double"]),
    ("spent", False, 1, [WARNING_AT_1, SPENT_AT_1]),
    ("spent", True, 2, [WARNING_AT_1]),
])
def test_failing_scan_point_ends_the_scan_in_point_order(
        tmp_path, capsys, case, strict, code, lines):
    # the rows of a separation scan run at once, yet the output is that of
    # points run one after another: the warnings of points 0 .. k, then
    # point k's error, and nothing of the points after it
    atom, values, extra = {
        "overflow": (STRONG_ATOM, [1e3, 1e-35, 1e3], {}),
        "spent": (WARM_ATOM, [1.0, 100.0, 1.2],
                  {"quadrature": {"max_evals": 150}}),
    }[case]
    cfg = dict(pairwise_config(), task="scan", subtask="pairwise",
               atoms=[atom, dict(atom)], **extra,
               sweep={"parameter": "separation", "values": values})
    out = tmp_path / "out.csv"
    assert run(write_config(tmp_path, cfg), str(out), strict=strict) == code
    assert capsys.readouterr().err.splitlines() == lines
    assert not out.exists()


@pytest.mark.parametrize("subtask, parameter, values, base, tag", [
    ("pairwise", "separation", [1.0, 100.0],
     dict(pairwise_config(), atoms=[WARM_ATOM, WARM_ATOM],
          quadrature={"max_evals": 150}),
     "fluctem.quadrature.QuadratureError"),
    ("manybody", "atoms.1.position.2", [4.0, 1.0],
     manybody_config(atoms=[
         dict(ATOM, alpha_static=4.5, position=[0, 0, 0]),
         dict(ATOM, alpha_static=4.5, position=[0, 0, 4.0])]),
     "fluctem.manybody.StrongCouplingError"),
    ("cavity", "mode.amplitudes.1", [0.04, 160.0],
     cavity_config(mode={"omega": 20.0, "polarization": [1, 0, 0],
                         "amplitudes": [160.0, 0.04]}),
     "fluctem.cavity.PhotonCutoffError"),
    # the rows of one build: at 1e-3 bohr the pair term makes the solve
    # round at 1.9e-9, and the point after it never runs
    ("cavity", "separation", [5.0, 1e-3, 8.0], cavity_scan(),
     "fluctem.cavity.PhotonCutoffError"),
], ids=["quadrature", "strong coupling", "photon cutoff",
        "photon cutoff on rows"])
def test_scan_point_errors_of_every_type_name_their_value(
        tmp_path, capsys, subtask, parameter, values, base, tag):
    cfg = dict(base, task="scan", subtask=subtask,
               sweep={"parameter": parameter, "values": values})
    out = tmp_path / "out.csv"
    assert run(write_config(tmp_path, cfg), str(out)) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error [{tag}]: sweep.values[1]: ")
    assert not out.exists()


@pytest.mark.parametrize("cfg", [
    cavity_scan(),
    # a node: atom 0 does not couple to the mode
    cavity_scan(mode={"omega": 20.0, "polarization": [1.0, 0.0, 0.0],
                      "amplitudes": [0.0, 0.04]}),
    # strong coupling walks every point from cutoff 12 to 28
    cavity_scan(mode={"omega": 20.0, "polarization": [1.0, 0.0, 0.0],
                      "amplitudes": [40.0, 40.0]},
                sweep={"parameter": "separation",
                       "values": [4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0,
                                  20.0, 30.0, 40.0]}),
    # the shipped pairwise scan, on into the retarded regime
    dict(json.loads((CONFIG_DIR / "pairwise.json").read_text()),
         sweep={"parameter": "separation",
                "values": [1.0, 3.0, 40.0, 1e3, 1e5]}),
    dict(task="scan", subtask="lamb", atom=dict(ATOM), cutoff=1e4,
         temperature=50.0,
         medium={"number_density": 1e-3, "host": dict(ATOM, omega=0.7)},
         sweep={"parameter": "temperature",
                "values": [50.0, 0.5, 1e-2, 1e-4, 1e-6]}),
    dict(manybody_config(), task="scan", subtask="manybody", temperature=1.0,
         sweep={"parameter": "temperature", "values": [1.0, 0.1, 1e-3]}),
], ids=["shipped", "node", "strong", "pairwise", "lamb", "manybody"])
def test_cavity_scan_rows_equal_one_point_runs(cfg):
    # a separation scan of pairwise or cavity builds its points as rows of
    # one build, any other scan runs its points one by one; either way
    # each row is, bit for bit, the run of that point's own config
    columns, rows = cli._execute(cfg, False)
    parameter = cfg["sweep"]["parameter"]
    point = {k: v for k, v in cfg.items() if k not in ("subtask", "sweep")}
    assert len(rows) == len(cfg["sweep"]["values"])
    for value, row in zip(cfg["sweep"]["values"], rows):
        alone, (one,) = cli._execute(
            dict(point, task=cfg["subtask"], **{parameter: value}), False)
        assert columns == [parameter, *alone]
        assert [x.hex() for x in row] == [float(value).hex(),
                                          *(x.hex() for x in one)]


@pytest.mark.parametrize("task, values", [
    ("pairwise", [1e-40, 0.1, 3.0000000000000004, 7.123456789, 1e40]),
    ("cavity", [1.5, 3.0000000000000004, 7.123456789, 123.456, 1e6]),
])
def test_scan_r_column_is_each_swept_separation(tmp_path, task, values):
    base = pairwise_config() if task == "pairwise" else cavity_config()
    cfg = dict(base, task="scan", subtask=task,
               sweep={"parameter": "separation", "values": values})
    out = tmp_path / "out.csv"
    assert run(write_config(tmp_path, cfg), str(out)) == 0
    header, rows = read_table(out)
    r = header.index("r")
    assert [row[r] for row in rows] == [row[0] for row in rows] == values


def test_bethe_at_the_largest_cutoff_is_finite(tmp_path):
    # W/omega overflows, ln((W + omega)/omega) does not
    cfg = {"task": "lamb", "atom": dict(ATOM), "cutoff": 1.7e308}
    out = tmp_path / "out.csv"
    assert run(write_config(tmp_path, cfg), str(out)) == 0
    _, ((bethe, _, _, _),) = read_table(out)
    omega, d2 = 0.5, 1.5 * 0.5 * 0.5
    log_ratio = math.log(1.7e308) - math.log(omega)
    c = 137.035999084
    assert bethe == pytest.approx(
        -2.0 / (3.0 * math.pi * c**3) * omega**2 * d2 * log_ratio,
        rel=1e-14)


def test_overflowing_bethe_is_named(tmp_path, capsys):
    cfg = {"task": "lamb",
           "atom": {"model": "transitions",
                    "transitions": [{"omega": 0.5, "d2": 1.7e308}]}}
    err = config_error(tmp_path, capsys, cfg)
    assert err.startswith("error: config: atom: the bethe shift overflows")


@pytest.mark.parametrize("units", [{"length": "eV"}, {"length": 5},
                                   {"length": ["nm"]},
                                   {"temperature": "bogus"}])
def test_bad_unit_tags_are_named(tmp_path, capsys, units):
    # the temperature tag is checked although no temperature is read
    cfg = dict(pairwise_config(), units=units)
    (entry,) = units
    assert f"units.{entry}" in config_error(tmp_path, capsys, cfg)


def test_nonpositive_separation_is_named(tmp_path, capsys):
    err = config_error(tmp_path, capsys, pairwise_config(separation=-2.0))
    assert "separation" in err
    err = config_error(tmp_path, capsys, cavity_config(separation=0.0))
    assert "separation" in err


def test_nonpositive_temperature_is_named(tmp_path, capsys):
    err = config_error(tmp_path, capsys, manybody_config(temperature=0.0))
    assert "temperature" in err
    cfg = {"task": "lamb", "atom": dict(ATOM), "temperature": -0.1}
    assert "temperature" in config_error(tmp_path, capsys, cfg)


def test_nonpositive_mode_omega_is_named(tmp_path, capsys):
    cfg = cavity_config()
    cfg["mode"]["omega"] = 0.0
    assert "mode.omega" in config_error(tmp_path, capsys, cfg)


def test_non_unit_polarization_is_named(tmp_path, capsys):
    cfg = cavity_config()
    cfg["mode"]["polarization"] = [1, 1, 0]
    assert "mode.polarization" in config_error(tmp_path, capsys, cfg)


def test_amplitude_count_is_named(tmp_path, capsys):
    cfg = cavity_config()
    cfg["mode"]["amplitudes"] = [0.03]
    assert "mode.amplitudes" in config_error(tmp_path, capsys, cfg)


def test_coincident_cavity_atoms_name_both(tmp_path, capsys):
    cfg = cavity_config()
    del cfg["separation"]
    for atom in cfg["atoms"]:
        atom["position"] = [0.0, 1.0, 2.0]
    err = config_error(tmp_path, capsys, cfg)
    assert "atoms[0]" in err and "atoms[1]" in err


@pytest.mark.parametrize("task", ["manybody", "cavity"])
@pytest.mark.parametrize("offset", [1e-160, 1e-50])
def test_placed_atoms_closer_than_the_range_are_named(tmp_path, capsys, task,
                                                      offset):
    # the systems read their distances once built; the square of the
    # first distance is subnormal
    cfg = manybody_config() if task == "manybody" else cavity_config()
    cfg.pop("separation", None)
    for k, atom in enumerate(cfg["atoms"]):
        atom["position"] = [k * offset, k * 0.3 * offset, 0.0]
    err = config_error(tmp_path, capsys, cfg)
    assert "atoms[0] and atoms[1] are closer than 1e-40 bohr" in err


def test_quadrature_method_is_an_unknown_key(tmp_path, capsys):
    cfg = pairwise_config()
    cfg["quadrature"] = {"method": "tanh_sinh"}
    assert "method" in config_error(tmp_path, capsys, cfg)


def test_quadrature_abs_tol_is_an_unknown_key(tmp_path, capsys):
    cfg = pairwise_config()
    cfg["quadrature"] = {"rel_tol": 1e-9, "abs_tol": 1e-14}
    assert "abs_tol" in config_error(tmp_path, capsys, cfg)


@pytest.mark.parametrize("quadrature", [
    {"rel_tol": "nonsense", "max_evals": -5}, [1, 2], {"rel_tol": 1e-9}])
def test_cavity_takes_no_quadrature(tmp_path, capsys, quadrature):
    # the cavity integrates nothing, so any quadrature is a stray key
    expected = ("error: config: unknown config keys for task 'cavity': "
                "['quadrature']\n")
    cfg = cavity_config(quadrature=quadrature)
    assert config_error(tmp_path, capsys, cfg) == expected
    scan = dict(cfg, task="scan", subtask="cavity",
                sweep={"parameter": "separation", "values": [8.0, 10.0]})
    assert config_error(tmp_path, capsys, scan) == expected


def test_lamb_takes_no_quadrature(tmp_path, capsys):
    # every lamb column is a closed form, so a quadrature is a stray key
    expected = ("error: config: unknown config keys for task 'lamb': "
                "['quadrature']\n")
    cfg = {"task": "lamb", "atom": dict(ATOM), "temperature": 0.02,
           "quadrature": {"rel_tol": 1e-9}}
    assert config_error(tmp_path, capsys, cfg) == expected
    scan = dict(cfg, task="scan", subtask="lamb",
                sweep={"parameter": "temperature", "values": [0.02, 0.2]})
    assert config_error(tmp_path, capsys, scan) == expected


def test_scan_hands_quadrature_to_its_subtask(tmp_path, capsys):
    cfg = {"task": "scan", "subtask": "pairwise",
           "atoms": [dict(ATOM), dict(ATOM)], "separation": 3.0,
           "quadrature": {"max_evals": 1000.5},
           "sweep": {"parameter": "separation", "values": [3.0, 4.0]}}
    assert "quadrature.max_evals" in config_error(tmp_path, capsys, cfg)
    cfg["quadrature"] = {"max_evals": 1000}
    assert run(write_config(tmp_path, cfg), str(tmp_path / "out.csv")) == 0


def test_unconverged_cavity_names_its_error_type(tmp_path, capsys):
    cfg = cavity_config()
    cfg["mode"]["amplitudes"] = [160.0, 160.0]
    assert run(write_config(tmp_path, cfg), str(tmp_path / "out.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error [fluctem.cavity.PhotonCutoffError]: ground energy not "
        "converged in photon number: cutoff 100 vs 104 differ by ")


def test_cavity_mode_outside_validity_is_named_before_any_build(
        tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a Hamiltonian was built")

    monkeypatch.setattr("fluctem.cavity._hamiltonian", refuse)
    cfg = cavity_config()
    cfg["mode"]["omega"] = 5.0  # under 10x the atomic 1.1
    assert "mode.omega" in config_error(tmp_path, capsys, cfg)


def test_far_pair_at_low_temperature_runs_clean_under_strict(tmp_path,
                                                            capsys):
    # frequencies past ~1e154 once overflowed (xi/c)^2 into NaN blocks
    atom = {"model": "single_resonance", "alpha_static": 2.0, "omega": 0.6}
    cfg = {"task": "manybody", "temperature": 1e-3,
           "atoms": [dict(atom, position=[0, 0, 0]),
                     dict(atom, position=[0, 0, 3000.0])]}
    path = write_config(tmp_path, cfg)
    assert run(path, str(tmp_path / "out.csv"), strict=True) == 0
    assert capsys.readouterr().err == ""


def test_integer_keys_reject_fractions(tmp_path, capsys):
    cfg = pairwise_config()
    cfg["quadrature"] = {"max_evals": 1000.5}
    assert run(write_config(tmp_path, cfg, "q.json")) == 1
    err = capsys.readouterr().err
    assert "error: config:" in err and "quadrature.max_evals" in err
    # an integral value written as a float is still an integer
    cfg["quadrature"] = {"max_evals": 1000.0}
    path = write_config(tmp_path, cfg, "i.json")
    assert run(path, str(tmp_path / "b.csv")) == 0


def test_photon_cutoff_below_four_is_named(tmp_path, capsys):
    for cutoff in (3, -2):
        path = write_config(tmp_path, cavity_config(photon_cutoff=cutoff))
        assert run(path, str(tmp_path / "a.csv")) == 1
        err = capsys.readouterr().err
        assert "error: config:" in err and "photon_cutoff" in err


def test_huge_photon_cutoff_is_named_before_any_build(tmp_path, capsys,
                                                       monkeypatch):
    def refuse(*args):
        raise AssertionError("a Hamiltonian was built")

    monkeypatch.setattr("fluctem.cavity._hamiltonian", refuse)
    path = write_config(tmp_path, cavity_config(photon_cutoff=10**9))
    tracemalloc.start()
    try:
        assert run(path, str(tmp_path / "a.csv")) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert "error: config:" in err and "photon_cutoff" in err
    assert peak < 1 << 20


def test_photon_cutoff_is_an_unknown_key(tmp_path, capsys):
    # the cavity oracle finds its own cutoff, so once-valid values are
    # rejected too
    for cutoff in (12, 12.7):
        cfg = cavity_config(photon_cutoff=cutoff)
        assert config_error(tmp_path, capsys, cfg) == (
            "error: config: unknown config keys for task 'cavity': "
            "['photon_cutoff']\n")


def test_scan_london_slope(tmp_path):
    cfg = {"task": "scan", "subtask": "pairwise",
           "atoms": [dict(ATOM), dict(ATOM)], "separation": 1.0,
           "sweep": {"parameter": "separation",
                     "values": [1.0, 1.5, 2.0, 3.0, 4.0]}}
    out = tmp_path / "out.csv"
    assert run(write_config(tmp_path, cfg), str(out), fit_slope=True) == 0
    header, data = read_table(out)
    assert header[0] == "separation" and header[-1] == "loglog_slope"
    assert len(data) == 5
    assert data[0][-1] == pytest.approx(-6.0, abs=0.05)


def test_scan_retarded_slope(tmp_path):
    atom = {"model": "single_resonance", "alpha_static": 4.0, "omega": 2.0}
    cfg = {"task": "scan", "subtask": "pairwise",
           "atoms": [atom, dict(atom)], "separation": 1.0,
           "sweep": {"parameter": "separation",
                     "values": [1e4, 1.6e4, 2.5e4, 4e4]}}
    out = tmp_path / "out.csv"
    assert run(write_config(tmp_path, cfg), str(out), fit_slope=True) == 0
    _, data = read_table(out)
    assert data[0][-1] == pytest.approx(-7.0, abs=0.1)


def test_shipped_cavity_example_slope(tmp_path):
    out = tmp_path / "out.csv"
    assert run(str(CONFIG_DIR / "cavity.json"), str(out),
               fit_slope=True) == 0
    header, data = read_table(out)
    assert data[0][header.index("loglog_slope")] \
        == pytest.approx(-3.0, abs=0.05)


def test_shipped_examples_all_run(tmp_path):
    for name in ("pairwise.json", "manybody.json", "cavity.json"):
        out = tmp_path / (name + ".csv")
        assert run(str(CONFIG_DIR / name), str(out)) == 0, name


def test_sweep_rejects_non_numeric_target(tmp_path, capsys):
    cfg = {"task": "scan", "subtask": "pairwise",
           "atoms": [dict(ATOM), dict(ATOM)], "separation": 1.0,
           "sweep": {"parameter": "atoms.0.model", "values": [1.0]}}
    assert run(write_config(tmp_path, cfg)) == 1
    assert "numeric" in capsys.readouterr().err
    cfg["sweep"]["parameter"] = "no.such.key"
    assert run(write_config(tmp_path, cfg, "c2.json")) == 1
    assert "not found" in capsys.readouterr().err


def test_fit_slope_outside_scan_is_an_error(tmp_path, capsys):
    cfg = write_config(tmp_path, pairwise_config())
    assert run(cfg, fit_slope=True) == 1
    assert "scan" in capsys.readouterr().err


def test_json_format_round_trip(tmp_path):
    cfg = write_config(tmp_path, pairwise_config())
    csv_out = tmp_path / "out.csv"
    json_out = tmp_path / "out.json"
    assert run(cfg, str(csv_out)) == 0
    assert run(cfg, str(json_out), output_format="json") == 0
    document = json.loads(json_out.read_text())
    header, data = read_table(csv_out)
    assert document["columns"] == header
    assert document["version"]
    assert len(document["config_hash"]) == 64
    assert document["rows"][0] == pytest.approx(data[0], rel=1e-15)


def test_unfitted_slope_is_nan_in_csv_and_null_in_json(tmp_path):
    # one scan point leaves no line to fit
    cfg = write_config(tmp_path, {
        "task": "scan", "subtask": "pairwise",
        "atoms": [dict(ATOM), dict(ATOM)], "separation": 1.0,
        "sweep": {"parameter": "separation", "values": [2.0]}})
    csv_out = tmp_path / "out.csv"
    json_out = tmp_path / "out.json"
    assert run(cfg, str(csv_out), fit_slope=True) == 0
    assert run(cfg, str(json_out), output_format="json", fit_slope=True) == 0
    assert csv_out.read_bytes().endswith(b",nan\r\n")

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    document = json.loads(json_out.read_text(), parse_constant=refuse)
    (row,) = document["rows"]
    assert document["columns"][-1] == "loglog_slope"
    assert row[-1] is None
    header, (data,) = read_table(csv_out)
    assert row[:-1] == data[:-1]


def test_lamb_task_columns(tmp_path):
    cfg = {"task": "lamb",
           "atom": {"model": "transitions",
                    "transitions": [{"omega": 0.375, "d2": 1.0}]},
           "temperature": 0.02,
           "medium": {"number_density": 1e-5,
                      "host": {"model": "single_resonance",
                               "alpha_static": 2.0, "omega": 2.0}}}
    out = tmp_path / "out.csv"
    assert run(write_config(tmp_path, cfg), str(out)) == 0
    header, (row,) = read_table(out)
    assert header == ["bethe", "thermal", "dielectric", "err"]
    assert row[0] < 0
    assert row[1] != 0.0 and row[2] != 0.0
    assert row[3] > 0


def test_lamb_err_is_the_thermal_error_alone(tmp_path):
    # the closed-form dielectric column carries no error, as E_london in
    # pairwise: err is the thermal shift's estimate, or 0 without it
    atom = {"model": "transitions",
            "transitions": [{"omega": 0.375, "d2": 1.0}]}
    medium = {"number_density": 1e-5,
              "host": {"model": "single_resonance",
                       "alpha_static": 2.0, "omega": 2.0}}
    thermal = thermal_shift(KramersHeisenberg((Transition(0.375, 1.0),)),
                            0.02)
    cases = [({"temperature": 0.02, "medium": medium},
              thermal.error_estimate),
             ({"temperature": 0.02}, thermal.error_estimate),
             ({"medium": medium}, 0.0)]
    for k, (extra, expected) in enumerate(cases):
        cfg = write_config(tmp_path, {"task": "lamb", "atom": atom, **extra},
                           f"lamb{k}.json")
        out = tmp_path / f"lamb{k}.csv"
        assert run(cfg, str(out)) == 0
        header, (row,) = read_table(out)
        assert row[header.index("err")] == expected
        if "medium" in extra:
            assert row[header.index("dielectric")] != 0.0


def test_length_units_convert_at_boundary(tmp_path):
    bohr_cfg = write_config(tmp_path, pairwise_config(separation=2.0),
                            "bohr.json")
    nm = {"task": "pairwise", "units": {"length": "nm"},
          "atoms": [dict(ATOM), dict(ATOM)],
          "separation": 2.0 * 0.0529177210903}
    nm_cfg = write_config(tmp_path, nm, "nm.json")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(bohr_cfg, str(out_a)) == 0
    assert run(nm_cfg, str(out_b)) == 0
    _, (row_a,) = read_table(out_a)
    _, (row_b,) = read_table(out_b)
    assert row_b == pytest.approx(row_a, rel=1e-12)


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, pairwise_config())
    out = tmp_path / "out.csv"
    # the child imports the package under test, wherever pytest found it
    search = [str(Path(fluctem.__file__).parents[1]),
              os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "fluctem.cli", "run", "--config", cfg,
         "--output", str(out)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, search))))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert out.exists()


def test_importing_the_cli_leaves_argparse_out():
    # only main() parses a command line, so run() and importers of the
    # module do not pay for argparse
    search = [str(Path(fluctem.__file__).parents[1]),
              os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fluctem.cli; print('argparse' in sys.modules)"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, search))))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# --- the key table: unknown nested keys, sweep values, traffic, README, fuzz


@pytest.mark.parametrize("case, named", [
    # model objects, transition rows, medium, mode and cavity atoms
    (lambda: dict(pairwise_config(),
                  atoms=[dict(ATOM, omgea=0.4), dict(ATOM)]),
     "atoms[0].omgea"),
    (lambda: dict(pairwise_config(),
                  atoms=[dict(ATOM), {"model": "transitions", "transitions": [
                      {"omega": 0.5, "d2": 1.0, "d3": 2.0}]}]),
     "atoms[1].transitions[0].d3"),
    (lambda: {"task": "lamb", "atom": dict(ATOM),
              "medium": {"number_density": 1e-5, "host": dict(ATOM),
                         "densty": 1e-5}},
     "medium.densty"),
    (lambda: cavity_config(mode={"omega": 20.0, "omgea": 30.0,
                                 "polarization": [1, 0, 0],
                                 "amplitudes": [0.03, 0.04]}),
     "mode.omgea"),
    (lambda: cavity_config(atoms=[{"omega": 0.9, "dipole": [0.1, 0, 0],
                                   "dipol": [0.2, 0, 0]},
                                  {"omega": 1.1, "dipole": [0.1, 0, 0]}]),
     "atoms[0].dipol"),
    # a key of the other model kind
    (lambda: dict(pairwise_config(), atoms=[dict(ATOM, transitions=[
        {"omega": 0.5, "d2": 1.0}]), dict(ATOM)]),
     "atoms[0].transitions"),
    # a literal dotted key is not the nested key it spells
    (lambda: dict(pairwise_config(), **{"quadrature.rel_tol": 1e-12}),
     "quadrature.rel_tol"),
    (lambda: {"task": "lamb", "atom": dict(ATOM),
              "medium.number_density": 1e-3},
     "medium.number_density"),
    (lambda: {"task": "lamb", "atom": dict(ATOM),
              "medium": {"number_density": 1e-5, "host": dict(ATOM),
                         "host.omega": 2.0}},
     "medium.host.omega"),
], ids=["model", "transition_row", "medium", "mode", "cavity_atom",
        "model_kind", "flat_quadrature", "flat_medium", "flat_host"])
@pytest.mark.parametrize("scan", [False, True], ids=["run", "scan"])
def test_unknown_nested_keys_are_named(tmp_path, capsys, case, named, scan):
    cfg = case()
    if scan:
        cfg = dict(cfg, task="scan", subtask=cfg["task"],
                   sweep={"parameter": "atoms.0.omega" if "atoms" in cfg
                          else "atom.omega", "values": [0.9, 1.0]})
    err = config_error(tmp_path, capsys, cfg)
    assert "unknown" in err and named in err


def test_cavity_separation_and_positions_exclude_each_other(tmp_path, capsys):
    cfg = cavity_config(separation=5.0)
    cfg["atoms"][0]["position"] = [0.0, 0.0, 0.0]
    cfg["atoms"][1]["position"] = [0.0, 0.0, 99.0]
    err = config_error(tmp_path, capsys, cfg)
    assert "separation" in err and "atoms[0].position" in err


@pytest.mark.parametrize("values, named", [
    ([3.0, 4.0, 1e41], "sweep.values[2]: separation: atoms[0] and atoms[1]"),
    ([3.0, float("nan")], "sweep.values[1]: separation must be finite"),
    ([3.0, "far"], "sweep.values[1]: separation must be a number"),
])
def test_sweep_values_are_checked_before_any_point(tmp_path, capsys,
                                                   monkeypatch, values,
                                                   named):
    def refuse(*args):
        raise AssertionError("a point ran")

    # a pairwise separation scan runs its points through the row call
    monkeypatch.setattr("fluctem.cli.vdw_energy", refuse)
    monkeypatch.setattr("fluctem.cli.vdw_energies", refuse)
    cfg = dict(pairwise_config(), task="scan", subtask="pairwise",
               sweep={"parameter": "separation", "values": values})
    assert named in config_error(tmp_path, capsys, cfg)


@pytest.mark.parametrize("placeholder", [0, 1e41, None])
def test_scan_base_value_of_the_swept_key_is_a_placeholder(tmp_path,
                                                           placeholder):
    cfg = dict(pairwise_config(separation=placeholder), task="scan",
               subtask="pairwise",
               sweep={"parameter": "separation", "values": [3.0, 4.0]})
    out = tmp_path / "out.csv"
    assert run(write_config(tmp_path, cfg), str(out)) == 0
    _, rows = read_table(out)
    assert [row[0] for row in rows] == [3.0, 4.0]


@pytest.mark.parametrize("parameter", [
    "atoms.\u00b2.omega", "separation.0", "atoms.0.model.0"])
def test_sweep_parameters_off_the_config_are_not_found(tmp_path, capsys,
                                                       parameter):
    cfg = dict(pairwise_config(), task="scan", subtask="pairwise",
               sweep={"parameter": parameter, "values": [3.0]})
    assert "not found" in config_error(tmp_path, capsys, cfg)


def test_sweep_point_errors_name_their_value(tmp_path, capsys):
    # a range that only the point's geometry can check
    cfg = dict(manybody_config(), task="scan", subtask="manybody",
               sweep={"parameter": "atoms.1.position.2",
                      "values": [4.0, 0.0]})
    err = config_error(tmp_path, capsys, cfg)
    assert "sweep.values[1]: atoms[0] and atoms[1] coincide" in err


def numeric_leaves(node, path=()):
    """The paths (tuples of keys and indices) of every number in node."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from numeric_leaves(value, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def key_name(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                   for p in path)[1:]


def table_entry(cfg, path):
    """The key name of the leaf at path, and its entry in the key table."""
    task = cfg.get("subtask", cfg["task"])
    if path[:2] == ("sweep", "values"):
        swept = re.sub(r"\.(\d+)", r"[\1]", cfg["sweep"]["parameter"])
        pattern = re.sub(r"\[\d+\]", "[]", swept)
    else:
        pattern = re.sub(r"\[\d+\]", "[]", key_name(path))
    return key_name(path), cli._KEYS[task][pattern]


def test_every_number_the_configs_and_the_benchmark_feed_is_in_range():
    # read-only, as test_tracer_patch_points_resolve loads tracer.py
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = [json.loads(path.read_text())
               for path in sorted(CONFIG_DIR.glob("*.json"))]
    configs += [cfg for generate in workloads.GENERATORS.values()
                for seed in range(101, 106) for _, cfg in generate(seed)]
    leaves = 0
    for cfg in configs:
        scales = cli._scales(cfg.get("units", {}))
        for path in numeric_leaves(cfg):
            name, entry = table_entry(cfg, path)
            value = cfg
            for part in path:
                value = value[part]
            cli._check(value, entry, name, scales)
            leaves += 1
    assert leaves > 4000


def range_text(x):
    return {cli._MAX: "max", -cli._MAX: "-max"}.get(x, cli._text(x))


def test_readme_lists_every_key_with_its_range():
    rows = [line for line in (REPO / "README.md").read_text().splitlines()
            if line.startswith("| `")]
    for task, keys in cli._KEYS.items():
        for key, entry in keys.items():
            cells = [f"`{key}`", task]
            if isinstance(entry, cli._Key):
                cells += [entry.dimension, f"{range_text(entry.lo)} … "
                          f"{range_text(entry.hi)}"]
            assert any(all(cell in row for cell in cells) for row in rows), \
                f"{task}: {key}"


# one valid config per task and a scan; the fuzz sets one numeric leaf at
# a time to a value drawn from its table entry
FUZZ_BASES = {
    "pairwise": dict(pairwise_config(), quadrature={
        "rel_tol": 1e-9, "max_evals": 10**6}, atoms=[dict(ATOM), {
            "model": "transitions", "transitions": [
                {"omega": 0.4, "d2": 1.0}, {"omega": 0.9, "d2": 0.5}]}]),
    "manybody": manybody_config(temperature=0.05, quadrature={
        "rel_tol": 1e-9, "max_evals": 10**6}),
    "lamb": {"task": "lamb", "temperature": 0.02, "cutoff": 100.0,
             "atom": {"model": "transitions",
                      "transitions": [{"omega": 0.375, "d2": 1.0}]},
             "medium": {"number_density": 1e-5,
                        "host": dict(ATOM, alpha_static=2.0, omega=2.0)}},
    "cavity": cavity_config(),
    "scan": dict(pairwise_config(), task="scan", subtask="pairwise",
                 sweep={"parameter": "separation", "values": [3.0, 4.0]}),
}
FUZZ_LEAVES = [(task, path) for task, cfg in FUZZ_BASES.items()
               for path in numeric_leaves(cfg)]
# the values of the config census that found the untyped errors
CENSUS = [0.0, -1.0, 5e-324, 1e-300, 1e-150, 1e150, 1e300, 1.7e308]


def fuzz_case(task, path, value):
    cfg = copy.deepcopy(FUZZ_BASES[task])
    node = cfg
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    return cfg, table_entry(cfg, path)[0]


def edges(entry):
    """Each bound and the doubles just past it."""
    return [entry.lo, entry.hi, math.nextafter(entry.lo, -math.inf),
            math.nextafter(entry.hi, math.inf)]


@st.composite
def fuzz_cases(draw):
    """A leaf, and a value inside its range or from the census."""
    task, path = draw(st.sampled_from(FUZZ_LEAVES))
    entry = table_entry(FUZZ_BASES[task], path)[1]
    lo, hi = entry.lo, entry.hi
    inside = st.floats(lo, hi)
    if entry.dimension == "count":
        inside = st.integers(int(lo), 10**9).map(float)
    elif lo > 0:
        inside |= st.floats(math.log10(lo), math.log10(hi)).map(
            lambda e: min(max(10.0**e, lo), hi))
    return fuzz_case(task, path, draw(inside | st.sampled_from(CENSUS)))


def on_every_edge(test):
    for task, path in FUZZ_LEAVES:
        for value in edges(table_entry(FUZZ_BASES[task], path)[1]):
            test = example(case=fuzz_case(task, path, value))(test)
    return test


@on_every_edge
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(case=fuzz_cases())
def test_config_fuzz_runs_clean_or_names_its_key(case):
    cfg, name = case
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out.csv"
        config.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(str(config), str(out))
        if code == 0:
            _, rows = read_table(out)
            assert all(map(math.isfinite, sum(rows, []))), cfg
            return
    message = err.getvalue().splitlines()[-1]
    # the key itself, or an object that holds it
    names = [name] + [name[:m.start()] for m in re.finditer(r"\.", name)]
    typed = ("[fluctem.manybody.StrongCouplingError]",
             "[fluctem.cavity.PhotonCutoffError]")
    spent = name == "quadrature.max_evals" \
        and "[fluctem.quadrature.QuadratureError]" in message \
        and "evaluations exhausted" in message
    assert code == 1 and (
        message.startswith("error: config:")
        and any(n in message for n in names)
        or any(t in message for t in typed) or spent), (name, message)


@st.composite
def edge_pairs(draw):
    """Two numeric leaves of one task, each at a bound or the double just
    past it, and the names of both keys."""
    task = draw(st.sampled_from(sorted(FUZZ_BASES)))
    leaves = [path for t, path in FUZZ_LEAVES if t == task]
    cfg = copy.deepcopy(FUZZ_BASES[task])
    names = []
    for path in draw(st.lists(st.sampled_from(leaves), min_size=2,
                              max_size=2, unique=True)):
        name, entry = table_entry(cfg, path)
        node = cfg
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = draw(st.sampled_from(edges(entry)))
        names.append(name)
    return cfg, names


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=edge_pairs())
def test_config_fuzz_of_two_keys_at_their_ends_names_either(case):
    # the assertion of the one-key fuzz, which passes when it holds with
    # the name of either key
    cfg, names = case
    one_key = test_config_fuzz_runs_clean_or_names_its_key.hypothesis \
        .inner_test
    try:
        one_key(case=(cfg, names[0]))
    except AssertionError:
        one_key(case=(cfg, names[1]))

def other_paths(node, path=()):
    """The paths of every object, list, string, flag and null in node."""
    if path:
        yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            yield from other_paths(value, path + (key,))


@pytest.mark.parametrize("task", sorted(FUZZ_BASES))
def test_odd_values_of_every_other_key_are_named(tmp_path, capsys, task):
    # each key that holds no number, and each object and list, set in turn
    # to a value of every other JSON type
    base = dict(FUZZ_BASES[task], description="base", units={
        "length": "bohr", "energy": "hartree",
        "temperature": "hartree_temperature"})
    if task == "manybody":
        base["nonretarded"] = False
    out = tmp_path / "out.csv"
    for path in other_paths(base):
        for value in [[], {}, "x", None, True]:
            cfg = copy.deepcopy(base)
            node = cfg
            for part in path[:-1]:
                node = node[part]
            node[path[-1]] = value
            name = key_name(path)
            code = run(write_config(tmp_path, cfg), str(out))
            message = capsys.readouterr().err.strip()
            if code == 0:
                assert all(map(math.isfinite, sum(read_table(out)[1], [])))
                continue
            names = [name] + [name[:m.start()]
                              for m in re.finditer(r"[.[]", name)]
            assert code == 1 and message.startswith("error: config:") \
                and any(n in message for n in names), (name, value, message)
