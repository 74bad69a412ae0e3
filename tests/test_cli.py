import os
import subprocess
import sys

import numpy as np
import pytest

import relucert
from relucert.cli import main
from relucert.network import (INPUT, OUTPUT, RELU, Network, Neuron, generate_random_network,
                              load_network, save_network)
from relucert.propagation import compute_all_bounds
from relucert.verifier import (METHODS, RobustnessInstance, build_input_box, generate_instances,
                               load_instances, save_instances, verify)

from oracles import implied_by_boxes, substitution_by_neuron


def test_gen_then_verify_round_trip(tmp_path, capsys):
    net_path = tmp_path / "net.txt"
    inst_path = tmp_path / "inst.txt"
    rc = main(["gen", "--layers", "3,6,2", "--seed", "3", "--count", "5",
               "--epsilon", "0.05",
               "--network-out", str(net_path),
               "--instances-out", str(inst_path)])
    assert rc == 0
    net = load_network(net_path)
    assert net.input_dim == 3 and net.n_outputs == 2
    assert len(load_instances(inst_path)) == 5

    report = tmp_path / "report.txt"
    rc = main(["verify", "--network", str(net_path), "--instances", str(inst_path),
               "--method", "deeppoly", "--deterministic",
               "--report", str(report)])
    assert rc == 0
    lines = report.read_text().splitlines()
    assert lines[-1].startswith("summary method=deeppoly")
    assert "time_total_ms=0.000" in lines[0] or "verdict=skipped" in lines[0]


def test_deterministic_reports_are_byte_identical(tmp_path):
    net_path = tmp_path / "net.txt"
    inst_path = tmp_path / "inst.txt"
    main(["gen", "--layers", "3,6,2", "--seed", "4", "--count", "4",
          "--epsilon", "0.04", "--network-out", str(net_path),
          "--instances-out", str(inst_path)])
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    for rp in (r1, r2):
        rc = main(["verify", "--network", str(net_path), "--instances",
                   str(inst_path), "--method", "fastc2v", "--seed", "11",
                   "--deterministic", "--report", str(rp)])
        assert rc == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_lp_reports_are_byte_identical_across_blas_threads(tmp_path):
    # lp and optc2v on a 20,100,10 net, whose tableaux are wide enough for
    # OpenBLAS to use a second thread, one process per thread count
    net_path, inst_path = tmp_path / "net.txt", tmp_path / "inst.txt"
    main(["gen", "--layers", "20,100,10", "--seed", "3", "--count", "4", "--epsilon", "0.07",
          "--network-out", str(net_path), "--instances-out", str(inst_path)])
    run = ("import sys; from relucert.cli import main\n"
           "for method in ('lp', 'optc2v'):\n"
           "    main(['verify', '--network', sys.argv[1], '--instances', sys.argv[2], '--method',\n"
           "          method, '--deterministic', '--report', sys.argv[3] + method])\n")
    src = os.path.dirname(os.path.dirname(relucert.__file__))
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"blas{threads}-"
        subprocess.run([sys.executable, "-c", run, str(net_path), str(inst_path), str(out)],
                       env=env, check=True, capture_output=True)
        reports.append([(tmp_path / f"blas{threads}-{m}").read_bytes() for m in ("lp", "optc2v")])
    assert reports[0] == reports[1]
    assert all(b"verdict=" in r for r in reports[0])


def test_epsilon_override_and_attack_off(tmp_path):
    net_path = tmp_path / "net.txt"
    inst_path = tmp_path / "inst.txt"
    main(["gen", "--layers", "2,4,2", "--seed", "5", "--count", "3",
          "--epsilon", "0.5", "--network-out", str(net_path),
          "--instances-out", str(inst_path)])
    report = tmp_path / "report.txt"
    rc = main(["verify", "--network", str(net_path), "--instances", str(inst_path),
               "--method", "interval", "--epsilon", "0.001", "--attack", "off",
               "--deterministic", "--report", str(report)])
    assert rc == 0
    text = report.read_text()
    assert "epsilon=0.001" in text
    assert "falsified=0" in text.splitlines()[-1]


def test_unknown_verdicts_still_exit_zero(tmp_path):
    net_path = tmp_path / "net.txt"
    inst_path = tmp_path / "inst.txt"
    main(["gen", "--layers", "4,12,12,3", "--seed", "1", "--count", "6",
          "--epsilon", "0.2", "--network-out", str(net_path),
          "--instances-out", str(inst_path)])
    rc = main(["verify", "--network", str(net_path), "--instances", str(inst_path),
               "--method", "interval", "--attack", "off", "--deterministic",
               "--report", str(tmp_path / "r.txt")])
    assert rc == 0


def test_missing_file_is_config_error(tmp_path):
    rc = main(["verify", "--network", str(tmp_path / "nope.txt"),
               "--instances", str(tmp_path / "nope2.txt"),
               "--method", "interval"])
    assert rc == 2


@pytest.mark.parametrize("text, where", [
    # a neuron's structural error names its line, a network-wide one the header's
    ("m=1 outputs=3\n1 input 0\n2 relu 0 w:(3,1.0)\n3 output 0 w:(2,1)\n",
     ":3: neuron 2: weight references non-earlier neuron 3"),
    ("# comment\nm=2 outputs=3\n1 input 0\n", ":2: neuron 0: fewer than m=2 neurons"),
    ("m=1 outputs=3,3\n1 input 0\n2 relu 0.5 w:(1,1)\n3 output 0 w:(2,1)\n",
     ":1: neuron 0: output_indices do not match"),
])
def test_structural_error_names_its_line(tmp_path, capsys, text, where):
    net_path = tmp_path / "bad.txt"
    net_path.write_text(text)
    rc = main(["verify", "--network", str(net_path), "--instances", str(tmp_path / "i.txt"),
               "--method", "interval"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {net_path}{where}")


def test_dump_lp_writes_models(tmp_path):
    net_path = tmp_path / "net.txt"
    inst_path = tmp_path / "inst.txt"
    main(["gen", "--layers", "2,3,2", "--seed", "2", "--count", "2",
          "--epsilon", "0.05", "--network-out", str(net_path),
          "--instances-out", str(inst_path)])
    dump = tmp_path / "lps"
    rc = main(["verify", "--network", str(net_path), "--instances", str(inst_path),
               "--method", "lp", "--deterministic", "--dump-lp", str(dump),
               "--report", str(tmp_path / "r.txt")])
    assert rc == 0
    files = sorted(dump.glob("*.lp"))
    assert files and files[0].read_text().startswith("Maximize")


def test_dump_lp_is_the_presolved_model(tmp_path):
    # the dump's variables are the inputs and the mixed neurons of the
    # method's sweep, and an always-active neuron's box is one ranged row,
    # written as its two halves, unless the variable boxes imply that row
    net_path, inst_path = tmp_path / "net.txt", tmp_path / "inst.txt"
    main(["gen", "--layers", "4,12,3", "--seed", "4", "--count", "1", "--epsilon", "0.1",
          "--network-out", str(net_path), "--instances-out", str(inst_path)])
    net, inst = load_network(net_path), load_instances(inst_path)[0]
    rc = main(["verify", "--network", str(net_path), "--instances", str(inst_path),
               "--method", "lp", "--deterministic", "--dump-lp", str(tmp_path / "lps"),
               "--report", str(tmp_path / "r.txt")])
    assert rc == 0
    st = compute_all_bounds(net, build_input_box(inst), "lp")
    lo, hi = st.pre_lower, st.pre_upper
    mixed = [p for p in range(net.input_dim, net.n_state) if lo[p] < 0.0 < hi[p]]
    active = [p for p in range(net.input_dim, net.n_state) if lo[p] >= 0.0]
    assert mixed and active
    keep, _, _, pre, pre0 = substitution_by_neuron(st, net.n_state)
    ranged = [p for p in active
              if not implied_by_boxes(pre[p], lo[p] - pre0[p], hi[p] - pre0[p],
                                      st.post_lower[keep], st.post_upper[keep])]
    text = next((tmp_path / "lps").glob("*.lp")).read_text()
    names = [line.split()[2] for line in text.split("Bounds\n")[1].splitlines()[:-1]]
    assert names == [f"z{p}" for p in [*range(net.input_dim), *mixed]]
    assert text.count("_lo: ") == text.count("_hi: ") == len(ranged)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflows
def test_dump_lp_skips_an_instance_whose_lp_overflows(tmp_path, capsys):
    # h5 and h6 read h3 and h4 with weights of +-1e200: the LP sweep
    # overflows, so that instance (its centre labelled 1) gets no dump and
    # verify falls back
    s = 1e200
    net = Network(2, [Neuron(1, INPUT, (), 0.0), Neuron(2, INPUT, (), 0.0),
                      Neuron(3, RELU, ((1, s), (2, -s)), 0.0),
                      Neuron(4, RELU, ((1, -s), (2, s)), 0.0),
                      Neuron(5, RELU, ((3, s), (4, s)), -1.0),
                      Neuron(6, RELU, ((3, -s), (4, s)), 0.5),
                      Neuron(7, OUTPUT, ((5, 1.0), (6, -1.0)), 0.0),
                      Neuron(8, OUTPUT, ((5, -1.0), (6, 1.0)), 0.1)], [7, 8])
    save_network(net, tmp_path / "net.txt")
    save_instances(tmp_path / "inst.txt", [RobustnessInstance(np.array([0.5, 0.5]), 0.1, 1)])
    rc = main(["verify", "--network", str(tmp_path / "net.txt"), "--instances",
               str(tmp_path / "inst.txt"), "--method", "lp", "--attack", "off",
               "--deterministic", "--dump-lp", str(tmp_path / "lps")])
    assert rc == 0
    out, err = capsys.readouterr()
    assert err.startswith("instance=0 no LP dump: FloatingPointError: ")
    assert "fallback=FloatingPointError: " in out
    assert not list((tmp_path / "lps").iterdir())


def test_unfit_lines_are_named_and_the_rest_verified(tmp_path, capsys):
    net_path = tmp_path / "net.txt"
    inst_path = tmp_path / "inst.txt"
    main(["gen", "--layers", "3,6,2", "--seed", "3", "--count", "3",
          "--epsilon", "0.05", "--network-out", str(net_path),
          "--instances-out", str(inst_path)])
    good = inst_path.read_text().splitlines()
    inst_path.write_text("\n".join([good[0], "label=0 epsilon=0.05 x=0.1,0.2", good[1],
                                    "label=0 epsilon=oops x=0.1,0.2,0.3", good[2]]) + "\n")
    capsys.readouterr()
    rc = main(["verify", "--network", str(net_path), "--instances", str(inst_path),
               "--method", "lp", "--deterministic", "--dump-lp", str(tmp_path / "lps")])
    assert rc == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[1] == "instance=1 verdict=skipped"
    assert lines[3] == "instance=3 verdict=skipped"
    for i in (0, 2, 4):
        assert lines[i].startswith(f"instance={i} method=lp verdict=")
    errors = [l for l in err.splitlines() if not l.startswith("summary ")]
    assert len(errors) == 2
    assert errors[0].startswith("instance=1 skipped: ") and "dimension 2" in errors[0]
    assert errors[1].startswith("instance=3 skipped: ") and f"{inst_path}:4:" in errors[1]
    assert "skipped=0" in err.splitlines()[-1]


@pytest.mark.parametrize("flag", ["--iterations", "--cut-rounds"])
def test_negative_rounds_rejected_at_parse_time(tmp_path, capsys, flag):
    # rejected before any file is read, whatever the method, naming the flag
    for method in ("fastc2v", "optc2v", "interval"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--network", str(tmp_path / "none.txt"),
                  "--instances", str(tmp_path / "none.txt"), "--method", method, flag, "-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >= 0, got -3" in err
    net = generate_random_network([3, 4, 2], seed=1)
    inst = generate_instances(net, 1, epsilon=0.05, seed=2)[0]
    option = {"--iterations": "iterations", "--cut-rounds": "cut_rounds"}[flag]
    for method in METHODS:
        with pytest.raises(ValueError, match=f"{option} must be >= 0"):
            verify(net, inst, method=method, attack=False, **{option: -1})


@pytest.mark.parametrize("cmd, flag, value, message", [
    ("gen", "--epsilon", "-0.1", "must be finite and >= 0, got -0.1"),
    ("gen", "--epsilon", "inf", "must be finite and >= 0, got inf"),
    ("gen", "--count", "-3", "must be >= 0, got -3"),
    ("gen", "--seed", "-1", "must be >= 0, got -1"),
    ("gen", "--weight-scale", "nan", "must be finite and >= 0, got nan"),
    ("gen", "--weight-scale", "inf", "must be finite and >= 0, got inf"),
    ("gen", "--weight-scale", "-0.5", "must be finite and >= 0, got -0.5"),
    ("verify", "--epsilon", "nan", "must be finite and >= 0, got nan"),
    ("verify", "--epsilon", "-1", "must be finite and >= 0, got -1"),
    ("verify", "--seed", "-1", "must be >= 0, got -1"),
])
def test_bad_gen_and_verify_arguments_rejected_at_parse_time(tmp_path, monkeypatch, capsys,
                                                             cmd, flag, value, message):
    # rejected before any file is written: gen would write its default
    # outputs here, and verify would run on the (empty) corpus and exit 0
    monkeypatch.chdir(tmp_path)
    main(["gen", "--layers", "3,4,2", "--count", "0", "--network-out", "net.txt",
          "--instances-out", "empty.txt"])
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = ["gen", "--layers", "3,4,2"] if cmd == "gen" else \
        ["verify", "--network", "net.txt", "--instances", "empty.txt", "--method", "lp"]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before == ["empty.txt", "net.txt"]


def test_verify_rejects_a_negative_seed_before_bounding(monkeypatch):
    # the attack's generator would reject it, but only after the bounds
    import relucert.verifier as verifier_module
    net = generate_random_network([3, 4, 2], seed=1)
    inst = generate_instances(net, 1, epsilon=0.05, seed=2)[0]
    bounded = []
    monkeypatch.setattr(verifier_module, "compute_all_bounds",
                        lambda *a, **k: bounded.append(a))
    for method in METHODS:
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            verify(net, inst, method=method, seed=-1)
    assert bounded == []


def test_weight_scale_too_wide_for_a_weight_range(tmp_path, monkeypatch, capsys):
    # 1e308 parses, but uniform(-s, s) spans 2 * s, which overflows: a
    # config error before any file is written, not a traceback
    with pytest.raises(ValueError, match="weight_scale"):
        generate_random_network([3, 4, 2], seed=0, weight_scale=1e308)
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--layers", "3,4,2", "--weight-scale", "1e308"]) == 2
    assert "error: weight_scale must be >= 0 with 2 * weight_scale finite" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", [m for m in METHODS if m not in ("lp", "optc2v")])
def test_dump_lp_needs_an_lp_method(tmp_path, monkeypatch, capsys, method):
    # only the LP methods have margin LPs to dump; any other method would
    # verify and write nothing, so the flag is rejected before any run
    monkeypatch.chdir(tmp_path)
    main(["gen", "--layers", "3,4,2", "--count", "2", "--network-out", "net.txt",
          "--instances-out", "inst.txt"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--network", "net.txt", "--instances", "inst.txt", "--method", method,
              "--dump-lp", "lps"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --dump-lp: needs --method lp or optc2v, got {method}" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.txt", "net.txt"]
