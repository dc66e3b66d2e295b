import json
import math
import re
from pathlib import Path

import pytest

from asymptotica.cli import EXIT_ACCEPT, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_summary(tmp_path, stem):
    return json.loads((tmp_path / f"{stem}_summary.json").read_text())


PENDULUM = {
    "base": "L T M",
    "quantities": {"t": "T", "s": "L", "l": "L", "m": "M", "g": "L T^-2"},
    "membership": {"pi_one": {"t": "2", "s": "-1", "g": "1"}},
    "accept": {"group_count": 2, "membership_all": True},
}


def test_pi_pendulum(tmp_path):
    cfg = write_config(tmp_path, "pendulum.json", PENDULUM)
    assert main(["pi", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    summary = read_summary(tmp_path, "pendulum")
    assert summary["result"]["group_count"] == 2
    assert summary["result"]["membership"]["pi_one"]["in_span"] is True
    assert summary["result"]["membership"]["pi_one"]["coefficients"] is not None


@pytest.mark.parametrize(
    "quantities,group",
    [
        # in dimsys.parse_quantity_set's text format these would read as a
        # second base line and as a name "a" with dimensions "b: L"
        ({"x": "L", "t": "T", "base": "L T"}, {"x": "1", "t": "1", "base": "-1"}),
        ({"a:b": "L", "c": "L"}, {"a:b": "1", "c": "-1"}),
    ],
)
def test_pi_inline_names_are_taken_verbatim(tmp_path, quantities, group):
    cfg = write_config(tmp_path, "inline.json", {"base": "L T", "quantities": quantities})
    assert main(["pi", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    result = read_summary(tmp_path, "inline")["result"]
    assert result["quantities"] == list(quantities)
    assert result["groups"] == [group]


def test_pi_inline_hash_in_dimensions_is_not_a_comment(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "hash.json", {"base": "L T", "quantities": {"v": "L # T^-1", "x": "L"}}
    )
    assert main(["pi", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown base symbol '#'" in capsys.readouterr().err


def test_ode_component_column_for_coupled_case(tmp_path):
    cfg = write_config(
        tmp_path, "coupled.json",
        {"case": "coupled_cubic", "eps": 0.1, "horizon_exponent": 1,
         "n_samples": 64},
    )
    assert main(["ode", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "coupled.csv").read_text().splitlines()
    assert rows[0] == "component,t,y_direct,y_multiscale,abs_error"
    components = {row.split(",")[0] for row in rows[1:]}
    assert components == {"0", "1"}


def test_pi_membership_failure_exit(tmp_path):
    bad = dict(PENDULUM)
    bad["membership"] = {"bare_mass": {"m": "1"}}
    bad["accept"] = {"membership_all": True}
    cfg = write_config(tmp_path, "bad.json", bad)
    assert main(["pi", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_ACCEPT


def test_roots_quadratic_golden(tmp_path):
    cfg = write_config(
        tmp_path,
        "quad.json",
        {
            "family": [[0, 1], [-1], [1]],
            "root": 1,
            "order": 4,
            "accept": {"coefficients": [1, -1, -1, -2, -5]},
        },
    )
    assert main(["roots", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    summary = read_summary(tmp_path, "quad")
    assert summary["result"]["coefficients"] == ["1", "-1", "-1", "-2", "-5"]


def test_roots_singular_rescale(tmp_path):
    cfg = write_config(
        tmp_path,
        "singular.json",
        {
            "family": [[-1], [1], [0, 1]],
            "root": -1,
            "order": 2,
            "rescale_exponent": "1",
            "accept": {"coefficients": [-1, -1, 1]},
        },
    )
    assert main(["roots", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK


def test_roots_float_mode_at_an_irrational_root(tmp_path, capsys):
    # x^2 + eps x - 2 from sqrt(2): x = sqrt(2) - eps/2 + (sqrt(2)/16) eps^2
    # - (sqrt(2)/512) eps^4 + ...; exact mode reads the float root as a
    # Fraction, which is not a root
    payload = {"family": [[-2], [0, 1], [1]], "root": math.sqrt(2), "order": 4, "mode": "float"}
    cfg = write_config(tmp_path, "sqrt2.json", payload)
    assert main(["roots", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    got = read_summary(tmp_path, "sqrt2")["result"]["coefficients"]
    want = [math.sqrt(2), -0.5, math.sqrt(2) / 16, 0.0, -math.sqrt(2) / 512]
    assert got == pytest.approx(want, rel=0, abs=1e-15)
    cfg = write_config(tmp_path, "sqrt2_exact.json", dict(payload, mode="exact"))
    assert main(["roots", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "not a root" in capsys.readouterr().err


def test_roots_float_mode_matches_the_exact_golden(tmp_path):
    shipped = json.loads((ROOT / "scripts" / "configs" / "quadratic_roots.json").read_text())
    payload = dict(shipped, mode="float", accept={"coefficients": [1.0, -1.0, -1.0, -2.0, -5.0]})
    cfg = write_config(tmp_path, "quad_float.json", payload)
    assert main(["roots", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    result = read_summary(tmp_path, "quad_float")["result"]
    assert result["coefficients"] == [1.0, -1.0, -1.0, -2.0, -5.0]
    assert all(type(c) is float for c in result["coefficients"])


def test_euler_bound(tmp_path):
    cfg = write_config(
        tmp_path,
        "euler.json",
        {
            "eps_values": [0.05, 0.1],
            "m_values": [0, 1, 2, 3, 4],
            "accept": {"bound_holds": True},
        },
    )
    assert main(["euler", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    summary = read_summary(tmp_path, "euler")
    assert summary["result"]["all_within_bound"] is True


def test_ode_damped_linear_table(tmp_path):
    cfg = write_config(
        tmp_path,
        "damped.json",
        {
            "case": "damped_linear",
            "eps": 0.01,
            "horizon": 400.0,
            "rtol": 1e-9,
            "atol": 1e-11,
            "n_samples": 2001,
            "include_naive": True,
            "accept": {"max_abs_error_le": 0.005},
        },
    )
    assert main(["ode", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "damped.csv").read_text().strip().splitlines()
    assert rows[0] == "t,y_direct,y_multiscale,abs_error"
    t, y_direct = zip(*[tuple(map(float, r.split(",")[:2])) for r in rows[1:]])
    assert t[-1] == 400.0
    assert y_direct[-1] == pytest.approx(-0.0722, abs=5e-4)
    assert (tmp_path / "damped_naive.csv").exists()


def test_ode_at_tolerances_near_one_runs(tmp_path):
    # the Taylor direct solve at rtol = atol = 1 is order 4 with its step
    # capped inside the series' radius; uncapped at order 2 it blew up at t = 7.8
    cfg = write_config(
        tmp_path,
        "loose.json",
        {"case": "cubic", "eps": 0.1, "horizon": 10.0, "rtol": 1.0, "atol": 1.0},
    )
    assert main(["ode", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    assert read_summary(tmp_path, "loose")["result"]["runs"][0]["max_abs_error"] <= 0.1


def test_ode_requires_one_horizon(tmp_path):
    cfg = write_config(tmp_path, "nohor.json", {"case": "cubic", "eps": 0.1})
    assert main(["ode", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_CONFIG


def test_blayer_csv_schema(tmp_path):
    cfg = write_config(
        tmp_path,
        "layer.json",
        {"kind": "linear", "eps": 0.1, "n_grid": 512,
         "accept": {"max_gap_le": 0.01, "half_width_le_eps_multiple": 5.0}},
    )
    assert main(["blayer", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    csv = next(tmp_path.glob("layer_eps*.csv")).read_text().splitlines()
    assert csv[0] == "x,y_multiscale,y_reference,abs_error"
    assert len(csv) == 514  # header + 513 grid rows


def test_pde_phase_match(tmp_path):
    cfg = write_config(
        tmp_path,
        "pm.json",
        {
            "task": "phase_match",
            "kind": "fourth_order",
            "harmonic": 3,
            "k_range": [0.1, 2.0],
            "accept": {"roots": [0.5773502691896258], "tol": 1e-10},
        },
    )
    assert main(["pde", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK


def test_pde_packet_snapshots(tmp_path):
    cfg = write_config(
        tmp_path,
        "packet.json",
        {
            "task": "packet_compare",
            "eps": 0.1,
            "k": 1.0,
            "checkpoints": [1.0, 2.0],
            "dt": 0.05,
            "rtol": 1e-8,
            "accept": {"l2_error_le": 0.05, "monotone_growth": True},
        },
    )
    assert main(["pde", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    csv = (tmp_path / "packet_t1.csv").read_text().splitlines()
    assert csv[0] == "x,u_direct,u_reconstructed,abs_error"
    summary = read_summary(tmp_path, "packet")
    assert len(summary["result"]["relative_l2_per_checkpoint"]) == 2


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, "weird.json", dict(PENDULUM, bogus=1))
    assert main(["pi", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_CONFIG


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["pi", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_CONFIG


def test_missing_file_rejected(tmp_path):
    assert main(["pi", "--config", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path)]) == EXIT_CONFIG


def test_solver_failure_exit(tmp_path):
    # the quadratic oscillator's amplitude fit folds at this eps / slope
    cfg = write_config(
        tmp_path,
        "fold.json",
        {"case": "quadratic_damped", "eps": 0.2, "horizon_exponent": 1},
    )
    assert main(["ode", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_SOLVER


def test_accept_failure_exit(tmp_path):
    cfg = write_config(
        tmp_path,
        "strict.json",
        {
            "case": "coupled_cubic",
            "eps": 0.1,
            "horizon_exponent": 2,
            "accept": {"max_abs_error_le": 1e-12},
        },
    )
    assert main(["ode", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_ACCEPT


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        "repeat.json",
        {"case": "cubic", "eps": 0.1, "horizon_exponent": 1},
    )
    assert main(["ode", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    first_csv = (tmp_path / "repeat.csv").read_bytes()
    first_json = (tmp_path / "repeat_summary.json").read_bytes()
    assert main(["ode", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "repeat.csv").read_bytes() == first_csv
    assert (tmp_path / "repeat_summary.json").read_bytes() == first_json


def test_summary_embeds_revalidating_config(tmp_path):
    cfg = write_config(tmp_path, "pendulum.json", PENDULUM)
    main(["pi", "--config", cfg, "--out-dir", str(tmp_path)])
    summary = read_summary(tmp_path, "pendulum")
    rerun = write_config(tmp_path, "pendulum2.json", summary["config"])
    assert main(["pi", "--config", rerun, "--out-dir", str(tmp_path)]) == EXIT_OK


def test_jobs_fan_out(tmp_path):
    cfg_a = write_config(
        tmp_path, "a.json", {"case": "cubic", "eps": 0.1, "horizon_exponent": 1}
    )
    cfg_b = write_config(
        tmp_path, "b.json", {"case": "damped_linear", "eps": 0.1, "horizon_exponent": 1}
    )
    rc = main(["ode", "--config", cfg_a, "--config", cfg_b, "--jobs", "2",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    assert (tmp_path / "a_summary.json").exists()
    assert (tmp_path / "b_summary.json").exists()


def test_seventeen_digit_floats(tmp_path):
    cfg = write_config(
        tmp_path, "digits.json", {"case": "cubic", "eps": 0.1, "horizon_exponent": 1}
    )
    main(["ode", "--config", cfg, "--out-dir", str(tmp_path)])
    row = (tmp_path / "digits.csv").read_text().splitlines()[5]
    for cell in row.split(","):
        assert float(cell) == float(format(float(cell), ".17g"))


def test_eps_sweep_with_seed(tmp_path):
    cfg = write_config(
        tmp_path,
        "sweep.json",
        {"case": "cubic", "eps": [0.1, 0.05], "horizon_exponent": 1, "seed": 3},
    )
    assert main(["ode", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    summary = read_summary(tmp_path, "sweep")
    assert [run["eps"] for run in summary["result"]["runs"]] == [0.1, 0.05]
    assert len(list(tmp_path.glob("sweep_eps*.csv"))) == 2


def test_seed_shuffles_the_member_order_alone(tmp_path, monkeypatch):
    # the seed reorders the members' runs, never what they write
    from asymptotica import msode

    compare, ran = msode.compare, []

    def recording(case, eps, *args, **kwargs):
        ran.append(eps)
        return compare(case, eps, *args, **kwargs)

    monkeypatch.setattr(msode, "compare", recording)
    sweep = {"name": "sweep", "case": "cubic", "eps": [0.1, 0.05, 0.08, 0.06],
             "horizon_exponent": 1, "n_samples": 64}
    summaries = []
    for label, payload in (("plain", sweep), ("seeded", dict(sweep, seed=3))):
        cfg = write_config(tmp_path, f"{label}.json", payload)
        assert main(["ode", "--config", cfg, "--out-dir", str(tmp_path / label)]) == EXIT_OK
        summaries.append(read_summary(tmp_path / label, "sweep"))
    assert ran[:4] == sweep["eps"] and sorted(ran[4:]) == sorted(sweep["eps"])
    assert ran[4:] != sweep["eps"]
    assert summaries[0]["result"] == summaries[1]["result"]
    csvs = sorted(path.name for path in (tmp_path / "plain").glob("*.csv"))
    assert len(csvs) == 4
    for name in csvs:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "seeded" / name).read_bytes()


@pytest.mark.parametrize(
    "subcommand,payload",
    [
        ("ode", {"case": "cubic", "eps": [0.1, 0.1], "horizon_exponent": 1}),
        ("blayer", {"kind": "linear", "eps": [0.1, 0.05, 0.1], "n_grid": 512}),
        ("ode", {"case": "cubic", "eps": "abc", "horizon_exponent": 1}),
        ("blayer", {"kind": "linear", "eps": [0.1, [0.05]], "n_grid": 512}),
    ],
)
def test_eps_sweep_rejects_repeats_and_non_numbers(tmp_path, capsys, subcommand, payload):
    # runs and their CSV files are keyed by eps
    cfg = write_config(tmp_path, "sweep.json", payload)
    assert main([subcommand, "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "eps" in capsys.readouterr().err
    assert not list(tmp_path.glob("sweep*.csv"))


@pytest.mark.parametrize(
    "subcommand,payload,key",
    [
        ("ode", {"case": "cubic", "eps": 0.1, "horizon_exponent": 1}, "rtol"),
        ("ode", {"case": "cubic", "eps": 0.1, "horizon_exponent": 1}, "atol"),
        ("blayer", {"kind": "nonlinear", "eps": 0.1, "n_grid": 512}, "shoot_tol"),
        ("euler", {"eps_values": [0.1], "m_values": [1]}, "quad_tol"),
        ("pde", {"task": "packet_compare", "eps": 0.1}, "dt"),
    ],
)
@pytest.mark.parametrize("value", ["x", True, [1e-9], {}])
def test_non_numeric_tolerance_is_a_config_error(tmp_path, capsys, subcommand, payload, key,
                                                 value):
    cfg = write_config(tmp_path, "tol.json", dict(payload, **{key: value}))
    assert main([subcommand, "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert f"{key} must be a positive number" in capsys.readouterr().err


def readme_commands():
    """(subcommand, config) for every shipped config the README's commands run."""
    pairs, subcommand = [], None
    for line in (ROOT / "README.md").read_text().splitlines():
        words = line.split()
        if words[:1] == ["asymptotica"]:
            subcommand = words[1]
        elif not line.startswith(" "):  # a continuation line keeps the command
            subcommand = None
        pairs += [(subcommand, w) for w in words if w.startswith("scripts/configs/")]
    return pairs


def test_readme_runs_every_shipped_config():
    shipped = {f"scripts/configs/{p.name}" for p in (ROOT / "scripts/configs").glob("*.json")}
    assert sorted(config for _, config in readme_commands()) == sorted(shipped)


def ci_commands():
    """(subcommand, config) for every run in the CI loop over the shipped configs."""
    text = (ROOT / ".github/workflows/tests.yml").read_text()
    loop = text[text.index("for out in"):]
    return re.findall(r"run (\w+) --config (scripts/configs/\S+)", loop[:loop.index("done")])


def test_ci_runs_every_shipped_config():
    # each shipped config, with the subcommand the README runs it with
    assert sorted(ci_commands()) == sorted(readme_commands())


@pytest.mark.parametrize("subcommand,config", readme_commands())
def test_shipped_config_runs_clean(tmp_path, subcommand, config):
    assert main([subcommand, "--config", str(ROOT / config), "--out-dir", str(tmp_path)]) == EXIT_OK
    assert read_summary(tmp_path, Path(config).stem)["accept_failures"] == []
