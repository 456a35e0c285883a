import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import tripforge
from tripforge import (
    DEFAULT_EDGES,
    FULL_TIME,
    EvalConfig,
    MismatchEntry,
    MismatchSpec,
    SynthCollection,
    SynthConfig,
    beta_target,
    build_empirical_target,
    build_grid_network,
    gaussian_mixture_target,
    poisson_target,
    prepare_day,
)
from tripforge import io as tfio
from tripforge.cli import _eval_config, build_parser, main, parse_synth_config
from tripforge.synth import WORKING, generate_collection


@pytest.fixture(scope="module")
def working_days():
    """Two 1 000-demand working days; day 1 has demands that only the whole-day
    history fallback can serve."""
    net = build_grid_network(rows=4, cols=5, seed=0)
    cfg = SynthConfig(network=net, days=2, day_types=(WORKING, WORKING),
                      trips_per_day=1000, seed=5)
    return generate_collection(cfg)


@pytest.fixture(scope="module")
def tiny_collection():
    net = build_grid_network(rows=2, cols=2, seed=4)
    cfg = SynthConfig(network=net, days=2, day_types=(WORKING, WORKING),
                      trips_per_day=60, od_pool_size=12, seed=8)
    return generate_collection(cfg)


class TestNetworkFormat:
    def test_round_trip(self, tmp_path, tiny_collection):
        net = tiny_collection.network
        path = tmp_path / "net.txt"
        tfio.write_network(net, path)
        loaded = tfio.read_network(path)
        assert loaded == net

    def test_bad_directive_line_number(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("network\nbogus 1 2\n", encoding="utf-8")
        with pytest.raises(tfio.FormatError) as err:
            tfio.read_network(path)
        assert ":2:" in str(err.value)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("stop a 0 0\n", encoding="utf-8")
        with pytest.raises(tfio.FormatError):
            tfio.read_network(path)


class TestCollectionFormat:
    def test_round_trip(self, tmp_path, tiny_collection):
        tfio.write_collection(tiny_collection, tmp_path / "c")
        network, days = tfio.read_collection(tmp_path / "c")
        assert network == tiny_collection.network
        assert len(days) == 2
        for orig, loaded in zip(tiny_collection.days, days):
            assert loaded.day == orig.day and loaded.day_type == orig.day_type
            assert [t.demand_id for t in loaded.triples] == [t.demand_id for t in orig.triples]
            assert [t.depart_time for t in loaded.triples] == [t.depart_time for t in orig.triples]
            assert [t.round_trip_allowed for t in loaded.triples] == [
                t.round_trip_allowed for t in orig.triples
            ]
            for r_orig, r_loaded in zip(orig.routes, loaded.routes):
                assert r_loaded.identity == r_orig.identity
                assert [l.board_time for l in r_loaded.legs] == [l.board_time for l in r_orig.legs]
                assert [l.leg_distance for l in r_loaded.legs] == [
                    l.leg_distance for l in r_orig.legs
                ]

    def test_trips_rejects_bad_field_count(self, tmp_path, tiny_collection):
        stops = {s.stop_id: s for s in tiny_collection.network.stops}
        path = tmp_path / "x.trips"
        path.write_text("0,working,d0,L1,s0000,100\n", encoding="utf-8")
        with pytest.raises(tfio.FormatError):
            tfio.read_trips(path, stops)


class TestTargetsFormat:
    def test_round_trip_all_kinds(self, tmp_path, tiny_collection):
        routes = list(tiny_collection.days[0].routes)
        spec = MismatchSpec(
            entries=(
                MismatchEntry(tag="full_time", target=build_empirical_target(routes, "full_time")),
                MismatchEntry(
                    tag="transfer_time",
                    target=poisson_target(3.0, DEFAULT_EDGES["transfer_time"]),
                    weight=2.0,
                ),
                MismatchEntry(tag="angle_ratio", target=beta_target(0.26, 0.24)),
            )
        )
        path = tmp_path / "targets.txt"
        tfio.write_targets(spec, path)
        loaded = tfio.read_targets(path)
        assert loaded.tags == spec.tags
        for a, b in zip(loaded.entries, spec.entries):
            assert a.weight == b.weight
            assert a.target.kind == b.target.kind
            np.testing.assert_array_equal(a.target.edges, b.target.edges)
            np.testing.assert_allclose(a.target.masses, b.target.masses, atol=1e-12)

    def test_gaussian_mixture_round_trip(self, tmp_path):
        spec = MismatchSpec(
            entries=(
                MismatchEntry(
                    tag=FULL_TIME,
                    target=gaussian_mixture_target(
                        [(0.7, 1800.0, 600.0), (0.3, 4200.0, 900.0)], DEFAULT_EDGES[FULL_TIME]
                    ),
                ),
            )
        )
        path = tmp_path / "targets.txt"
        tfio.write_targets(spec, path)
        loaded = tfio.read_targets(path)
        np.testing.assert_allclose(loaded.entries[0].target.masses,
                                   spec.entries[0].target.masses, atol=1e-12)

    def test_unterminated_block(self, tmp_path):
        path = tmp_path / "targets.txt"
        path.write_text("characteristic full_time\nkind beta\nalpha 1\nbeta 1\n", encoding="utf-8")
        with pytest.raises(tfio.FormatError):
            tfio.read_targets(path)


def write_synth_config(path, **overrides):
    lines = {
        "seed": 5,
        "days": 2,
        "day_types": "working,working",
        "trips_per_day": 50,
        "od_pool_size": 12,
        "grid_rows": 2,
        "grid_cols": 2,
    }
    lines.update(overrides)
    path.write_text(
        "\n".join(f"{k} {v}" for k, v in lines.items()) + "\n", encoding="utf-8"
    )


class TestCmdSynth:
    def test_minimal_config_round_trips_losslessly(self, tmp_path, capsys):
        cfg_path = tmp_path / "synth.cfg"
        write_synth_config(cfg_path)
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        network, days = tfio.read_collection(out)
        assert len(network.stops) == 4
        assert len(days) == 2
        # writing the parsed collection back reproduces the files
        for f in sorted(out.glob("day_*.trips")):
            reparsed = tfio.read_trips(f, {s.stop_id: s for s in network.stops})
            assert reparsed

    def test_default_25_day_pattern_labels(self, tmp_path):
        cfg_path = tmp_path / "synth.cfg"
        write_synth_config(cfg_path, days=25, trips_per_day=8)
        cfg_path.write_text(
            cfg_path.read_text().replace("day_types working,working\n", ""), encoding="utf-8"
        )
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        trips = sorted(p.name for p in out.glob("day_*.trips"))
        assert len(trips) == 25
        assert sum("working" in name for name in trips) == 17
        assert sum("weekend" in name for name in trips) == 8

    def test_invalid_probability_names_field(self, tmp_path, capsys):
        cfg_path = tmp_path / "synth.cfg"
        write_synth_config(cfg_path, p_round=1.3)
        rc = main(["synth", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "p_round" in capsys.readouterr().err

    # dwell_mean_s, round_dwell_mean_s, detour_rank_decay, weekend_dwell_factor,
    # grid_spacing_m and planner_k are no longer settings: an old config that
    # sets one exits 2 as an unknown field.
    @pytest.mark.parametrize("key, value", [
        ("dwell_mean_s", "nan"), ("round_dwell_mean_s", "-5"), ("detour_rank_decay", "-1"),
        ("weekend_dwell_factor", "inf"), ("grid_spacing_m", "nan"), ("grid_spacing_m", "0"),
        ("seed", "-3"), ("od_pool_size", "0"), ("planner_k", "0"), ("grid_spacing_m", "-600"),
    ])
    def test_bad_number_exits_2(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "synth.cfg"
        write_synth_config(cfg_path, **{key: value})
        rc = main(["synth", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("seed", -1), ("od_pool_size", 0), ("network_seed", -1), ("days", 0),
    ])
    def test_bad_count_names_field(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "synth.cfg"
        write_synth_config(cfg_path, **{key: value})
        line = cfg_path.read_text().splitlines().index(f"{key} {value}") + 1
        rc = main(["synth", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}:{line}: {key} must be")

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "synth.cfg"
        write_synth_config(cfg_path, bogus_knob=3)
        rc = main(["synth", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_unknown_day_type_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "synth.cfg"
        write_synth_config(cfg_path, days=3, day_types="holiday,working,working")
        rc = main(["synth", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "holiday" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.fixture()
def generated_inputs(tmp_path, tiny_collection):
    root = tmp_path / "hist"
    tfio.write_collection(tiny_collection, root)
    day0 = tiny_collection.days[0]
    spec = MismatchSpec(
        entries=tuple(
            MismatchEntry(tag=tag, target=build_empirical_target(list(day0.routes), tag))
            for tag in ("full_time", "transfer_time", "angle_ratio")
        )
    )
    targets = tmp_path / "targets.txt"
    tfio.write_targets(spec, targets)
    demand = root / "day_001_working.demand"
    network = root / "network.txt"
    return dict(root=root, targets=targets, demand=demand, network=network)


class TestCmdGenerate:
    def test_fixed_seed_byte_identical(self, tmp_path, generated_inputs, capsys):
        args = [
            "generate",
            "--network", str(generated_inputs["network"]),
            "--demand", str(generated_inputs["demand"]),
            "--targets", str(generated_inputs["targets"]),
            "--history-dir", str(generated_inputs["root"]),
            "--iterations", "3000",
            "--seed", "17",
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        for name in ("trace.csv", "assigned.trips"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_iterations_is_initialization(self, tmp_path, generated_inputs):
        args = [
            "generate",
            "--network", str(generated_inputs["network"]),
            "--demand", str(generated_inputs["demand"]),
            "--targets", str(generated_inputs["targets"]),
            "--history-dir", str(generated_inputs["root"]),
            "--iterations", "0",
            "--seed", "17",
            "--out-dir", str(tmp_path / "z"),
        ]
        assert main(args) == 0
        trace = (tmp_path / "z" / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "iteration,error,acceptance_rate,temperature"
        assert len(trace) == 2
        assert trace[1].startswith("0,")

    def test_lambda_mix_one_gives_uniform_planner_weights(self, tmp_path, generated_inputs):
        # exercised through the library path for inspection, then via the CLI flag
        from tripforge import io as _io
        from tripforge.candidates import TripHistory, build_candidate_set, history_lookup
        from tripforge.planner import k_top_routes

        network = _io.read_network(generated_inputs["network"])
        stops = {s.stop_id: s for s in network.stops}
        triples = _io.read_demand(generated_inputs["demand"], stops)
        _, days = _io.read_collection(generated_inputs["root"], network)
        history = TripHistory(r for d in days for r in d.routes)
        checked = 0
        for triple in triples:
            planner_routes = k_top_routes(network, triple, k=5)
            hist_routes = history_lookup(history, triple, 1200)
            if not planner_routes:
                continue
            cs = build_candidate_set(triple, planner_routes, hist_routes, lambda_mix=1.0)
            assert len(set(cs.weights)) == 1
            checked += 1
        assert checked > 0
        rc = main([
            "generate",
            "--network", str(generated_inputs["network"]),
            "--demand", str(generated_inputs["demand"]),
            "--targets", str(generated_inputs["targets"]),
            "--history-dir", str(generated_inputs["root"]),
            "--iterations", "500",
            "--lambda-mix", "1.0",
            "--out-dir", str(tmp_path / "lm"),
        ])
        assert rc == 0

    @pytest.mark.parametrize("name, row_start", [
        ("day_007_weekend.demand", "7,weekend,"),
        ("demand.txt", "0,working,"),
    ])
    def test_assigned_trips_take_the_demand_file_day(
        self, tmp_path, generated_inputs, name, row_start
    ):
        demand = tmp_path / name
        demand.write_bytes(generated_inputs["demand"].read_bytes())
        out = tmp_path / "gen"
        rc = main([
            "generate",
            "--network", str(generated_inputs["network"]),
            "--demand", str(demand),
            "--targets", str(generated_inputs["targets"]),
            "--history-dir", str(generated_inputs["root"]),
            "--iterations", "200",
            "--out-dir", str(out),
        ])
        assert rc == 0
        rows = (out / "assigned.trips").read_text(encoding="utf-8").splitlines()
        assert rows and all(row.startswith(row_start) for row in rows)

    def test_bad_day_file_name_exits_2_like_read_collection(
        self, tmp_path, generated_inputs, capsys
    ):
        root = generated_inputs["root"]
        for suffix in (".trips", ".demand"):
            (root / f"day_001_working{suffix}").rename(root / f"day_x2_working{suffix}")
        with pytest.raises(tfio.FormatError) as exc:
            tfio.read_collection(root)
        collection_message = str(exc.value).split(": ", 1)[1]
        rc = main([
            "generate",
            "--network", str(generated_inputs["network"]),
            "--demand", str(root / "day_x2_working.demand"),
            "--targets", str(generated_inputs["targets"]),
            "--iterations", "0",
            "--out-dir", str(tmp_path / "gen"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.rstrip("\n").endswith(f": {collection_message}")
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("demand_id", ["", "d 1"], ids=["empty", "space"])
    def test_bad_demand_id_exits_2(self, tmp_path, generated_inputs, capsys, demand_id):
        # write_trips refuses the id, so it must fail where it is read
        demand = generated_inputs["demand"]
        rows = demand.read_text(encoding="utf-8").splitlines()
        rows[0] = demand_id + "," + rows[0].split(",", 1)[1]
        demand.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc = main([
            "generate",
            "--network", str(generated_inputs["network"]),
            "--demand", str(demand),
            "--targets", str(generated_inputs["targets"]),
            "--history-dir", str(generated_inputs["root"]),
            "--iterations", "0",
            "--out-dir", str(tmp_path / "gen"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {demand}:1: bad demand id {demand_id!r}: ")
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("name, old, new, lineno", [
        ("network", "\n  seg ", "\n\n  seg ", 11),
        ("network", "transfer_penalty_s 300", "transfer_penalty_s abc", 2),
        ("targets", "weight 1.0", "weight x", 2),
        ("targets", "characteristic full_time", "characteristic", 1),
        ("network", "  seg 109 617.9995920764502\n", "  seg 109 0\n", 13),
        ("network", "walk_speed_mps 1.2", "walk_speed_mps 0", 3),
        ("network", "max_walk_m 800.0", "max_walk_m -1.0", 4),
        ("network", "transfer_penalty_s 300", "transfer_penalty_s -1", 2),
        ("network", "stop s0001 ", "stop s0000 ", 6),
        ("network", "\n  stop s0001\n", "\n  stop s9999\n", 12),
        ("network", "line ew0-west ", "line ew0-east ", 14),
        ("targets", "characteristic transfer_time", "characteristic full_time", 7),
        ("targets", "characteristic angle_ratio", "characteristic foo", 13),
        ("network", "line ew0-east ", "line ew0,east ", 9),
        ("network", "stop s0001 ", "stop a,b ", 6),
    ])
    def test_malformed_network_or_targets_exits_2(
        self, tmp_path, generated_inputs, capsys, name, old, new, lineno
    ):
        path = generated_inputs[name]
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        rc = main([
            "generate",
            "--network", str(generated_inputs["network"]),
            "--demand", str(generated_inputs["demand"]),
            "--targets", str(generated_inputs["targets"]),
            "--iterations", "0",
            "--out-dir", str(tmp_path / "gen"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:{lineno}: ")

    @pytest.mark.parametrize("block, lineno", [
        ("weight -1\nkind beta\nalpha 2\nbeta 2", 6),
        ("weight nan\nkind beta\nalpha 2\nbeta 2", 2),
        ("kind beta\nalpha nan\nbeta 2", 3),
        ("kind beta\nalpha 2\nbeta inf", 4),
        ("kind poisson\nlambda -1\nedges 0 0.5 1", 5),
        ("kind gaussian_mixture\ncomponent 1.5 0.5 0.1\ncomponent -0.5 0.5 0.1", 5),
        ("kind empirical\nedges 0 0.5 1\nmasses 1.5 -0.5", 5),
        ("kind empirical\nedges 0 1 0.5\nmasses 0.5 0.5", 5),
    ], ids=["weight-negative", "weight-nan", "alpha-nan", "beta-inf", "lambda-negative",
            "mixture-negative-weight", "masses-negative", "edges-decreasing"])
    def test_invalid_target_values_exit_2(self, tmp_path, generated_inputs, capsys, block, lineno):
        targets = generated_inputs["targets"]
        targets.write_text(f"characteristic angle_ratio\n{block}\nend\n", encoding="utf-8")
        rc = main([
            "generate",
            "--network", str(generated_inputs["network"]),
            "--demand", str(generated_inputs["demand"]),
            "--targets", str(targets),
            "--iterations", "0",
            "--out-dir", str(tmp_path / "gen"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {targets}:{lineno}: ")

    def test_keeps_the_demands_prepare_day_keeps(self, tmp_path, working_days):
        # generate on day 1's demand with day 0 as history is the CLI form of
        # prepare_day(day 1): both must serve the same demands
        prepared = prepare_day(working_days, 1, EvalConfig())
        history = tmp_path / "hist"
        tfio.write_collection(
            SynthCollection(network=working_days.network, days=working_days.days[:1]), history
        )
        tfio.write_demand(working_days.days[1].triples, tmp_path / "day1.demand")
        tfio.write_targets(prepared.spec, tmp_path / "targets.txt")
        out = tmp_path / "gen"
        rc = main([
            "generate",
            "--network", str(history / "network.txt"),
            "--demand", str(tmp_path / "day1.demand"),
            "--targets", str(tmp_path / "targets.txt"),
            "--history-dir", str(history),
            "--iterations", "0",
            "--out-dir", str(out),
        ])
        assert rc == 0
        stops = {s.stop_id: s for s in working_days.network.stops}
        assigned = [rec[2] for rec in tfio.read_trips(out / "assigned.trips", stops)]
        assert assigned == [cs.triple.demand_id for cs in prepared.candidate_sets]
        assert not (out / "dropped.txt").exists() and not prepared.dropped_demands


class TestCmdEval:
    def test_oneday_writes_tables(self, tmp_path, generated_inputs):
        out = tmp_path / "ev"
        rc = main([
            "eval", "--mode", "oneday",
            "--history-dir", str(generated_inputs["root"]),
            "--test-day", "1",
            "--iterations", "2000",
            "--checkpoint-every", "1000",
            "--out-dir", str(out),
        ])
        assert rc == 0
        assert (out / "trace.csv").exists()
        assert (out / "oneday.csv").exists()
        series = (out / "distributions.csv").read_text().splitlines()
        assert series[0].startswith("characteristic,bin_left,bin_right")
        assert len(series) == 1 + 180 + 60 + 50

    def test_extreme_lambda_mix_runs(self, tmp_path, generated_inputs):
        # History weights round to 1.0 beside planner weights of 1e-20.
        rc = main([
            "eval", "--mode", "oneday",
            "--history-dir", str(generated_inputs["root"]),
            "--test-day", "1",
            "--iterations", "500",
            "--lambda-mix", "1e-20",
            "--out-dir", str(tmp_path / "ev"),
        ])
        assert rc == 0

    def test_online_row_count(self, tmp_path, generated_inputs):
        out = tmp_path / "ev2"
        rc = main([
            "eval", "--mode", "online",
            "--history-dir", str(generated_inputs["root"]),
            "--iterations", "1000",
            "--out-dir", str(out),
        ])
        assert rc == 0
        rows = (out / "online.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + day 1 (day 0 has no prior)
        # the last checkpoint's best error is the row's final error, to the bit
        row = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert row["err_at_1000"] == row["final_error"]

    def test_default_flags_lower_the_error(self, tmp_path, working_days, capsys):
        tfio.write_collection(working_days, tmp_path / "c")
        rc = main([
            "eval", "--mode", "oneday",
            "--history-dir", str(tmp_path / "c"),
            "--test-day", "1",
            "--out-dir", str(tmp_path / "ev"),
        ])
        assert rc == 0
        initial, best = re.search(r"error (\S+) -> (\S+)", capsys.readouterr().out).groups()
        assert float(best) <= 0.5 * float(initial)

    @pytest.mark.parametrize("command", [
        ["generate", "--network", "n", "--demand", "d", "--targets", "t", "--out-dir", "o"],
        ["eval", "--mode", "oneday", "--history-dir", "h", "--out-dir", "o"],
    ])
    def test_flag_defaults_are_the_eval_config_defaults(self, command):
        assert _eval_config(build_parser().parse_args(command)) == EvalConfig()

    @pytest.mark.parametrize("flags, rename", [
        (["--checkpoint-every", "0"], None),
        (["--decay", "0"], None),
        (["--slot-width", "0"], None),
        (["--lambda-mix", "2"], None),
        (["--test-day", "9"], None),
        ([], ("day_001_working", "day_x2_working")),
        ([], ("day_000_working", "day_000_holiday")),
        (["--seed", "-5"], None),
    ])
    def test_malformed_input_exits_2(self, tmp_path, generated_inputs, capsys, flags, rename):
        root = generated_inputs["root"]
        if rename is not None:
            old, new = rename
            for suffix in (".trips", ".demand"):
                (root / f"{old}{suffix}").rename(root / f"{new}{suffix}")
        rc = main([
            "eval", "--mode", "oneday",
            "--history-dir", str(root),
            "--test-day", "1",
            "--iterations", "100",
            "--out-dir", str(tmp_path / "x"),
            *flags,  # a repeated flag overrides the one above
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag, value", [
        ("--l0", "nan"), ("--l0", "inf"), ("--l-min", "nan"), ("--l-min", "inf"),
    ])
    def test_non_finite_sampler_flag_exits_2(self, tmp_path, generated_inputs, capsys, flag,
                                             value):
        rc = main([
            "eval", "--mode", "oneday",
            "--history-dir", str(generated_inputs["root"]),
            "--test-day", "1",
            "--iterations", "100",
            "--out-dir", str(tmp_path / "x"),
            flag, value,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be finite")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("edit", [
        lambda row: row[:8] + ["-1.0"] + row[9:],  # a negative leg distance
        lambda row: row[:7] + [str(int(row[5]) - 1)] + row[8:],  # alights before boarding
        lambda row: [f if (i - 8) % 6 or i < 8 else "0" for i, f in enumerate(row)],  # rides 0 m
        # a second leg that boards 4 509 s before the first alights and rides it back
        lambda row: row + ["X", row[6], str(int(row[7]) - 4509), row[4], row[7], row[8]],
        lambda row: row[:8] + ["1.0"] + row[9:],  # shorter than the great-circle distance
        lambda row: ["7", "weekend"] + row[2:],  # not the day its file name says
        lambda row: row[:2] + [""] + row[3:],  # an empty demand id
        lambda row: row[:3] + [""] + row[4:],  # an empty line id
        lambda row: row[:3] + ["L\t1"] + row[4:],  # a line id holding a tab
        lambda row: row[:3] + ["nope"] + row[4:],  # a line the network does not have
        # a first leg that rides its line from its alight stop back to its board stop
        lambda row: row[:4] + [row[6], row[5], row[4]] + row[7:],
    ])
    def test_bad_trip_record_exits_2(self, tmp_path, generated_inputs, capsys, edit):
        trips = generated_inputs["root"] / "day_000_working.trips"
        first, *rest = trips.read_text(encoding="utf-8").splitlines(keepends=True)
        trips.write_text(",".join(edit(first.rstrip("\n").split(","))) + "\n" + "".join(rest),
                         encoding="utf-8")
        rc = main([
            "eval", "--mode", "oneday",
            "--history-dir", str(generated_inputs["root"]),
            "--test-day", "1",
            "--iterations", "100",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {trips}:1: ")

    @pytest.mark.parametrize("flag", [",yes", ",0", ","])
    def test_bad_round_trip_flag_exits_2(self, tmp_path, generated_inputs, capsys, flag):
        # on a one-way demand, so that only the flag is wrong
        demand = generated_inputs["root"] / "day_001_working.demand"
        rows = demand.read_text(encoding="utf-8").splitlines()
        at = next(i for i, row in enumerate(rows) if row.count(",") == 3)
        rows[at] += flag
        demand.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc = main([
            "eval", "--mode", "oneday",
            "--history-dir", str(generated_inputs["root"]),
            "--test-day", "1",
            "--iterations", "100",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {demand}:{at + 1}: ")

    @pytest.mark.parametrize("suffix", [".demand", ".trips"])
    def test_duplicate_id_exits_2_on_its_second_line(self, tmp_path, generated_inputs, capsys,
                                                      suffix):
        path = generated_inputs["root"] / f"day_000_working{suffix}"
        rows = path.read_text(encoding="utf-8").splitlines()
        if suffix == ".demand":  # d000t00001 twice, d000t00002 never
            assert rows[2].startswith("d000t00002,")
            rows[2] = rows[2].replace("d000t00002", "d000t00001")
        else:  # the first row repeated as the third
            rows.insert(2, rows[0])
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc = main([
            "eval", "--mode", "oneday",
            "--history-dir", str(generated_inputs["root"]),
            "--test-day", "1",
            "--iterations", "100",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3: duplicate demand id ")

    def test_planner_k_below_one_names_the_field(self, tmp_path, generated_inputs, capsys):
        rc = main([
            "eval", "--mode", "oneday",
            "--history-dir", str(generated_inputs["root"]),
            "--test-day", "1",
            "--iterations", "100",
            "--planner-k", "0",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: planner_k must be at least 1")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("mode", ["oneday", "online", "daytype"])
    @pytest.mark.parametrize("emptied", ["day_000_working.*", "day_*"])
    def test_no_earlier_day_with_trips_exits_3(self, tmp_path, generated_inputs, capsys, mode,
                                               emptied):
        # day 1's only earlier day of its type holds no trip, or no day does
        for path in generated_inputs["root"].glob(emptied):
            path.write_text("", encoding="utf-8")
        rc = main([
            "eval", "--mode", mode,
            "--history-dir", str(generated_inputs["root"]),
            "--test-day", "1",
            "--iterations", "100",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["oneday", "online", "daytype"])
    def test_repeated_day_number_exits_2(self, tmp_path, generated_inputs, capsys, mode):
        # an empty weekend day 1 beside the working day 1
        root = generated_inputs["root"]
        for suffix in (".trips", ".demand"):
            (root / f"day_001_weekend{suffix}").write_text("", encoding="utf-8")
        rc = main([
            "eval", "--mode", mode,
            "--history-dir", str(root),
            "--test-day", "1",
            "--iterations", "100",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {root / 'day_001_working.trips'}: day 1 is also in "
            f"{root / 'day_001_weekend.trips'}"
        )
        assert not (tmp_path / "x").exists()

    def test_demand_file_without_trips_exits_2(self, tmp_path, generated_inputs, capsys):
        root = generated_inputs["root"]
        (root / "day_001_working.trips").unlink()
        rc = main([
            "eval", "--mode", "online",
            "--history-dir", str(root),
            "--iterations", "100",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {root / 'day_001_working.demand'}: matching trips file not found"
        )
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("day_types", ["holiday", "working, weekend"])
    def test_unknown_day_type_flag_exits_2(self, tmp_path, generated_inputs, capsys, day_types):
        rc = main([
            "eval", "--mode", "online",
            "--history-dir", str(generated_inputs["root"]),
            "--day-types", day_types,
            "--iterations", "100",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --day-types: unknown labels")
        assert not (tmp_path / "x").exists()

    def test_unknown_mode_rejected(self, tmp_path, generated_inputs, capsys):
        rc = main([
            "eval", "--mode", "bogus",
            "--history-dir", str(generated_inputs["root"]),
            "--out-dir", str(tmp_path / "x"),
        ])
        assert rc == 2

    def test_oneday_requires_test_day(self, tmp_path, generated_inputs, capsys):
        rc = main([
            "eval", "--mode", "oneday",
            "--history-dir", str(generated_inputs["root"]),
            "--out-dir", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert "test-day" in capsys.readouterr().err


class TestImportCost:
    def test_cli_runs_without_loading_scipy(self, tmp_path):
        # scipy.stats takes most of a cold `import tripforge`; only the
        # parametric targets need it, and they import it themselves.
        write_synth_config(tmp_path / "synth.cfg")
        script = textwrap.dedent(f"""
            import sys
            import tripforge, tripforge.cli
            root = {str(tmp_path)!r}
            assert tripforge.cli.main(["synth", "--config", root + "/synth.cfg",
                                       "--out-dir", root + "/c"]) == 0
            assert tripforge.cli.main(["eval", "--mode", "oneday", "--history-dir", root + "/c",
                                       "--test-day", "1", "--iterations", "200",
                                       "--out-dir", root + "/ev"]) == 0
            print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """)
        src = str(Path(tripforge.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


class TestParseSynthConfig:
    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed 1\nseed 2\n", encoding="utf-8")
        with pytest.raises(tfio.FormatError):
            parse_synth_config(path)

    @pytest.mark.parametrize("key, value, message", [
        ("p_detour", "nan", "p_detour must lie"),
        ("seed", "x", "seed: expected int"),
        ("p_round", 2, "p_round must lie in [0, 1]"),
        ("bogus_knob", 3, "unknown field 'bogus_knob'"),
    ])
    def test_error_names_its_line(self, tmp_path, capsys, key, value, message):
        path = tmp_path / "c.cfg"
        write_synth_config(path, **{key: value})
        line = path.read_text().splitlines().index(f"{key} {value}") + 1
        assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: {message}")

    def test_cross_field_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        write_synth_config(path, p_round=0.6, p_detour=0.6)
        assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: p_round + p_detour")

    def test_grid_key_beside_network_exits_2(self, tmp_path, capsys, tiny_collection):
        network = tmp_path / "network.txt"
        tfio.write_network(tiny_collection.network, network)
        path = tmp_path / "c.cfg"
        path.write_text(f"network {network}\ndays 1\ntrips_per_day 5\ngrid_rows 3\n",
                        encoding="utf-8")
        assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:4: grid_rows ")
        assert not (tmp_path / "o").exists()

    def test_unreadable_network_file_exits_2_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        missing = tmp_path / "missing.txt"
        path.write_text(f"days 1\nnetwork {missing}\n", encoding="utf-8")
        assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: network: ")
        assert str(missing) in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, line", [
    ("config", 1), ("network", 3), ("demand", 2), ("trips", 2), ("targets", 4),
])
def test_non_utf8_file_exits_2_at_its_line(tmp_path, generated_inputs, capsys, name, line):
    # each reader names the file and line of its first byte that is not UTF-8
    config = tmp_path / "synth.cfg"
    write_synth_config(config)
    files = {**generated_inputs, "config": config,
             "trips": generated_inputs["root"] / "day_000_working.trips"}
    path = files[name]
    rows = path.read_bytes().splitlines(keepends=True)
    rows[line - 1] = b"\xff\xfe" + rows[line - 1]
    path.write_bytes(b"".join(rows))
    if name == "config":
        args = ["synth", "--config", str(config)]
    else:
        args = ["generate", "--network", str(files["network"]), "--demand", str(files["demand"]),
                "--targets", str(files["targets"]), "--history-dir", str(files["root"]),
                "--iterations", "10"]
    assert main(args + ["--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:{line}: not UTF-8")
    assert not (tmp_path / "out").exists()


def test_non_utf8_line_counts_every_line_break(tmp_path):
    # a carriage return ends a line for the readers, so it counts here too
    path = tmp_path / "cr.txt"
    path.write_bytes(b"a\rb\r\nc\n\xff")
    with pytest.raises(tfio.FormatError, match=r"cr\.txt:4: not UTF-8: byte 0xff at offset 7"):
        tfio.read_lines(path)
