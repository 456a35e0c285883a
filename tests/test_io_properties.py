"""Property tests of the file formats: what a writer writes reads back and
writes again to the same bytes, and a mutated file fails with a
`file:line` message (exit 2 on the CLI), never with a traceback."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tripforge import (
    CHARACTERISTICS,
    Leg,
    MismatchEntry,
    MismatchSpec,
    ODTriple,
    Route,
    Stop,
    SynthConfig,
    TargetDistribution,
    beta_target,
    build_empirical_target,
    build_grid_network,
    gaussian_mixture_target,
    generate_collection,
    great_circle_m,
    poisson_target,
)
from tripforge import io as tfio
from tripforge.cli import main
from tripforge.model import DAY_TYPES, WORKING
from tripforge.planner import Line, TransitNetwork

# Every character a UTF-8 file can hold except whitespace (which separates
# the fields of the network and targets files) and commas (which separate
# those of the trips and demand files).
ID_CHARS = st.characters(blacklist_categories=("Cs",)).filter(
    lambda c: not c.isspace() and c != ","
)
IDS = st.text(ID_CHARS, min_size=1, max_size=6)
# A stop name is the rest of its line: inner spaces are part of it.
NAMES = st.none() | st.lists(IDS, min_size=1, max_size=3).flatmap(
    lambda words: st.lists(st.sampled_from([" ", "  ", "\t"]), min_size=len(words) - 1,
                           max_size=len(words) - 1).map(
        lambda seps: words[0] + "".join(s + w for s, w in zip(seps, words[1:])))
)
POSITIVE = st.floats(min_value=1e-3, max_value=1e6)
TIMES = st.integers(-10**6, 10**6)


@st.composite
def networks(draw):
    ids = draw(st.lists(IDS, min_size=2, max_size=6, unique=True))
    stops = tuple(
        Stop(sid, draw(st.floats(-90, 90)), draw(st.floats(-180, 180)), draw(NAMES))
        for sid in ids
    )
    lines = []
    for line_id in draw(st.lists(IDS, max_size=3, unique=True)):
        members = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=4))
        first = draw(TIMES)
        lines.append(Line(
            line_id=line_id,
            stop_ids=tuple(members),
            seg_ride_s=tuple(draw(st.integers(1, 10**5)) for _ in members[1:]),
            seg_dist_m=tuple(draw(POSITIVE) for _ in members[1:]),
            headway_s=draw(st.integers(1, 10**5)),
            first_dep_s=first,
            last_dep_s=first + draw(st.integers(0, 10**5)),
        ))
    return TransitNetwork(
        stops=stops,
        lines=tuple(lines),
        transfer_penalty_s=draw(st.integers(0, 10**5)),
        walk_speed_mps=draw(POSITIVE),
        max_walk_m=draw(st.floats(0.0, 1e6)),
    )


@st.composite
def trip_records(draw, stops):
    """Records of routes the reader accepts: one per demand id, legs in time
    order, each at least as long as its great-circle distance and the first
    longer, so that the total ride distance is positive."""
    records = []
    for demand_id in draw(st.lists(IDS, min_size=1, max_size=4, unique=True)):
        legs = []
        board = draw(TIMES)
        for _ in range(draw(st.integers(1, 3))):
            board_stop, alight_stop = draw(st.sampled_from(stops)), draw(st.sampled_from(stops))
            alight = board + draw(st.integers(0, 10**4))
            legs.append(Leg(board_stop, alight_stop, board, alight, draw(IDS),
                            great_circle_m(board_stop, alight_stop)
                            + draw(st.floats(0.0, 1e6) if legs else POSITIVE)))
            board = alight + draw(st.integers(0, 10**4))
        records.append((draw(st.integers(0, 999)), draw(st.sampled_from(DAY_TYPES)), demand_id,
                        Route(legs=tuple(legs))))
    return records


@st.composite
def demands(draw, stops):
    triples = []
    for demand_id in draw(st.lists(IDS, min_size=1, max_size=4, unique=True)):
        origin, destination = draw(st.sampled_from(stops)), draw(st.sampled_from(stops))
        triples.append(ODTriple(origin, destination, draw(st.integers(0, 86_399)), demand_id,
                                origin == destination or draw(st.booleans())))
    return triples


EDGES = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8, unique=True).map(sorted)


@st.composite
def targets(draw):
    entries = []
    for tag in draw(st.permutations(CHARACTERISTICS).flatmap(
            lambda tags: st.integers(1, 3).map(lambda k: tags[:k]))):
        edges = np.array(draw(EDGES))
        kind = draw(st.sampled_from(["empirical", "beta", "poisson", "gaussian_mixture"]))
        if kind == "empirical":
            counts = np.array(draw(st.lists(st.integers(0, 50), min_size=len(edges) - 1,
                                            max_size=len(edges) - 1)))
            counts[draw(st.integers(0, len(counts) - 1))] += 1
            target = TargetDistribution("empirical", edges, counts / counts.sum())
        elif kind == "beta":
            target = beta_target(draw(st.floats(1e-2, 1e2)), draw(st.floats(1e-2, 1e2)), edges)
        elif kind == "poisson":
            target = poisson_target(draw(st.floats(0.0, 1e3)), edges)
        else:
            raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3))
            target = gaussian_mixture_target(
                [(w / sum(raw), draw(st.floats(-1e6, 1e6)), draw(POSITIVE)) for w in raw], edges
            )
        entries.append(MismatchEntry(tag, target, draw(st.floats(0.0, 1e3))))
    return MismatchSpec(entries=tuple(entries))


@st.composite
def formats(draw):
    """(kind, writer, reader, value) for one drawn file of each format."""
    net = draw(networks())
    stops = {s.stop_id: s for s in net.stops}
    return draw(st.sampled_from([
        ("network", tfio.write_network, tfio.read_network, net),
        ("trips", tfio.write_trips, lambda p: tfio.read_trips(p, stops),
         draw(trip_records(list(net.stops)))),
        ("demand", tfio.write_demand, lambda p: tfio.read_demand(p, stops),
         draw(demands(list(net.stops)))),
        ("targets", tfio.write_targets, tfio.read_targets, draw(targets())),
    ]))


def written(writer, value) -> str:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f"
        writer(value, path)
        return path.read_bytes().decode("utf-8")


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(formats())
    def test_read_then_write_is_byte_identical(self, case):
        kind, writer, reader, value = case
        with tempfile.TemporaryDirectory() as d:
            first, second = Path(d) / "a", Path(d) / "b"
            writer(value, first)
            writer(reader(first), second)
            assert second.read_bytes() == first.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_an_id_the_formats_cannot_hold_is_refused(self, data):
        bad = data.draw(st.just("") | st.builds(
            lambda a, c, b: a + c + b, IDS, st.sampled_from(" \t\n\r\x0b\x1c\x85\xa0\u2028,"), IDS
        ))
        a, b = Stop("a", 0.0, 0.0), Stop("b", 0.0, 0.01)
        writes = [
            (tfio.write_demand, [ODTriple(a, b, 0, bad)]),
            (tfio.write_trips, [(0, WORKING, bad, Route((Leg(a, b, 0, 60, "L", 1000.0),)))]),
            (tfio.write_trips, [(0, WORKING, "d", Route((Leg(a, b, 0, 60, bad, 1000.0),)))]),
            (tfio.write_network, TransitNetwork(stops=(a, Stop(bad, 0.0, 0.02)), lines=())),
        ]
        writer, value = data.draw(st.sampled_from(writes))
        with pytest.raises(ValueError, match="cannot be written"):
            written(writer, value)

    @pytest.mark.parametrize("name", [" lead", "trail ", "two\nlines", "a\u2028b", "a\x1cb"])
    def test_a_stop_name_the_format_cannot_hold_is_refused(self, name):
        net = TransitNetwork(stops=(Stop("a", 0.0, 0.0, name),), lines=())
        with pytest.raises(ValueError, match="cannot be written"):
            written(tfio.write_network, net)


# Mutations: a numeric field replaced by a token no reader accepts there, or
# a line no format allows inserted.  Either must fail on the mutated line.
BAD_NUMBERS = st.sampled_from(["x", "nan", "inf", "-inf", "1e999", "0x10"])
# First token of a line -> positions of its numeric tokens (None: all after it).
NUMERIC_TOKENS = {
    "network": {"transfer_penalty_s": [1], "walk_speed_mps": [1], "max_walk_m": [1],
                "stop": [2, 3], "line": [3, 5, 7], "seg": [1, 2]},
    "targets": {"weight": [1], "alpha": [1], "beta": [1], "lambda": [1],
                "component": [1, 2, 3], "edges": None, "masses": None},
}


def numeric_spots(kind: str, lines: list[str]) -> list[tuple[int, int]]:
    """(line index, field index) of every numeric field of a written file."""
    spots = []
    for i, line in enumerate(lines):
        if kind in ("trips", "demand"):
            n = len(line.split(","))
            fields = [3] if kind == "demand" else [0] + [
                off + k for off in range(3, n, 6) for k in (2, 4, 5)
            ]
        else:
            parts = line.split()
            fields = NUMERIC_TOKENS[kind].get(parts[0], [])
            if fields is None:
                fields = range(1, len(parts))
            if parts[0] == "stop" and len(parts) == 2:  # a stop inside a line block
                fields = []
        spots.extend((i, f) for f in fields)
    return spots


def mutate(kind: str, text: str, data) -> tuple[str, int]:
    """The mutated text and the 1-based line number it must fail on."""
    lines = text.splitlines()
    spots = numeric_spots(kind, lines)
    if spots and data.draw(st.booleans()):
        i, f = data.draw(st.sampled_from(spots))
        if kind in ("trips", "demand"):
            parts = lines[i].split(",")
            parts[f] = data.draw(BAD_NUMBERS)
            lines[i] = ",".join(parts)
        else:  # keep the indent and, after the field, the rest of the line verbatim
            parts = lines[i].split(None, f + 1)
            parts[f] = data.draw(BAD_NUMBERS)
            lines[i] = lines[i][: len(lines[i]) - len(lines[i].lstrip())] + " ".join(parts)
    else:
        i = data.draw(st.integers(0, len(lines)))
        lines.insert(i, "bogus 1" if kind in ("network", "targets") else "bogus")
    return "\n".join(lines) + "\n", i + 1


class TestMutatedFiles:
    @settings(max_examples=300, deadline=None)
    @given(formats(), st.data())
    def test_fail_with_the_line(self, case, data):
        kind, writer, reader, value = case
        text, lineno = mutate(kind, written(writer, value), data)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "f"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(tfio.FormatError) as err:
                reader(path)
        assert str(err.value).startswith(f"{path}:{lineno}: ")


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A tiny collection, its day-1 demand and a targets file: the texts the
    CLI test mutates, keyed by format."""
    root = tmp_path_factory.mktemp("cli_inputs")
    net = build_grid_network(rows=2, cols=2, seed=4)
    collection = generate_collection(SynthConfig(network=net, days=2, day_types=(WORKING,) * 2,
                                                 trips_per_day=20, od_pool_size=6, seed=8))
    tfio.write_collection(collection, root)
    routes = list(collection.days[0].routes)
    spec = MismatchSpec(tuple(
        MismatchEntry(tag, build_empirical_target(routes, tag)) for tag in CHARACTERISTICS
    ))
    tfio.write_targets(spec, root / "targets.txt")
    return {path.name: path.read_text(encoding="utf-8") for path in root.iterdir()}


CLI_FILES = {"network": "network.txt", "trips": "day_000_working.trips",
             "demand": "day_001_working.demand", "targets": "targets.txt"}


class TestCliOnMutatedFiles:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(CLI_FILES)), st.data())
    def test_generate_exits_2_with_the_line(self, cli_inputs, capsys, kind, data):
        name = CLI_FILES[kind]
        mutated, lineno = mutate(kind, cli_inputs[name], data)
        with tempfile.TemporaryDirectory() as d:
            root = Path(d)
            for file_name, text in cli_inputs.items():
                (root / file_name).write_text(mutated if file_name == name else text,
                                              encoding="utf-8")
            capsys.readouterr()
            rc = main([
                "generate",
                "--network", str(root / "network.txt"),
                "--demand", str(root / "day_001_working.demand"),
                "--targets", str(root / "targets.txt"),
                "--history-dir", str(root),
                "--iterations", "0",
                "--out-dir", str(root / "out"),
            ])
            err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {root / name}:{lineno}: ")
