import copy
import json
import math
from pathlib import Path

import pytest

import gibbscache as gc
from gibbscache.errors import ConfigError


def base_data(**over):
    data = {
        "topology": {"intervals": [[0, 6], [1, 10]]},
        "catalog": {"intensities": [0.055, 0.045]},
        "cache": {"capacity": 1},
    }
    data.update(over)
    return data


class TestBuildConfig:
    def test_minimal(self):
        cfg = gc.build_config(base_data())
        assert cfg.topology.n_bs == 2
        assert cfg.cache_size == 1
        assert cfg.gibbs.mode == "fixed"
        assert cfg.eta == 0.0
        assert cfg.n_windows == 12
        assert not cfg.learning

    def test_shipped_reference_config(self, line2_config):
        assert line2_config.gibbs.beta == 2.0
        assert line2_config.horizon == 200000
        assert line2_config.schedule_t1 == 10.0
        assert line2_config.seed == 42

    def test_segments_topology(self):
        data = base_data(
            topology={
                "segments": {
                    "n_bs": 2,
                    "areas": [
                        {"subset": [1], "area": 1.0},
                        {"subset": [1, 2], "area": 5.0},
                        {"subset": [2], "area": 4.0},
                    ],
                }
            }
        )
        cfg = gc.build_config(data)
        assert cfg.topology.total_area == pytest.approx(10.0)

    def test_exactly_one_topology_mode(self):
        data = base_data()
        data["topology"]["segments"] = {"n_bs": 1, "areas": []}
        with pytest.raises(ConfigError) as exc:
            gc.build_config(data)
        assert "topology" in str(exc.value)
        with pytest.raises(ConfigError):
            gc.build_config(base_data(topology={}))

    def test_missing_required(self):
        for drop in ("topology", "catalog", "cache"):
            data = base_data()
            del data[drop]
            with pytest.raises(ConfigError):
                gc.build_config(data)

    def test_capacity_bounds(self):
        with pytest.raises(ConfigError) as exc:
            gc.build_config(base_data(cache={"capacity": 2}))
        assert "cache.capacity" in str(exc.value)
        with pytest.raises(ConfigError):
            gc.build_config(base_data(cache={"capacity": 0}))

    def test_bad_intensities(self):
        with pytest.raises(ConfigError):
            gc.build_config(base_data(catalog={"intensities": [0.1, -0.2]}))

    def test_eta_guard_for_fully_overlapped_stations(self):
        # Two identical cells: with eta = 0 neither station could ever be
        # chosen over the other deterministically... both lack an exclusive
        # region, which the validator flags.
        data = base_data(topology={"intervals": [[0, 2], [0, 2]]})
        with pytest.raises(ConfigError) as exc:
            gc.build_config(data)
        msg = str(exc.value)
        assert "traffic.eta" in msg
        # Accepted once exploration is on.
        data["traffic"] = {"eta": 0.05}
        cfg = gc.build_config(data)
        assert cfg.eta == 0.05

    def test_topology_without_positive_area(self):
        # Zero-area segments are dropped, so no request could ever arrive.
        data = base_data(
            topology={"segments": {"n_bs": 1, "areas": [{"subset": [1], "area": 0.0}]}},
            traffic={"eta": 0.01},
        )
        with pytest.raises(ConfigError) as exc:
            gc.build_config(data)
        assert exc.value.field == "topology"
        assert exc.value.remedy

    def test_eta_range(self):
        with pytest.raises(ConfigError):
            gc.build_config(base_data(traffic={"eta": 1.0}))

    def test_local_scope_needs_eta(self):
        data = base_data(
            gibbs={"learning": True},
            traffic={"eta": 0.0, "estimator": {"scope": "local"}},
        )
        with pytest.raises(ConfigError) as exc:
            gc.build_config(data)
        assert "scope" in str(exc.value)
        data["traffic"]["eta"] = 0.1
        assert gc.build_config(data).estimator.scope == "local"

    def test_estimator_validation(self):
        with pytest.raises(ConfigError):
            gc.build_config(base_data(traffic={"estimator": {"c0": 0.0}}))
        with pytest.raises(ConfigError):
            gc.build_config(base_data(traffic={"estimator": {"scope": "psychic"}}))

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            gc.build_config(base_data(schedule={"kind": "quadratic"}))
        with pytest.raises(ConfigError):
            gc.build_config(base_data(schedule={"t1": -1.0}))

    def test_sim_validation(self):
        with pytest.raises(ConfigError):
            gc.build_config(base_data(sim={"horizon": 0}))
        with pytest.raises(ConfigError):
            gc.build_config(base_data(sim={"slot_spacing": 0}))
        with pytest.raises(ConfigError):
            gc.build_config(base_data(sim={"n_windows": 2}))

    def test_annealing_gate(self):
        # beta0 must clear both admissibility inequalities; for the line
        # instance the binding one is beta0 < 1 / 0.765.
        ok = gc.build_config(base_data(gibbs={"mode": "annealed", "beta0": 1.0}))
        assert ok.gibbs.mode == "annealed"
        with pytest.raises(ConfigError) as exc:
            gc.build_config(base_data(gibbs={"mode": "annealed", "beta0": 1.5}))
        assert "beta0" in str(exc.value)

    def test_annealing_gate_beyond_enumeration(self):
        # line30 (4060**30 states) is gated by closed-form hit-rate bounds,
        # h_max <= 20.44 and h_min >= 0.952, which admit beta0 < 0.00171.
        data = {
            "topology": {"intervals": [[3 * j, 3 * j + 5] for j in range(30)]},
            "catalog": {"intensities": [0.1 / i for i in range(1, 31)]},
            "cache": {"capacity": 3},
            "gibbs": {"mode": "annealed", "beta0": 1.0},
            "traffic": {"eta": 0.01},
        }
        with pytest.raises(ConfigError) as exc:
            gc.build_config(data)
        assert exc.value.field == "gibbs.beta0"
        assert "h_max <= 20.4433" in exc.value.problem
        assert exc.value.remedy == "choose beta0 < 0.0017102"
        data["gibbs"]["beta0"] = 0.001
        assert gc.build_config(data).gibbs.beta0 == 0.001

    def test_error_carries_remedy(self):
        try:
            gc.build_config(base_data(gibbs={"mode": "annealed", "beta0": 5.0}))
        except ConfigError as exc:
            assert exc.remedy and "beta0 <" in exc.remedy
        else:
            pytest.fail("expected ConfigError")


BAD_VALUES = [math.nan, math.inf, -math.inf, "1", None, True, [], {}]


def every_field_set():
    """The shipped config with every optional field added at its default."""
    data = json.loads(Path("configs/two_station_line.json").read_text())
    data["gibbs"].update(beta0=1.0, learning=False)
    data["schedule"]["ratio"] = 2.0
    data["traffic"]["estimator"] = {"c0": 1.0, "t0": 1.0, "scope": "shared"}
    data["sim"].update(record_events=False, record_slots=False)
    return data


def nodes(node, field=""):
    """(field, parent, key) of every value below ``node``, depth first; a
    list element is named by the field of its list."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        name = f"{field}.{key}".lstrip(".") if isinstance(node, dict) else field
        yield name, node, key
        if isinstance(value, (dict, list)):
            yield from nodes(value, name)


class TestBadValues:
    def test_every_field_rejects_bad_values(self):
        # Each value, section and list element in turn gets each bad value;
        # build_config must raise a ConfigError naming that field, and
        # nothing else.
        data = every_field_set()
        gc.build_config(data)
        wrong = []
        for index, (field, parent, key) in enumerate(nodes(data)):
            for bad in BAD_VALUES:
                if type(bad) in (bool, dict) and type(bad) is type(parent[key]):
                    continue  # a valid value there
                case = copy.deepcopy(data)
                _, target, _ = list(nodes(case))[index]
                target[key] = bad
                try:
                    gc.build_config(case)
                except ConfigError as exc:
                    if exc.field != field:
                        wrong.append((field, bad, exc.field))
                else:
                    wrong.append((field, bad, "accepted"))
        assert not wrong


TOPOLOGIES = {
    "topology.segments": {
        "segments": {
            "n_bs": 2,
            "areas": [{"subset": [1], "area": 1.0}, {"subset": [1, 2], "area": 5.0},
                      {"subset": [2], "area": 4.0}],
        }
    },
    "topology.discs": {
        "discs": {"centers": [[0.0, 0.0], [1.5, 0.0]], "radii": [1.0, 1.0], "grid_step": 0.1}
    },
}
TOPOLOGIES["topology.segments.areas"] = TOPOLOGIES["topology.segments"]


def topology_field(path):
    """A config with the topology that ``path`` is in, the object holding the
    field at ``path`` and the field's name."""
    *parents, name = path.split(".")
    data = base_data(topology=copy.deepcopy(TOPOLOGIES.get(".".join(parents[:2]), {})),
                     traffic={"eta": 0.1})
    section = data
    for key in parents:
        section = section[key]
        if isinstance(section, list):  # a list element is named by its list
            section = section[0]
    return data, section, name


class TestMissingTopologyFields:
    @pytest.mark.parametrize(
        "path",
        ["topology.segments.n_bs", "topology.segments.areas", "topology.segments.areas.subset",
         "topology.segments.areas.area", "topology.discs.centers", "topology.discs.radii",
         "topology.discs.grid_step"],
    )
    def test_missing_field_is_named(self, path):
        data, section, name = topology_field(path)
        del section[name]
        with pytest.raises(ConfigError) as exc:
            gc.build_config(data)
        assert exc.value.field == path
        assert "missing required field" in str(exc.value)


class TestMalformedTopologyFields:
    @pytest.mark.parametrize(
        "path, value",
        [("topology.intervals", 3), ("topology.intervals", [3]),
         ("topology.intervals", [[0, 1, 2]]), ("topology.segments.areas", [3]),
         ("topology.segments.areas", 3), ("topology.segments.areas.subset", 1),
         ("topology.discs.centers", 3), ("topology.discs.radii", 1)],
    )
    def test_malformed_value_is_named(self, path, value):
        data, section, name = topology_field(path)
        section[name] = value
        with pytest.raises(ConfigError) as exc:
            gc.build_config(data)
        assert exc.value.field == path
        assert exc.value.problem.startswith("must be ")


class TestDiscGrid:
    @pytest.mark.parametrize(
        "discs, problem",
        [
            ({"centers": [[0, 0]], "radii": [1.0], "grid_step": 1e-308}, "grid_step"),
            ({"centers": [[0, 0]], "radii": [1.0], "grid_step": 1e-6}, "grid_step"),
            ({"centers": [[0, 0], [0.05, 0]], "radii": [1.0, 0.001], "grid_step": 0.1},
             "disc 2 (radius 0.001) covers no grid point"),
        ],
    )
    @pytest.mark.parametrize("eta", [0.0, 0.01])
    def test_grid_problem_is_named(self, discs, problem, eta):
        # With eta = 0 an uncovered station would otherwise be blamed on
        # traffic.eta; with eta > 0 it would build and never see a request.
        with pytest.raises(ConfigError) as exc:
            gc.build_config(base_data(topology={"discs": discs}, traffic={"eta": eta}))
        assert exc.value.field == "topology.discs"
        assert problem in exc.value.problem


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "path",
        ["", "topology", *TOPOLOGIES, "catalog", "cache", "gibbs", "traffic",
         "traffic.estimator", "schedule", "sim"],
    )
    def test_unknown_key_is_named(self, path):
        data = every_field_set()
        if path in TOPOLOGIES:
            data["topology"] = copy.deepcopy(TOPOLOGIES[path])
        before = copy.deepcopy(data)
        gc.build_config(data)
        assert data == before  # reading a config leaves it as it was
        section = data
        for name in filter(None, path.split(".")):
            section = section[name]
            if isinstance(section, list):  # a list element is named by its list
                section = section[0]
        section["horizn"] = 5
        with pytest.raises(ConfigError) as exc:
            gc.build_config(data)
        assert exc.value.field == f"{path}.horizn".lstrip(".")
        assert "unknown key" in str(exc.value)


class TestParseConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(base_data()))
        cfg = gc.parse_config(path)
        assert cfg.topology.n_bs == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            gc.parse_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            gc.parse_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            gc.parse_config(path)
