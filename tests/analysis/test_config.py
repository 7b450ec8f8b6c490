"""AnalysisConfig: validation, defaults, signature and serialization."""

import dataclasses

import pytest

from repro.analysis import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_GAMMA,
    DEFAULT_PARAM_VALUE,
    AnalysisConfig,
    Analyzer,
)
from repro.polybench import analyze_suite, get_kernel


class TestDefaults:
    def test_default_fields(self):
        config = AnalysisConfig()
        assert config.instance is None
        assert config.gamma == DEFAULT_GAMMA
        assert config.max_depth == 1
        assert config.max_subcdags_per_statement == 1
        assert config.strategies == ("kpartition", "wavefront")

    def test_heuristic_instance_defaults(self):
        config = AnalysisConfig()
        instance = config.heuristic_instance(("Ni", "Nj"))
        assert instance == {
            "Ni": DEFAULT_PARAM_VALUE,
            "Nj": DEFAULT_PARAM_VALUE,
            "S": DEFAULT_CACHE_SIZE,
        }

    def test_heuristic_instance_overrides(self):
        config = AnalysisConfig(instance={"Ni": 7, "S": 32})
        assert config.heuristic_instance(("Ni", "Nj")) == {
            "Ni": 7,
            "Nj": DEFAULT_PARAM_VALUE,
            "S": 32,
        }

    def test_strategies_normalised_to_tuple(self):
        config = AnalysisConfig(strategies=["kpartition"])
        assert config.strategies == ("kpartition",)


class TestValidation:
    @pytest.mark.parametrize("gamma", [-0.1, 1.5])
    def test_gamma_out_of_range(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            AnalysisConfig(gamma=gamma)

    def test_negative_max_depth(self):
        with pytest.raises(ValueError, match="max_depth"):
            AnalysisConfig(max_depth=-1)

    def test_zero_subcdag_rounds(self):
        with pytest.raises(ValueError, match="max_subcdags_per_statement"):
            AnalysisConfig(max_subcdags_per_statement=0)

    def test_empty_strategies(self):
        with pytest.raises(ValueError, match="strategies"):
            AnalysisConfig(strategies=())

    def test_unknown_strategy_fails_when_the_config_is_built(self):
        """A bad name fails at the config, before anything is planned."""
        with pytest.raises(ValueError, match="unknown strategy 'no-such-strategy'"):
            AnalysisConfig(strategies=("no-such-strategy",))
        with pytest.raises(ValueError, match="unknown strategy 'no-such-strategy'"):
            AnalysisConfig.from_dict({"strategies": ["kpartition", "no-such-strategy"]})

    def test_repeated_strategy_is_rejected(self):
        """A repeated name would plan and derive its tasks twice and store
        the result under a second key."""
        with pytest.raises(ValueError, match="must not repeat"):
            AnalysisConfig(strategies=("kpartition", "kpartition"))
        with pytest.raises(ValueError, match="must not repeat"):
            AnalysisConfig().replace(strategies=("wavefront", "kpartition", "wavefront"))
        with pytest.raises(ValueError, match="must not repeat"):
            AnalysisConfig.from_dict({"strategies": ["wavefront", "wavefront"]})

    @pytest.mark.parametrize(
        "value, message",
        [(2.7, "must be an integer, got 2.7"), (2.0, "must be an integer, got 2.0"),
         (True, "must be an integer, got True"), ("4", "must be an integer, got '4'"),
         (0, "must be >= 1, got 0"), (-5, "must be >= 1, got -5")],
        ids=["float", "integral-float", "bool", "string", "zero", "negative"],
    )
    def test_bad_instance_value_is_rejected(self, value, message):
        """A float was truncated and a value below 1 derived another bound
        under a new store key; both are refused when the config is built."""
        with pytest.raises(ValueError, match=f"instance value of Ni {message}"):
            AnalysisConfig(instance={"Ni": value})
        with pytest.raises(ValueError, match=f"instance value of Ni {message}"):
            AnalysisConfig.from_dict({"instance": {"Ni": value}})

    def test_valid_instance_keeps_its_key(self):
        config = AnalysisConfig(instance={"Nj": 8, "Ni": 7})
        assert config.instance == {"Nj": 8, "Ni": 7}
        assert config.signature()[0] == (("Ni", 7), ("Nj", 8))

    def test_replace_checks_strategies_too(self):
        """The suite applies overrides with ``replace``; it runs the same checks."""
        with pytest.raises(ValueError, match="unknown strategy 'isl'"):
            AnalysisConfig().replace(strategies=("isl",))

    def test_five_fields(self):
        """Only what changes the derived bound: the executor, its worker
        count and the store are chosen at the call, not in the config."""
        assert [f.name for f in dataclasses.fields(AnalysisConfig)] == [
            "instance",
            "gamma",
            "max_depth",
            "max_subcdags_per_statement",
            "strategies",
        ]


class TestRoundTripAndSignature:
    def test_dict_round_trip(self):
        config = AnalysisConfig(
            instance={"Ni": 12}, gamma=0.5, max_depth=2, strategies=["kpartition"]
        )
        assert AnalysisConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "data",
        [
            {"gama": 0.5},
            # The removed wavefront-validation knobs: the symbolic check is
            # the only one, so a config naming them is refused, not ignored.
            {"wavefront_validation": "concrete"},
            {"validate_wavefront": False},
            {"wavefront_validation_instance": {"N": 4}},
            # How a derivation runs is chosen at the call, never here.
            {"executor": "thread"},
            {"n_jobs": 0},
            {"n_jobs": 2},
            {"cache_dir": "/tmp/x"},
        ],
    )
    def test_from_dict_rejects_unknown_fields(self, data):
        with pytest.raises(ValueError, match="unknown"):
            AnalysisConfig.from_dict(data)

    def test_signature_tuple_is_pinned(self):
        """The signature is folded into every result and task key: its shape
        must not move, or every existing store goes cold."""
        assert AnalysisConfig().signature() == (
            None, 0.25, 1, 1, ("kpartition", "wavefront")
        )
        config = AnalysisConfig(
            instance={"S": 32, "Ni": 7}, gamma=0.5, max_depth=2,
            max_subcdags_per_statement=3, strategies=["kpartition"],
        )
        assert config.signature() == (
            (("Ni", 7), ("S", 32)), 0.5, 2, 3, ("kpartition",)
        )
        assert AnalysisConfig().signature() != AnalysisConfig(gamma=0.5).signature()

    def test_replace(self):
        config = AnalysisConfig().replace(max_depth=3)
        assert config.max_depth == 3
        assert config.gamma == DEFAULT_GAMMA


class TestFrontEquivalence:
    @pytest.mark.parametrize("name,max_depth", [("gemm", 0), ("durbin", 1)])
    def test_analyzer_matches_analyze_suite(self, name, max_depth):
        """The program front and the suite front build the same config and
        give the same bound on gemm and a wavefront kernel."""
        program = get_kernel(name).program
        direct = Analyzer(AnalysisConfig(max_depth=max_depth)).analyze(program)
        [suite] = analyze_suite([name], max_depth=max_depth)
        assert suite.result.smooth == direct.smooth
        assert suite.result.asymptotic == direct.asymptotic
        assert suite.result.log == direct.log
