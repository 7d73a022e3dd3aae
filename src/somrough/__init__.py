"""somrough: inverse parameter estimation from forward-model run tables.

The package discretizes continuous simulation results into ordinal
granules with small self-organizing maps, induces a constrained cover of
rough-set decision rules over the granulated table, and inverts monitored
observations into per-parameter range bundles, ranked by reduct-based
sensitivity.
"""

from .errors import DataError, SomroughError, UsageError
from .pipeline import (
    ParameterEstimate,
    PipelineConfig,
    RunReport,
    back_analyze,
    close_open,
    granulate,
    granulate_observation,
)
from .rough import (
    approx_quality,
    core,
    disc_function,
    disc_matrix,
    lower_approx,
    partition_by,
    reducts,
    reducts_exhaustive,
    upper_approx,
)
from .rules import (
    Rule,
    RuleConstraints,
    RuleSet,
    accuracy,
    classify,
    induce_cover,
    parse_rule,
    parse_rules,
    render_rule,
    render_rules,
)
from .som import (
    Discretizer,
    SomConfig,
    SomMap,
    assign_granule,
    fit_discretizer,
    quantization_error,
    train,
    winner,
)
from .surrogate import SlopeParams, displacement_proxy, factor_of_safety, generate_table
from .table import (
    AttributeSpec,
    DecisionTable,
    GranularTable,
    load_schema,
    load_table,
    scale_minmax,
    split_random,
)

__all__ = [
    "AttributeSpec",
    "DataError",
    "DecisionTable",
    "Discretizer",
    "GranularTable",
    "ParameterEstimate",
    "PipelineConfig",
    "Rule",
    "RuleConstraints",
    "RuleSet",
    "RunReport",
    "SlopeParams",
    "SomConfig",
    "SomMap",
    "SomroughError",
    "UsageError",
    "accuracy",
    "approx_quality",
    "assign_granule",
    "back_analyze",
    "classify",
    "close_open",
    "core",
    "disc_function",
    "disc_matrix",
    "displacement_proxy",
    "factor_of_safety",
    "fit_discretizer",
    "generate_table",
    "granulate",
    "granulate_observation",
    "induce_cover",
    "load_schema",
    "load_table",
    "lower_approx",
    "parse_rule",
    "parse_rules",
    "partition_by",
    "quantization_error",
    "reducts",
    "reducts_exhaustive",
    "render_rule",
    "render_rules",
    "scale_minmax",
    "split_random",
    "train",
    "upper_approx",
    "winner",
]
__version__ = "0.1.0"
