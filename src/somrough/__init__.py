"""somrough: inverse parameter estimation from forward-model run tables.

The package discretizes continuous simulation results into ordinal
granules with small self-organizing maps, induces a constrained cover of
rough-set decision rules over the granulated table, and inverts monitored
observations into per-parameter range bundles, ranked by reduct-based
sensitivity.

``import somrough`` loads none of the package's modules: each public name
imports its module on first use (PEP 562), so a process pays only for
the modules it touches.
"""

# Each module and the public names it defines.
_EXPORTS = {
    "errors": ("DataError", "SomroughError", "UsageError"),
    "pipeline": (
        "ParameterEstimate", "PipelineConfig", "RunReport", "back_analyze", "close_open",
        "granulate", "granulate_observation",
    ),
    "rough": ("core", "disc_function", "disc_matrix", "partition_by", "reducts"),
    "rules": (
        "Rule", "RuleConstraints", "RuleSet", "accuracy", "classify", "induce_cover",
        "parse_rule", "parse_rules", "render_rule", "render_rules",
    ),
    "som": ("SomConfig", "SomMap", "fit_discretizer", "quantization_error", "train", "winner"),
    "surrogate": ("SlopeParams", "displacement_proxy", "factor_of_safety", "generate_table"),
    "table": (
        "AttributeSpec", "DecisionTable", "Discretizer", "GranularTable", "assign_granule",
        "load_schema", "load_table", "scale_minmax", "split_random",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """Import a public name's module, or a submodule, on first use."""
    home = _HOME.get(name)
    if home or name.isidentifier():
        try:
            __import__(f"{__name__}.{home or name}")
        except ModuleNotFoundError as exc:
            if home or exc.name != f"{__name__}.{name}":
                raise
        else:
            if home:
                # The import bound the module in these globals; binding the
                # name too keeps later lookups off this hook.
                globals()[name] = getattr(globals()[home], name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
