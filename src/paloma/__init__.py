"""PALOMA: a process algebra for located Markovian agents.

Parse located-agent models, query context-aware action rates, derive the
underlying continuous-time Markov chain, and decide bisimilarity of model
components up to an isometry of the plane.

Every name below is exported from the package, and each module loads on the
first use of a name it defines (PEP 562), so a command-line call imports
only the layers it runs.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "ctmc": ("BoundExceeded", "Ctmc", "Transition", "build_ctmc", "export_dot", "export_tsv"),
    "equivalence": ("BisimResult", "Counterexample", "bisimilar", "check_bisim_phi",
                    "naive_bisim", "recheck_transfer"),
    "geometry": ("IDENTITY", "Isometry", "candidate_isometries", "compose", "invert",
                 "map_location", "map_locations", "reflection_y_axis", "rotation",
                 "translation"),
    "model": ("ActionId", "ActionType", "BroadcastIn", "BroadcastOut", "Choice",
              "ConstantRef", "Definitions", "EMPTY", "Location", "ModelComponent",
              "ModelError", "Prefix", "PrefixGuarded", "SeqComponent", "Spontaneous",
              "UnicastIn", "UnicastOut", "action_labels", "canonical", "choice_leaves",
              "constant", "guarded", "locations_of", "remove_at", "render_model",
              "render_seq", "seq_in", "struct_equiv"),
    "parser": ("Diagnostic", "ModelDefinition", "ParseResult", "parse_model",
               "pretty_print", "validate"),
    "rates": ("RateQuery", "broadcast_act_prob", "broadcast_out_rate",
              "broadcast_system_rate", "exit_rate", "receive_weight", "spontaneous_rate",
              "unicast_act_prob", "unicast_cap_rate", "unicast_influence",
              "unicast_out_rate", "unicast_receive_prob", "unicast_system_rate"),
    "semantics": ("CapLabel", "Continuation", "Derivation", "LiftedStep", "Step",
                  "StochLabel", "agent_steps", "cap_step", "component_steps", "derivations",
                  "stoch_step"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
