"""RPR104 — dead configuration fields and shadowing re-defaults.

RPR104 generalizes RPR010 cross-module: a config field no code ever
reads is dead weight (and a likely misspelling of the field the author
meant to wire), and a function parameter or dataclass field in model
code that re-states a config field name with its own literal default is
a shadow copy — callers that omit the argument silently pin the knob to
the local default instead of the configured value.

(RPR103, which checked that two recovery engines read the same config
fields, retired with the second engine.)
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .base import Violation
from .callgraph import ProjectGraph
from .symbols import ModuleFacts

DEADCONF_RULE_ID = "RPR104"
DEADCONF_RULE_SUMMARY = ("dead config field, or local re-default "
                         "shadowing a config field")


@dataclass(frozen=True)
class ConfigPolicy:
    """What counts as the config contract and as model code."""

    config_module: str = "repro.config"
    config_class: str = "SystemConfig"
    #: module prefixes where shadow re-defaults are checked (model code).
    shadow_modules: tuple[str, ...] = ("repro.cluster", "repro.reliability",
                                      "repro.disks")
    #: "module:Qual.name" -> justification for a sanctioned re-default.
    shadow_allowlist: dict[str, str] = dc_field(default_factory=dict)


#: The repository's policy.  Keep every allowlist entry justified — the
#: entries are the documented, reviewed exceptions to the contract.
REPRO_CONFIG_POLICY = ConfigPolicy()


def _module_matches(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".")
               for p in prefixes)


def _config_fields(graph: ProjectGraph,
                   policy: ConfigPolicy) -> dict[str, dict]:
    facts = graph.modules.get(policy.config_module)
    if facts is None:
        return {}
    cls = facts.classes.get(policy.config_class)
    if cls is None:
        return {}
    return cls.fields


def check_dead_config(graph: ProjectGraph,
                      policy: ConfigPolicy = REPRO_CONFIG_POLICY
                      ) -> list[Violation]:
    """RPR104: dead config fields + shadowing re-defaults."""
    fields = _config_fields(graph, policy)
    violations: list[Violation] = []
    if fields:
        config_facts = graph.modules[policy.config_module]
        prop_map = graph.property_field_reads(policy.config_module,
                                              policy.config_class)
        read: set[str] = set()
        for name, facts in graph.modules.items():
            if name == policy.config_module:
                continue
            for attr in facts.attr_reads:
                if attr in fields:
                    read.add(attr)
                for f in prop_map.get(attr, ()):
                    if f in fields:
                        read.add(f)
        for fname, meta in fields.items():
            if fname in read:
                continue
            line = int(meta.get("line", 0))
            if config_facts.suppressed(line, DEADCONF_RULE_ID):
                continue
            violations.append(Violation(
                path=config_facts.path, line=line, col=0,
                rule=DEADCONF_RULE_ID,
                message=f"{policy.config_class}.{fname} is never read "
                        f"outside {policy.config_module}; dead knob or "
                        f"mis-wired name"))
    violations.extend(_shadow_violations(graph, policy, fields))
    return sorted(violations)


def _shadow_violations(graph: ProjectGraph, policy: ConfigPolicy,
                       fields: dict[str, dict]) -> list[Violation]:
    if not fields:
        return []
    out: list[Violation] = []
    for name, facts in graph.modules.items():
        if name == policy.config_module:
            continue
        if not _module_matches(name, policy.shadow_modules):
            continue
        out.extend(_function_shadows(name, facts, policy, fields))
        out.extend(_field_shadows(name, facts, policy, fields))
    return out


def _function_shadows(name: str, facts: ModuleFacts,
                      policy: ConfigPolicy,
                      fields: dict[str, dict]) -> list[Violation]:
    out: list[Violation] = []
    for qual, fn in facts.functions.items():
        for param, default in fn.param_defaults.items():
            if param not in fields or default in ("None",):
                continue
            key = f"{name}:{qual}.{param}"
            if key in policy.shadow_allowlist:
                continue
            if facts.suppressed(fn.line, DEADCONF_RULE_ID):
                continue
            out.append(Violation(
                path=facts.path, line=fn.line, col=0,
                rule=DEADCONF_RULE_ID,
                message=f"parameter `{param}={default}` of `{qual}` "
                        f"re-defaults the config field "
                        f"`{policy.config_class}.{param}`; omitting "
                        f"the argument shadows the configured value"))
    return out


def _field_shadows(name: str, facts: ModuleFacts, policy: ConfigPolicy,
                   fields: dict[str, dict]) -> list[Violation]:
    out: list[Violation] = []
    for cname, cls in facts.classes.items():
        for fname, meta in cls.fields.items():
            default = meta.get("default", "")
            if fname not in fields or not default or default == "None":
                continue
            key = f"{name}:{cname}.{fname}"
            if key in policy.shadow_allowlist:
                continue
            line = int(meta.get("line", 0))
            if facts.suppressed(line, DEADCONF_RULE_ID):
                continue
            out.append(Violation(
                path=facts.path, line=line, col=0,
                rule=DEADCONF_RULE_ID,
                message=f"dataclass field `{cname}.{fname} = {default}` "
                        f"re-defaults the config field "
                        f"`{policy.config_class}.{fname}`; plumb the "
                        f"configured value instead"))
    return out
