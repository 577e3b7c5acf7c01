"""Declarative experiment configuration (JSON) — the input subsystem's
"user-defined resource specifications" as a file format.

An experiment file fully specifies one simulation: node spec, configuration
spec, task spec (all distribution parameters via
:func:`repro.rng.distributions.distribution_from_spec`), and simulator
options.  Example:

.. code-block:: json

    {
      "nodes":   {"count": 100,
                  "total_area": {"kind": "uniform_int", "low": 1000, "high": 4000}},
      "configs": {"count": 50,
                  "req_area": {"kind": "uniform_int", "low": 200, "high": 2000},
                  "config_time": {"kind": "uniform_int", "low": 10, "high": 20}},
      "tasks":   {"count": 2000,
                  "arrival_interval": {"kind": "uniform_int", "low": 1, "high": 50},
                  "required_time": {"kind": "uniform_int", "low": 100, "high": 100000},
                  "closest_match_pct": 0.15},
      "simulation": {"partial": true, "seed": 42, "queue_order": "fifo",
                     "gpp": {"count": 4, "cores": 2, "slowdown": 8.0}}
    }

Every section and field is optional; omitted values fall back to the
Table II defaults.  ``dreamsim run --config file.json`` consumes this.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.framework.simulator import DReAMSim
from repro.model.gpp import GppPool
from repro.rng import RNG
from repro.rng.distributions import distribution_from_spec
from repro.workload.generator import (
    generate_configs,
    generate_nodes,
    generate_task_stream,
)
from repro.workload.spec import ConfigSpec, NodeSpec, TaskSpec

_NODE_DISTS = ("total_area", "network_delay")
_CONFIG_DISTS = ("req_area", "config_time")
_TASK_DISTS = (
    "arrival_interval",
    "required_time",
    "data_size",
    "unknown_req_area",
    "unknown_config_time",
)


class ExperimentConfigError(ValueError):
    """Malformed experiment description."""


def _build_spec(cls, section: Mapping[str, Any], dist_fields, label: str):
    kwargs: dict[str, Any] = {}
    for key, value in section.items():
        if key in dist_fields:
            if not isinstance(value, Mapping):
                raise ExperimentConfigError(
                    f"{label}.{key} must be a distribution object, got {value!r}"
                )
            try:
                kwargs[key] = distribution_from_spec(value)
            except ValueError as exc:
                raise ExperimentConfigError(f"{label}.{key}: {exc}") from None
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ExperimentConfigError(f"{label}: {exc}") from None


@dataclass
class ExperimentConfig:
    """A fully resolved experiment: specs plus simulator options."""

    node_spec: NodeSpec = field(default_factory=NodeSpec)
    config_spec: ConfigSpec = field(default_factory=ConfigSpec)
    task_spec: TaskSpec = field(default_factory=TaskSpec)
    partial: bool = True
    seed: int = 42
    queue_order: str = "fifo"
    max_queue_length: Optional[int] = None
    max_retries: Optional[int] = None
    gpp: Optional[GppPool] = None

    def build(self, **sim_kwargs: Any) -> DReAMSim:
        """Instantiate a ready-to-run simulator from this configuration.

        ``sim_kwargs`` pass through to :class:`DReAMSim` (e.g. ``trace=`` to
        attach a trace bus, ``backend="scan"`` for the reference manager).
        """
        rng = RNG(seed=self.seed)
        nodes = generate_nodes(self.node_spec, rng)
        configs = generate_configs(self.config_spec, rng)
        stream = generate_task_stream(self.task_spec, configs, rng)
        return DReAMSim(
            nodes,
            configs,
            stream,
            partial=self.partial,
            queue_order=self.queue_order,
            max_queue_length=self.max_queue_length,
            max_retries=self.max_retries,
            gpp=self.gpp,
            **sim_kwargs,
        )

    def describe(self) -> dict[str, Any]:
        """Run parameters for the XML report's <parameters> section."""
        return {
            "nodes": self.node_spec.count,
            "configs": self.config_spec.count,
            "tasks": self.task_spec.count,
            "partial": self.partial,
            "seed": self.seed,
            "queue_order": self.queue_order,
            "gpp": self.gpp.capacity if self.gpp else 0,
        }


def load_experiment(source: Union[str, Path, Mapping[str, Any]]) -> ExperimentConfig:
    """Parse an experiment description from a JSON file, string, or dict."""
    if isinstance(source, Mapping):
        doc: Mapping[str, Any] = source
    else:
        text = (
            Path(source).read_text(encoding="utf-8")
            if isinstance(source, Path) or not str(source).lstrip().startswith("{")
            else str(source)
        )
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, Mapping):
        raise ExperimentConfigError("experiment document must be a JSON object")

    known = {"nodes", "configs", "tasks", "simulation"}
    unknown = set(doc) - known
    if unknown:
        raise ExperimentConfigError(
            f"unknown sections {sorted(unknown)}; expected {sorted(known)}"
        )

    cfg = ExperimentConfig(
        node_spec=_build_spec(NodeSpec, doc.get("nodes", {}), _NODE_DISTS, "nodes"),
        config_spec=_build_spec(
            ConfigSpec, doc.get("configs", {}), _CONFIG_DISTS, "configs"
        ),
        task_spec=_build_spec(TaskSpec, doc.get("tasks", {}), _TASK_DISTS, "tasks"),
    )
    sim = dict(doc.get("simulation", {}))
    gpp_section = sim.pop("gpp", None)
    if gpp_section is not None:
        try:
            cfg.gpp = GppPool(**gpp_section)
        except (TypeError, ValueError) as exc:
            raise ExperimentConfigError(f"simulation.gpp: {exc}") from None
    for key in ("partial", "seed", "queue_order", "max_queue_length", "max_retries"):
        if key in sim:
            setattr(cfg, key, sim.pop(key))
    if sim:
        raise ExperimentConfigError(f"unknown simulation options {sorted(sim)}")
    return cfg


__all__ = ["ExperimentConfig", "ExperimentConfigError", "load_experiment"]
