"""Config and result serialization (JSON-compatible dicts).

Lets external tools consume the Table I data, lets design-exploration
scripts persist hypothetical configurations (see
``examples/design_exploration.py``), and gives the execution engine its
wire format: worker payloads ship configs via :func:`config_to_dict`.
Whole populations archive through :func:`population_to_json`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from .config import (
    BranchPredictorConfig,
    CacheConfig,
    GenerationConfig,
    MemoryLatencyConfig,
    PrefetchConfig,
    TlbConfig,
    config_fingerprint,  # noqa: F401  (re-export: cache-key helper)
)

_NESTED_TYPES = {
    "l1i": CacheConfig,
    "l1d": CacheConfig,
    "l2": CacheConfig,
    "l3": CacheConfig,
    "l1i_tlb": TlbConfig,
    "l1d_tlb": TlbConfig,
    "l15d_tlb": TlbConfig,
    "l2_tlb": TlbConfig,
    "branch": BranchPredictorConfig,
    "prefetch": PrefetchConfig,
    "memlat": MemoryLatencyConfig,
}


def config_to_dict(config: GenerationConfig) -> Dict[str, Any]:
    """Recursively convert a generation config to plain dicts/lists."""
    out = dataclasses.asdict(config)
    # Tuples (fp_latencies) become lists via asdict already on round-trip;
    # normalise for JSON friendliness.
    out["fp_latencies"] = list(out["fp_latencies"])
    return out


def config_from_dict(data: Dict[str, Any]) -> GenerationConfig:
    """Rebuild a :class:`GenerationConfig` from :func:`config_to_dict`
    output (raises ``TypeError``/``ValueError`` on malformed input)."""
    kwargs = dict(data)
    for field, cls in _NESTED_TYPES.items():
        value = kwargs.get(field)
        if value is None:
            continue
        if not isinstance(value, dict):
            raise TypeError(f"field {field!r} must be a mapping")
        kwargs[field] = cls(**value)
    if "fp_latencies" in kwargs:
        kwargs["fp_latencies"] = tuple(kwargs["fp_latencies"])
    return GenerationConfig(**kwargs)


def config_to_json(config: GenerationConfig, indent: Optional[int] = 2) -> str:
    import json

    return json.dumps(config_to_dict(config), indent=indent)


def config_from_json(text: str) -> GenerationConfig:
    import json

    return config_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Population results (the archive format)
# ---------------------------------------------------------------------------

def population_to_dict(population: "Any") -> Dict[str, Any]:
    """A whole :class:`~repro.engine.results.PopulationResult` as plain
    dicts, for JSON export or archival of a population run."""
    from .engine.results import RESULT_SCHEMA_VERSION

    return {
        "schema": RESULT_SCHEMA_VERSION,
        "metrics": [m.to_dict() for m in population.metrics],
    }


def population_from_dict(data: Dict[str, Any]) -> "Any":
    from .engine.results import (READABLE_SCHEMAS, RESULT_SCHEMA_VERSION,
                                 PopulationResult, SliceMetrics)

    schema = data.get("schema", 1)
    if schema not in READABLE_SCHEMAS:
        raise ValueError(
            f"unsupported population schema {schema!r} "
            f"(this build reads <= {RESULT_SCHEMA_VERSION})")
    return PopulationResult(
        metrics=[SliceMetrics.from_dict(m) for m in data["metrics"]])


def population_to_json(population: "Any",
                       indent: Optional[int] = None) -> str:
    """Canonical archive bytes: keys sorted, so equal populations
    always serialize byte-identically (the run ledger digests these
    bytes, and `repro regress` inputs are compared file-to-file)."""
    import json

    return json.dumps(population_to_dict(population), indent=indent,
                      sort_keys=True)


def population_from_json(text: str) -> "Any":
    import json

    return population_from_dict(json.loads(text))
