"""Prometheus text exposition of the metrics registry, plus a validator.

:func:`render` turns a :class:`~repro.obs.metrics.MetricsRegistry` (the
process-wide one by default) into the Prometheus text format (version
0.0.4) that the admin endpoint serves at ``/metrics``: counters and
gauges become single samples with a ``# TYPE`` header; histograms the
standard cumulative ``_bucket{le=...}`` series ending in ``+Inf``,
``_sum`` and ``_count``, plus ``_p50`` / ``_p95`` / ``_p99`` gauge
families (type-correct quantiles).  Names are sanitized to the
Prometheus charset: ``server.wait_seconds`` scrapes as
``server_wait_seconds``.

:func:`parse` is the small validating parser the CI smoke job and the
tests run on a scraped body: name/label/value syntax, ``# TYPE``
declarations, cumulative buckets, and ``+Inf`` bucket equal to
``_count``.  Not a Prometheus client: just enough to prove a real
scraper would accept the endpoint's output.
"""

from __future__ import annotations

import math
import re

from repro.errors import ValidationError
from repro.obs import metrics as metrics_mod
from repro.obs.metrics import _BUCKET_BOUNDS, Histogram

__all__ = ["render", "parse", "sanitize_name"]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'^\s*([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"\s*$')
_PERCENTILES = ("p50", "p95", "p99")


def sanitize_name(name: str) -> str:
    """Map a registry name onto the Prometheus metric-name charset."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not _NAME_RE.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _format_value(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render(registry: "metrics_mod.MetricsRegistry | None" = None) -> str:
    """The registry as Prometheus text exposition (trailing newline included)."""
    registry = registry if registry is not None else metrics_mod.registry()
    lines: list[str] = []
    for name, metric in registry.items():
        exposed = sanitize_name(name)
        if not isinstance(metric, Histogram):
            lines.append(f"# TYPE {exposed} {metric.kind}")
            lines.append(f"{exposed} {_format_value(metric.export())}")
            continue
        # one export() snapshot, so the buckets add up to _count
        exported = metric.export()
        lines.append(f"# TYPE {exposed} histogram")
        cumulative = 0
        for bound in _BUCKET_BOUNDS:
            cumulative += exported["buckets"][str(bound)]
            lines.append(f'{exposed}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f'{exposed}_bucket{{le="+Inf"}} {exported["count"]}')
        lines.append(f"{exposed}_sum {_format_value(exported['sum'])}")
        lines.append(f"{exposed}_count {exported['count']}")
        for stat in _PERCENTILES:
            lines.append(f"# TYPE {exposed}_{stat} gauge")
            lines.append(f"{exposed}_{stat} {_format_value(exported[stat])}")
    return "\n".join(lines) + "\n"


def _parse_value(text: str) -> float:
    try:  # float() reads the exposition's +Inf, -Inf and NaN as well
        return float(text)
    except ValueError:
        raise ValidationError(f"bad sample value {text!r}") from None


def _parse_labels(text: str | None) -> dict[str, str]:
    if not text:
        return {}
    labels: dict[str, str] = {}
    for part in text.split(","):
        match = _LABEL_RE.match(part)
        if match is None:
            raise ValidationError(f"bad label pair {part!r}")
        labels[match.group(1)] = match.group(2)
    return labels


def _family_of(name: str, types: dict[str, str]) -> str:
    """The declared family a sample belongs to (histogram suffixes fold in)."""
    if name in types:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    raise ValidationError(f"sample {name!r} has no # TYPE declaration")


def parse(text: str) -> dict[str, dict]:
    """Validate Prometheus exposition text; samples grouped by family.

    Returns ``{family: {"type": str, "samples": [(name, labels, value)]}}``
    and raises :class:`~repro.errors.ValidationError` on any violation a
    scraper would reject (plus histogram-shape invariants a scraper would
    only notice later).
    """
    types: dict[str, str] = {}
    families: dict[str, dict] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ValidationError(f"malformed TYPE line {line!r}")
                _, _, name, kind = parts
                if kind not in ("counter", "gauge", "histogram", "summary",
                                "untyped"):
                    raise ValidationError(f"unknown metric type {kind!r}")
                if name in types:
                    raise ValidationError(f"duplicate TYPE for {name!r}")
                types[name] = kind
                families[name] = {"type": kind, "samples": []}
            continue  # HELP and other comments pass through
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValidationError(f"unparseable sample line {line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels"))
        value = _parse_value(match.group("value"))
        family = _family_of(name, types)
        families[family]["samples"].append((name, labels, value))
    for family, data in families.items():
        if data["type"] != "histogram":
            continue
        buckets = [(labels, value) for name, labels, value in data["samples"]
                   if name == family + "_bucket"]
        counts = [value for name, _, value in data["samples"]
                  if name == family + "_count"]
        if not buckets or not counts:
            raise ValidationError(f"histogram {family!r} lacks buckets or _count")
        previous = -math.inf
        last = None
        for labels, value in buckets:
            if "le" not in labels:
                raise ValidationError(f"histogram {family!r} bucket lacks le=")
            if value < previous:
                raise ValidationError(
                    f"histogram {family!r} buckets are not cumulative"
                )
            previous = value
            last = (labels["le"], value)
        if last is None or last[0] != "+Inf":
            raise ValidationError(f"histogram {family!r} lacks a +Inf bucket")
        if last[1] != counts[0]:
            raise ValidationError(
                f"histogram {family!r}: +Inf bucket {last[1]} != _count {counts[0]}"
            )
    return families
