"""Persistent, append-only run ledger: QoR/perf history across invocations.

Every ``emorphic run``/``pipeline``/``batch``/``sweep`` invocation
appends one JSON-lines record per completed flow to a ledger file (default
``~/.cache/emorphic/ledger/runs.jsonl``, overridable with the
``EMORPHIC_LEDGER`` environment variable or an explicit path).  Records are
schema-versioned and carry a content-hashed id, the circuit/script/config
identity, the QoR summary (ands/levels/delay/area), the CEC verdict when the
flow ran ``cec``, runtime, and — when the
matching observers were installed — span summaries, attribution digests,
and resource samples.

Appends are crash- and concurrency-safe without locking: each record is one
full line written with a single ``O_APPEND`` write, so pool workers
appending to a shared ledger cannot interleave bytes within a record, and a
torn final line (power loss) is skipped by the reader rather than poisoning
the file.

The query surface groups records by ``(circuit, script, config_hash)`` and
compares each group's latest run against a **rolling baseline**: the median
of the previous ``window`` runs.  ``emorphic history --check`` turns that
comparison into a CI gate (non-zero exit on QoR or runtime regression, or
when a group's latest run ran ``cec`` and was not proven equivalent), and
``emorphic report`` renders the same history as static HTML.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "LEDGER_SCHEMA",
    "QOR_METRICS",
    "RunLedger",
    "attribution_digest",
    "check_records",
    "compare_group",
    "config_digest",
    "default_ledger_path",
    "flow_record",
    "group_records",
    "log_record",
    "median",
]

#: Version of the ledger record payload; readers skip other versions.
LEDGER_SCHEMA = 1

#: QoR metrics tracked per record, all lower-is-better.
QOR_METRICS = ("ands", "levels", "delay", "area")


def default_ledger_path() -> Path:
    """``$EMORPHIC_LEDGER`` if set, else ``~/.cache/emorphic/ledger``."""
    env = os.environ.get("EMORPHIC_LEDGER")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "emorphic" / "ledger"


def config_digest(config: Optional[Dict[str, object]]) -> str:
    """A short stable digest of a canonical config/script payload."""
    canonical = json.dumps(config or {}, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def attribution_digest(attribution: Optional[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """Compress a ``RuleAttribution.to_dict`` payload to its rule-yield core.

    Ledger records keep only the per-rule surviving-ands table (the
    ``emorphic report`` rule-yield view), not the full derivation chains.
    """
    if not attribution:
        return None
    rules = attribution.get("rules") or {}
    return {
        "total_ands": attribution.get("total_ands"),
        "original_ands": attribution.get("original_ands"),
        "rules": {
            str(name): int((yield_ or {}).get("surviving_ands", 0))
            for name, yield_ in rules.items()
        },
    }


def flow_record(
    kind: str,
    circuit: Optional[str] = None,
    flow: Optional[str] = None,
    script: Optional[str] = None,
    config: Optional[Dict[str, object]] = None,
    qor: Optional[Dict[str, Optional[float]]] = None,
    runtime: Optional[float] = None,
    pass_runtimes: Optional[List[Tuple[str, float]]] = None,
    span_summary: Optional[Dict[str, object]] = None,
    attribution: Optional[Dict[str, object]] = None,
    resource: Optional[Dict[str, object]] = None,
    extra: Optional[Dict[str, object]] = None,
    verdict: Optional[str] = None,
) -> Dict[str, object]:
    """Build one ledger record (without id — :meth:`RunLedger.append` stamps it).

    ``verdict`` is the flow's CEC status (``equivalent``/``counterexample``/
    ``unknown``), or None when the flow ran no ``cec``.
    """
    import time

    qor = dict(qor or {})
    return {
        "schema": LEDGER_SCHEMA,
        "kind": kind,
        "ts": time.time(),
        "circuit": circuit,
        "flow": flow,
        "script": script,
        "config_hash": config_digest(config if config is not None else {"script": script}),
        "qor": {metric: qor.get(metric) for metric in QOR_METRICS},
        "verdict": verdict,
        "runtime": runtime,
        "pass_runtimes": [[str(name), float(t)] for name, t in (pass_runtimes or [])] or None,
        "span_summary": span_summary,
        "attribution": attribution_digest(attribution),
        "resource": resource,
        "extra": extra,
    }


class RunLedger:
    """Append-only JSONL history of flow runs under a ledger directory."""

    def __init__(self, path: Union[None, str, Path] = None):
        self.root = Path(path) if path is not None else default_ledger_path()
        self.root.mkdir(parents=True, exist_ok=True)
        self.file = self.root / "runs.jsonl"

    def append(self, record: Dict[str, object]) -> str:
        """Append one record as a single line; returns its content-hash id.

        The id hashes the record body (id excluded), so identical payloads
        at different timestamps still get distinct ids.  One ``os.write``
        per record keeps concurrent appends from interleaving.
        """
        rec = dict(record)
        rec.setdefault("schema", LEDGER_SCHEMA)
        rec.pop("id", None)
        canonical = json.dumps(rec, sort_keys=True, default=str)
        rec["id"] = hashlib.sha256(canonical.encode()).hexdigest()[:16]
        line = (json.dumps(rec, sort_keys=True, default=str) + "\n").encode()
        fd = os.open(str(self.file), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
        return rec["id"]

    def records(
        self,
        kind: Optional[str] = None,
        circuit: Optional[str] = None,
        script: Optional[str] = None,
        flow: Optional[str] = None,
        config_hash: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """All readable records, oldest first, with optional filters.

        ``circuit``/``kind``/``flow``/``config_hash`` match exactly;
        ``script`` matches as a substring (scripts are long).  Torn or
        foreign-schema lines are skipped, never raised.
        """
        out: List[Dict[str, object]] = []
        if not self.file.exists():
            return out
        for line in self.file.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(rec, dict) or rec.get("schema") != LEDGER_SCHEMA:
                continue
            if kind is not None and rec.get("kind") != kind:
                continue
            if circuit is not None and rec.get("circuit") != circuit:
                continue
            if flow is not None and rec.get("flow") != flow:
                continue
            if config_hash is not None and rec.get("config_hash") != config_hash:
                continue
            if script is not None and script not in str(rec.get("script") or ""):
                continue
            out.append(rec)
        out.sort(key=lambda r: float(r.get("ts") or 0.0))
        return out

    def __len__(self) -> int:
        return len(self.records())

    def clear(self) -> int:
        """Remove the ledger file; returns the number of records removed."""
        count = len(self)
        if self.file.exists():
            self.file.unlink()
        return count


def log_record(record: Dict[str, object], path: Union[None, str, Path] = None) -> Optional[str]:
    """Best-effort append to the (default) ledger; never fails the run."""
    try:
        return RunLedger(path).append(record)
    except OSError:
        return None


# -- history math ---------------------------------------------------------------


def median(values: List[float]) -> float:
    """The median of a non-empty list (mean of the middle pair when even)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


GroupKey = Tuple[str, str, str]


def group_records(records: List[Dict[str, object]]) -> Dict[GroupKey, List[Dict[str, object]]]:
    """Group records by ``(circuit, script-or-flow, config_hash)``, ts-ordered."""
    groups: Dict[GroupKey, List[Dict[str, object]]] = {}
    for rec in records:
        key = (
            str(rec.get("circuit") or ""),
            str(rec.get("script") or rec.get("flow") or ""),
            str(rec.get("config_hash") or ""),
        )
        groups.setdefault(key, []).append(rec)
    for history in groups.values():
        history.sort(key=lambda r: float(r.get("ts") or 0.0))
    return groups


def _metric_values(history: List[Dict[str, object]], metric: str) -> List[Optional[float]]:
    if metric == "runtime":
        return [None if r.get("runtime") is None else float(r["runtime"]) for r in history]
    return [
        None if (r.get("qor") or {}).get(metric) is None else float(r["qor"][metric])
        for r in history
    ]


def compare_group(
    history: List[Dict[str, object]], window: int = 5
) -> Dict[str, Dict[str, Optional[float]]]:
    """Latest run vs the rolling baseline (median of the previous ``window``).

    Returns ``{metric: {"latest", "baseline", "ratio"}}`` for every QoR
    metric plus ``runtime``; a metric absent from the latest record or with
    no prior values gets ``baseline``/``ratio`` of None.
    """
    out: Dict[str, Dict[str, Optional[float]]] = {}
    for metric in QOR_METRICS + ("runtime",):
        values = _metric_values(history, metric)
        latest = values[-1] if values else None
        prior = [v for v in values[:-1][-window:] if v is not None]
        baseline = median(prior) if prior else None
        ratio = None
        if latest is not None and baseline is not None and baseline > 0:
            ratio = latest / baseline
        out[metric] = {"latest": latest, "baseline": baseline, "ratio": ratio}
    return out


def check_records(
    records: List[Dict[str, object]],
    window: int = 5,
    qor_tolerance: float = 0.02,
    runtime_ratio: float = 2.0,
) -> List[str]:
    """Regression check: latest vs rolling baseline, per group.

    A group fails outright when its latest record ran ``cec`` and the
    verdict is not ``equivalent`` — an unverified result fails whatever its
    QoR.  A QoR metric regresses when ``latest > baseline * (1 +
    qor_tolerance)``; runtime regresses past ``baseline * runtime_ratio``
    (timing is noisy).  Groups with fewer than two runs have no baseline, so
    only the verdict can fail them.  Returns human-readable failure strings
    (empty == pass).
    """
    failures: List[str] = []
    for (circuit, script, cfg), history in sorted(group_records(records).items()):
        label = f"{circuit or '?'} [{_short(script)} @{cfg[:8]}]"
        verdict = history[-1].get("verdict")
        if verdict is not None and verdict != "equivalent":
            failures.append(f"{label}: latest run is unverified (cec verdict {verdict})")
        if len(history) < 2:
            continue
        comparison = compare_group(history, window=window)
        for metric in QOR_METRICS:
            cell = comparison[metric]
            if cell["ratio"] is not None and cell["ratio"] > 1.0 + qor_tolerance:
                failures.append(
                    f"{label}: {metric} regressed {cell['baseline']:g} -> "
                    f"{cell['latest']:g} ({cell['ratio']:.3f}x > {1.0 + qor_tolerance:.2f}x)"
                )
        runtime = comparison["runtime"]
        if runtime["ratio"] is not None and runtime["ratio"] > runtime_ratio:
            failures.append(
                f"{label}: runtime regressed {runtime['baseline']:.3f}s -> "
                f"{runtime['latest']:.3f}s ({runtime['ratio']:.2f}x > {runtime_ratio:.1f}x)"
            )
    return failures


def _short(script: str, width: int = 48) -> str:
    return script if len(script) <= width else script[: width - 3] + "..."
