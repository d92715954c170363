"""Bench-history trend gating: ``repro bench trend``.

The ``--compare`` mode answers "is *this* run slower than *that* one?".
Trend gating answers the question CI actually cares about: **has a bench
been drifting?**  It loads every committed ``BENCH_*.json`` (plus an
optional history directory of older runs), orders each bench's artifacts
by their ``created`` timestamp into per-``(entry, size)`` median series,
and flags *sustained* drift — the last ``window`` runs all slower than
the series baseline by more than ``threshold``× and ``min_delta_s``
seconds.  One noisy run does not trip the gate; ``window`` consecutive
ones do.  A bench with a single committed artifact has no history and
can never drift, so the gate passes trivially on a freshly-seeded repo.

The comparison runs as five dependency-declaring
:class:`~repro.obs.pipeline.Task` stages over the in-repo DAG subsystem
(discover → load → series → drift → report); each stage is unit-testable
with a hand-made input dict.  The output is a schema'd document
(:data:`TREND_SCHEMA`, written as ``BENCH_trend.json``) and the list of
drifting series; the CLI exits nonzero iff that list is non-empty.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from ..bench.artifact import BenchArtifactError, load_artifact
from .pipeline import PipelineResult, Task, run_pipeline

__all__ = [
    "TREND_SCHEMA",
    "TREND_FILENAME",
    "DEFAULT_WINDOW",
    "DEFAULT_DRIFT_THRESHOLD",
    "run_trend",
    "validate_trend",
    "trend_table",
]

#: Schema identifier of the ``BENCH_trend.json`` document.
TREND_SCHEMA = "repro-trend/1"

#: The trend document's canonical filename (excluded from discovery).
TREND_FILENAME = "BENCH_trend.json"

#: Number of most-recent runs that must *all* exceed the threshold.
DEFAULT_WINDOW = 3

#: Sustained-drift ratio vs the series baseline.  Tighter than the
#: single-pair compare threshold (1.5) because ``window`` consecutive
#: exceedances already filter noise.
DEFAULT_DRIFT_THRESHOLD = 1.25

#: Absolute slowdown floor (seconds) — same reasoning as compare.
DEFAULT_MIN_DELTA_S = 1e-3


# ----------------------------------------------------------------------
# pipeline stages
# ----------------------------------------------------------------------


class Discover(Task):
    """Find every ``BENCH_*.json`` under the artifact + history dirs."""

    def run(self) -> None:
        paths: list[Path] = []
        for directory in self.input["directories"]:
            directory = Path(directory)
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("BENCH_*.json")):
                if path.name != TREND_FILENAME:
                    paths.append(path)
        self.output["paths"] = paths


class Load(Task):
    """Parse and schema-validate each discovered artifact."""

    @staticmethod
    def requires() -> tuple:
        return (Discover,)

    def run(self) -> None:
        artifacts: list[dict[str, Any]] = []
        errors: list[str] = []
        for path in self.input["paths"]:
            try:
                artifacts.append(load_artifact(path))
            except BenchArtifactError as exc:
                errors.append(str(exc))
        self.output["artifacts"] = artifacts
        self.output["errors"] = errors


class Series(Task):
    """Group artifacts by bench name; order each bench's runs by time."""

    @staticmethod
    def requires() -> tuple:
        return (Load,)

    def run(self) -> None:
        by_bench: dict[str, list[dict[str, Any]]] = {}
        for artifact in self.input["artifacts"]:
            by_bench.setdefault(artifact["name"], []).append(artifact)
        series: dict[str, dict[tuple[str, int], dict[str, list]]] = {}
        for name, runs in sorted(by_bench.items()):
            # ISO-8601 UTC strings sort chronologically as strings.
            runs.sort(key=lambda a: a["created"])
            per_point: dict[tuple[str, int], dict[str, list]] = {}
            for run in runs:
                for pt in run["points"]:
                    key = (pt["label"], int(pt["size"]))
                    entry = per_point.setdefault(
                        key, {"medians_s": [], "created": [], "tiers": []}
                    )
                    entry["medians_s"].append(float(pt["median_s"]))
                    entry["created"].append(run["created"])
                    entry["tiers"].append(run.get("kernel_tier") or "array")
            series[name] = per_point
        self.output["series"] = series
        self.output["run_counts"] = {name: len(runs) for name, runs in by_bench.items()}


class Drift(Task):
    """Flag series whose last ``window`` runs are all above baseline."""

    @staticmethod
    def requires() -> tuple:
        return (Series,)

    def run(self) -> None:
        window = int(self.input["window"])
        threshold = float(self.input["threshold"])
        min_delta_s = float(self.input["min_delta_s"])
        drifts: list[dict[str, Any]] = []
        for bench, per_point in self.input["series"].items():
            for (label, size), entry in per_point.items():
                medians = entry["medians_s"]
                # Need a baseline *plus* a full window of newer runs.
                if len(medians) < window + 1:
                    continue
                baseline = medians[0]
                if baseline <= 0:
                    continue
                tail = medians[-window:]
                if all(
                    m / baseline > threshold and m - baseline > min_delta_s
                    for m in tail
                ):
                    drifts.append(
                        {
                            "bench": bench,
                            "entry": label,
                            "size": size,
                            "baseline_s": baseline,
                            "latest_s": medians[-1],
                            "ratio": medians[-1] / baseline,
                            "window": window,
                        }
                    )
        drifts.sort(key=lambda d: (d["bench"], d["entry"], d["size"]))
        self.output["drifts"] = drifts


class Report(Task):
    """Assemble the schema'd ``BENCH_trend.json`` document."""

    @staticmethod
    def requires() -> tuple:
        return (Load, Series, Drift)

    def run(self) -> None:
        series_doc: dict[str, Any] = {}
        for bench, per_point in self.input["series"].items():
            points = []
            for (label, size), entry in sorted(per_point.items()):
                medians = entry["medians_s"]
                baseline = medians[0]
                points.append(
                    {
                        "entry": label,
                        "size": size,
                        "runs": len(medians),
                        "medians_s": medians,
                        "created": entry["created"],
                        "kernel_tiers": entry["tiers"],
                        "baseline_s": baseline,
                        "latest_s": medians[-1],
                        "ratio": (medians[-1] / baseline) if baseline > 0 else None,
                    }
                )
            series_doc[bench] = {
                "runs": self.input["run_counts"][bench],
                "points": points,
            }
        self.output["document"] = {
            "schema": TREND_SCHEMA,
            "window": int(self.input["window"]),
            "threshold": float(self.input["threshold"]),
            "min_delta_s": float(self.input["min_delta_s"]),
            "artifacts": len(self.input["artifacts"]),
            "load_errors": list(self.input["errors"]),
            "benches": series_doc,
            "drifts": list(self.input["drifts"]),
        }


#: The trend pipeline, in declaration (not execution) order — the DAG
#: runner orders them by their ``requires()`` edges.
TREND_TASKS = (Report, Drift, Series, Load, Discover)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def run_trend(
    directories: Iterable[Path | str],
    *,
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_DRIFT_THRESHOLD,
    min_delta_s: float = DEFAULT_MIN_DELTA_S,
    out_dir: Path | str | None = None,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Run the trend pipeline; return ``(document, drifts)``.

    ``directories`` is the committed artifact dir plus any history dirs;
    with ``out_dir`` the document is also written as ``BENCH_trend.json``.
    Directories holding no ``BENCH_*.json`` artifact at all raise
    ``ValueError`` before anything is written: a trend over nothing
    records nothing.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1, got {threshold:g}")
    directories = list(directories)
    result: PipelineResult = run_pipeline(
        TREND_TASKS,
        seed={
            "directories": directories,
            "window": window,
            "threshold": threshold,
            "min_delta_s": min_delta_s,
        },
    )
    document = result.outputs["Report"]["document"]
    validate_trend(document)
    if document["artifacts"] == 0:
        raise ValueError(
            f"no BENCH_*.json artifacts under {', '.join(map(str, directories))}"
        )
    if out_dir is not None:
        out_path = Path(out_dir) / TREND_FILENAME
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document, list(document["drifts"])


def validate_trend(data: Any) -> None:
    """Raise ``ValueError`` unless ``data`` is a valid trend document."""
    if not isinstance(data, dict):
        raise ValueError(f"trend document must be an object, got {type(data).__name__}")
    if data.get("schema") != TREND_SCHEMA:
        raise ValueError(
            f"unknown schema {data.get('schema')!r} (expected {TREND_SCHEMA!r})"
        )
    for key, typ in (
        ("window", int), ("threshold", (int, float)), ("min_delta_s", (int, float)),
        ("artifacts", int), ("load_errors", list), ("benches", dict), ("drifts", list),
    ):
        if key not in data:
            raise ValueError(f"trend document missing field {key!r}")
        if not isinstance(data[key], typ):
            raise ValueError(f"trend field {key!r} has wrong type")
    for bench, doc in data["benches"].items():
        if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
            raise ValueError(f"benches[{bench!r}] must have a 'points' list")
        for i, pt in enumerate(doc["points"]):
            for key in ("entry", "size", "runs", "medians_s", "baseline_s", "latest_s"):
                if key not in pt:
                    raise ValueError(f"benches[{bench!r}].points[{i}] missing {key!r}")
    for i, drift in enumerate(data["drifts"]):
        for key in ("bench", "entry", "size", "baseline_s", "latest_s", "ratio"):
            if key not in drift:
                raise ValueError(f"drifts[{i}] missing {key!r}")


def trend_table(document: dict[str, Any]):
    """Render the per-series summary as an ``analysis.report.Table``."""
    from ..analysis.report import Table

    table = Table(
        ["bench", "entry", "size", "runs", "baseline_s", "latest_s", "ratio", "status"],
        title=(
            f"bench trend (window {document['window']}, "
            f"threshold {document['threshold']:g}x)"
        ),
    )
    drifting = {
        (d["bench"], d["entry"], d["size"]) for d in document["drifts"]
    }
    for bench, doc in sorted(document["benches"].items()):
        for pt in doc["points"]:
            key = (bench, pt["entry"], pt["size"])
            table.add_row([
                bench,
                pt["entry"],
                pt["size"],
                pt["runs"],
                pt["baseline_s"],
                pt["latest_s"],
                "-" if pt["ratio"] is None else pt["ratio"],
                "DRIFT" if key in drifting else "ok",
            ])
    return table
