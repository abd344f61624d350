"""Persistent campaign artifacts.

A :class:`CampaignArtifact` is the complete, self-describing record of
one measurement campaign: per-path samples (full fidelity — saving no
longer pools paths into one sample), every :class:`RunRecord` with its
seeds, the campaign configuration, and a platform fingerprint.  It
round-trips through JSON and feeds
:meth:`repro.core.analysis.AnalysisPipeline.run` directly, so a saved
campaign can be re-analysed later — with per-path grouping intact —
without re-running a single simulation.

An artifact can additionally carry the **analysis summary** of the
campaign (estimator choice, fit quality, pWCET table with bootstrap
confidence bands) via :meth:`CampaignArtifact.attach_analysis` — the
raw per-path samples always stay alongside, so ``analyse --sample`` can
re-analyse the same measurements with a different estimator without
re-running a single simulation.

:class:`ArtifactStore` is a thin directory-of-JSON-files convenience on
top — safe against concurrent writers (write-to-temp + atomic
``os.replace``) and verified on load: every artifact embeds a SHA-256
content digest, and a mismatch (or a torn/truncated file) raises the
typed :class:`ArtifactCorrupt` instead of a JSON decode traceback.
:func:`load_measurements` additionally understands the two legacy
sample formats (:class:`ExecutionTimeSample` and bare
:class:`PathSamples` JSON), so old files keep working with the CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> core)
    from ..core.analysis import AnalysisConfig, AnalysisResult

from ..core.convergence import CampaignConvergenceSummary
from ..harness.campaign import CampaignConfig, CampaignResult
from ..harness.measurements import ExecutionTimeSample, PathSamples
from ..harness.records import RunRecord
from ..platform.soc import Platform

__all__ = [
    "SCHEMA",
    "ArtifactCorrupt",
    "CampaignArtifact",
    "ArtifactStore",
    "analysis_summary",
    "atomic_write_text",
    "content_digest",
    "platform_fingerprint",
    "load_measurements",
    "saved_text",
    "splice_analysis",
]


class ArtifactCorrupt(ValueError):
    """A stored artifact failed integrity verification.

    Raised on load when the file is not valid JSON (torn write,
    truncation) or when the embedded content digest does not match the
    payload — a typed error call sites can catch, instead of a raw
    ``json.JSONDecodeError`` traceback.
    """


def atomic_write_text(path: Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Concurrent writers each write a private temporary file in the
    target directory and atomically replace the destination, so readers
    only ever observe a complete old or complete new file — never a
    torn one.  Returns ``path``.
    """
    path = Path(path)
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        newline="",  # the bytes on disk are exactly text.encode()
        dir=path.parent,
        prefix=f".{path.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return path


#: Config keys excluded from the content digest: both are proven
#: observation-neutral (deterministic by-index shard merge;
#: bit-identical batch engine), so artifacts that differ only in them
#: carry identical measurement content — and identical digests.
_PROVENANCE_CONFIG_KEYS = ("backend", "shards")


def _canonical(value: Any) -> bytes:
    """Sorted, compact JSON — the form content digests hash."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _content_bytes(payload: Dict[str, Any]) -> bytes:
    """The canonical bytes :func:`content_digest` hashes.

    Canonical (sorted, compact) JSON of the payload without the
    ``digest`` field itself and without the provenance-only config keys
    (:data:`_PROVENANCE_CONFIG_KEYS`).
    """
    reduced = dict(payload)
    reduced.pop("digest", None)
    config = dict(reduced.get("config", {}))
    for key in _PROVENANCE_CONFIG_KEYS:
        config.pop(key, None)
    reduced["config"] = config
    return _canonical(reduced)


def content_digest(payload: Dict[str, Any]) -> str:
    """SHA-256 over the artifact's *measurement content*
    (see :func:`_content_bytes`)."""
    return hashlib.sha256(_content_bytes(payload)).hexdigest()


def analysis_summary(result: "AnalysisResult") -> Dict[str, Any]:
    """JSON-safe summary of an :class:`~repro.core.analysis.AnalysisResult`.

    Captures what a later reader needs to audit the analysis without
    re-running it: the estimator (overall and per path, with the auto
    selector's rationale), fit-quality diagnostics, the envelope pWCET
    table, and the bootstrap confidence bands.
    """
    cfg = result.config
    paths: Dict[str, Any] = {}
    for path, analysis in sorted(result.paths.items()):
        entry: Dict[str, Any] = {
            "method": analysis.method,
            "n": len(analysis.sample),
            "iid_passed": analysis.iid.passed,
            "gof_p_value": analysis.gof_p_value,
        }
        if analysis.quality is not None:
            entry["fit_quality"] = {
                "anderson_darling_p": analysis.quality.anderson_darling_p,
                "ks_p": float(analysis.quality.ks_p),
                "qq_correlation": float(analysis.quality.qq_correlation),
                "adequate": bool(analysis.quality.adequate),
            }
        if analysis.selection_note:
            entry["selection_note"] = analysis.selection_note
        if analysis.band is not None:
            entry["band"] = analysis.band.to_dict()
        paths[path] = entry
    summary: Dict[str, Any] = {
        "method": result.method,
        "ci": cfg.ci,
        "bootstrap": cfg.bootstrap if cfg.ci is not None else None,
        "bootstrap_kind": cfg.bootstrap_kind if cfg.ci is not None else None,
        "paths": paths,
        "pwcet": [[p, q] for p, q in result.pwcet_table()],
    }
    band_rows = result.band_table()
    if band_rows:
        summary["pwcet_band"] = [[p, lo, hi] for p, lo, hi in band_rows]
    return summary

#: Artifact schema identifier; bump the suffix on breaking changes.
SCHEMA = "repro.campaign/1"


def platform_fingerprint(platform: Platform) -> Dict[str, Any]:
    """JSON-safe description of the platform a campaign ran on."""
    cfg = platform.config
    core = cfg.core

    def cache(c: Any) -> Dict[str, Any]:
        return {
            "size_bytes": c.size_bytes,
            "line_bytes": c.line_bytes,
            "ways": c.ways,
            "placement": c.placement,
            "replacement": c.replacement,
        }

    return {
        "name": cfg.name,
        "num_cores": cfg.num_cores,
        "is_randomized": cfg.is_randomized,
        "icache": cache(core.icache),
        "dcache": cache(core.dcache),
        "itlb": {"entries": core.itlb.entries, "replacement": core.itlb.replacement},
        "dtlb": {"entries": core.dtlb.entries, "replacement": core.dtlb.replacement},
        "fpu_mode": core.fpu.mode.value,
    }


@dataclass
class CampaignArtifact:
    """One campaign, complete enough to re-analyse or audit later."""

    label: str
    workload: str
    samples: PathSamples
    records: List[RunRecord] = field(default_factory=list)
    config: Dict[str, Any] = field(default_factory=dict)
    platform: Dict[str, Any] = field(default_factory=dict)
    convergence: Optional[CampaignConvergenceSummary] = None
    analysis: Optional[Dict[str, Any]] = None

    # -- construction --------------------------------------------------
    @classmethod
    def from_result(
        cls,
        result: CampaignResult,
        config: Optional[CampaignConfig] = None,
        platform: Optional[Platform] = None,
        workload: str = "",
        shards: int = 1,
        scenario: Optional[str] = None,
    ) -> "CampaignArtifact":
        """Capture a finished campaign (plus its provenance) as an artifact.

        ``scenario`` records the contention scenario the campaign ran
        under (None for plain single-core campaigns); the per-run
        per-core/contention breakdown is already inside each record's
        metadata.
        """
        config_dict: Dict[str, Any] = {"shards": shards}
        if scenario is not None:
            config_dict["scenario"] = scenario
        if getattr(result, "backend", None) is not None:
            # Provenance only: scalar and batch backends are
            # bit-identical, so records/samples never depend on it.
            config_dict["backend"] = result.backend
        if config is not None:
            config_dict.update(
                runs=config.runs,
                base_seed=config.base_seed,
                vary_inputs=config.vary_inputs,
            )
        if result.runs_requested is not None:
            config_dict["runs_requested"] = result.runs_requested
            config_dict["runs_used"] = result.runs_used
        return cls(
            label=result.label,
            workload=workload or result.label.split("@")[0],
            samples=result.samples,
            records=list(result.run_details),
            config=config_dict,
            platform=platform_fingerprint(platform) if platform else {},
            convergence=result.convergence,
        )

    # -- analysis ------------------------------------------------------
    def analyse(
        self, analysis_config: Optional["AnalysisConfig"] = None
    ) -> "AnalysisResult":
        """Run the MBPTA pipeline on the stored per-path samples."""
        from ..core.analysis import AnalysisConfig, AnalysisPipeline

        pipeline = AnalysisPipeline(analysis_config or AnalysisConfig())
        return pipeline.run(self.samples, label=self.label)

    def attach_analysis(self, result: "AnalysisResult") -> None:
        """Record an analysis summary (estimator, bands, fit quality).

        ``result`` is an :class:`~repro.core.analysis.AnalysisResult`.
        The summary is persistence-only provenance: the per-path samples
        stay in the artifact, so a later ``analyse --sample`` can
        re-analyse with any other method and overwrite this section.
        """
        self.analysis = analysis_summary(result)

    @property
    def merged(self) -> ExecutionTimeSample:
        """All observations pooled across paths."""
        return self.samples.merged()

    @property
    def num_runs(self) -> int:
        """Number of measured executions stored."""
        if self.records:
            return len(self.records)
        return sum(self.samples.counts().values())

    @property
    def runs_used(self) -> int:
        """Executions an adaptive campaign actually measured."""
        return int(self.config.get("runs_used", self.num_runs))

    @property
    def runs_requested(self) -> Optional[int]:
        """The adaptive campaign's run cap (None for fixed budgets)."""
        requested = self.config.get("runs_requested")
        return int(requested) if requested is not None else None

    @property
    def scenario(self) -> Optional[str]:
        """Contention scenario the campaign ran under (None = plain)."""
        scenario = self.config.get("scenario")
        return str(scenario) if scenario is not None else None

    @property
    def backend(self) -> Optional[str]:
        """Execution backend the campaign used (provenance only)."""
        backend = self.config.get("backend")
        return str(backend) if backend is not None else None

    # -- persistence ---------------------------------------------------
    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize the complete artifact.

        The payload embeds a SHA-256 ``digest`` over its measurement
        content (see :func:`content_digest`); :meth:`from_json`
        verifies it, so corruption anywhere between save and load
        surfaces as a typed :class:`ArtifactCorrupt`.
        """
        return self._encode(indent)[0]

    def _encode(self, indent: Optional[int]) -> Tuple[str, bytes]:
        """The serialized text and the content bytes its digest hashes."""
        payload: Dict[str, Any] = {
            "schema": SCHEMA,
            "label": self.label,
            "workload": self.workload,
            "config": self.config,
            "platform": self.platform,
            "samples": self.samples.to_dict(),
            "records": [record.to_dict() for record in self.records],
        }
        if self.convergence is not None:
            payload["convergence"] = self.convergence.to_dict()
        if self.analysis is not None:
            payload["analysis"] = self.analysis
        content = _content_bytes(payload)
        payload["digest"] = hashlib.sha256(content).hexdigest()
        return json.dumps(payload, indent=indent), content

    @classmethod
    def from_json(cls, payload: str) -> "CampaignArtifact":
        """Inverse of :meth:`to_json`.

        Raises :class:`ArtifactCorrupt` when the payload is not valid
        JSON or its embedded content digest does not verify; artifacts
        written before digests existed load unverified.
        """
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ArtifactCorrupt(
                f"artifact is not valid JSON (torn or truncated write?): {exc}"
            ) from None
        return cls._from_dict(data)

    @classmethod
    def _from_dict(cls, data: Any) -> "CampaignArtifact":
        """:meth:`from_json` after the JSON parse: schema check, digest
        verification and field decoding of the parsed document."""
        if not isinstance(data, dict) or data.get("schema") != SCHEMA:
            schema = data.get("schema") if isinstance(data, dict) else None
            raise ValueError(f"not a campaign artifact (schema={schema!r})")
        stored_digest = data.get("digest")
        if stored_digest is not None:
            expected = content_digest(data)
            if stored_digest != expected:
                raise ArtifactCorrupt(
                    "artifact content digest mismatch: stored "
                    f"{stored_digest[:12]}…, computed {expected[:12]}… "
                    "(file modified or corrupted after save)"
                )
        convergence = data.get("convergence")
        return cls(
            label=data.get("label", ""),
            workload=data.get("workload", ""),
            samples=PathSamples.from_dict(data.get("samples", {})),
            records=[RunRecord.from_dict(r) for r in data.get("records", [])],
            config=dict(data.get("config", {})),
            platform=dict(data.get("platform", {})),
            convergence=(
                CampaignConvergenceSummary.from_dict(convergence)
                if convergence is not None
                else None
            ),
            analysis=data.get("analysis"),
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the artifact to ``path``; returns the path written.

        The write is atomic (temp file + ``os.replace``), so concurrent
        writers — forked shards, service workers, parallel CLI runs —
        can target the same path without readers ever seeing a torn
        file.
        """
        return atomic_write_text(Path(path), self.to_json(indent=2) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignArtifact":
        """Read an artifact previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())


def saved_text(artifact: CampaignArtifact) -> Tuple[str, bytes]:
    """The text :meth:`CampaignArtifact.save` writes — ``to_json(indent=2)``
    plus a newline — and the canonical content bytes its digest hashes,
    from one encode."""
    text, content = artifact._encode(indent=2)
    return text + "\n", content


_DIGEST_TAIL = ',\n  "digest": "{}"\n}}\n'


def splice_analysis(
    saved: str, content: bytes, summary: Dict[str, Any]
) -> str:
    """Attach ``summary`` as the analysis section of a saved bare artifact.

    ``saved`` and ``content`` are what :func:`saved_text` returned for
    an artifact without analysis.  The result equals :func:`saved_text`
    of the same artifact with ``summary`` attached, byte for byte, but
    only ``summary`` is encoded: ``analysis`` is the last section
    before the digest in the saved layout, and the first key of the
    sorted canonical form the digest hashes.
    """
    if content.startswith(b'{"analysis":'):
        raise ValueError("artifact already carries an analysis section")
    tail = _DIGEST_TAIL.format(hashlib.sha256(content).hexdigest())
    if not saved.endswith(tail):
        raise ValueError("text is not the saved form of these contents")
    digest = hashlib.sha256(b'{"analysis":' + _canonical(summary) + b",")
    digest.update(memoryview(content)[1:])
    section = json.dumps(summary, indent=2).replace("\n", "\n  ")
    return "".join(
        (
            saved[: -len(tail)],
            ',\n  "analysis": ',
            section,
            _DIGEST_TAIL.format(digest.hexdigest()),
        )
    )


class ArtifactStore:
    """A directory of campaign artifacts, keyed by name.

    Writes are atomic (see :meth:`CampaignArtifact.save`) and loads are
    digest-verified, so concurrent writers cannot leave a reader with a
    torn file and silent corruption surfaces as
    :class:`ArtifactCorrupt` naming the offending path.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def _path(self, name: str) -> Path:
        return self.root / f"{name}.json"

    def save(self, name: str, artifact: CampaignArtifact) -> Path:
        """Persist ``artifact`` under ``name`` (atomic replace)."""
        self.root.mkdir(parents=True, exist_ok=True)
        return artifact.save(self._path(name))

    def load(self, name: str) -> CampaignArtifact:
        """Load the artifact stored under ``name``.

        Raises :class:`ArtifactCorrupt` (with the path named) when the
        file fails JSON parsing or digest verification.
        """
        path = self._path(name)
        try:
            return CampaignArtifact.load(path)
        except ArtifactCorrupt as exc:
            raise ArtifactCorrupt(f"{path}: {exc}") from None

    def names(self) -> List[str]:
        """Stored artifact names, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def __contains__(self, name: str) -> bool:
        return self._path(name).is_file()


def load_measurements(
    path: Union[str, Path]
) -> Union[CampaignArtifact, PathSamples, ExecutionTimeSample]:
    """Load any supported measurement file.

    Recognizes, in order: full campaign artifacts, per-path sample files
    (:meth:`PathSamples.to_json`), and legacy pooled samples
    (:meth:`ExecutionTimeSample.to_json`).
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a measurement file")
    if data.get("schema") == SCHEMA:
        return CampaignArtifact._from_dict(data)
    if "paths" in data:
        return PathSamples.from_dict(data)
    if "values" in data:
        return ExecutionTimeSample(
            values=data["values"], label=data.get("label", "")
        )
    raise ValueError(f"{path}: unrecognized measurement format")
