"""Content-addressed cross-process campaign store.

The campaign service's persistence layer, generalizing two existing
caches into one on-disk, multi-process-safe structure:

* :class:`~repro.api.artifacts.ArtifactStore` — a directory of named
  artifacts — becomes the ``campaigns/`` section, keyed by
  :meth:`~repro.api.requests.CampaignRequest.execution_digest` (the
  hash of workload + kwargs, scenario, platform fingerprint, seeds and
  run budget — exactly the fields that determine the observations).
  Two requests with equal digests must yield bit-identical measurement
  records, so a stored campaign *is* the result of every future
  submission of the same work: repeated submissions become cache hits
  that never touch the simulator.
* the in-process per-workload LRU trace cache, whose keying discipline
  (workload, input seed, platform) this store lifts across process
  boundaries at campaign granularity.

Layout under ``root``::

    campaigns/<execution_digest>.json   bare campaign artifacts
                                        (measurements only, no analysis)
    jobs/<job_id>.json                  exact response artifacts served
                                        by ``GET /campaigns/{id}/artifact``

Bare campaigns are stored *without* analysis sections so one cached
measurement serves any number of re-analyses; the per-job files keep
the byte-exact text a job produced (analysis attached), because the
artifact endpoint's contract is bit-identity with an in-process run.

All writes are atomic (:func:`~repro.api.artifacts.atomic_write_text`)
and every load is verified, so concurrent service workers — or several
daemons sharing one store directory — never observe torn files and
silent corruption surfaces as
:class:`~repro.api.artifacts.ArtifactCorrupt`.

Each file is fully verified (parsed, content digest checked) once per
process; the store then remembers the SHA-256 of the exact bytes that
passed, with the per-path samples and run count parsed out of them.
Every later load still reads the whole file and hashes it: matching
bytes skip the parse, anything else — an edit that keeps the size
and mtime included — is verified again from scratch.  A campaign file
must also be exactly the text :meth:`save_campaign` writes (the
artifact's ``to_json(indent=2)`` plus a newline, no analysis section),
because cache hits splice the requested analysis into those bytes
instead of re-encoding the campaign.  A cached campaign in any other
layout, or one written without a digest, fails that check and is
re-measured once, which replaces it with the canonical text.  The
memo holds a fixed :data:`MEMO_BUDGET_BYTES` (16 MiB) at most, least
recently used files evicted first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..api.artifacts import (
    ArtifactCorrupt,
    ArtifactStore,
    CampaignArtifact,
    atomic_write_text,
    saved_text,
)
from ..harness.measurements import PathSamples

__all__ = ["MEMO_BUDGET_BYTES", "PersistentStore", "VerifiedFile"]

#: Bytes of verified-file state one store keeps in memory (see
#: :attr:`VerifiedFile.size`): about 200 campaigns of 600 runs whose
#: artifacts are 865 KB each.
MEMO_BUDGET_BYTES = 16 << 20

#: Memory charged per stored observation: a boxed float and its list slot.
_OBSERVATION_BYTES = 32


@dataclasses.dataclass(frozen=True)
class VerifiedFile:
    """What one store file that passed verification parsed to."""

    samples: PathSamples
    num_runs: int
    #: Campaign files only: the canonical content bytes their digest
    #: hashes, zlib-compressed (about 8x on artifact JSON, so the memo
    #: stays small next to the daemon's working memory).
    packed_content: Optional[bytes] = None

    @property
    def content(self) -> bytes:
        """The canonical content bytes
        :func:`~repro.api.artifacts.splice_analysis` needs."""
        if self.packed_content is None:
            raise ValueError("only campaign files keep their content bytes")
        return zlib.decompress(self.packed_content)

    @property
    def size(self) -> int:
        """Bytes charged against :data:`MEMO_BUDGET_BYTES`."""
        observations = sum(self.samples.counts().values())
        packed = len(self.packed_content or b"")
        return packed + _OBSERVATION_BYTES * observations


def _campaign_file(artifact: CampaignArtifact, content: bytes) -> VerifiedFile:
    return VerifiedFile(
        # A private copy, so the memo never shares lists a caller mutates.
        PathSamples.from_dict(artifact.samples.to_dict()),
        artifact.num_runs,
        zlib.compress(content, 1),
    )


def _sha256(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


class PersistentStore:
    """On-disk campaign cache shared by every process using ``root``."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.campaigns = ArtifactStore(self.root / "campaigns")
        self._jobs_dir = self.root / "jobs"
        # path -> (SHA-256 of the verified bytes, what they parsed to);
        # shared by worker threads and HTTP handler threads.
        self._memo: "OrderedDict[str, Tuple[bytes, VerifiedFile]]" = (
            OrderedDict()
        )
        self._memo_bytes = 0
        self._memo_lock = threading.Lock()

    # -- verified-bytes memo --------------------------------------------
    def _remember(self, path: Path, sha: bytes, verified: VerifiedFile) -> None:
        size = verified.size
        with self._memo_lock:
            previous = self._memo.pop(str(path), None)
            if previous is not None:
                self._memo_bytes -= previous[1].size
            if size > MEMO_BUDGET_BYTES:
                return
            self._memo[str(path)] = (sha, verified)
            self._memo_bytes += size
            while self._memo_bytes > MEMO_BUDGET_BYTES:
                _, (_, evicted) = self._memo.popitem(last=False)
                self._memo_bytes -= evicted.size

    def _load_verified(
        self, path: Path, campaign: bool
    ) -> Tuple[str, VerifiedFile]:
        """The file's text and contents, verified.

        Bytes whose SHA-256 matches the memo were verified before;
        anything else gets the full check and refills the memo.
        """
        raw = path.read_bytes()
        sha = hashlib.sha256(raw).digest()
        with self._memo_lock:
            entry = self._memo.get(str(path))
            if entry is not None and entry[0] == sha:
                self._memo.move_to_end(str(path))
                return raw.decode(), entry[1]
        try:
            text = raw.decode()
            verified = self._verify(text, campaign)
        except (KeyError, TypeError, ValueError) as exc:
            # ArtifactCorrupt is a ValueError; so are a foreign schema
            # and bytes that are not UTF-8.
            raise ArtifactCorrupt(f"{path}: {exc}") from None
        self._remember(path, sha, verified)
        return text, verified

    @staticmethod
    def _verify(text: str, campaign: bool) -> VerifiedFile:
        artifact = CampaignArtifact.from_json(text)
        if not campaign:
            return VerifiedFile(artifact.samples, artifact.num_runs)
        if artifact.analysis is not None:
            raise ArtifactCorrupt("cached campaign carries an analysis section")
        canonical, content = saved_text(artifact)
        if canonical != text:
            raise ArtifactCorrupt(
                "cached campaign is not in the store's canonical layout"
            )
        return _campaign_file(artifact, content)

    # -- campaign cache (keyed by execution digest) ---------------------
    def _campaign_path(self, execution_digest: str) -> Path:
        return self.campaigns.root / f"{execution_digest}.json"

    def has_campaign(self, execution_digest: str) -> bool:
        """Whether a campaign with this execution digest is cached."""
        return execution_digest in self.campaigns

    def load_campaign(self, execution_digest: str) -> CampaignArtifact:
        """Load the cached campaign as a full artifact (digest-verified).

        Raises :class:`~repro.api.artifacts.ArtifactCorrupt` when the
        stored file fails verification.
        """
        return self.campaigns.load(execution_digest)

    def load_campaign_text(
        self, execution_digest: str
    ) -> Tuple[str, VerifiedFile]:
        """The cached campaign's exact text and its verified contents.

        Raises :class:`~repro.api.artifacts.ArtifactCorrupt` when the
        file fails verification or is not in the canonical layout —
        callers treat that as a cache miss and re-measure.
        """
        return self._load_verified(
            self._campaign_path(execution_digest), campaign=True
        )

    def save_campaign(
        self, execution_digest: str, artifact: CampaignArtifact
    ) -> Tuple[str, VerifiedFile]:
        """Cache a finished campaign under its execution digest.

        The analysis section, if any, is *not* persisted here: the
        cache stores measurements, and analyses are recomputed (they
        are deterministic and cheap relative to measurement).  Returns
        the bare text written and its contents, ready for
        :func:`~repro.api.artifacts.splice_analysis`.
        """
        bare = dataclasses.replace(artifact, analysis=None)
        text, content = saved_text(bare)
        path = self._campaign_path(execution_digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, text)
        verified = _campaign_file(bare, content)
        self._remember(path, _sha256(text), verified)
        return text, verified

    def campaign_digests(self) -> List[str]:
        """Execution digests of every cached campaign, sorted."""
        return self.campaigns.names()

    # -- per-job response artifacts -------------------------------------
    def _job_path(self, job_id: str) -> Path:
        return self._jobs_dir / f"{job_id}.json"

    def save_job_artifact(
        self,
        job_id: str,
        text: str,
        verified: Optional[VerifiedFile] = None,
    ) -> Path:
        """Persist the byte-exact artifact a job produced.

        ``verified`` — the samples and run count ``text`` holds, when
        the caller built ``text`` from verified contents — lets the
        first load skip the full parse.
        """
        self._jobs_dir.mkdir(parents=True, exist_ok=True)
        path = atomic_write_text(self._job_path(job_id), text)
        if verified is not None:
            job = dataclasses.replace(verified, packed_content=None)
            self._remember(path, _sha256(text), job)
        return path

    def load_job_artifact(
        self, job_id: str
    ) -> Optional[Tuple[str, VerifiedFile]]:
        """The job's artifact text and verified contents, or None when
        absent.

        Raises :class:`~repro.api.artifacts.ArtifactCorrupt` (with the
        path named) when the file fails verification: a corrupt
        response file must surface as an error, not as corrupt bytes
        handed to the client.
        """
        path = self._job_path(job_id)
        if not path.is_file():
            return None
        return self._load_verified(path, campaign=False)

    def load_job_artifact_text(self, job_id: str) -> Optional[str]:
        """The job's artifact text, or None when absent.

        Served raw by the artifact endpoint — re-serializing would risk
        breaking the bit-identity contract.
        """
        loaded = self.load_job_artifact(job_id)
        return loaded[0] if loaded is not None else None

    def job_ids(self) -> List[str]:
        """Job ids with a stored response artifact, sorted."""
        if not self._jobs_dir.is_dir():
            return []
        return sorted(p.stem for p in self._jobs_dir.glob("*.json"))

