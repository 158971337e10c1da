"""Wire format shared by the remote cache tier and fleet dispatch.

Bit-identity across the fleet holds *by construction*: a cached object
is exactly :func:`~repro.engine.cache.encode_payload`'s canonical bytes
— the same bytes the disk cache tier writes, through the same codec —
stored under the job's content address and carried with its sha256
digest.  Every fetch recomputes the digest over the received bytes and
rejects a mismatch before decoding, so a corrupted or tampered entry
degrades to a cache miss instead of poisoning a result.

Job batches for the ``POST /jobs`` execute endpoint go through the same
codec (:func:`encode_jobs` / :func:`decode_jobs`): jobs may carry
opaque ``payload`` attachments (e.g. a sim shard's traces) that have no
JSON form, and the trust model matches the process pool's — peers are
our own processes on a trusted network.  Per-job results come back as
:func:`ok_entry` ``("ok", digest, payload_bytes)`` or
``("failed", detail)`` entries keyed by job id
(:func:`encode_job_results`), digests verified by the coordinator
(:func:`unpack_ok_entry`) before a payload is accepted.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.engine.cache import (
    MISS,
    decode_payload,
    encode_payload,
    payload_digest,
)
from repro.engine.jobs import EvalJob

PROTOCOL_VERSION = 1
"""Bumped whenever the wire envelopes change shape."""

DIGEST_HEADER = "x-repro-sha256"
"""HTTP header carrying an object's payload digest on GET/PUT."""

JOB_ID_HEX_LENGTH = 32
"""Length of a job's content address (hex chars); the cache server
rejects other ids before touching storage."""


def valid_job_id(job_id: str) -> bool:
    """Whether a string is a well-formed cache object id."""
    return (
        len(job_id) == JOB_ID_HEX_LENGTH
        and all(c in "0123456789abcdef" for c in job_id)
    )


# -- job-batch envelopes (the /jobs execute endpoint) -----------------


def _open_envelope(body: bytes, what: str) -> Any:
    """Decode a ``(version, content)`` envelope and check its version;
    raises ``ValueError`` on junk or a version mismatch."""
    try:
        version, content = decode_payload(body)
    except Exception as exc:
        raise ValueError(f"undecodable {what}: {exc}") from exc
    if version != PROTOCOL_VERSION:
        raise ValueError(
            f"{what} use protocol {version}, "
            f"this process speaks {PROTOCOL_VERSION}"
        )
    return content


def encode_jobs(jobs: Iterable[EvalJob]) -> bytes:
    """Envelope a job batch for ``POST /jobs``."""
    return encode_payload((PROTOCOL_VERSION, list(jobs)))


def decode_jobs(body: bytes) -> list[EvalJob]:
    """Decode a ``POST /jobs`` body; raises ``ValueError`` on junk."""
    jobs = _open_envelope(body, "job batch")
    if not isinstance(jobs, list) or not all(
        isinstance(job, EvalJob) for job in jobs
    ):
        raise ValueError("job batch must be a list of EvalJob")
    return jobs


def encode_job_results(entries: Mapping[str, tuple]) -> bytes:
    """Envelope per-job outcomes, keyed by job id.

    Each entry is :func:`ok_entry` for an executed (or cache-served)
    job, or ``("failed", detail)`` carrying the structured
    :meth:`~repro.engine.faults.JobFailure.as_detail` record for a
    permanently failed one.
    """
    return encode_payload((PROTOCOL_VERSION, dict(entries)))


def decode_job_results(body: bytes) -> dict[str, tuple]:
    """Inverse of :func:`encode_job_results`."""
    entries = _open_envelope(body, "job results")
    if not isinstance(entries, dict):
        raise ValueError("job results must map job_id -> entry")
    return entries


def ok_entry(payload: Any) -> tuple[str, str, bytes]:
    """A delivered job's result entry: ``("ok", digest, bytes)``."""
    data = encode_payload(payload)
    return "ok", payload_digest(data), data


def unpack_ok_entry(entry: Any) -> Any:
    """The payload of a well-formed, digest-verified :func:`ok_entry`;
    :data:`~repro.engine.cache.MISS` for anything else (a missing or
    ``failed`` entry, or corrupt bytes)."""
    if not (isinstance(entry, tuple) and len(entry) == 3
            and entry[0] == "ok"):
        return MISS
    try:
        if payload_digest(entry[2]) != entry[1]:
            return MISS
        return decode_payload(entry[2])
    except Exception:
        return MISS
