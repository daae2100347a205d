"""Wire protocol of the verification service.

The transport is deliberately minimal: a Unix-domain stream socket carrying
**JSON lines** — one JSON object per ``\\n``-terminated line, UTF-8, no
framing beyond the newline.  Anything that can open a socket and print a
line can drive the server (``socat``, a five-line script, the bundled
:class:`~repro.service.client.ServiceClient`).

Requests
--------

Every request is an object with an ``op`` field and an optional ``id``
(echoed verbatim in the response, so clients may pipeline)::

    {"id": 1, "op": "verify", "profiles": [...], "use_acceleration": true}

Operations:

``ping``
    Liveness probe; responds ``{"ok": true, "pong": true}``.
``stats``
    Server counters (hits per tier, coalesced compiles, uptime) and the
    graph-store summary.
``verify``
    Full verification of one slot configuration.  Fields: ``profiles``
    (list of :meth:`~repro.switching.profile.SwitchingProfile.to_dict`
    objects, required), ``use_acceleration`` (bool, default true — apply
    the paper's instance budgets), ``instance_budget`` (optional explicit
    ``{name: budget}`` mapping, overrides ``use_acceleration``),
    ``max_states`` (optional exploration cap), ``with_counterexample``
    (bool, default false), ``minimize`` (bool, default false).  Responds
    with the serialized :class:`~repro.verification.result
    .VerificationResult` plus the ``tier`` the query was answered from
    (``"memory"``, ``"store"`` or ``"cold"``).
``admit``
    Admission test: same fields as ``verify``, but the response carries
    only ``admitted`` (and ``tier``) — the shape the first-fit dimensioner
    consumes.
``counterexample``
    ``verify`` with the witness always requested and minimized by default.
``check``
    Evaluate temporal-logic specs on the compiled graph of one slot
    configuration.  Fields: ``profiles`` / ``use_acceleration`` /
    ``instance_budget`` / ``max_states`` as for ``verify``, plus ``specs``
    (required): a spec source string, a ``spec_to_dict`` object, or a list
    mixing both.  Warm graphs (memory or store tier) answer inline in the
    event loop; a cold configuration compiles through the same
    single-flight path as ``verify`` first.  Responds with ``tier``,
    ``feasible`` and ``verdicts`` — one serialized
    :class:`~repro.verification.spec_eval.SpecVerdict` per spec, in
    request order.
``first_fit``
    Dimension a full application set: ``profiles`` (required), ``order``
    (optional explicit consideration order).  Responds with the slot
    partition, slot count and trial count.
``batch``
    ``{"op": "batch", "requests": [...]}`` — the sub-requests (any ops but
    ``batch``) run concurrently server-side; the response carries their
    responses in request order under ``responses``.
``shutdown``
    Ask the server to stop accepting connections and exit.

Responses
---------

``{"id": ..., "ok": true, ...payload...}`` on success, and
``{"id": ..., "ok": false, "error": "<message>", "code": "<code>",
"retryable": <bool>}`` on failure — a failed request never tears down the
connection.

Error codes
-----------

``code`` classifies failures so clients can decide mechanically whether a
retry makes sense; ``retryable`` is the server's own judgement (always
``code in RETRYABLE_CODES``):

``invalid-request``
    Malformed or semantically invalid request (bad profiles, unknown op,
    oversized wire line).  Never retryable: an identical resend fails
    identically.
``invalid-spec``
    A ``check`` request carried a spec that does not parse, names an
    application absent from the configuration, or places a bounded
    ``eventually`` outside ``always (... implies ...)``.  Never retryable.
``exploration-truncated``
    A ``check`` hit the ``max_states`` cap before the graph was fully
    explored; temporal verdicts need the complete graph.  Not retryable as
    sent — resend with a larger ``max_states``.
``worker-pool-failure``
    The cold-compile worker pool died mid-request (a worker was OOM-killed
    or crashed).  Retryable: the server rebuilds the pool, so a resend of
    the identical request compiles on a fresh worker.
``shutting-down``
    The request raced the server's shutdown.  Retryable against a
    restarted server.
``internal``
    Unexpected server-side failure.  Not retryable by default.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..exceptions import ServiceError
from ..switching.profile import SwitchingProfile
from ..verification.result import CounterexampleStep, VerificationResult

__all__ = [
    "CODE_INTERNAL",
    "CODE_INVALID",
    "CODE_SHUTTING_DOWN",
    "CODE_SPEC",
    "CODE_TRUNCATED",
    "CODE_WORKER_POOL",
    "RETRYABLE_CODES",
    "SOCKET_ENV_VAR",
    "budget_from_wire",
    "decode_message",
    "encode_message",
    "error_response",
    "profiles_from_wire",
    "profiles_to_wire",
    "result_from_wire",
    "result_to_wire",
]

#: Environment variable naming the default socket path of both the server
#: and the CLI client.
SOCKET_ENV_VAR = "REPRO_SERVICE_SOCKET"

#: Machine-readable error codes (see the module docstring).
CODE_INVALID = "invalid-request"
CODE_SPEC = "invalid-spec"
CODE_TRUNCATED = "exploration-truncated"
CODE_WORKER_POOL = "worker-pool-failure"
CODE_SHUTTING_DOWN = "shutting-down"
CODE_INTERNAL = "internal"

#: Codes whose failures are transient: an identical retry against the same
#: (or a restarted) server has a reasonable chance of succeeding.
RETRYABLE_CODES = frozenset({CODE_WORKER_POOL, CODE_SHUTTING_DOWN})

#: Refuse pathological lines instead of buffering them (a malformed client
#: could otherwise grow the read buffer without bound).
MAX_LINE_BYTES = 8 * 1024 * 1024


def encode_message(message: Mapping[str, Any]) -> bytes:
    """One wire line: compact JSON, newline-terminated, UTF-8."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def error_response(error: BaseException) -> Dict[str, Any]:
    """The wire form of a failed request.

    :class:`~repro.exceptions.ServiceError` carries its own code/retryable
    classification; any other exception is an ``internal`` failure.
    """
    from ..exceptions import ServiceError

    if isinstance(error, ServiceError):
        code = error.code
        retryable = error.retryable or code in RETRYABLE_CODES
        message = str(error)
    else:
        code = CODE_INTERNAL
        retryable = False
        message = f"{type(error).__name__}: {error}"
    return {"ok": False, "error": message, "code": code, "retryable": retryable}


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a message object."""
    try:
        message = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(f"malformed wire line: {error}") from error
    if not isinstance(message, dict):
        raise ServiceError("a wire message must be a JSON object")
    return message


# ------------------------------------------------------------------ profiles
def profiles_to_wire(profiles: Sequence[SwitchingProfile]) -> list:
    """Serialize profiles for a request (:meth:`SwitchingProfile.to_dict`)."""
    return [profile.to_dict() for profile in profiles]


def profiles_from_wire(payload) -> Tuple[SwitchingProfile, ...]:
    """Rebuild the profile tuple of a request."""
    if not isinstance(payload, (list, tuple)) or not payload:
        raise ServiceError("'profiles' must be a non-empty list of profile objects")
    try:
        return tuple(SwitchingProfile.from_dict(entry) for entry in payload)
    except Exception as error:
        raise ServiceError(f"unparseable profile: {error}") from error


# ------------------------------------------------------------------- results
def result_to_wire(
    result: VerificationResult, with_counterexample: bool = True
) -> Dict[str, Any]:
    """Serialize a :class:`VerificationResult` (optionally witness-free)."""
    wire: Dict[str, Any] = {
        "feasible": result.feasible,
        "applications": list(result.applications),
        "method": result.method,
        "explored_states": result.explored_states,
        "elapsed_seconds": result.elapsed_seconds,
        "instance_budget": [[name, budget] for name, budget in result.instance_budget],
        "truncated": result.truncated,
        "count_semantics": result.count_semantics,
        "counterexample": [],
    }
    if with_counterexample:
        wire["counterexample"] = [
            {
                "sample": step.sample,
                "arrivals": list(step.arrivals),
                "occupant": step.occupant,
                "missed": list(step.missed),
            }
            for step in result.counterexample
        ]
    return wire


def result_from_wire(wire: Mapping[str, Any]) -> VerificationResult:
    """Rebuild a :class:`VerificationResult` from its wire form."""
    steps = tuple(
        CounterexampleStep(
            sample=int(step["sample"]),
            arrivals=tuple(step["arrivals"]),
            occupant=step["occupant"],
            missed=tuple(step.get("missed", ())),
        )
        for step in wire.get("counterexample", ())
    )
    return VerificationResult(
        feasible=bool(wire["feasible"]),
        applications=tuple(wire["applications"]),
        method=str(wire["method"]),
        explored_states=int(wire["explored_states"]),
        elapsed_seconds=float(wire["elapsed_seconds"]),
        counterexample=steps,
        instance_budget=tuple(
            (name, int(budget)) for name, budget in wire.get("instance_budget", ())
        ),
        truncated=bool(wire.get("truncated", False)),
        count_semantics=str(wire.get("count_semantics", "level-synchronous")),
    )


def budget_from_wire(
    payload: Mapping[str, Any], profiles: Sequence[SwitchingProfile]
) -> Optional[Dict[str, int]]:
    """The effective instance-budget mapping of a verify/admit request.

    An explicit ``instance_budget`` wins; otherwise ``use_acceleration``
    (default true) derives the paper's budgets from the profile set, and
    ``false`` means unbounded.
    """
    explicit = payload.get("instance_budget")
    if explicit is not None:
        if not isinstance(explicit, Mapping):
            raise ServiceError("'instance_budget' must map application names to ints")
        return {str(name): int(value) for name, value in explicit.items()}
    if payload.get("use_acceleration", True):
        from ..verification.acceleration import instance_budgets

        return instance_budgets(profiles)
    return None
