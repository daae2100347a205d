"""Synchronous client of the verification service.

A thin blocking wrapper over the JSON-lines Unix-socket protocol
(:mod:`repro.service.protocol`): one request per call, responses matched by
``id``.  The client is what the CLI (``scripts/repro_query.py``), the
load generator and the service test suite speak; it also adapts the server
into a first-fit admission test (:meth:`ServiceClient.admission_test`), so
a dimensioner running in one process can verify against a shared server —
and its shared graph store — in another.
"""

from __future__ import annotations

import itertools
import os
import random
import socket
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..exceptions import ServiceError
from ..switching.profile import SwitchingProfile
from ..verification.result import VerificationResult
from .protocol import (
    SOCKET_ENV_VAR,
    decode_message,
    encode_message,
    profiles_to_wire,
    result_from_wire,
)

__all__ = ["ServiceClient", "CODE_TRANSPORT"]

#: Client-local error code for transport-level failures (connection refused,
#: reset, server closed the connection).  Always retryable: the request
#: never produced an answer, and every operation but ``shutdown`` is an
#: idempotent query.
CODE_TRANSPORT = "transport-failure"


class ServiceClient:
    """Blocking JSON-lines client of a :class:`~repro.service.server
    .VerificationService`.

    Transient failures — a refused/reset connection, the server closing the
    line mid-request, or an ``ok: false`` response flagged ``retryable``
    (e.g. ``worker-pool-failure`` after a worker died) — are retried with
    bounded exponential backoff and jitter.  ``shutdown`` is never retried:
    a transport error there usually *is* the success signal.

    Args:
        socket_path: server socket; defaults to ``REPRO_SERVICE_SOCKET``.
        timeout: per-response socket timeout in seconds.  Cold compiles run
            server-side for up to this long from the client's perspective —
            keep it comfortably above the largest expected compile.
        retries: extra attempts after the first failure (0 disables
            retrying entirely).
        backoff_base: first retry delay in seconds; each further retry
            doubles it.
        backoff_max: ceiling on any single delay.
        backoff_jitter: fraction of random extra delay (0.25 → up to +25%),
            de-synchronising clients that failed together.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        timeout: float = 300.0,
        retries: int = 3,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        backoff_jitter: float = 0.25,
    ) -> None:
        socket_path = socket_path or os.environ.get(SOCKET_ENV_VAR)
        if not socket_path:
            raise ServiceError(
                f"no socket path given and {SOCKET_ENV_VAR} is not set"
            )
        self.socket_path = str(socket_path)
        self.timeout = float(timeout)
        self.retries = max(0, int(retries))
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.backoff_jitter = float(backoff_jitter)
        self._socket: Optional[socket.socket] = None
        self._reader = None
        self._ids = itertools.count(1)
        #: Injectable for tests asserting backoff without real waiting.
        self._sleep = time.sleep

    # --------------------------------------------------------------- backoff
    def _backoff_delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based): capped doubling + jitter."""
        delay = min(self.backoff_max, self.backoff_base * (2 ** (attempt - 1)))
        return delay * (1.0 + self.backoff_jitter * random.random())

    # ------------------------------------------------------------- transport
    def connect(self) -> "ServiceClient":
        """Open the connection (idempotent; requests auto-connect).

        Connection failures retry with backoff — a client racing a server
        restart (or a supervisor respawning it) connects as soon as the
        socket reappears instead of failing its first request.
        """
        attempt = 0
        while self._socket is None:
            try:
                self._connect_once()
            except ServiceError:
                if attempt >= self.retries:
                    raise
                attempt += 1
                self._sleep(self._backoff_delay(attempt))
        return self

    def _connect_once(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as error:
            sock.close()
            raise ServiceError(
                f"cannot reach verification service at {self.socket_path}: {error}",
                code=CODE_TRANSPORT,
                retryable=True,
            ) from error
        self._socket = sock
        self._reader = sock.makefile("rb")

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
            self._socket = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *_exc) -> None:
        self.close()

    def request(
        self, operation: str, *, deadline: Optional[float] = None, **fields: Any
    ) -> Dict[str, Any]:
        """Send one request and return the (``ok``-checked) response.

        Args:
            deadline: per-operation response timeout in seconds, overriding
                the client-wide ``timeout`` for this call only (e.g. a
                short deadline on a liveness probe against a client sized
                for cold compiles).
        """
        retries = 0 if operation == "shutdown" else self.retries
        attempt = 0
        while True:
            try:
                return self._request_once(operation, deadline, fields)
            except ServiceError as error:
                if not error.retryable or attempt >= retries:
                    raise
                attempt += 1
                self._sleep(self._backoff_delay(attempt))

    def _request_once(
        self, operation: str, deadline: Optional[float], fields: Dict[str, Any]
    ) -> Dict[str, Any]:
        self.connect()
        sock, reader = self._socket, self._reader
        assert sock is not None and reader is not None
        request_id = next(self._ids)
        message = {"id": request_id, "op": operation}
        message.update(fields)
        if deadline is not None:
            sock.settimeout(float(deadline))
        try:
            sock.sendall(encode_message(message))
            line = reader.readline()
        except OSError as error:
            self.close()
            raise ServiceError(
                f"service transport failed: {error}",
                code=CODE_TRANSPORT,
                retryable=True,
            ) from error
        finally:
            if deadline is not None and self._socket is sock:
                sock.settimeout(self.timeout)
        if not line:
            self.close()
            raise ServiceError(
                "service closed the connection",
                code=CODE_TRANSPORT,
                retryable=True,
            )
        response = decode_message(line)
        if response.get("id") not in (None, request_id):
            raise ServiceError(
                f"response id {response.get('id')!r} does not match request "
                f"{request_id!r}"
            )
        if not response.get("ok"):
            raise ServiceError(
                response.get("error") or "request failed",
                code=str(response.get("code") or "invalid-request"),
                retryable=bool(response.get("retryable")),
            )
        return response

    # ------------------------------------------------------------ operations
    def ping(self, deadline: Optional[float] = None) -> bool:
        """Liveness probe (optionally on a short per-call deadline)."""
        return bool(self.request("ping", deadline=deadline).get("pong"))

    def stats(self) -> Dict[str, Any]:
        """Server counters and graph-store summary."""
        return self.request("stats")

    def shutdown(self) -> None:
        """Ask the server to stop."""
        self.request("shutdown")

    def verify(
        self,
        profiles: Sequence[SwitchingProfile],
        use_acceleration: bool = True,
        instance_budget: Optional[Mapping[str, int]] = None,
        max_states: Optional[int] = None,
        with_counterexample: bool = False,
        minimize: bool = False,
        deadline: Optional[float] = None,
    ) -> VerificationResult:
        """Verify one slot configuration; returns the usual result object."""
        response = self.request(
            "verify",
            deadline=deadline,
            **self._verify_fields(
                profiles, use_acceleration, instance_budget, max_states
            ),
            with_counterexample=with_counterexample,
            minimize=minimize,
        )
        return result_from_wire(response["result"])

    def admit(
        self,
        profiles: Sequence[SwitchingProfile],
        use_acceleration: bool = True,
        instance_budget: Optional[Mapping[str, int]] = None,
        max_states: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> bool:
        """Admission test: may these profiles share one TT slot?"""
        response = self.request(
            "admit",
            deadline=deadline,
            **self._verify_fields(
                profiles, use_acceleration, instance_budget, max_states
            ),
        )
        if response.get("truncated"):
            raise ServiceError(
                "verification truncated before completion; raise max_states"
            )
        return bool(response["admitted"])

    def counterexample(
        self,
        profiles: Sequence[SwitchingProfile],
        use_acceleration: bool = True,
        instance_budget: Optional[Mapping[str, int]] = None,
        max_states: Optional[int] = None,
        minimize: bool = True,
    ) -> VerificationResult:
        """Verify with the witness trace always requested."""
        response = self.request(
            "counterexample",
            **self._verify_fields(
                profiles, use_acceleration, instance_budget, max_states
            ),
            minimize=minimize,
        )
        return result_from_wire(response["result"])

    def check(
        self,
        profiles: Sequence[SwitchingProfile],
        specs,
        use_acceleration: bool = True,
        instance_budget: Optional[Mapping[str, int]] = None,
        max_states: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> List["SpecVerdict"]:
        """Evaluate temporal specs server-side; verdicts in request order.

        ``specs`` accepts a single spec or a list, each entry a source
        string, a parsed :class:`~repro.verification.spec.Spec` or its
        ``to_dict`` form.  Raises :class:`~repro.exceptions.ServiceError`
        with code ``invalid-spec`` for unparseable specs and
        ``exploration-truncated`` when the graph cannot be fully explored
        within ``max_states``.
        """
        from ..verification.spec import Spec
        from ..verification.spec_eval import SpecVerdict

        if isinstance(specs, (str, Spec, Mapping)):
            specs = [specs]
        wire_specs = [
            spec.to_dict() if isinstance(spec, Spec) else spec for spec in specs
        ]
        response = self.request(
            "check",
            deadline=deadline,
            **self._verify_fields(
                profiles, use_acceleration, instance_budget, max_states
            ),
            specs=wire_specs,
        )
        return [SpecVerdict.from_dict(entry) for entry in response["verdicts"]]

    def first_fit(
        self,
        profiles: Sequence[SwitchingProfile],
        order: Optional[Sequence[str]] = None,
    ) -> Dict[str, Any]:
        """Dimension a full application set server-side."""
        fields: Dict[str, Any] = {"profiles": profiles_to_wire(profiles)}
        if order is not None:
            fields["order"] = list(order)
        return self.request("first_fit", **fields)

    def batch(self, requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Run sub-requests concurrently server-side; responses in order."""
        return list(self.request("batch", requests=requests)["responses"])

    # ------------------------------------------------------------ adaptation
    def admission_test(
        self,
        use_acceleration: bool = True,
        max_states: Optional[int] = None,
    ):
        """An admission-test callable backed by this client.

        ``FirstFitDimensioner(profiles, admission_test=client.admission_test())``
        verifies every trial against the server (and its shared store).
        """

        def admit(profiles: Sequence[SwitchingProfile]) -> bool:
            return self.admit(
                profiles, use_acceleration=use_acceleration, max_states=max_states
            )

        return admit

    # -------------------------------------------------------------- internal
    @staticmethod
    def _verify_fields(
        profiles: Sequence[SwitchingProfile],
        use_acceleration: bool,
        instance_budget: Optional[Mapping[str, int]],
        max_states: Optional[int],
    ) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "profiles": profiles_to_wire(profiles),
            "use_acceleration": bool(use_acceleration),
        }
        if instance_budget is not None:
            fields["instance_budget"] = dict(instance_budget)
        if max_states is not None:
            fields["max_states"] = int(max_states)
        return fields
