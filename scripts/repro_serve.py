#!/usr/bin/env python
"""Start the verification service.

Binds the JSON-lines admission/verification server
(:class:`repro.service.VerificationService`) on a Unix socket and serves
until a ``shutdown`` request or SIGINT/SIGTERM.

Usage::

    PYTHONPATH=src python scripts/repro_serve.py \
        --socket /tmp/repro.sock --store ~/.cache/repro/graph-store

Environment knobs honored by the server:

* ``REPRO_SERVICE_SOCKET`` — default socket path (CLI flag wins).
* ``REPRO_GRAPH_DIR`` — default graph-store directory (CLI flag wins).
* ``REPRO_GRAPH_STORE_BYTES`` — byte budget of the store's LRU eviction.
* ``REPRO_VERIFICATION_ENGINE`` — engine override for cold compiles.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def main() -> int:
    from repro.service import DEFAULT_STORE_DIR, SOCKET_ENV_VAR, VerificationService

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--socket",
        default=os.environ.get(SOCKET_ENV_VAR) or "/tmp/repro-service.sock",
        help="Unix socket to listen on (default: $REPRO_SERVICE_SOCKET "
        "or /tmp/repro-service.sock)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help=f"graph-store directory (default: $REPRO_GRAPH_DIR or {DEFAULT_STORE_DIR})",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="cold-compile worker processes (default: one per usable core)",
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=None,
        help="default exploration cap of queries that name none",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log at DEBUG instead of INFO"
    )
    args = parser.parse_args()

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    kwargs = {}
    if args.max_states is not None:
        kwargs["max_states"] = args.max_states
    service = VerificationService(
        args.socket, store_dir=args.store, workers=args.workers, **kwargs
    )
    try:
        service.run()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
