"""Command-line interface to the OCTOPUS system.

The demo paper fronts OCTOPUS with a web UI; this CLI exposes the same
services to a terminal (and doubles as the reference client for the
library).  A dataset directory (created by ``octopus generate`` or
:func:`repro.datasets.loaders.save_dataset`) plays the role of the deployed
network.  Every command is served through the typed
:class:`~repro.service.OctopusService` layer — the CLI renders
:class:`~repro.service.ServiceResponse` payloads, it never calls the
algorithms directly.

Commands::

    octopus generate  --kind citation --out DIR [--size N] [--seed S]
    octopus influencers DIR "data mining" [-k 10]
    octopus suggest     DIR "Ada Abadi"   [-k 3]
    octopus paths       DIR "Ada Abadi"   [--keywords "data mining"]
                        [--threshold 0.01] [--reverse] [--json FILE]
    octopus radar       DIR "em algorithm"
    octopus complete    DIR --users PREFIX | --keywords PREFIX
    octopus stats       DIR
    octopus query       DIR REQUEST_JSON [--batch] [--pretty]
    octopus query       --url http://HOST:PORT REQUEST_JSON [--batch]
    octopus serve       DIR [--host H] [--port P] [--auth-token TOKEN]
                        [--executor {serial,processes,cluster}]
                        [--workers N] [--shards N]
                        [--frontend {threaded,asyncio}]
                        [--queue-depth N] [--gateway-workers N]
                        [--heavy-slots N] [--tenant-rate RPS]
                        [--tls-cert PEM --tls-key PEM]
                        [--log-level {debug,info,warning}] [--log-json]
                        [--no-trace] [--slow-query-ms MS]

``query`` is the wire-level entry point: it takes a JSON request (or a JSON
array with ``--batch``), ``@file`` to read from a file, or ``-`` for stdin,
and prints the JSON response envelope(s).  With ``--url`` the request is
routed to a remote ``octopus serve`` instance instead of building the
indexes locally — same input, same output bytes (the determinism contract
extends across the socket).

``serve`` boots the HTTP wire transport over a dataset: ``POST /query``,
``POST /batch``, ``GET /stats`` and ``GET /healthz`` speak the JSON
envelopes, and ``GET /metrics`` exposes Prometheus text for scraping.
``--log-level`` turns on library console logging (``--log-json`` for one
JSON object per line, request ids included); ``--no-trace`` disables
request tracing and ``--slow-query-ms`` tunes the slow-query log
threshold.  ``--executor serial`` (the default) computes on the front
end's own threads; the two forked executors run a
:class:`~repro.cluster.ClusterCoordinator` over long-lived replica
processes: ``--executor processes`` routes every request whole to an idle
one of ``--workers`` replicas, and ``--executor cluster`` additionally
fans targeted sampling out across ``--shards`` shards.  Answers are
byte-identical on every executor at any replica or shard count.
``--auth-token`` requires ``Authorization: Bearer`` on every endpoint
except ``/healthz`` (pass the same token to ``query --url --auth-token``).
Ctrl-C shuts down gracefully — in-flight requests drain into a final
metrics report.

``serve --frontend asyncio`` swaps the threaded front end for the
:mod:`repro.gateway` event-loop server — same wire bytes, plus admission
control (``--queue-depth``, shed requests get 429 + ``Retry-After``),
priority lanes (``--gateway-workers``, ``--heavy-slots``), per-tenant
token buckets (``--tenant-rate``, ``--tenant-burst``) and slow-client
timeouts (``--read-timeout``, ``--write-timeout``).  ``--tls-cert`` +
``--tls-key`` serve HTTPS on either front end; ``query --url https://…``
verifies against the system trust store, a ``--ca-cert`` bundle, or not
at all with ``--insecure``, and ``query --retries N`` backs off on 429
per the server's ``Retry-After`` hint.

Every system command also accepts ``--backend {serial,threads,processes}``
and ``--workers N``: index builds and RR-set sampling run on the chosen
execution backend.  The backend is pure scheduling: the same seed gives
the same answers on ``serial`` (the default), ``threads`` and
``processes``, at any worker count.  ``query --batch`` serves the array
in order, sharing duplicates (``cache_hit=true``).
``--rr-kernel {vectorized,native}`` picks the RR sampling core: results
are deterministic per kernel.  ``native`` runs the chunk-batched compiled
extension when it is built (``python setup.py build_ext --inplace`` or a
``pip install`` with a compiler) and a draw-for-draw identical pure-Python
fallback otherwise — ``octopus stats`` reports which via
``execution.native_kernel``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.core.octopus import Octopus, OctopusConfig
from repro.datasets.citation import CitationNetworkGenerator
from repro.datasets.loaders import load_dataset, save_dataset
from repro.datasets.social import SocialNetworkGenerator
from repro.service import (
    CompleteRequest,
    ExplorePathsRequest,
    FindInfluencersRequest,
    OctopusService,
    RadarRequest,
    ServiceResponse,
    StatsRequest,
    SuggestKeywordsRequest,
    request_from_json,
)
from repro.utils.validation import ValidationError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="octopus",
        description="Online topic-aware influence analysis (ICDE'18 repro).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic dataset directory"
    )
    generate.add_argument(
        "--kind", choices=("citation", "social"), default="citation"
    )
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument("--size", type=int, default=500, help="user count")
    generate.add_argument("--seed", type=int, default=7)

    def add_system_command(
        name: str, help_text: str, *, dataset_optional: bool = False
    ) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        if dataset_optional:
            sub.add_argument(
                "dataset",
                nargs="?",
                default=None,
                help="dataset directory (omit when using --url)",
            )
        else:
            sub.add_argument("dataset", help="dataset directory")
        sub.add_argument("--seed", type=int, default=0, help="engine seed")
        sub.add_argument(
            "--fast",
            action="store_true",
            help="small index budgets (quicker startup, noisier answers)",
        )
        sub.add_argument(
            "--backend",
            choices=("serial", "threads", "processes"),
            default="serial",
            help="execution backend for index builds and RR sampling; "
            "pure scheduling — serial (default), threads and processes "
            "give identical answers for a fixed seed at any --workers",
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker count for pooled backends (default: CPU count)",
        )
        sub.add_argument(
            "--rr-kernel",
            choices=("vectorized", "native"),
            default="vectorized",
            help="RR sampling kernel: the frontier-batched vectorized core "
            "(default) or the chunk-batched native core (compiled "
            "extension when built, "
            "identical pure-Python fallback otherwise); each is "
            "deterministic for a fixed seed, but they draw in different "
            "orders and give different (equally distributed) samples",
        )
        return sub

    influencers = add_system_command(
        "influencers", "keyword-based influential user discovery"
    )
    influencers.add_argument("keywords", help="comma-separated keywords")
    influencers.add_argument("-k", type=int, default=10)

    suggest = add_system_command(
        "suggest", "personalized influential keyword suggestion"
    )
    suggest.add_argument("user", help="user name or id")
    suggest.add_argument("-k", type=int, default=3)
    suggest.add_argument(
        "--exact", action="store_true", help="exhaustive search (slow)"
    )

    paths = add_system_command("paths", "influential path exploration")
    paths.add_argument("user", help="user name or id")
    paths.add_argument("--keywords", default=None)
    paths.add_argument("--threshold", type=float, default=0.01)
    paths.add_argument(
        "--reverse", action="store_true", help="explore who influences the user"
    )
    paths.add_argument("--json", default=None, help="write d3 payload here")

    radar = add_system_command("radar", "topic interpretation of keywords")
    radar.add_argument("keywords", help="comma-separated keywords")

    complete = add_system_command("complete", "auto-completion")
    group = complete.add_mutually_exclusive_group(required=True)
    group.add_argument("--users", metavar="PREFIX")
    group.add_argument("--keywords", metavar="PREFIX")
    complete.add_argument("--limit", type=int, default=10)

    add_system_command("stats", "system and index statistics")

    query = add_system_command(
        "query",
        "execute a JSON service request (the wire-level API)",
        dataset_optional=True,
    )
    query.add_argument(
        "request",
        help="JSON request object, '@path' to read a file, or '-' for stdin",
    )
    query.add_argument(
        "--batch",
        action="store_true",
        help="treat the input as a JSON array and execute it as a batch",
    )
    query.add_argument(
        "--pretty", action="store_true", help="indent the JSON response"
    )
    query.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="send the request to a remote 'octopus serve' instance instead "
        "of building the dataset's indexes locally",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="HTTP timeout in seconds for --url requests",
    )
    query.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="bearer token for --url requests against a server started "
        "with --auth-token",
    )
    query.add_argument(
        "--ca-cert",
        default=None,
        metavar="PEM",
        help="CA bundle to verify an https:// --url server against "
        "(for self-signed deployments)",
    )
    query.add_argument(
        "--insecure",
        action="store_true",
        help="skip TLS certificate verification for https:// --url "
        "requests (encrypted but unauthenticated)",
    )
    query.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry 429 responses up to N times, sleeping the server's "
        "Retry-After hint between attempts (default 0: report the "
        "rate-limit envelope immediately)",
    )

    snapshot = add_system_command(
        "snapshot",
        "write a warm-start snapshot of the built system (OCTOSNAP)",
    )
    snapshot.add_argument(
        "--out",
        required=True,
        metavar="PATH",
        help="snapshot file to write (atomic: temp file + rename)",
    )

    serve = add_system_command(
        "serve",
        "serve the JSON envelopes over HTTP (the wire transport)",
        dataset_optional=True,
    )
    serve.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="boot from an OCTOSNAP snapshot instead of building from the "
        "dataset (instant warm start; the snapshot's embedded config — "
        "including the seed — wins over --seed/--fast/--backend flags); "
        "with --executor processes or cluster the snapshot also enables "
        "dead-replica respawn",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (0 binds an ephemeral port; default 8642)",
    )
    serve.add_argument(
        "--executor",
        choices=("serial", "processes", "cluster"),
        default="serial",
        help="request executor: 'serial' computes on the front end's own "
        "threads; 'processes' routes every request whole to an idle one "
        "of --workers forked replicas (default: CPU count); 'cluster' "
        "also fans targeted sampling out across --shards forked shards — "
        "replica and shard counts never change answer bytes",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shard-process count for --executor cluster (default 2)",
    )
    serve.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="require 'Authorization: Bearer TOKEN' on every endpoint "
        "except /healthz (shared-secret auth for non-loopback serving)",
    )
    serve.add_argument(
        "--frontend",
        choices=("threaded", "asyncio"),
        default="threaded",
        help="HTTP front end: 'threaded' spends one OS thread per "
        "connection (simple, fine on loopback); 'asyncio' multiplexes "
        "all connections on one event loop with admission control, "
        "priority lanes and per-tenant rate limits (the production "
        "front door)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="asyncio front end: per-lane admission queue bound; "
        "requests beyond it are shed with 429 + Retry-After "
        "(default 64)",
    )
    serve.add_argument(
        "--gateway-workers",
        type=int,
        default=4,
        help="asyncio front end: concurrent dispatch/compute slots "
        "(default 4)",
    )
    serve.add_argument(
        "--heavy-slots",
        type=int,
        default=None,
        help="asyncio front end: cap on concurrently executing heavy "
        "queries (influence maximization, large batches); default all "
        "but one worker so cheap traffic always has a slot",
    )
    serve.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        metavar="RPS",
        help="asyncio front end: per-tenant sustained requests/second "
        "(token bucket keyed by bearer token; default off)",
    )
    serve.add_argument(
        "--tenant-burst",
        type=int,
        default=None,
        help="asyncio front end: per-tenant burst size "
        "(default max(1, int(RPS)))",
    )
    serve.add_argument(
        "--read-timeout",
        type=float,
        default=10.0,
        help="asyncio front end: seconds a client may take per socket "
        "read before being disconnected (default 10)",
    )
    serve.add_argument(
        "--write-timeout",
        type=float,
        default=10.0,
        help="asyncio front end: seconds a client may take to accept a "
        "response before being disconnected (default 10)",
    )
    serve.add_argument(
        "--tls-cert",
        default=None,
        metavar="PEM",
        help="serve HTTPS using this certificate chain "
        "(requires --tls-key)",
    )
    serve.add_argument(
        "--tls-key",
        default=None,
        metavar="PEM",
        help="private key for --tls-cert",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning"),
        default=None,
        help="enable library console logging on stderr at this level "
        "(default: no library logging; slow-query lines need at least "
        "'warning')",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit log lines as one JSON object per line (implies "
        "--log-level info unless --log-level is given); each object "
        "carries the request id when the line was logged under a trace",
    )
    serve.add_argument(
        "--no-trace",
        action="store_true",
        help="disable request tracing (request ids, stage timings, "
        "slow-query log); serving bytes are identical either way",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="threshold for the structured slow-query log line "
        "(default REPRO_SLOW_QUERY_MS or 1000)",
    )
    return parser


def _load_service(arguments: argparse.Namespace) -> OctopusService:
    """Build the system and wrap it in the service layer."""
    dataset = load_dataset(arguments.dataset)
    backend = getattr(arguments, "backend", "serial")
    workers = getattr(arguments, "workers", None)
    rr_kernel = getattr(arguments, "rr_kernel", "vectorized")
    if arguments.fast:
        config = OctopusConfig(
            num_sketches=60,
            num_topic_samples=6,
            topic_sample_rr_sets=400,
            oracle_samples=30,
            execution_backend=backend,
            workers=workers,
            rr_kernel=rr_kernel,
            seed=arguments.seed,
        )
    else:
        config = OctopusConfig(
            execution_backend=backend,
            workers=workers,
            rr_kernel=rr_kernel,
            seed=arguments.seed,
        )
    return OctopusService(Octopus.from_dataset(dataset, config=config))


def _user_argument(text: str):
    """CLI user arguments are ids when numeric, names otherwise."""
    stripped = text.strip()
    if stripped.lstrip("-").isdigit():
        return int(stripped)
    return text


def _render_error(response: ServiceResponse) -> int:
    """Print a service error envelope the way the CLI reports errors."""
    assert response.error is not None
    print(f"error: {response.error.message}", file=sys.stderr)
    return 2


def _command_generate(arguments: argparse.Namespace) -> int:
    if arguments.kind == "citation":
        dataset = CitationNetworkGenerator(
            num_researchers=arguments.size, seed=arguments.seed
        ).generate()
    else:
        dataset = SocialNetworkGenerator(
            num_users=arguments.size, seed=arguments.seed
        ).generate()
    save_dataset(dataset, arguments.out)
    summary = dataset.summary()
    print(f"wrote {dataset.name} to {arguments.out}")
    for key in ("num_users", "num_edges", "num_items", "vocabulary_size"):
        print(f"  {key:<18s} {summary[key]:,.0f}")
    return 0


def _command_influencers(arguments: argparse.Namespace) -> int:
    service = _load_service(arguments)
    response = service.execute(
        FindInfluencersRequest(keywords=arguments.keywords, k=arguments.k)
    )
    if not response.ok:
        return _render_error(response)
    payload = response.payload
    print(f"keywords : {', '.join(payload['keywords'])}")
    print(f"spread   : {payload['spread']:.1f}")
    print(f"latency  : {response.latency_ms:.1f} ms")
    ranked = list(zip(payload["seeds"], payload["labels"]))
    for rank, (node, label) in enumerate(ranked[: arguments.k], start=1):
        print(f"{rank:3d}. {label}  (user {node})")
    return 0


def _command_suggest(arguments: argparse.Namespace) -> int:
    service = _load_service(arguments)
    method = "exact" if arguments.exact else "greedy"
    response = service.execute(
        SuggestKeywordsRequest(
            user=_user_argument(arguments.user), k=arguments.k, method=method
        )
    )
    if not response.ok:
        return _render_error(response)
    payload = response.payload
    print(f"user     : {payload['target_label']} (user {payload['target']})")
    print(f"keywords : {', '.join(payload['keywords'])}")
    print(f"spread   : {payload['spread']:.1f}")
    from repro.viz.text import render_radar

    radar = service.execute(RadarRequest(payload["keywords"]))
    if not radar.ok:
        return _render_error(radar)
    print(render_radar(radar.payload))
    return 0


def _command_paths(arguments: argparse.Namespace) -> int:
    service = _load_service(arguments)
    direction = "influenced_by" if arguments.reverse else "influences"
    response = service.execute(
        ExplorePathsRequest(
            user=_user_argument(arguments.user),
            keywords=arguments.keywords,
            threshold=arguments.threshold,
            direction=direction,
        )
    )
    if not response.ok:
        return _render_error(response)
    from repro.core.paths import PathTree
    from repro.viz.text import render_path_tree

    tree = PathTree.from_dict(response.payload)
    print(render_path_tree(tree))
    if arguments.json:
        from repro.viz.d3 import path_tree_to_d3_force

        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(path_tree_to_d3_force(tree), handle, indent=1)
        print(f"d3 payload written to {arguments.json}")
    return 0


def _command_radar(arguments: argparse.Namespace) -> int:
    service = _load_service(arguments)
    response = service.execute(RadarRequest(keywords=arguments.keywords))
    if not response.ok:
        return _render_error(response)
    from repro.viz.text import render_radar

    print(render_radar(response.payload))
    return 0


def _command_complete(arguments: argparse.Namespace) -> int:
    service = _load_service(arguments)
    if arguments.users is not None:
        request = CompleteRequest(
            prefix=arguments.users, kind="users", limit=arguments.limit
        )
    else:
        request = CompleteRequest(
            prefix=arguments.keywords, kind="keywords", limit=arguments.limit
        )
    response = service.execute(request)
    if not response.ok:
        return _render_error(response)
    for key, payload in response.payload["completions"]:
        print(f"{key}\t{payload}")
    return 0


def _command_stats(arguments: argparse.Namespace) -> int:
    service = _load_service(arguments)
    response = service.execute(StatsRequest())
    if not response.ok:
        return _render_error(response)
    for key, value in sorted(response.payload.items()):
        print(_render_stat(key, value))
    return 0


def _render_stat(key: str, value) -> str:
    """One aligned stats line (floats as numbers, identity keys as text)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{key:<45s} {value:.4f}"
    return f"{key:<45s} {value}"


def _server_ssl_context(arguments: argparse.Namespace):
    """The server-side ``SSLContext`` for ``--tls-cert``/``--tls-key``
    (``None`` for plain HTTP); both flags must come together."""
    import ssl

    cert = getattr(arguments, "tls_cert", None)
    key = getattr(arguments, "tls_key", None)
    if cert is None and key is None:
        return None
    if cert is None or key is None:
        raise ValidationError("--tls-cert and --tls-key must be given together")
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    try:
        context.load_cert_chain(cert, key)
    except (OSError, ssl.SSLError) as error:
        raise ValidationError(f"cannot load TLS material: {error}") from error
    return context


def _command_snapshot(arguments: argparse.Namespace) -> int:
    from repro.snapshot import save_snapshot

    service = _load_service(arguments)
    try:
        header = save_snapshot(
            service.backend, arguments.out, source=arguments.dataset
        )
    except Exception as error:  # noqa: BLE001 — CLI error contract
        print(f"error: {error}", file=sys.stderr)
        return 2
    size = os.path.getsize(arguments.out)
    print(f"wrote snapshot to {arguments.out} ({size:,d} bytes)")
    print(f"  format version   {header['version']}")
    print(f"  nodes / edges    {header['num_nodes']:,d} / "
          f"{header['num_edges']:,d}")
    print(f"  topics           {len(header['topic_names'])}")
    print("boot it with: octopus serve --snapshot " + arguments.out)
    return 0


def _snapshot_service(arguments: argparse.Namespace) -> OctopusService:
    """Warm-boot the service layer from an OCTOSNAP file."""
    from repro.snapshot import load_snapshot

    return OctopusService(load_snapshot(arguments.snapshot))


def _command_serve(arguments: argparse.Namespace) -> int:
    try:
        ssl_context = _server_ssl_context(arguments)
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if arguments.log_level is not None or arguments.log_json:
        from repro.utils.logging import enable_console_logging

        enable_console_logging(
            arguments.log_level or "info", json_lines=arguments.log_json
        )
    if arguments.snapshot is None and arguments.dataset is None:
        print("error: serve needs a dataset directory or --snapshot PATH",
              file=sys.stderr)
        return 2
    if arguments.snapshot is not None:
        from repro.snapshot import SnapshotError

        try:
            service = _snapshot_service(arguments)
        except (SnapshotError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        service = _load_service(arguments)
    if arguments.executor != "serial":
        from repro.backend.base import default_worker_count
        from repro.cluster import ClusterCoordinator

        # processes: whole-query replicas; cluster: targeted fan-out too.
        fan_out = arguments.executor == "cluster"
        replicas = arguments.shards if fan_out else arguments.workers
        if replicas is None:
            replicas = default_worker_count()
        service = ClusterCoordinator(
            service,
            shards=replicas,
            snapshot_path=arguments.snapshot,
            fan_out=fan_out,
        )
    if arguments.frontend == "asyncio":
        from repro.gateway import GatewayConfig, OctopusAsyncGateway

        server = OctopusAsyncGateway(
            service,
            host=arguments.host,
            port=arguments.port,
            config=GatewayConfig(
                queue_depth=arguments.queue_depth,
                workers=arguments.gateway_workers,
                heavy_slots=arguments.heavy_slots,
                tenant_rate=arguments.tenant_rate,
                tenant_burst=arguments.tenant_burst,
                read_timeout=arguments.read_timeout,
                write_timeout=arguments.write_timeout,
            ),
            auth_token=arguments.auth_token,
            ssl_context=ssl_context,
            verbose=arguments.verbose,
            tracing=False if arguments.no_trace else None,
            slow_query_ms=arguments.slow_query_ms,
        )
        server.start()
    else:
        from repro.server import OctopusHTTPServer

        server = OctopusHTTPServer(
            service,
            host=arguments.host,
            port=arguments.port,
            auth_token=arguments.auth_token,
            ssl_context=ssl_context,
            verbose=arguments.verbose,
            tracing=False if arguments.no_trace else None,
            slow_query_ms=arguments.slow_query_ms,
        )
    origin = (
        arguments.dataset
        if arguments.snapshot is None
        else f"snapshot {arguments.snapshot}"
    )
    print(f"serving {origin} on {server.url} "
          f"(executor={arguments.executor}, frontend={arguments.frontend})")
    print("endpoints: POST /query  POST /batch  GET /stats  GET /healthz  "
          "GET /metrics")
    print("press Ctrl-C to drain and stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining in-flight requests ...", file=sys.stderr)
    finally:
        final = server.shutdown_gracefully()
        for key in sorted(final):
            if key.startswith(
                ("service.", "cache.", "http.", "executor.", "cluster.",
                 "gateway.")
            ):
                print(_render_stat(key, final[key]))
    return 0


def _read_query_input(text: str) -> str:
    """Resolve the ``query`` command's request argument to raw JSON text."""
    if text == "-":
        return sys.stdin.read()
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            return handle.read()
    return text


def _query_remote(arguments: argparse.Namespace, raw: str, entries, indent) -> int:
    """Route the ``query`` input at a remote server via the HTTP client.

    *entries* is the already-parsed batch array (``None`` without
    ``--batch`` — the raw text then goes over the wire untouched, so the
    server validates exactly what the user wrote).
    """
    from repro.server import OctopusClient, OctopusTransportError

    verify: object = True
    if getattr(arguments, "insecure", False):
        verify = False
    elif getattr(arguments, "ca_cert", None) is not None:
        verify = arguments.ca_cert
    try:
        with OctopusClient(
            arguments.url,
            timeout=arguments.timeout,
            auth_token=getattr(arguments, "auth_token", None),
            verify=verify,
            retries=getattr(arguments, "retries", 0),
        ) as client:
            if entries is not None:
                responses = client.execute_batch(entries)
                print(
                    json.dumps(
                        [response.to_dict() for response in responses],
                        sort_keys=True,
                        indent=indent,
                    )
                )
                return 0 if all(response.ok for response in responses) else 2
            response = client.execute(raw)
            print(response.to_json(indent=indent))
            return 0 if response.ok else 2
    except OctopusTransportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _command_query(arguments: argparse.Namespace) -> int:
    # Read and shape-check the input before the (expensive) index build.
    try:
        raw = _read_query_input(arguments.request)
    except OSError as error:
        print(f"error: cannot read request: {error}", file=sys.stderr)
        return 2
    indent = 1 if arguments.pretty else None
    entries = None
    if arguments.batch:
        try:
            entries = json.loads(raw)
        except json.JSONDecodeError as error:
            print(f"error: batch input is not valid JSON: {error}", file=sys.stderr)
            return 2
        if not isinstance(entries, list):
            print("error: --batch expects a JSON array", file=sys.stderr)
            return 2
    if arguments.url is not None:
        return _query_remote(arguments, raw, entries, indent)
    if arguments.dataset is None:
        print("error: query needs a dataset directory or --url", file=sys.stderr)
        return 2
    if arguments.batch:
        responses = _load_service(arguments).execute_batch(entries)
        print(
            json.dumps(
                [response.to_dict() for response in responses],
                sort_keys=True,
                indent=indent,
            )
        )
        return 0 if all(response.ok for response in responses) else 2
    try:
        request = request_from_json(raw)
    except ValidationError as error:
        try:
            name = str(json.loads(raw).get("service") or "unknown")
        except (json.JSONDecodeError, AttributeError):
            name = "unknown"
        response = ServiceResponse.failure(
            name, "malformed_request", str(error)
        )
        print(response.to_json(indent=indent))
        return 2
    response = _load_service(arguments).execute(request)
    print(response.to_json(indent=indent))
    return 0 if response.ok else 2


_HANDLERS = {
    "generate": _command_generate,
    "influencers": _command_influencers,
    "suggest": _command_suggest,
    "paths": _command_paths,
    "radar": _command_radar,
    "complete": _command_complete,
    "stats": _command_stats,
    "query": _command_query,
    "snapshot": _command_snapshot,
    "serve": _command_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return _HANDLERS[arguments.command](arguments)
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
