"""Resolve once: the router's key rides the internal hop to the worker.

The router resolves each ``/solve`` and ``/portfolio`` body (parse,
instance build, ``result_key``) and forwards the key in ``X-Repro-Key``
together with the fleet's route token.  The contracts pinned here:

* a worker trusts a forwarded key only with the right token; a request
  sent straight to a worker port with a forged key, a wrong token or no
  token is resolved like any client request;
* a key a client sends to the router is never forwarded, and the token
  never leaves the fleet (response headers, logs, ``/metrics``,
  ``/debug/trace``);
* the key the router forwards equals the worker's own key, and a
  forwarded hit parses nothing, at any size;
* a forwarded key that disagrees with the body is a 500, never cached;
* fleet answers, rejections and old spill files behave exactly as on a
  solo server.
"""

from __future__ import annotations

import http.client
import io
import json
import threading
from collections import namedtuple
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.server as server_module
from repro.core.instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from repro.core.rectangle import Rect
from repro.core.serialize import instance_to_dict
from repro.dag.graph import TaskDAG
from repro.obs import configure_logging
from repro.obs.logging import _reset_for_testing as _reset_logger
from repro.service import InProcessServer, RouterServer, SolveServer
from repro.service.cache import ResultCache
from repro.service.router import _WorkerClient
from repro.service.server import (
    KEY_HEADER,
    TOKEN_HEADER,
    parse_json_body,
    resolve_portfolio_request,
    resolve_solve_request,
)
from repro.workloads.random_rects import powerlaw_rects

from .conftest import precedence_instances, rect_lists, release_instances

TOKEN = "0123456789abcdef0123456789abcdef"

#: Anything with a ``host`` and a ``port`` can be posted to.
Endpoint = namedtuple("Endpoint", "host port")


@pytest.fixture(scope="module")
def fleet():
    router = RouterServer(workers=2)
    with InProcessServer(router) as srv:
        yield router, srv


@pytest.fixture(scope="module")
def solo():
    with InProcessServer(SolveServer()) as srv:
        yield srv


@pytest.fixture(scope="module")
def worker():
    """A solve server configured exactly like a fleet worker."""
    with InProcessServer(SolveServer(route_token=TOKEN)) as srv:
        yield srv


def _post(srv, path, body, headers=None):
    payload = json.dumps(body).encode() if isinstance(body, dict) else body
    conn = http.client.HTTPConnection(srv.host, srv.port, timeout=60)
    try:
        conn.request(
            "POST", path, body=payload,
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _get(srv, path, headers=None):
    conn = http.client.HTTPConnection(srv.host, srv.port, timeout=60)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _body(n=8, seed=0, algorithm="ffdh"):
    instance = StripPackingInstance(powerlaw_rects(n, np.random.default_rng(seed)))
    return {"instance": instance_to_dict(instance), "algorithm": algorithm}


def _key(body: dict, resolver=resolve_solve_request) -> str:
    return resolver(parse_json_body(json.dumps(body).encode()))[0]


def _normalized(raw: bytes) -> dict:
    data = json.loads(raw)
    data["report"]["wall_time"] = 0.0
    return data


@contextmanager
def _forwarded_headers():
    """Record the headers of every request the router sends a worker."""
    seen: list[tuple[str, dict]] = []
    original = _WorkerClient.request

    async def spy(self, method, path, body=b"", headers=None):
        seen.append((path, dict(headers or {})))
        return await original(self, method, path, body, headers)

    with mock.patch.object(_WorkerClient, "request", spy):
        yield seen


@contextmanager
def _resolve_spies():
    """Count calls of the worker's parse and instance-build entry points."""
    calls = {"parse": 0, "instance": 0}
    parse, build = server_module.parse_json_body, server_module.instance_from_dict

    def counted_parse(body):
        calls["parse"] += 1
        return parse(body)

    def counted_build(data):
        calls["instance"] += 1
        return build(data)

    with mock.patch.object(server_module, "parse_json_body", counted_parse), \
            mock.patch.object(server_module, "instance_from_dict", counted_build):
        yield calls


# ----------------------------------------------------------------------
# the trust boundary
# ----------------------------------------------------------------------

class TestTrustBoundary:
    @pytest.mark.parametrize(
        "token", [None, "not-the-token", ""], ids=["no-token", "wrong-token", "empty-token"]
    )
    def test_worker_port_resolves_untrusted_keys_normally(self, fleet, solo, token):
        """Prime body B on a worker, then send body A straight to that
        worker's port claiming B's key: A must get A's own answer."""
        router, _srv = fleet
        primed = _body(seed=101)
        other = _body(seed=102)
        worker_id = router._ring.node_for(_key(primed))
        direct = Endpoint("127.0.0.1", router._handles[worker_id].port)
        status, h, raw_primed = _post(direct, "/solve", primed)
        assert status == 200
        headers = {KEY_HEADER: _key(primed)}
        if token is not None:
            headers[TOKEN_HEADER] = token
        status, h, raw = _post(direct, "/solve", other, headers)
        assert status == 200
        assert raw != raw_primed
        assert h["X-Repro-Cache"] in ("miss", "hit")  # A's own entry, if any
        assert _normalized(raw) == _normalized(_post(solo, "/solve", other)[2])

    def test_solo_server_ignores_forwarded_keys(self):
        """A server without a route token never trusts the header."""
        with InProcessServer(SolveServer()) as solo:
            primed, other = _body(seed=103), _body(seed=104)
            _, _, raw_primed = _post(solo, "/solve", primed)
            status, h, raw = _post(
                solo, "/solve", other, {KEY_HEADER: _key(primed), TOKEN_HEADER: TOKEN}
            )
        assert status == 200 and h["X-Repro-Cache"] == "miss"
        assert raw != raw_primed

    def test_client_key_header_is_never_forwarded(self, fleet):
        router, srv = fleet
        body = _body(seed=105)
        with _forwarded_headers() as seen:
            status, _, _ = _post(
                srv, "/solve", body, {KEY_HEADER: "forged|ffdh|{}", TOKEN_HEADER: "forged"}
            )
        assert status == 200
        ((path, headers),) = seen
        assert path == "/solve"
        assert headers[KEY_HEADER] == _key(body)
        assert headers[TOKEN_HEADER] == router._route_token

    def test_sessions_never_carry_the_key_header(self, fleet):
        _router, srv = fleet
        with _forwarded_headers() as seen:
            status, _, raw = _post(srv, "/session", {"algorithm": "ffdh"})
            session = json.loads(raw)["session"]["id"]
            _post(srv, f"/session/{session}/step", {"instance": _body(seed=106)["instance"]})
        assert status == 200 and len(seen) == 2
        assert all(KEY_HEADER not in headers for _path, headers in seen)

    def test_disagreeing_forwarded_key_is_a_500_and_never_cached(self, worker):
        body, other = _body(seed=107), _body(seed=108)
        wrong = _key(other)
        status, _, raw = _post(worker, "/solve", body, {KEY_HEADER: wrong, TOKEN_HEADER: TOKEN})
        assert status == 500 and "disagrees" in json.loads(raw)["error"]
        # neither key was cached: both bodies are fresh misses afterwards
        for probe in (body, other):
            status, h, _ = _post(worker, "/solve", probe)
            assert status == 200 and h["X-Repro-Cache"] == "miss"

    def test_oversized_keys_are_resolved_by_the_worker(self, fleet, solo):
        """A key too long for a header is not forwarded; the worker
        resolves the body itself and answers as a solo server does."""
        _router, srv = fleet
        body = _body(seed=109, algorithm="nfdh")
        body["params"] = {"note": "x" * 10_000}
        with _forwarded_headers() as seen:
            status, _, _ = _post(srv, "/solve", body)
        ((_path, headers),) = seen
        assert KEY_HEADER not in headers and TOKEN_HEADER not in headers
        assert status == _post(solo, "/solve", body)[0]


class TestTokenNeverLeaks:
    @pytest.fixture(autouse=True)
    def _restore_logger(self):
        yield
        _reset_logger()

    def test_token_absent_from_headers_logs_metrics_and_traces(self, tmp_path):
        sink = io.StringIO()
        configure_logging("json", stream=sink)
        log_file = tmp_path / "workers.jsonl"
        router = RouterServer(
            workers=2, worker_config={"log_format": "json", "log_file": str(log_file)}
        )
        with InProcessServer(router) as srv:
            token = router._route_token
            seen: list[bytes] = []
            body = _body(seed=110)
            traces = []
            for path, payload in (
                ("/solve", body),
                ("/solve", body),  # a forwarded hit
                ("/portfolio", {"instance": body["instance"], "algorithms": ["ffdh", "nfdh"]}),
                ("/solve", b"{not json"),
            ):
                status, headers, raw = _post(srv, path, payload)
                seen.append(json.dumps(headers).encode() + raw)
                traces.append(headers["X-Repro-Trace"].split(";")[0])
            for trace in traces:
                seen.append(_get(srv, f"/debug/trace/{trace}")[2])
            seen.append(_get(srv, "/metrics")[2])
            seen.append(_get(srv, "/metrics", {"Accept": "text/plain"})[2])
            seen.append(_get(srv, "/healthz")[2])
        assert token and len(token) == 32
        for blob in seen:
            assert token.encode() not in blob
        logged = sink.getvalue()
        assert "request" in logged and token not in logged
        worker_log = log_file.read_text()
        assert worker_log and token not in worker_log


# ----------------------------------------------------------------------
# key agreement and the cost of a forwarded hit
# ----------------------------------------------------------------------

def _variant_bodies():
    plain = st.tuples(
        rect_lists(min_size=1, max_size=8).map(StripPackingInstance),
        st.sampled_from([None, "nfdh", "ffdh", "bottom_left"]),
        st.just(None),
    )
    precedence = st.tuples(
        precedence_instances(max_size=6),
        st.sampled_from([None, "dc", "shelf_next_fit"]),
        st.just(None),
    )
    release = st.tuples(
        release_instances(max_size=6),
        st.sampled_from([None, "aptas", "release_bl"]),
        st.sampled_from([None, {}, {"eps": 0.5}, {"eps": 0.75}, {"eps": 0.5 + 1e-12}]),
    )
    return st.one_of(plain, precedence, release)


class TestKeyAgreement:
    @given(case=_variant_bodies(), shuffle=st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_forwarded_key_equals_the_workers_own_key(self, fleet, case, shuffle):
        _router, srv = fleet
        instance, algorithm, params = case
        data = instance_to_dict(instance)
        shuffle.shuffle(data["rects"])  # the key must not care about order
        body: dict = {"instance": data}
        if algorithm is not None:
            body["algorithm"] = algorithm
        if params is not None and algorithm in (None, "aptas"):
            body["params"] = params
        with _forwarded_headers() as seen:
            status, _, raw = _post(srv, "/solve", body)
        # every miss re-resolves at the worker and answers 500 on a
        # disagreeing key, so a 200 (or a solver's own 422) is agreement
        assert status in (200, 422), raw
        ((_path, headers),) = seen
        assert headers[KEY_HEADER] == _key(body)

    def test_portfolio_key_is_forwarded(self, fleet):
        _router, srv = fleet
        instance = ReleaseInstance(
            [Rect(rid=i, width=0.5, height=0.5, release=0.25 * i) for i in range(4)], K=2
        )
        body = {"instance": instance_to_dict(instance), "algorithms": ["release_bl", "aptas"]}
        with _forwarded_headers() as seen:
            s1, h1, raw1 = _post(srv, "/portfolio", body)
            s2, h2, raw2 = _post(srv, "/portfolio", body)
        assert (s1, s2) == (200, 200) and raw1 == raw2
        assert h2["X-Repro-Cache"] == "hit"
        assert [h[KEY_HEADER] for _p, h in seen] == [_key(body, resolve_portfolio_request)] * 2


class TestForwardedHitCost:
    @pytest.mark.parametrize("n", [20, 20_000])
    def test_forwarded_hit_parses_nothing(self, worker, n):
        """The resolve-once gate: a forwarded hit never decodes the body
        or builds the instance, however large the body is."""
        body = _body(n=n, seed=111, algorithm="ffdh")
        key = _key(body)
        status, h, primed = _post(worker, "/solve", body)
        assert status == 200 and h["X-Repro-Cache"] == "miss"
        forwarded = {KEY_HEADER: key, TOKEN_HEADER: TOKEN}
        with _resolve_spies() as calls:
            status, h, raw = _post(worker, "/solve", body, forwarded)
        assert status == 200 and h["X-Repro-Cache"] == "hit" and raw == primed
        assert calls == {"parse": 0, "instance": 0}
        # control: the spies do see the ordinary path
        with _resolve_spies() as calls:
            status, h, raw = _post(worker, "/solve", body)
        assert h["X-Repro-Cache"] == "hit" and raw == primed
        assert calls == {"parse": 1, "instance": 1}

    def test_forwarded_miss_resolves_once_and_caches_under_its_key(self, worker):
        body = _body(seed=112)
        forwarded = {KEY_HEADER: _key(body), TOKEN_HEADER: TOKEN}
        with _resolve_spies() as calls:
            status, h, raw = _post(worker, "/solve", body, forwarded)
        assert status == 200 and h["X-Repro-Cache"] == "miss"
        assert calls == {"parse": 1, "instance": 1}
        status, h, again = _post(worker, "/solve", body)
        assert h["X-Repro-Cache"] == "hit" and again == raw

    def test_fleet_hit_records_no_resolve_span(self, fleet):
        _router, srv = fleet
        body = _body(seed=113)
        _post(srv, "/solve", body)
        status, headers, _ = _post(srv, "/solve", body)
        assert status == 200 and headers["X-Repro-Cache"] == "hit"
        trace = headers["X-Repro-Trace"].split(";")[0]
        names = [s["name"] for s in json.loads(_get(srv, f"/debug/trace/{trace}")[2])["spans"]]
        assert {"router.parse", "router.key", "router.forward", "cache.lookup"} <= set(names)
        assert "server.resolve" not in names and "router.route" not in names

    def test_fleet_miss_records_one_resolve_span(self, fleet):
        _router, srv = fleet
        status, headers, _ = _post(srv, "/solve", _body(seed=114))
        assert status == 200 and headers["X-Repro-Cache"] == "miss"
        trace = headers["X-Repro-Trace"].split(";")[0]
        names = [s["name"] for s in json.loads(_get(srv, f"/debug/trace/{trace}")[2])["spans"]]
        assert names.count("server.resolve") == 1

    def test_cache_header_and_counters_agree_on_forwarded_hits(self, worker):
        body = _body(seed=115)
        forwarded = {KEY_HEADER: _key(body), TOKEN_HEADER: TOKEN}
        before = json.loads(_get(worker, "/metrics")[2])["cache"]
        sources = [_post(worker, "/solve", body, forwarded)[1]["X-Repro-Cache"] for _ in range(3)]
        after = json.loads(_get(worker, "/metrics")[2])["cache"]
        assert sources == ["miss", "hit", "hit"]
        assert after["hits"] - before["hits"] == 2
        assert after["misses"] - before["misses"] == 1


# ----------------------------------------------------------------------
# fleet == solo: answers, rejections, spill files
# ----------------------------------------------------------------------

def _fleet_and_solo_bodies():
    chain = PrecedenceInstance.without_constraints(
        [Rect(rid=i, width=0.3, height=1.0) for i in range(5)]
    )
    release = ReleaseInstance(
        [Rect(rid=f"r{i}", width=0.5, height=0.4, release=0.3 * i) for i in range(6)], K=2
    )
    return [
        ("/solve", _body(n=30, seed=116, algorithm="bottom_left")),
        ("/solve", {"instance": instance_to_dict(chain)}),
        ("/solve", {"instance": instance_to_dict(release), "params": {"eps": 0.75}}),
        ("/portfolio", {"instance": instance_to_dict(release), "algorithms": ["release_bl"]}),
    ]


class TestFleetMatchesSolo:
    def test_answers_are_byte_identical_to_a_solo_server(self, fleet, solo):
        _router, srv = fleet
        for path, body in _fleet_and_solo_bodies():
            want = _post(solo, path, body)[2]
            miss = _post(srv, path, body)[2]
            hit = _post(srv, path, body)[2]
            assert hit == miss  # a forwarded hit is the primed bytes
            if path == "/solve":
                assert _normalized(miss) == _normalized(want)
            else:
                got, ref = json.loads(miss), json.loads(want)
                for doc in (got, ref):
                    doc["winner"]["report"]["wall_time"] = 0.0
                    for entrant in doc["entrants"]:
                        entrant["wall_time"] = 0.0
                assert got == ref

    @pytest.mark.parametrize(
        "path,raw",
        [
            ("/solve", b'{"instance": {"type": "plain", "rects": '
                       b'[{"id": 0, "width": NaN, "height": 1.0}]}}'),
            ("/solve", b'{"instance": {"type": "plain", "rects": '
                       b'[{"id": 0, "width": 0.5, "height": Infinity}]}}'),
            ("/solve", b'{"instance": {"type": "plain", "rects": '
                       b'[{"id": 0, "width": 0.5, "height": 1.0},'
                       b' {"id": 0, "width": 0.25, "height": 1.0}]}}'),
            ("/solve", b'{"algorithm": "ffdh"}'),
            ("/solve", b'{"instance": {"type": "plain", "rects": []}, "algorithm": "oracle"}'),
            ("/solve", b'{"instance": {"type": "plain", "rects": []}, "algorithm": 5}'),
            ("/solve", b'{"instance": {"type": "plain", "rects": []}, "params": [1]}'),
            ("/solve", b'{"instance": {"type": "plain", "rects": []},'
                       b' "params": {"eps": NaN}}'),
            ("/solve", b"{not json"),
            ("/portfolio", b'{"instance": {"type": "plain", "rects": []}, "algorithms": "ffdh"}'),
            ("/portfolio", b'{"algorithms": ["ffdh"]}'),
        ],
        ids=[
            "nan-width", "inf-height", "duplicate-ids", "missing-instance",
            "unknown-algorithm", "non-string-algorithm", "params-not-object",
            "nan-param", "malformed-json", "portfolio-algorithms", "portfolio-no-instance",
        ],
    )
    def test_rejections_match_a_solo_server(self, fleet, solo, path, raw):
        _router, srv = fleet
        want_status, _, want = _post(solo, path, raw)
        status, _, got = _post(srv, path, raw)
        assert 400 <= want_status < 500
        assert (status, json.loads(got)) == (want_status, json.loads(want))


class TestOldSpillFiles:
    #: ``result_key`` of ``_spill_body()`` under the ``v:1`` canonical form.
    V1_KEY = "63fd22dbafa5f333297ffba29641666d4c963476a4b213bca302df8b1afe90af|nfdh|{}"

    @staticmethod
    def _spill_body():
        rects = [
            Rect(rid="a", width=0.5, height=1.0),
            Rect(rid="b", width=0.25, height=0.5, release=1.0),
            Rect(rid="c", width=0.75, height=0.25),
        ]
        return {"instance": instance_to_dict(StripPackingInstance(rects)), "algorithm": "nfdh"}

    def test_v1_spill_entries_read_as_counted_misses(self, tmp_path):
        stale = b'{"stale": true}'
        ResultCache(max_bytes=0, spill_dir=tmp_path).put(self.V1_KEY, stale)
        assert len(list(tmp_path.iterdir())) == 1
        body = self._spill_body()
        assert _key(body) != self.V1_KEY
        cache = ResultCache(spill_dir=tmp_path)
        assert cache.get(_key(body)) is None
        stats = cache.stats()
        assert (stats.misses, stats.corruptions, stats.spill_hits) == (1, 0, 0)
        with InProcessServer(SolveServer(cache_dir=tmp_path)) as srv:
            status, headers, raw = _post(srv, "/solve", body)
            metrics = json.loads(_get(srv, "/metrics")[2])["cache"]
        assert status == 200 and headers["X-Repro-Cache"] == "miss"
        assert b"stale" not in raw and json.loads(raw)["report"]["valid"] is True
        assert metrics["misses"] == 1 and metrics["corruptions"] == 0


def test_concurrent_forwarded_hits_on_one_key(worker):
    """Forwarded requests coalesce on the forwarded key like any other."""
    body = _body(n=200, seed=117, algorithm="bottom_left")
    forwarded = {KEY_HEADER: _key(body), TOKEN_HEADER: TOKEN}
    sources: list[str] = []
    lock = threading.Lock()

    def hammer():
        status, headers, _ = _post(worker, "/solve", body, forwarded)
        with lock:
            sources.append(headers.get("X-Repro-Cache") if status == 200 else str(status))

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sources.count("miss") == 1
    assert set(sources) <= {"miss", "hit", "coalesced"}


# ----------------------------------------------------------------------
# the router's resolve builds no Rect
# ----------------------------------------------------------------------

@contextmanager
def _rect_constructions():
    """Count ``Rect`` objects built in this process (the router's side
    of a fleet; workers run in their own processes)."""
    built = {"n": 0}
    original = Rect.__post_init__

    def counted(self):
        built["n"] += 1
        original(self)

    with mock.patch.object(Rect, "__post_init__", counted):
        yield built


def _column_bodies():
    uniform = PrecedenceInstance(
        [Rect(rid=f"u{i}", width=0.3, height=1.0) for i in range(6)],
        TaskDAG.chain(
            [f"u{i}" for i in range(6)]
        ),
    )
    release = ReleaseInstance(
        [Rect(rid=i, width=0.5, height=0.4, release=0.25 * i) for i in range(8)], K=2
    )
    return [
        ("plain", _body(n=300, seed=118, algorithm="ffdh")),
        ("release", {"instance": instance_to_dict(release), "algorithm": "release_bl"}),
        # No algorithm: the default reads the DAG and uniform_height().
        ("defaulted-precedence", {"instance": instance_to_dict(uniform)}),
    ]


@pytest.mark.parametrize("case", _column_bodies(), ids=lambda case: case[0])
def test_router_resolve_builds_no_rect(fleet, case):
    _name, body = case
    raw = json.dumps(body).encode()
    with _rect_constructions() as built:
        first = _post(fleet[1], "/solve", raw)
        second = _post(fleet[1], "/solve", raw)
    assert first[0] == second[0] == 200
    assert second[1]["X-Repro-Cache"] == "hit" and second[2] == first[2]
    assert built["n"] == 0


def test_resolve_builds_rects_only_when_the_solve_reads_them():
    body = _body(n=50, seed=119)
    with _rect_constructions() as built:
        _key, name, params, instance = resolve_solve_request(body)
        assert built["n"] == 0
        instance.rects
        assert built["n"] == 50


# ----------------------------------------------------------------------
# hostile bodies: never a 500
# ----------------------------------------------------------------------

DEEP_BODIES = [b"[" * 200_000, b'{"a": ' * 100_000, b'{"instance": ' + b"[" * 200_000]


@pytest.mark.parametrize("raw", DEEP_BODIES, ids=["array", "object", "nested-instance"])
def test_deeply_nested_bodies_are_a_400_everywhere(fleet, solo, raw):
    for srv in (fleet[1], solo):
        for path in ("/solve", "/portfolio"):
            status, _, payload = _post(srv, path, raw)
            assert status == 400, (srv, path, payload)
            assert json.loads(payload)["error"] == "malformed JSON body: nested too deeply"
        status, _, created = _post(srv, "/session", {})
        assert status == 200
        sid = json.loads(created)["session"]["id"]
        status, _, payload = _post(srv, f"/session/{sid}/step", raw)
        assert status == 400, (srv, payload)


@pytest.mark.parametrize(
    "instance",
    [
        b'{"type": "plain", "rects": [{"id": 0, "width": 1' + b"0" * 400 + b', "height": 1}]}',
        b'{"type": "release", "K": Infinity, "rects": [{"id": 0, "width": 0.5, "height": 1}]}',
    ],
    ids=["huge-int-width", "infinite-K"],
)
def test_overflowing_numbers_are_a_422_not_a_500(fleet, solo, instance):
    for srv in (fleet[1], solo):
        status, _, payload = _post(srv, "/solve", b'{"instance": ' + instance + b"}")
        assert status == 422, payload
        assert json.loads(payload)["error"].startswith("invalid instance: ")
